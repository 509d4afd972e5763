"""An anchor network localising a mobile tag via concurrent ranging.

The tag is the *initiator*: one broadcast, one aggregate response, and it
knows its distance to every identified anchor — then multilaterates.
This is the paper's envisioned use: position updates at the cost of two
radio operations instead of ``2 * (N_anchors)`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.channel.geometry import Point
from repro.channel.stochastic import IndoorEnvironment
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.localization.multilateration import (
    MultilaterationResult,
    multilaterate_robust,
)
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.signal.templates import TemplateBank


@dataclass(frozen=True)
class PositionFix:
    """One position estimate plus its provenance."""

    estimate: Point
    true_position: Point
    anchors_used: int
    fit: MultilaterationResult

    @property
    def error_m(self) -> float:
        return self.estimate.distance_to(self.true_position)


class InsufficientAnchorsError(RuntimeError):
    """A round identified fewer than the three anchors a 2-D fix needs."""

    def __init__(self, anchors_used: int) -> None:
        super().__init__(
            f"only {anchors_used} anchors identified — cannot fix a 2-D "
            "position"
        )
        self.anchors_used = anchors_used


class AnchorNetwork:
    """Fixed anchors + a movable tag.

    Parameters
    ----------
    anchor_positions:
        Known anchor coordinates (>= 3 for 2-D fixes).
    environment:
        Channel model for all links.
    n_slots / n_shapes:
        Concurrent-ranging scheme dimensions; capacity must cover the
        anchor count.
    compensate_tx_quantization:
        Forwarded to the ranging session (see there); defaults to True
        because localization accuracy is dominated by this artefact on
        real DW1000s.
    """

    def __init__(
        self,
        anchor_positions: Sequence[Point],
        environment: IndoorEnvironment | None = None,
        n_slots: int = 4,
        n_shapes: int | None = None,
        seed: int | None = None,
        compensate_tx_quantization: bool = True,
    ) -> None:
        if len(anchor_positions) < 3:
            raise ValueError(
                "need >= 3 anchors for 2-D localization, got "
                f"{len(anchor_positions)}"
            )
        self.anchor_positions = list(anchor_positions)
        self.rng = np.random.default_rng(seed)
        self.environment = environment or IndoorEnvironment.office()
        if n_shapes is None:
            n_shapes = max(1, -(-len(anchor_positions) // n_slots))  # ceil div
        if n_slots * n_shapes < len(anchor_positions):
            raise ValueError(
                f"{n_slots} slots x {n_shapes} shapes cannot cover "
                f"{len(anchor_positions)} anchors"
            )
        self._n_slots = n_slots
        self._n_shapes = n_shapes
        self._compensate = compensate_tx_quantization

    def _build_session(self, tag_position: Point) -> ConcurrentRangingSession:
        medium = Medium(environment=self.environment, rng=self.rng)
        tag = Node.at(0, tag_position.x, tag_position.y, rng=self.rng)
        anchors = [
            Node.at(i + 1, p.x, p.y, rng=self.rng)
            for i, p in enumerate(self.anchor_positions)
        ]
        medium.add_nodes([tag] + anchors)
        bank = (
            TemplateBank.paper_bank(self._n_shapes)
            if self._n_shapes <= 4
            else TemplateBank.spread(self._n_shapes)
        )
        scheme = CombinedScheme(
            SlotPlan.for_range(20.0, n_slots=self._n_slots), bank
        )
        return ConcurrentRangingSession(
            medium=medium,
            initiator=tag,
            responders=anchors,
            scheme=scheme,
            # Detect a few extra peaks: a near anchor's strong reflection
            # can out-power a far anchor's direct path (paper challenge
            # IV).  Duplicate decodes within a slot resolve to the
            # earliest response — the direct path always precedes its own
            # reflections — and the SNR gate keeps noise out.
            detector_config=SearchAndSubtractConfig(
                max_responses=len(anchors) + 4,
                upsample_factor=8,
                min_peak_snr=5.0,
            ),
            compensate_tx_quantization=self._compensate,
            rng=self.rng,
        )

    def locate(self, tag_position: Point) -> PositionFix:
        """One concurrent ranging round + multilateration at a position;
        raises :class:`InsufficientAnchorsError` below three anchors."""
        session = self._build_session(tag_position)
        result = session.run_round()

        anchors_used: List[Point] = []
        distances: List[float] = []
        for outcome in result.outcomes:
            if outcome.identified and outcome.estimated_distance_m is not None:
                anchors_used.append(
                    self.anchor_positions[outcome.responder_id]
                )
                distances.append(outcome.estimated_distance_m)
        if len(anchors_used) < 3:
            raise InsufficientAnchorsError(len(anchors_used))
        fit = multilaterate_robust(anchors_used, distances)
        return PositionFix(
            estimate=fit.position,
            true_position=tag_position,
            anchors_used=len(anchors_used),
            fit=fit,
        )

    def track(self, trajectory: Sequence[Point]) -> List[PositionFix]:
        """Localize the tag along a trajectory, one round per waypoint."""
        return [self.locate(p) for p in trajectory]
