"""Defenses against UWB distance-manipulation attacks.

Two complementary mechanisms, both living entirely on the initiator
side of the concurrent ranging round:

* **Random time-hopping RPM** (:class:`TimeHoppingConfig`) — every
  responder adds a secret per-(round, responder) jitter to its RPM
  reply slot, derived from a shared secret seed that an attacker does
  not hold (the random-reply-time defense of arXiv 2406.06252, mapped
  onto the paper's response position modulation).  The initiator
  re-derives each expected hop and verifies that every decoded
  response's arrival time is consistent with it: a legitimate reply
  arrives exactly ``2 x time-of-flight`` after its expected zero-range
  instant, so the verification value must land in a narrow physical
  window ``[-early_tolerance, 2 * max_range / c + late_tolerance]``.
  An early reply that cannot include the hop (it is secret) or a ghost
  peak injected ahead of the true leading edge lands outside it.

* **CIR-feature anomaly detection** (:class:`AnomalyDetectorConfig`) —
  flags responses whose decoded identity duplicates another response
  (a forged pulse necessarily duplicates some victim's slot/shape),
  whose template-score margin collapses, or whose tail-to-peak energy
  profile is inconsistent with a physical channel (the CIR-feature
  checks of arXiv 2405.18255, computed on features the pipeline
  already extracts).

:func:`screen_round` applies both to a decoded
:class:`~repro.core.ranging.RangingResult`, removing rejected
responses — a rejected responder therefore reads as a *miss* and flows
into the existing :class:`~repro.protocol.campaign.ResiliencePolicy`
quarantine machinery — and returning a :class:`DefenseReport` with the
per-response flags.  All configuration is validated eagerly at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.ranging import RangingResult

__all__ = [
    "AnomalyDetectorConfig",
    "DefenseFlag",
    "DefensePlan",
    "DefenseReport",
    "TimeHoppingConfig",
    "screen_responses",
    "screen_round",
]

#: Relative amplitude below which a duplicate-identity response is
#: treated as a misread multipath echo rather than a credible attack
#: pulse and skipped by time-hopping verification (see
#: ``screen_round``).
WEAK_DUPLICATE_RATIO = 0.6


@dataclass(frozen=True)
class TimeHoppingConfig:
    """Secret per-round reply-slot jitter plus its verification window.

    Parameters
    ----------
    secret_seed:
        Shared secret between initiator and legitimate responders (an
        int or a tuple of ints).  The hop for ``(round, responder)`` is
        drawn from a stream seeded by ``(secret, round, responder)``
        only — never from the simulation's own generators — so both
        sides derive identical hops statelessly and an attacker without
        the secret cannot predict them.
    hop_range_s:
        Hops are uniform in ``[0, hop_range_s)``.  Must stay well below
        the RPM slot duration so hopped replies cannot alias into the
        next slot.  ``0`` disables hopping but keeps window
        verification active.
    early_tolerance_s:
        Slack below the zero-range arrival instant.  Must cover the
        ~8 ns delayed-TX quantisation floor (the programmed reply time
        is floored to the hardware grid, so legitimate replies arrive
        up to one grid step *early*) plus receive timestamp jitter.
    late_tolerance_s:
        Slack above the maximum-range arrival instant.
    max_range_m:
        Largest legitimate operating range; replies later than
        ``2 * max_range_m / c`` past their expected instant are flagged.
    """

    secret_seed: object = 0
    hop_range_s: float = 60e-9
    early_tolerance_s: float = 10e-9
    late_tolerance_s: float = 10e-9
    max_range_m: float = 30.0

    def __post_init__(self) -> None:
        for name in ("hop_range_s", "early_tolerance_s", "late_tolerance_s"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not self.max_range_m > 0.0:
            raise ValueError(
                f"max_range_m must be positive, got {self.max_range_m}"
            )
        try:
            np.random.SeedSequence(self._entropy(0, 0))
        except (TypeError, ValueError) as error:
            raise ValueError(
                "secret_seed must be an int or a sequence of ints, got "
                f"{self.secret_seed!r}: {error}"
            ) from error

    def _entropy(self, round_index: int, responder_id: int) -> tuple:
        secret = self.secret_seed
        if isinstance(secret, (int, np.integer)):
            base: tuple = (int(secret),)
        else:
            base = tuple(int(part) for part in secret)
        return base + (int(round_index), int(responder_id))

    def hop_offset_s(self, round_index: int, responder_id: int) -> float:
        """The secret hop for one (round, responder) pair."""
        if self.hop_range_s <= 0.0:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence(self._entropy(round_index, responder_id))
        )
        return float(rng.uniform(0.0, self.hop_range_s))

    @property
    def window_s(self) -> Tuple[float, float]:
        """Accepted verification-value interval for a legitimate reply."""
        return (
            -self.early_tolerance_s,
            2.0 * self.max_range_m / SPEED_OF_LIGHT + self.late_tolerance_s,
        )


@dataclass(frozen=True)
class AnomalyDetectorConfig:
    """CIR-feature checks on decoded responses.

    Three checks run on every decoded round:

    * **Duplicate identities.**  A forged pulse necessarily collides
      with its victim's (slot, shape) pair, so spoofing shows up as a
      decoded identity on more than one response; all colliding
      readings are rejected (the initiator cannot tell forged from
      genuine within one round).
    * **Score margin** (``min_confidence``), on every response.
    * **Tail-to-peak energy** (``max_tail_peak_ratio``), on the response
      nearest the CIR's global peak only — where tampering concentrates;
      weak multipath rows would otherwise dominate the ratio with their
      neighbours' energy.

    Parameters
    ----------
    dup_min_amplitude_ratio:
        A duplicate group only fires when at least two of its members
        have an estimated amplitude of at least this fraction of the
        group's strongest.  An attack pulse is injected near full
        strength (it must win first-path detection), while a benign
        duplicate — a multipath echo decoding as its own response — is
        much weaker than its direct path; requiring two *strong* copies
        keeps the false-positive rate on clean rounds low.  ``0``
        disables the strength requirement.
    min_confidence:
        Flag responses whose template-score margin (the winning /
        runner-up score ratio, always >= 1) falls below this.  The
        default ``1.0`` disables the check.
    max_tail_peak_ratio:
        Flag responses whose tail-to-peak energy ratio exceeds this
        (``None`` disables).  Reciprocity tampering inflates the
        diffuse tail relative to the peak; physical channels decay.
    tail_start_taps / tail_width_taps / peak_halfwidth_taps:
        Geometry of the energy-profile windows around each response
        peak, in CIR taps.
    """

    dup_min_amplitude_ratio: float = 0.5
    min_confidence: float = 1.0
    max_tail_peak_ratio: Optional[float] = None
    tail_start_taps: int = 4
    tail_width_taps: int = 32
    peak_halfwidth_taps: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.dup_min_amplitude_ratio <= 1.0:
            raise ValueError(
                "dup_min_amplitude_ratio must be in [0, 1], got "
                f"{self.dup_min_amplitude_ratio}"
            )
        if not self.min_confidence >= 1.0:
            raise ValueError(
                "min_confidence must be >= 1 (score margins are), got "
                f"{self.min_confidence}"
            )
        if self.max_tail_peak_ratio is not None and not (
            self.max_tail_peak_ratio > 0.0
        ):
            raise ValueError(
                "max_tail_peak_ratio must be positive or None, got "
                f"{self.max_tail_peak_ratio}"
            )
        for name in ("tail_start_taps", "tail_width_taps"):
            if int(getattr(self, name)) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if int(self.peak_halfwidth_taps) < 0:
            raise ValueError(
                "peak_halfwidth_taps must be >= 0, got "
                f"{self.peak_halfwidth_taps}"
            )

    def tail_peak_ratio(
        self, samples: np.ndarray, peak_index: int
    ) -> float:
        """Tail energy over peak energy around one response position."""
        magnitude_sq = np.abs(samples) ** 2
        n = len(magnitude_sq)
        peak_index = int(np.clip(peak_index, 0, max(n - 1, 0)))
        halfwidth = int(self.peak_halfwidth_taps)
        peak_lo = max(0, peak_index - halfwidth)
        peak_hi = min(n, peak_index + halfwidth + 1)
        peak_energy = float(np.sum(magnitude_sq[peak_lo:peak_hi]))
        tail_lo = min(n, peak_index + int(self.tail_start_taps))
        tail_hi = min(n, tail_lo + int(self.tail_width_taps))
        tail_energy = float(np.sum(magnitude_sq[tail_lo:tail_hi]))
        if peak_energy <= 0.0:
            return float("inf") if tail_energy > 0.0 else 0.0
        return tail_energy / peak_energy


def _cir_checks(
    anomaly: AnomalyDetectorConfig, samples: np.ndarray, responses
) -> List[Tuple[int, str, float]]:
    """The anomaly checks that need nothing but the CIR.

    Returns ``(position, reason, value)`` for every response that fails
    the score-margin (``low_confidence``) or the tail-to-peak energy
    (``tail_energy``) check, in that order.  Responses are bare
    :class:`~repro.core.detection.DetectedResponse` objects or
    :class:`~repro.core.pulse_id.ClassifiedResponse` wrappers; both
    expose ``index``, and only the latter carries a ``confidence``.
    """
    failed: List[Tuple[int, str, float]] = []
    if anomaly.min_confidence > 1.0:
        for position, response in enumerate(responses):
            confidence = getattr(response, "confidence", None)
            if (
                confidence is not None
                and confidence < anomaly.min_confidence
            ):
                failed.append(
                    (position, "low_confidence", float(confidence))
                )
    if anomaly.max_tail_peak_ratio is not None:
        global_peak = int(np.argmax(np.abs(samples)))
        position = min(
            range(len(responses)),
            key=lambda p: abs(float(responses[p].index) - global_peak),
        )
        ratio = anomaly.tail_peak_ratio(
            samples, int(round(float(responses[position].index)))
        )
        if ratio > anomaly.max_tail_peak_ratio:
            failed.append((position, "tail_energy", ratio))
    return failed


@dataclass(frozen=True)
class DefenseFlag:
    """One anomaly raised by the defense screen.

    ``responder_id`` is the decoded identity the flag is attributed to
    (``None`` for round-level flags); ``value`` is the offending
    measurement (verification value in seconds, score margin, or energy
    ratio, depending on ``reason``).
    """

    responder_id: Optional[int]
    reason: str
    value: float


@dataclass(frozen=True)
class DefenseReport:
    """What the defense screen did to one round."""

    #: All anomalies raised, in detection order.
    flags: Tuple[DefenseFlag, ...] = ()
    #: Responses that went through time-hopping verification.
    checked: int = 0
    #: Decoded identities whose responses were rejected (sorted).
    rejected_ids: Tuple[int, ...] = ()
    #: Responses removed from the ranging result.
    rejected_responses: int = 0

    @property
    def triggered(self) -> bool:
        return len(self.flags) > 0


@dataclass(frozen=True)
class DefensePlan:
    """The initiator's active defenses (either part may be ``None``)."""

    time_hopping: Optional[TimeHoppingConfig] = None
    anomaly: Optional[AnomalyDetectorConfig] = None

    def __post_init__(self) -> None:
        if self.time_hopping is not None and not isinstance(
            self.time_hopping, TimeHoppingConfig
        ):
            raise TypeError(
                "time_hopping must be a TimeHoppingConfig or None, got "
                f"{type(self.time_hopping).__name__}"
            )
        if self.anomaly is not None and not isinstance(
            self.anomaly, AnomalyDetectorConfig
        ):
            raise TypeError(
                "anomaly must be an AnomalyDetectorConfig or None, got "
                f"{type(self.anomaly).__name__}"
            )

    def hop_offset_s(self, round_index: int, responder_id: int) -> float:
        """Secret hop for a responder this round (0 without hopping)."""
        if self.time_hopping is None:
            return 0.0
        return self.time_hopping.hop_offset_s(round_index, responder_id)


def screen_responses(
    plan: DefensePlan,
    cir: np.ndarray,
    responses,
) -> List[DefenseFlag]:
    """The session-free subset of the defense screen, for the serve layer.

    The streaming service sees bare CIRs and decoded responses — no
    capture timestamps, no RPM assignment, no responder identities — so
    only the anomaly checks that need nothing but the CIR apply: the
    template-score-margin (``min_confidence``) and tail-to-peak energy
    (``max_tail_peak_ratio``) checks.  Returns the flags raised;
    deciding what to do with them is the caller's business (the service
    *annotates* outcomes rather than mutating them, preserving
    streaming == offline equality).
    """
    anomaly = plan.anomaly
    if anomaly is None or not len(responses):
        return []
    return [
        DefenseFlag(responder_id=None, reason=reason, value=value)
        for _, reason, value in _cir_checks(
            anomaly, np.asarray(cir), responses
        )
    ]


def screen_round(
    plan: DefensePlan,
    *,
    ranging: RangingResult,
    capture,
    t_tx_init_local_s: float,
    reply_delay_s: float,
    assignment_fn: Callable,
    round_index: int,
) -> Tuple[RangingResult, DefenseReport]:
    """Verify one decoded round against the active defenses.

    For every decoded response the arrival instant (initiator clock) is
    reconstructed from the capture timestamp and the response's CIR
    position; subtracting the INIT transmit time, the nominal reply
    delay, the RPM slot delay of the *decoded* identity, and that
    identity's secret hop leaves the verification value ``v`` — for a
    legitimate reply exactly the two-way time of flight, which must lie
    in :attr:`TimeHoppingConfig.window_s`.  Anomaly checks then flag
    duplicate identities, collapsed score margins, and non-physical
    energy profiles.  Rejected responses are removed from the returned
    :class:`~repro.core.ranging.RangingResult`; callers see the
    affected responders as misses.
    """
    responses = ranging.responses
    ids = ranging.responder_ids
    flags: List[DefenseFlag] = []
    reject: set = set()
    checked = 0

    hopping = plan.time_hopping
    if (
        hopping is not None
        and hopping.hop_range_s > 0.0
        and len(responses)
        and ids[0] is not None
    ):
        # De-hop the decoded distances: every response's CIR offset to
        # the anchor carries (hop_i - hop_anchor), which the initiator
        # — knowing the secret — removes before using the distances.
        anchor_hop_s = hopping.hop_offset_s(round_index, ids[0])
        corrected = tuple(
            distance
            if rid is None
            else distance
            - (hopping.hop_offset_s(round_index, rid) - anchor_hop_s)
            * SPEED_OF_LIGHT
            / 2.0
            for rid, distance in zip(ids, ranging.distances_m)
        )
        ranging = RangingResult(
            d_twr_m=ranging.d_twr_m,
            responses=responses,
            distances_m=corrected,
            responder_ids=ids,
        )

    # The search-and-subtract amplitude estimate may be complex.
    amplitudes = [float(abs(response.amplitude)) for response in responses]
    id_positions: Dict[int, List[int]] = {}
    for position, rid in enumerate(ids):
        if rid is not None:
            id_positions.setdefault(rid, []).append(position)

    def _weak_duplicate(position: int) -> bool:
        """A weak copy of an identity that also appears on a stronger
        response — a misread multipath echo, not a credible attack
        pulse (an attacker's pulse must be strong to claim an identity
        or win first-path detection).  The duplicate check governs
        these groups; verifying their hops against the wrong identity
        would only raise false alarms."""
        rid = ids[position]
        if rid is None:
            return False
        group = id_positions[rid]
        if len(group) < 2:
            return False
        strongest = max(amplitudes[p] for p in group)
        return amplitudes[position] < WEAK_DUPLICATE_RATIO * strongest

    if hopping is not None and len(responses):
        lo, hi = hopping.window_s
        period_s = capture.sampling_period_s
        for position, (response, rid) in enumerate(zip(responses, ids)):
            if rid is None or _weak_duplicate(position):
                continue
            try:
                assignment = assignment_fn(rid)
            except ValueError:
                continue
            arrival_local_s = capture.rx_timestamp_s + (
                response.index - capture.first_path_index
            ) * period_s
            expected_s = (
                t_tx_init_local_s
                + reply_delay_s
                + assignment.extra_delay_s
                + hopping.hop_offset_s(round_index, rid)
            )
            verification_s = arrival_local_s - expected_s
            checked += 1
            if not lo <= verification_s <= hi:
                flags.append(
                    DefenseFlag(
                        responder_id=rid,
                        reason="hop_window",
                        value=verification_s,
                    )
                )
                reject.add(position)

    anomaly = plan.anomaly
    if anomaly is not None and len(responses):
        for rid, positions in id_positions.items():
            if len(positions) < 2:
                continue
            strongest = max(amplitudes[p] for p in positions)
            strong = sum(
                1
                for p in positions
                if strongest <= 0.0
                or amplitudes[p]
                >= anomaly.dup_min_amplitude_ratio * strongest
            )
            if strong < 2:
                continue
            for position in positions:
                flags.append(
                    DefenseFlag(
                        responder_id=rid,
                        reason="duplicate_id",
                        value=float(len(positions)),
                    )
                )
                reject.add(position)
        for position, reason, value in _cir_checks(
            anomaly, capture.samples, responses
        ):
            flags.append(
                DefenseFlag(
                    responder_id=ids[position], reason=reason, value=value
                )
            )
            reject.add(position)

    if reject:
        keep = [p for p in range(len(responses)) if p not in reject]
        ranging = RangingResult(
            d_twr_m=ranging.d_twr_m,
            responses=tuple(responses[p] for p in keep),
            distances_m=tuple(ranging.distances_m[p] for p in keep),
            responder_ids=tuple(ids[p] for p in keep),
        )
    rejected_ids = tuple(
        sorted({ids[p] for p in reject if ids[p] is not None})
    )
    report = DefenseReport(
        flags=tuple(flags),
        checked=checked,
        rejected_ids=rejected_ids,
        rejected_responses=len(reject),
    )
    return ranging, report
