"""Combined RPM x pulse shaping scheme (paper Sect. VIII).

Response position modulation alone supports only ``N_RPM`` responders;
pulse shaping alone cannot separate overlapping responses.  Combining
them yields ``N_max = N_RPM * N_PS`` responders: the responder ID selects
a slot (``ID % N_RPM``) and a pulse shape within the slot.

The paper prints the shape rule as ``n_PS = floor(ID / N_PS)``; for the
mapping to be a bijection onto (slot, shape) pairs the divisor must be
``N_RPM`` (and the result reduced modulo ``N_PS``), which is what we
implement:

    slot  = ID %  N_RPM
    shape = (ID // N_RPM) % N_PS

Decoding inverts it: ``ID = shape * N_RPM + slot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constants import SPEED_OF_LIGHT
from repro.core.pulse_id import ClassifiedResponse
from repro.core.ranging import RangingResult
from repro.core.rpm import SlotPlan
from repro.signal.templates import TemplateBank


@dataclass(frozen=True)
class ResponderAssignment:
    """Slot, shape, and TX parameters derived from a responder ID."""

    responder_id: int
    slot: int
    shape_index: int
    extra_delay_s: float
    register: int

    @property
    def shape_name(self) -> str:
        return f"s{self.shape_index + 1}"


class CombinedScheme:
    """ID <-> (slot, pulse shape) mapping plus CIR decoding."""

    def __init__(self, slot_plan: SlotPlan, bank: TemplateBank) -> None:
        self.slot_plan = slot_plan
        self.bank = bank

    @property
    def n_slots(self) -> int:
        return self.slot_plan.n_slots

    @property
    def n_shapes(self) -> int:
        return len(self.bank)

    @property
    def capacity(self) -> int:
        """Maximum concurrent responders: ``N_RPM * N_PS``."""
        return self.n_slots * self.n_shapes

    # -- encoding ---------------------------------------------------------

    def assignment(self, responder_id: int) -> ResponderAssignment:
        """TX parameters for a responder ID (paper Sect. VIII mapping)."""
        if not 0 <= responder_id < self.capacity:
            raise ValueError(
                f"responder ID {responder_id} exceeds scheme capacity "
                f"{self.capacity} ({self.n_slots} slots x {self.n_shapes} shapes)"
            )
        slot = responder_id % self.n_slots
        shape = (responder_id // self.n_slots) % self.n_shapes
        return ResponderAssignment(
            responder_id=responder_id,
            slot=slot,
            shape_index=shape,
            extra_delay_s=self.slot_plan.delay_for_slot(slot),
            register=self.bank.registers[shape],
        )

    def decode_id(self, slot: int, shape_index: int) -> int:
        """Responder ID from an observed (slot, shape) pair."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range 0..{self.n_slots - 1}")
        if not 0 <= shape_index < self.n_shapes:
            raise ValueError(
                f"shape {shape_index} out of range 0..{self.n_shapes - 1}"
            )
        return shape_index * self.n_slots + slot

    # -- decoding ---------------------------------------------------------

    def decode_responses(
        self,
        classified: Sequence[ClassifiedResponse],
        d_twr_m: float,
        anchor_slot: int = 0,
    ) -> RangingResult:
        """Turn classified CIR responses into (ID, distance) pairs.

        The earliest response anchors the decode at distance ``d_twr_m``
        (it belongs to the responder whose payload the initiator
        decoded).  Every other response's offset to the anchor splits
        into a slot index and a residual; the residual converts to
        distance through Eq. 4 and the (slot, decoded shape) pair
        converts to the responder ID.

        ``anchor_slot`` is the slot the anchor responder occupies; the
        initiator learns it from the decoded payload of the
        first-arriving response and shifts every decoded slot by it, so
        the lowest occupied slot may be any ``k`` (a silent slot-0
        responder, or a swarm round polling an arbitrary window).
        """
        if not 0 <= anchor_slot < self.n_slots:
            raise ValueError(
                f"anchor slot {anchor_slot} out of range "
                f"0..{self.n_slots - 1}"
            )
        ordered = sorted(classified, key=lambda c: c.delay_s)
        if not ordered:
            return RangingResult(
                d_twr_m=d_twr_m, responses=(), distances_m=(), responder_ids=()
            )
        anchor_delay = ordered[0].delay_s
        distances: List[float] = []
        ids: List[int] = []
        for response in ordered:
            offset = response.delay_s - anchor_delay
            # Relative slot (offsets are to the anchor, the lowest
            # occupied slot), clamped so ``anchor_slot + relative``
            # stays a valid absolute slot.  It *rounds* rather than
            # floors: the anchor sits at its slot's reference position
            # and same-slot responders deviate to both sides (closer
            # ones arrive earlier, farther ones later), so the decode is
            # unambiguous while the round-trip excess stays within half
            # a slot.  The residual encodes distance (Eq. 4) and is
            # negative for a responder closer than the anchor.
            relative = int(round(offset / self.slot_plan.slot_duration_s))
            relative = max(0, min(relative, self.n_slots - 1 - anchor_slot))
            residual = offset - relative * self.slot_plan.slot_duration_s
            distances.append(d_twr_m + residual * SPEED_OF_LIGHT / 2.0)
            ids.append(
                self.decode_id(anchor_slot + relative, response.shape_index)
            )
        return RangingResult(
            d_twr_m=d_twr_m,
            responses=tuple(ordered),
            distances_m=tuple(distances),
            responder_ids=tuple(ids),
        )
