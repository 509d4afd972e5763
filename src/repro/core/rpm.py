"""Response position modulation (paper Sect. VII).

Each responder ``i`` adds an individual delay ``delta_i`` on top of the
common response delay, spreading responses (and their multipath tails)
across the CIR.  The CIR fits ``delta_max ~= 1017 ns`` of extra delay
(1016 taps x 1.0016 ns), i.e. ~305 m of equivalent offset, which bounds
how many non-overlapping slots exist for a given communication range.

A note on slot sizing.  The paper computes the slot count as
``N_RPM = delta_max * c / r_max`` (~4 slots at r_max = 75 m, >15 at
20 m).  Strictly, a response's position inside the CIR moves by *twice*
the responder's excess one-way delay (Eq. 4), so a slot that must contain
responders anywhere in ``[0, r_max]`` needs ``2 * r_max / c`` of width
plus a guard for the multipath tail.  We implement both: ``mode="paper"``
reproduces the paper's arithmetic (and its scalability numbers), and
``mode="safe"`` applies the round-trip factor and a delay-spread guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    RPM_MAX_OFFSET_M,
    RPM_MAX_OFFSET_S,
    SPEED_OF_LIGHT,
)

#: Default guard time for the multipath tail of each slot [s] (matches the
#: diffuse decay observed indoors; see repro.channel.cir.DIFFUSE_DECAY_NS).
DEFAULT_GUARD_S = 60e-9

VALID_MODES = ("paper", "safe")


def paper_slot_count(r_max_m: float) -> int:
    """Slot count per the paper's formula ``delta_max * c / r_max``.

    ~4 at r_max = 75 m and >15 at r_max = 20 m, matching Sect. VIII.
    """
    if r_max_m <= 0:
        raise ValueError(f"communication range must be positive, got {r_max_m}")
    return max(1, int(RPM_MAX_OFFSET_M / r_max_m))


def safe_slot_count(r_max_m: float, guard_s: float = DEFAULT_GUARD_S) -> int:
    """Physically conservative slot count.

    Each slot must hold the round-trip excess delay of the farthest
    responder (``2 r_max / c``) plus a guard for the multipath tail.
    """
    if r_max_m <= 0:
        raise ValueError(f"communication range must be positive, got {r_max_m}")
    if guard_s < 0:
        raise ValueError(f"guard must be non-negative, got {guard_s}")
    slot = 2.0 * r_max_m / SPEED_OF_LIGHT + guard_s
    return max(1, int(RPM_MAX_OFFSET_S / slot))


@dataclass(frozen=True)
class SlotPlan:
    """A concrete division of the CIR into RPM slots.

    ``slot_duration_s`` is the extra TX delay step between adjacent
    slots; responder in slot ``k`` adds ``k * slot_duration_s``.
    """

    n_slots: int
    slot_duration_s: float

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError(f"need at least one slot, got {self.n_slots}")
        if self.slot_duration_s <= 0:
            raise ValueError(
                f"slot duration must be positive, got {self.slot_duration_s}"
            )
        if self.n_slots * self.slot_duration_s > RPM_MAX_OFFSET_S * (1 + 1e-9):
            raise ValueError(
                f"{self.n_slots} slots of {self.slot_duration_s * 1e9:.1f} ns "
                f"exceed the CIR extent ({RPM_MAX_OFFSET_S * 1e9:.0f} ns)"
            )

    @classmethod
    def for_range(
        cls,
        r_max_m: float,
        mode: str = "paper",
        guard_s: float = DEFAULT_GUARD_S,
        n_slots: int | None = None,
    ) -> "SlotPlan":
        """Build a plan for a maximum communication range.

        ``mode="paper"`` uses the paper's slot count and divides the CIR
        evenly; ``mode="safe"`` uses round-trip-sized slots.  An explicit
        ``n_slots`` overrides the derived count (but keeps the division
        of the full CIR extent).
        """
        if mode not in VALID_MODES:
            raise ValueError(f"mode must be one of {VALID_MODES}, got {mode!r}")
        if n_slots is None:
            n_slots = (
                paper_slot_count(r_max_m)
                if mode == "paper"
                else safe_slot_count(r_max_m, guard_s)
            )
        return cls(
            n_slots=n_slots,
            slot_duration_s=RPM_MAX_OFFSET_S / n_slots,
        )

    def delay_for_slot(self, slot: int) -> float:
        """Extra response delay ``delta_i`` for a slot index."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range 0..{self.n_slots - 1}")
        return slot * self.slot_duration_s
