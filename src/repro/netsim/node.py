"""Network nodes: a position, a radio, and an identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.geometry import Point
from repro.radio.dw1000 import DW1000Radio
from repro.radio.energy import RadioState
from repro.radio.frame import RadioConfig
from repro.radio.timebase import Clock


@dataclass
class Node:
    """A UWB node in the simulated network.

    Each node owns a DW1000 radio (with its own clock, registers, and
    energy meter) and a fixed 2-D position.
    """

    node_id: int
    position: Point
    radio: DW1000Radio

    @classmethod
    def at(
        cls,
        node_id: int,
        x: float,
        y: float,
        rng: np.random.Generator | None = None,
        config: RadioConfig | None = None,
    ) -> "Node":
        """Create a node at a position with a randomly drifting clock.

        Without an ``rng`` the clock is ideal (useful for unit tests);
        with one, the crystal gets a realistic ppm-scale offset.
        """
        clock = Clock.random(rng) if rng is not None else Clock()
        return cls(
            node_id=node_id,
            position=Point(x, y),
            radio=DW1000Radio(config=config, clock=clock),
        )

    def distance_to(self, other: "Node") -> float:
        """True geometric distance to another node [m]."""
        return self.position.distance_to(other.position)

    def account_tx(self, duration_s: float) -> None:
        """Charge a transmission to this node's energy meter."""
        self.radio.energy.account(RadioState.TX, duration_s)

    def account_rx(self, duration_s: float) -> None:
        """Charge a reception (or receive listening) to the meter."""
        self.radio.energy.account(RadioState.RX, duration_s)
