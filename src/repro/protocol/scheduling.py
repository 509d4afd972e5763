"""Message, airtime, and energy accounting: scheduled vs. concurrent.

Implements the cost model behind the paper's scalability argument
(Sect. I/III/VIII): scheduled SS-TWR needs ``N * (N - 1)`` messages for
all N nodes to range with each other, while a concurrent-ranging
initiator "has to broadcast just one message and ... receive just a
single message that aggregates all responses".  The functions here count
messages (paper convention), physical transmissions, sequential channel
slots, airtime, round duration, and energy (at the paper's 155 mA RX /
90 mA TX currents) for both schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    DELTA_RESP_S,
    RX_CURRENT_A,
    SUPPLY_VOLTAGE_V,
    TX_CURRENT_A,
)
from repro.protocol.messages import INIT_PAYLOAD_BYTES, RESP_PAYLOAD_BYTES
from repro.radio.frame import RadioConfig, frame_duration

#: Scheduling gap between consecutive exchanges in the scheduled scheme
#: (guard time for turnaround and processing).
SCHEDULING_GAP_S = 400e-6


@dataclass(frozen=True)
class RoundCost:
    """Cost of one full network-ranging round.

    Attributes
    ----------
    messages:
        Messages in the paper's counting: an aggregated concurrent
        response counts as *one* message at the initiator, so a
        full-network concurrent round costs ``2 N`` against the
        scheduled scheme's ``N (N - 1)``.
    transmissions:
        Physical frames put on the air (each concurrent responder still
        keys its radio once).
    channel_slots:
        Sequential channel-occupancy slots; overlapping concurrent
        responses share a slot.
    duration_s:
        Wall-clock duration of the round.
    tx_time_s / rx_time_s:
        Network-wide radio-on time per mode.
    """

    scheme: str
    n_nodes: int
    messages: int
    transmissions: int
    channel_slots: int
    duration_s: float
    tx_time_s: float
    rx_time_s: float

    @property
    def energy_j(self) -> float:
        """Network-wide radio energy at the DW1000 currents."""
        return (
            self.tx_time_s * TX_CURRENT_A + self.rx_time_s * RX_CURRENT_A
        ) * SUPPLY_VOLTAGE_V


def _frame_times(config: RadioConfig) -> tuple[float, float]:
    """(INIT airtime, RESP airtime) for a PHY configuration."""
    init_s = frame_duration(config, INIT_PAYLOAD_BYTES).total_s
    resp_s = frame_duration(config, RESP_PAYLOAD_BYTES).total_s
    return init_s, resp_s


def scheduled_round_cost(
    n_nodes: int,
    config: RadioConfig | None = None,
    full_network: bool = True,
) -> RoundCost:
    """Cost of scheduled SS-TWR ranging.

    ``full_network=True`` is the paper's headline case: every pair of
    nodes exchanges INIT/RESP, giving ``N * (N - 1)`` messages in total
    ("each node requires N - 1 transmissions and receptions").  With
    ``False``, a single initiator ranges to its ``N - 1`` neighbours
    (``2 * (N - 1)`` messages).
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    config = config or RadioConfig()
    init_s, resp_s = _frame_times(config)
    exchange_s = init_s + DELTA_RESP_S + resp_s

    exchanges = (
        n_nodes * (n_nodes - 1) // 2 if full_network else (n_nodes - 1)
    )
    messages = 2 * exchanges
    duration = exchanges * (exchange_s + SCHEDULING_GAP_S)
    tx_time = exchanges * (init_s + resp_s)
    # Each frame is received by one peer; the initiator also listens
    # through the reply delay.
    rx_time = exchanges * (init_s + resp_s + DELTA_RESP_S)
    return RoundCost(
        scheme="scheduled",
        n_nodes=n_nodes,
        messages=messages,
        transmissions=messages,
        channel_slots=messages,
        duration_s=duration,
        tx_time_s=tx_time,
        rx_time_s=rx_time,
    )


def concurrent_round_cost(
    n_nodes: int,
    config: RadioConfig | None = None,
    full_network: bool = True,
) -> RoundCost:
    """Cost of concurrent ranging.

    Per round: one INIT broadcast, ``N - 1`` simultaneous RESP
    transmissions that the initiator receives as a *single* aggregate
    message occupying a single channel slot.  ``full_network=True``
    repeats the round with every node as initiator.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    config = config or RadioConfig()
    init_s, resp_s = _frame_times(config)
    round_s = init_s + DELTA_RESP_S + resp_s

    rounds = n_nodes if full_network else 1
    responders = n_nodes - 1
    return RoundCost(
        scheme="concurrent",
        n_nodes=n_nodes,
        messages=rounds * 2,  # INIT + one aggregate RESP per round
        transmissions=rounds * (1 + responders),
        channel_slots=rounds * 2,
        duration_s=rounds * (round_s + SCHEDULING_GAP_S),
        tx_time_s=rounds * (init_s + responders * resp_s),
        rx_time_s=rounds * (responders * init_s + resp_s + DELTA_RESP_S),
    )


def network_sweep(
    node_counts,
    config: RadioConfig | None = None,
) -> list[tuple[RoundCost, RoundCost]]:
    """(scheduled, concurrent) cost pairs over a range of network sizes."""
    config = config or RadioConfig()
    return [
        (
            scheduled_round_cost(n, config),
            concurrent_round_cost(n, config),
        )
        for n in node_counts
    ]
