"""IEEE 802.15.4 UWB frame structure and airtime computation.

Reproduces the timing arithmetic of the paper's Sect. III: the frame is
``preamble | SFD | PHR | payload`` (Fig. 3); the RMARKER timestamp sits at
the start of the PHR; and the minimum response delay is the INIT frame's
PHR + payload plus the RESP frame's preamble + SFD — 178.5 µs at
DR = 6.8 Mbps, PRF = 64 MHz, PSR = 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.constants import (
    PREAMBLE_SYMBOL_PRF16_S,
    PREAMBLE_SYMBOL_PRF64_S,
    RX_TX_TURNAROUND_S,
    TC_PGDELAY_DEFAULT,
)


class DataRate(Enum):
    """DW1000 payload data rates."""

    DR_110KBPS = "110kbps"
    DR_850KBPS = "850kbps"
    DR_6800KBPS = "6.8Mbps"


class Prf(Enum):
    """Pulse repetition frequency."""

    PRF_16MHZ = 16
    PRF_64MHZ = 64


#: Payload symbol duration per data rate [s] (802.15.4 UWB: 8205.13 ns,
#: 1025.64 ns, and 128.21 ns respectively).
_DATA_SYMBOL_S = {
    DataRate.DR_110KBPS: 8205.13e-9,
    DataRate.DR_850KBPS: 1025.64e-9,
    DataRate.DR_6800KBPS: 128.21e-9,
}

#: PHR symbol duration per data rate [s].  For the 850 kbps and 6.8 Mbps
#: modes the PHR is always sent at the 850 kbps symbol duration; at
#: 110 kbps it uses the 110 kbps duration.
_PHR_SYMBOL_S = {
    DataRate.DR_110KBPS: 8205.13e-9,
    DataRate.DR_850KBPS: 1025.64e-9,
    DataRate.DR_6800KBPS: 1025.64e-9,
}

#: Number of PHR symbols (19 bits, one symbol each: 13 header + 6 SECDED).
PHR_SYMBOLS = 19

#: SFD length in preamble symbols per data rate (DW1000 recommended
#: values: long SFD at 110 kbps, short otherwise).
_SFD_SYMBOLS = {
    DataRate.DR_110KBPS: 64,
    DataRate.DR_850KBPS: 16,
    DataRate.DR_6800KBPS: 8,
}

#: Reed-Solomon RS(63, 55) adds 48 parity bits per 330-bit payload block.
_RS_BLOCK_BITS = 330
_RS_PARITY_BITS = 48

#: Valid preamble symbol repetitions (PSR) on the DW1000.
VALID_PSR = (64, 128, 256, 512, 1024, 1536, 2048, 4096)


def preamble_symbol_duration_s(prf: Prf) -> float:
    """Duration of one preamble symbol for a PRF setting."""
    if prf is Prf.PRF_64MHZ:
        return PREAMBLE_SYMBOL_PRF64_S
    return PREAMBLE_SYMBOL_PRF16_S


@dataclass(frozen=True)
class RadioConfig:
    """PHY configuration of a DW1000 (the paper's setting by default).

    Defaults follow the paper's Sect. III: channel 7, DR = 6.8 Mbps,
    PRF = 64 MHz, PSR = 128.
    """

    channel: int = 7
    data_rate: DataRate = DataRate.DR_6800KBPS
    prf: Prf = Prf.PRF_64MHZ
    psr: int = 128
    tc_pgdelay: int = TC_PGDELAY_DEFAULT

    def __post_init__(self) -> None:
        if self.channel not in (1, 2, 3, 4, 5, 7):
            raise ValueError(f"DW1000 supports channels 1-5 and 7, got {self.channel}")
        if self.psr not in VALID_PSR:
            raise ValueError(f"PSR must be one of {VALID_PSR}, got {self.psr}")

    def with_pulse_register(self, tc_pgdelay: int) -> "RadioConfig":
        """This config with a different pulse-shaping register value."""
        return RadioConfig(
            channel=self.channel,
            data_rate=self.data_rate,
            prf=self.prf,
            psr=self.psr,
            tc_pgdelay=tc_pgdelay,
        )


@dataclass(frozen=True)
class FrameTimings:
    """Durations of each frame section [s]."""

    preamble_s: float
    sfd_s: float
    phr_s: float
    payload_s: float

    @property
    def shr_s(self) -> float:
        """Synchronisation header: preamble + SFD."""
        return self.preamble_s + self.sfd_s

    @property
    def total_s(self) -> float:
        return self.preamble_s + self.sfd_s + self.phr_s + self.payload_s

    @property
    def after_rmarker_s(self) -> float:
        """Duration from the RMARKER (start of PHR) to the end of frame.

        Per 802.15.4, the frame timestamp marks the first PHR symbol, so
        this is the part of the INIT frame that delays the earliest
        possible response.
        """
        return self.phr_s + self.payload_s


def _payload_symbols(payload_bytes: int) -> int:
    """Number of coded payload symbols including Reed-Solomon parity."""
    if payload_bytes < 0:
        raise ValueError(f"payload size must be non-negative, got {payload_bytes}")
    data_bits = 8 * payload_bytes
    blocks = math.ceil(data_bits / _RS_BLOCK_BITS) if data_bits > 0 else 0
    return data_bits + blocks * _RS_PARITY_BITS


def frame_duration(config: RadioConfig, payload_bytes: int) -> FrameTimings:
    """Airtime of a frame under a PHY configuration.

    ``payload_bytes`` is the MAC payload including the 2-byte FCS.
    """
    symbol = preamble_symbol_duration_s(config.prf)
    return FrameTimings(
        preamble_s=config.psr * symbol,
        sfd_s=_SFD_SYMBOLS[config.data_rate] * symbol,
        phr_s=PHR_SYMBOLS * _PHR_SYMBOL_S[config.data_rate],
        payload_s=_payload_symbols(payload_bytes) * _DATA_SYMBOL_S[config.data_rate],
    )


def min_response_delay_s(
    init_config: RadioConfig,
    init_payload_bytes: int,
    resp_config: RadioConfig | None = None,
    turnaround_s: float = RX_TX_TURNAROUND_S,
) -> float:
    """Minimum RMARKER-to-RMARKER response delay (paper Sect. III).

    The delay must cover (i) the PHR + payload of the INIT frame (the
    RMARKER sits *before* them), (ii) the RX-to-TX turnaround of the
    radio, and (iii) the preamble + SFD of the RESP frame (its RMARKER
    sits *after* them).  With the paper's configuration and a 14-byte
    INIT payload, (i) + (iii) evaluates to ~178.5 µs.
    """
    if resp_config is None:
        resp_config = init_config
    init = frame_duration(init_config, init_payload_bytes)
    resp = frame_duration(resp_config, 0)
    return init.after_rmarker_s + resp.shr_s + turnaround_s
