"""Behavioural model of the DW1000 transceiver.

The model covers everything the paper's concurrent-ranging solution needs
from the chip:

* **CIR accumulator estimation** — when one or more frames arrive with
  preamble overlap, the accumulator integrates the superposition of all
  transmitted preamble pulses through their respective channels into a
  1016-tap complex CIR sampled at 1.0016 ns (paper Sect. II/VII).
* **Leading-edge first-path detection** — the internal LDE algorithm that
  produces the RX timestamp with 15.65 ps resolution.
* **Delayed transmission** — programmed TX times are floored to the
  ~8 ns hardware grid (paper Sect. III).
* **Pulse shaping** — the transmitted template follows the current
  ``TC_PGDELAY`` register value (paper Sect. V).

Amplitudes are physical link gains (Friis-scale, ~1e-3 at a few meters),
and the default receiver noise floor is calibrated to give the 25-35 dB
CIR SNR range typical of DW1000 captures at indoor distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.channel.cir import ChannelRealization
from repro.constants import (
    CIR_LENGTH_PRF64,
    CIR_SAMPLING_PERIOD_S,
)
from repro.radio.energy import EnergyMeter
from repro.radio.frame import RadioConfig
from repro.radio.registers import RegisterFile
from repro.radio.timebase import (
    Clock,
    quantize_delayed_tx_s,
    quantize_timestamp_s,
)
from repro.signal.pulses import Pulse, pulse_width_factor

#: Receiver noise floor (per-tap complex noise std) in link-gain units,
#: at the reference preamble length PSR = 128.  Friis gain at 10 m /
#: channel 7 is ~3.7e-4, so this default yields ~25 dB CIR SNR at 10 m
#: and ~35 dB at 3 m — the range seen on real DW1000 captures at the
#: paper's distances.
DEFAULT_NOISE_STD = 2.0e-5

#: Preamble length at which :data:`DEFAULT_NOISE_STD` is calibrated.
#: The CIR is accumulated over the preamble symbols, so the effective
#: noise floor scales as ``sqrt(128 / PSR)`` — longer preambles buy SNR.
NOISE_REFERENCE_PSR = 128

#: Nominal accumulator tap where the LDE places the first path.  Real
#: DW1000 captures put it around tap 750 of 4096 accumulator phases; in
#: the 1016-tap window we leave a short noise-only preroll.
FIRST_PATH_NOMINAL_INDEX = 64

#: Residual RX timestamp jitter [s] (std): antenna, PLL, and LDE noise
#: lumped together.  Calibrated so SS-TWR yields the ~2.3 cm standard
#: deviation the paper measures for the default pulse (Sect. V).
DEFAULT_TIMESTAMP_JITTER_S = 107e-12

#: Relative growth of timestamp jitter per unit of pulse-width factor
#: above 1.0: wider pulses have a shallower leading edge, so their ToA
#: estimate is slightly noisier (paper Sect. V measures s3 worst).
JITTER_WIDTH_SLOPE = 0.10

#: LDE threshold in units of the noise standard deviation.
LDE_NOISE_MULTIPLIER = 6.0


@dataclass(frozen=True)
class SignalArrival:
    """One transmitter's contribution to a received superposition.

    Attributes
    ----------
    channel:
        Channel realization between that transmitter and this receiver
        (tap delays are one-way propagation delays).
    pulse:
        The transmitted pulse template (the transmitter's ``TC_PGDELAY``
        shape), sampled at the CIR rate.
    tx_time_s:
        Global time the transmitter's RMARKER left the antenna.
    source_id:
        Identifier of the transmitting node (ground truth for evaluation;
        the detection algorithms never read it).
    """

    channel: ChannelRealization
    pulse: Pulse
    tx_time_s: float
    source_id: int | None = None

    @property
    def first_path_arrival_s(self) -> float:
        """Global arrival time of this transmitter's first path."""
        return self.tx_time_s + self.channel.first_path.delay_s


@dataclass(frozen=True)
class CirCapture:
    """One estimated CIR plus the receiver's metadata.

    ``time_origin_s`` (global time of tap 0) and ``arrivals`` are ground
    truth kept for evaluation; the paper's algorithms consume only
    ``samples``, ``sampling_period_s``, ``rx_timestamp_s``, and
    ``noise_std``.
    """

    samples: np.ndarray
    sampling_period_s: float
    rx_timestamp_s: float
    first_path_index: float
    noise_std: float
    time_origin_s: float
    arrivals: tuple = ()

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.samples)

    def normalized(self) -> np.ndarray:
        """Magnitude scaled to unit peak (as plotted in the paper)."""
        mag = self.magnitude
        peak = float(mag.max())
        return mag / peak if peak > 0 else mag

    def time_of_index(self, index: float) -> float:
        """Global time corresponding to a (fractional) tap index."""
        return self.time_origin_s + index * self.sampling_period_s


def leading_edge_index(
    magnitude: np.ndarray,
    noise_std: float,
    noise_multiplier: float = LDE_NOISE_MULTIPLIER,
) -> float:
    """First-path tap index via leading-edge detection.

    Mimics the DW1000 LDE: find the first sample that exceeds a
    noise-referenced threshold (also bounded below by a fraction of the
    global peak, so an absurdly low noise estimate cannot fire on noise),
    then refine to sub-sample precision with a parabolic fit around the
    local maximum of the leading pulse.
    """
    magnitude = np.asarray(magnitude, dtype=float)
    if magnitude.ndim != 1 or len(magnitude) < 3:
        raise ValueError("magnitude must be a 1-D array of length >= 3")
    peak = float(magnitude.max())
    if peak <= 0.0:
        raise ValueError("cannot detect a first path in an all-zero CIR")
    threshold = max(noise_multiplier * noise_std, 0.12 * peak)
    above = np.nonzero(magnitude >= threshold)[0]
    if len(above) == 0:
        raise ValueError(
            f"no sample exceeds the LDE threshold {threshold:.3g} "
            f"(peak {peak:.3g}, noise {noise_std:.3g})"
        )
    first = int(above[0])
    # Climb to the local maximum of the leading pulse.
    idx = first
    while idx + 1 < len(magnitude) and magnitude[idx + 1] > magnitude[idx]:
        idx += 1
    return _parabolic_refine(magnitude, idx)


def _parabolic_refine(magnitude: np.ndarray, index: int) -> float:
    """Sub-sample peak location via a three-point parabolic fit."""
    if index <= 0 or index >= len(magnitude) - 1:
        return float(index)
    left, mid, right = magnitude[index - 1 : index + 2]
    denom = left - 2.0 * mid + right
    if denom == 0.0:
        return float(index)
    shift = 0.5 * (left - right) / denom
    return float(index + np.clip(shift, -0.5, 0.5))


class DW1000Radio:
    """One DW1000 transceiver instance.

    Holds the PHY configuration, register file, node clock, and energy
    meter, and implements the receive chain (CIR capture + timestamping)
    and transmit chain (pulse shape + delayed-TX quantisation).
    """

    def __init__(
        self,
        config: RadioConfig | None = None,
        clock: Clock | None = None,
        noise_std: float | None = None,
        timestamp_jitter_s: float = DEFAULT_TIMESTAMP_JITTER_S,
        cir_length: int | None = None,
        sampling_period_s: float = CIR_SAMPLING_PERIOD_S,
        true_antenna_delay_s: float | None = None,
    ) -> None:
        self.config = config or RadioConfig()
        self.clock = clock or Clock()
        if cir_length is None:
            # The accumulator holds 1016 taps at PRF 64 MHz, 992 at 16 MHz.
            from repro.constants import CIR_LENGTH_PRF16
            from repro.radio.frame import Prf

            cir_length = (
                CIR_LENGTH_PRF64
                if self.config.prf is Prf.PRF_64MHZ
                else CIR_LENGTH_PRF16
            )
        if noise_std is None:
            # Preamble accumulation gain: the noise floor shrinks with
            # the square root of the number of accumulated symbols.
            noise_std = DEFAULT_NOISE_STD * math.sqrt(
                NOISE_REFERENCE_PSR / self.config.psr
            )
        self.noise_std = float(noise_std)
        self.timestamp_jitter_s = float(timestamp_jitter_s)
        self.cir_length = int(cir_length)
        self.sampling_period_s = float(sampling_period_s)
        self.registers = RegisterFile()
        self.registers.write("TC_PGDELAY", self.config.tc_pgdelay)
        self.energy = EnergyMeter()
        # Physical antenna/RF delay of THIS device.  Defaults to the
        # register reset value, i.e. a factory-calibrated device; pass a
        # different value to model an uncalibrated unit.
        if true_antenna_delay_s is None:
            true_antenna_delay_s = self.programmed_antenna_delay_s
        self.true_antenna_delay_s = float(true_antenna_delay_s)

    # -- antenna delay -----------------------------------------------------

    @property
    def programmed_antenna_delay_s(self) -> float:
        """The RX antenna delay the LDE currently compensates for
        (``LDE_RXANTD`` register, in 15.65 ps ticks)."""
        from repro.radio.timebase import ticks_to_seconds

        return ticks_to_seconds(self.registers.read("LDE_RXANTD"))

    @property
    def antenna_delay_error_s(self) -> float:
        """Uncompensated antenna delay: true minus programmed.

        The physical delay through antenna and RF front end
        (``true_antenna_delay_s``) is a per-device constant; the chip
        subtracts the *programmed* value from every RX timestamp.  Any
        mismatch biases each timestamp — and hence SS-TWR distances —
        which is why real deployments calibrate it
        (:mod:`repro.radio.calibration`).
        """
        return self.true_antenna_delay_s - self.programmed_antenna_delay_s

    def program_antenna_delay(self, delay_s: float) -> None:
        """Write the antenna-delay compensation registers."""
        from repro.radio.timebase import seconds_to_ticks

        ticks = seconds_to_ticks(delay_s)
        self.registers.write("LDE_RXANTD", ticks)
        self.registers.write("TX_ANTD", ticks)

    # -- transmit chain --------------------------------------------------

    def set_pulse_register(self, tc_pgdelay: int) -> None:
        """Program the pulse-shaping register (paper Sect. V)."""
        self.registers.write("TC_PGDELAY", tc_pgdelay)

    @property
    def pulse_register(self) -> int:
        return self.registers.read("TC_PGDELAY")

    def transmit_pulse(self) -> Pulse:
        """The pulse template currently transmitted by this radio.

        Memoised per ``(register, sampling period)``: every responder of
        every round transmits one of a few shapes, and synthesising one
        costs more than rendering a channel with it.
        """
        from repro.runtime.cache import pulse

        return pulse(self.pulse_register, self.sampling_period_s)

    def schedule_delayed_tx(self, local_time_s: float) -> float:
        """Program a delayed transmission; returns the *actual* local
        transmit time after the hardware floors the low 9 bits (~8 ns
        granularity, paper Sect. III)."""
        if local_time_s < 0:
            raise ValueError(f"TX time must be non-negative, got {local_time_s}")
        return quantize_delayed_tx_s(local_time_s)

    # -- receive chain ---------------------------------------------------

    def _effective_jitter_s(self, width_factor: float) -> float:
        """Timestamp jitter grows mildly with the received pulse width."""
        return self.timestamp_jitter_s * (
            1.0 + JITTER_WIDTH_SLOPE * (width_factor - 1.0)
        )

    def timestamp_arrival(
        self,
        true_arrival_global_s: float,
        rng: np.random.Generator,
        pulse_register: int | None = None,
    ) -> float:
        """RX timestamp (node-local) for a frame whose first path arrives
        at a known global time.

        This is the fast, statistics-level receive path used for plain
        SS-TWR simulation: the ToA estimation error is modelled as
        Gaussian jitter (calibrated against the paper's measured ranging
        precision) and then quantised to the 15.65 ps timestamp grid.
        """
        width = (
            pulse_width_factor(pulse_register) if pulse_register is not None else 1.0
        )
        jitter = float(rng.normal(0.0, self._effective_jitter_s(width)))
        local = self.clock.local_from_global(
            true_arrival_global_s + jitter + self.antenna_delay_error_s
        )
        return quantize_timestamp_s(local)

    def capture_cir(
        self,
        arrivals: Sequence[SignalArrival],
        rng: np.random.Generator,
        cir_transform=None,
    ) -> CirCapture:
        """Estimate the CIR of a (possibly superposed) reception.

        All arrivals whose preambles overlap the receive window contribute
        their pulses through their channels; complex AWGN models the
        accumulator noise after preamble integration.  The first path of
        the earliest arrival lands near tap ``FIRST_PATH_NOMINAL_INDEX``,
        offset by a random sub-sample phase — the "unknown time offset"
        the paper corrects with the d_TWR alignment (Sect. IV, step 1).

        ``cir_transform`` is an optional injection seam: a callable
        ``(samples, noise_std) -> samples`` applied to the noisy
        accumulator buffer *before* leading-edge detection.
        :mod:`repro.faults` uses it for impulsive interference and
        saturation; ``None`` (default) leaves the capture untouched.
        The transform must not consume this method's ``rng``.
        """
        if len(arrivals) == 0:
            raise ValueError("capture_cir needs at least one arrival")

        earliest = min(arrival.first_path_arrival_s for arrival in arrivals)
        sub_sample_offset = float(rng.uniform(0.0, self.sampling_period_s))
        time_origin = (
            earliest
            - FIRST_PATH_NOMINAL_INDEX * self.sampling_period_s
            - sub_sample_offset
        )

        buffer = np.zeros(self.cir_length, dtype=complex)
        for arrival in arrivals:
            contribution = arrival.channel.render(
                arrival.pulse,
                self.cir_length,
                sampling_period_s=self.sampling_period_s,
                time_origin_s=time_origin - arrival.tx_time_s,
            )
            buffer += contribution

        noise = self.noise_std * (
            rng.standard_normal(self.cir_length)
            + 1j * rng.standard_normal(self.cir_length)
        ) / math.sqrt(2.0)
        buffer += noise

        if cir_transform is not None:
            buffer = cir_transform(buffer, self.noise_std)

        fp_index = leading_edge_index(np.abs(buffer), self.noise_std)
        jitter = float(rng.normal(0.0, self.timestamp_jitter_s))
        rx_global = time_origin + fp_index * self.sampling_period_s + jitter
        rx_local = quantize_timestamp_s(self.clock.local_from_global(rx_global))

        return CirCapture(
            samples=buffer,
            sampling_period_s=self.sampling_period_s,
            rx_timestamp_s=rx_local,
            first_path_index=fp_index,
            noise_std=self.noise_std,
            time_origin_s=time_origin,
            arrivals=tuple(arrivals),
        )
