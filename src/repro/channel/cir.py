"""Tapped-delay-line channel model (paper Eq. 1).

The paper models the channel impulse response as

    h(t) = sum_k alpha_k * delta(t - tau_k) + nu(t)

with ``alpha_k``/``tau_k`` the complex amplitude and path delay of the
deterministic multipath components (specular reflections) and ``nu(t)``
the diffuse multipath.  :class:`ChannelRealization` holds one concrete
set of taps and can *render* the band-limited waveform a receiver sees
when a given pulse is transmitted through it — which is exactly the
physical signal the DW1000's CIR accumulator estimates.

A realization stores its taps as four parallel arrays, stable-sorted by
delay once at construction: delays (``float``), complex amplitudes,
kinds (indices into :data:`TAP_KINDS`) and reflection orders.
A render is one batched placement
(:func:`repro.signal.sampling.place_pulses`): every tap's fractional
shift in one FFT pair, then one scatter in tap order, byte-equal to
placing the taps one by one.  The stochastic generators build those
arrays directly (:meth:`ChannelRealization.from_arrays`);
:class:`ChannelTap` objects exist only where a caller asks for them
(``taps``, iteration, indexing and the tap-valued queries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.signal.pulses import Pulse
from repro.signal.sampling import place_pulses

#: Default exponential decay constant of the diffuse tail [ns].  Kulmer et
#: al. (paper ref. [8]) report diffuse decay constants of ~20 ns for the
#: office environments the paper measures in.
DIFFUSE_DECAY_NS = 20.0

#: Valid tap kinds, ordered roughly by determinism.  A realization
#: stores each tap's kind as its index in this tuple.
TAP_KINDS = ("los", "reflection", "diffuse")
KIND_LOS, KIND_REFLECTION, KIND_DIFFUSE = range(len(TAP_KINDS))


@dataclass(frozen=True)
class ChannelTap:
    """One multipath component: a delayed, complex-scaled copy of the pulse.

    Attributes
    ----------
    delay_s:
        Path delay ``tau_k`` relative to the transmit instant.
    amplitude:
        Complex amplitude ``alpha_k`` (linear scale, not dB).
    kind:
        ``"los"`` for the direct path, ``"reflection"`` for specular
        (deterministic) components, ``"diffuse"`` for the random tail.
    order:
        Reflection order (0 for LOS, 1 for first-order reflections, ...).
    """

    delay_s: float
    amplitude: complex
    kind: str = "reflection"
    order: int = 1

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError(f"tap delay must be non-negative, got {self.delay_s}")
        if self.kind not in TAP_KINDS:
            raise ValueError(f"unknown tap kind {self.kind!r}; use one of {TAP_KINDS}")
        if self.order < 0:
            raise ValueError(f"reflection order must be >= 0, got {self.order}")

    @property
    def path_length_m(self) -> float:
        """Geometric path length implied by the delay."""
        from repro.constants import SPEED_OF_LIGHT

        return self.delay_s * SPEED_OF_LIGHT

    @property
    def power(self) -> float:
        """Tap power ``|alpha_k|^2``."""
        return abs(self.amplitude) ** 2

    def delayed(self, extra_delay_s: float) -> "ChannelTap":
        """A copy of this tap shifted later in time (used to compose the
        round-trip channel of a concurrent-ranging response)."""
        return ChannelTap(
            delay_s=self.delay_s + extra_delay_s,
            amplitude=self.amplitude,
            kind=self.kind,
            order=self.order,
        )

    def scaled(self, factor: complex) -> "ChannelTap":
        """A copy of this tap with the amplitude multiplied by ``factor``."""
        return ChannelTap(
            delay_s=self.delay_s,
            amplitude=self.amplitude * factor,
            kind=self.kind,
            order=self.order,
        )


class ChannelRealization:
    """A concrete channel: its taps as delay-sorted parallel arrays.

    Taps are stable-sorted by delay, so taps with equal delays keep the
    order they were given in.  The realization is immutable from the
    outside; composition helpers return new instances.
    """

    def __init__(self, taps: Iterable[ChannelTap]) -> None:
        taps = tuple(taps)
        self._store(
            [tap.delay_s for tap in taps],
            [tap.amplitude for tap in taps],
            [TAP_KINDS.index(tap.kind) for tap in taps],
            [tap.order for tap in taps],
        )

    @classmethod
    def from_arrays(cls, delays_s, amplitudes, kinds, orders) -> "ChannelRealization":
        """A realization from parallel per-tap arrays, in any order.

        ``kinds`` holds indices into :data:`TAP_KINDS`.  The rules of
        :class:`ChannelTap` hold for every tap: a non-negative delay, a
        known kind and an order >= 0; a realization needs at least one
        tap.
        """
        channel = cls.__new__(cls)
        channel._store(delays_s, amplitudes, kinds, orders)
        return channel

    def _store(self, delays_s, amplitudes, kinds, orders) -> None:
        delays = np.asarray(delays_s, dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        kinds = np.asarray(kinds, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        if delays.ndim != 1 or not (
            delays.shape == amplitudes.shape == kinds.shape == orders.shape
        ):
            raise ValueError(
                "delays, amplitudes, kinds and orders must be 1-D arrays of "
                "one length"
            )
        if delays.shape[0] == 0:
            raise ValueError("a channel realization needs at least one tap")
        if (delays < 0).any():
            raise ValueError(f"tap delay must be non-negative, got {delays.min()}")
        if ((kinds < 0) | (kinds >= len(TAP_KINDS))).any():
            raise ValueError(f"unknown tap kind index; use indices into {TAP_KINDS}")
        if (orders < 0).any():
            raise ValueError(f"reflection order must be >= 0, got {orders.min()}")
        order = np.argsort(delays, kind="stable")
        self._delays = delays[order]
        self._amplitudes = amplitudes[order]
        self._kinds = kinds[order]
        self._orders = orders[order]

    def _tap(self, index: int) -> ChannelTap:
        return ChannelTap(
            delay_s=float(self._delays[index]),
            amplitude=complex(self._amplitudes[index]),
            kind=TAP_KINDS[self._kinds[index]],
            order=int(self._orders[index]),
        )

    def _powers(self) -> List[float]:
        """Tap powers as :attr:`ChannelTap.power` computes them: Python's
        complex ``abs`` and numpy's differ in the last bit."""
        return [abs(amplitude) ** 2 for amplitude in self._amplitudes.tolist()]

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._delays.shape[0]

    def __iter__(self):
        return iter(self.taps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.taps[index]
        return self._tap(range(len(self))[index])

    @property
    def taps(self) -> Tuple[ChannelTap, ...]:
        """The taps in delay order, built on each access."""
        return tuple(self._tap(index) for index in range(len(self)))

    # -- structural queries ---------------------------------------------------

    @property
    def first_path(self) -> ChannelTap:
        """The earliest tap (the direct path when LOS exists)."""
        return self._tap(0)

    @property
    def los_tap(self) -> ChannelTap | None:
        """The LOS tap, or ``None`` for NLOS channels."""
        los = np.flatnonzero(self._kinds == KIND_LOS)
        return self._tap(los[0]) if los.size else None

    @property
    def strongest_tap(self) -> ChannelTap:
        """The tap with the highest power.  In NLOS conditions this can be
        a reflection rather than the first path — the exact situation the
        paper's challenge IV warns about."""
        return self._tap(int(np.argmax(self._powers())))

    @property
    def delay_spread_s(self) -> float:
        """RMS delay spread of the deterministic taps."""
        delays = self._delays
        powers = np.array(self._powers())
        total = powers.sum()
        if total == 0:
            return 0.0
        mean = float(np.sum(delays * powers) / total)
        return float(math.sqrt(np.sum(powers * (delays - mean) ** 2) / total))

    @property
    def excess_delay_s(self) -> float:
        """Maximum excess delay: last tap minus first tap."""
        return float(self._delays[-1] - self._delays[0])

    def total_power(self) -> float:
        return float(sum(self._powers()))

    def specular_taps(self) -> List[ChannelTap]:
        return [
            self._tap(index)
            for index in np.flatnonzero(self._kinds != KIND_DIFFUSE)
        ]

    # -- composition ----------------------------------------------------------

    def delayed(self, extra_delay_s: float) -> "ChannelRealization":
        """All taps shifted by a constant delay."""
        return ChannelRealization.from_arrays(
            self._delays + extra_delay_s, self._amplitudes, self._kinds,
            self._orders,
        )

    def scaled(self, factor: complex) -> "ChannelRealization":
        """All taps scaled by a constant complex factor."""
        return ChannelRealization.from_arrays(
            self._delays, self._amplitudes * factor, self._kinds, self._orders
        )

    def merged(self, other: "ChannelRealization") -> "ChannelRealization":
        """Union of two realizations (e.g. two responders' signals
        superposing at the initiator)."""
        return ChannelRealization.from_arrays(
            np.concatenate([self._delays, other._delays]),
            np.concatenate([self._amplitudes, other._amplitudes]),
            np.concatenate([self._kinds, other._kinds]),
            np.concatenate([self._orders, other._orders]),
        )

    def without_los(self, attenuation: float = 0.0) -> "ChannelRealization":
        """An NLOS variant: the LOS tap is removed (``attenuation == 0``)
        or attenuated to ``attenuation`` times its amplitude."""
        los = self._kinds == KIND_LOS
        if attenuation > 0.0:
            amplitudes = self._amplitudes.copy()
            amplitudes[los] *= attenuation
            return ChannelRealization.from_arrays(
                self._delays, amplitudes, self._kinds, self._orders
            )
        keep = ~los
        if not keep.any():
            raise ValueError("removing the LOS tap left no channel taps")
        return ChannelRealization.from_arrays(
            self._delays[keep], self._amplitudes[keep], self._kinds[keep],
            self._orders[keep],
        )

    # -- rendering ------------------------------------------------------------

    def render(
        self,
        pulse: Pulse,
        n_samples: int,
        sampling_period_s: float | None = None,
        time_origin_s: float = 0.0,
    ) -> np.ndarray:
        """Render the band-limited received waveform into a complex buffer.

        Each tap contributes ``alpha_k * s(t - tau_k)``.  ``time_origin_s``
        maps buffer sample 0 to an absolute time, so a caller can window
        any part of the response.

        Returns a complex array of length ``n_samples``.
        """
        if sampling_period_s is None:
            sampling_period_s = pulse.sampling_period_s
        buffer = np.zeros(n_samples, dtype=complex)
        place_pulses(
            buffer,
            pulse.samples,
            (self._delays - time_origin_s) / sampling_period_s,
            self._amplitudes,
            peak_index=pulse.peak_index,
        )
        return buffer


def diffuse_tail(
    onset_delay_s: float,
    total_power: float,
    rng: np.random.Generator,
    decay_ns: float = DIFFUSE_DECAY_NS,
    tap_spacing_ns: float = 1.0,
    duration_ns: float = 80.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the diffuse multipath ``nu(t)`` as dense Rayleigh taps.

    Power decays exponentially after ``onset_delay_s`` with time constant
    ``decay_ns``; each tap has Rayleigh amplitude and uniform phase.  The
    sum of expected tap powers equals ``total_power``.  Returns the tap
    delays and complex amplitudes (both empty when ``total_power`` is 0).
    """
    if total_power < 0:
        raise ValueError(f"diffuse power must be non-negative, got {total_power}")
    if total_power == 0:
        return np.empty(0), np.empty(0, dtype=complex)
    n_taps = max(1, int(duration_ns / tap_spacing_ns))
    offsets_ns = (np.arange(n_taps) + 0.5) * tap_spacing_ns
    profile = np.exp(-offsets_ns / decay_ns)
    profile = profile / profile.sum() * total_power
    amplitudes = np.sqrt(profile / 2.0) * (
        rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    )
    return onset_delay_s + offsets_ns * 1e-9, amplitudes


def diffuse_tail_taps(
    onset_delay_s: float,
    total_power: float,
    rng: np.random.Generator,
    decay_ns: float = DIFFUSE_DECAY_NS,
    tap_spacing_ns: float = 1.0,
    duration_ns: float = 80.0,
) -> List[ChannelTap]:
    """:func:`diffuse_tail` as a list of ``"diffuse"`` taps of order 2."""
    delays, amplitudes = diffuse_tail(
        onset_delay_s, total_power, rng, decay_ns, tap_spacing_ns, duration_ns
    )
    return [
        ChannelTap(delay_s=delay, amplitude=amplitude, kind="diffuse", order=2)
        for delay, amplitude in zip(delays.tolist(), amplitudes.tolist())
    ]
