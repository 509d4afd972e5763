"""Byte-equality of the batched placement and the array-backed channel.

The oracle is the per-position loop the batched code replaces, written
here from the scalar formulas: one phase-ramp FFT pair per fractional
position, the unpadded pulse at integer positions, the same clipping,
and one slice addition per position in order.  It calls nothing from
``repro.signal.sampling``, so a change there cannot move both sides.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.cir import (
    KIND_DIFFUSE,
    KIND_LOS,
    KIND_REFLECTION,
    TAP_KINDS,
    ChannelRealization,
    ChannelTap,
)
from repro.channel.stochastic import IndoorEnvironment, SalehValenzuelaModel
from repro.constants import (
    CIR_SAMPLING_PERIOD_S,
    TC_PGDELAY_DEFAULT,
    TC_PGDELAY_MAX,
)
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import fractional_delay, place_pulse, place_pulses

TS = CIR_SAMPLING_PERIOD_S
LENGTHS = (64, 509, 1016)

registers = st.integers(min_value=TC_PGDELAY_DEFAULT, max_value=TC_PGDELAY_MAX)
amplitudes = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
# Positions from far before the buffer to far past the longest one:
# fractional, integer, clipped at either edge and entirely outside.
positions = st.one_of(
    st.floats(min_value=-120.0, max_value=1140.0),
    st.integers(min_value=-120, max_value=1140).map(float),
)


@lru_cache(maxsize=None)
def _pulse(register: int):
    return dw1000_pulse(register)


# -- the oracle ------------------------------------------------------------------


def _naive_fractional_delay(signal, delay):
    freqs = np.fft.fftfreq(len(signal))
    shifted = np.fft.ifft(np.fft.fft(signal) * np.exp(-2j * np.pi * freqs * delay))
    return shifted.real if np.isrealobj(signal) else shifted


def _naive_place_pulse(buffer, pulse, position, amplitude, peak_index):
    integer = int(np.floor(position))
    fraction = float(position - integer)
    if fraction != 0.0:
        padded = np.concatenate([pulse, np.zeros(1, dtype=pulse.dtype)])
        shifted = _naive_fractional_delay(padded, fraction)
    else:
        shifted = pulse
    start = integer - peak_index
    src_start = max(0, -start)
    src_stop = len(shifted) - max(0, start + len(shifted) - len(buffer))
    if src_start < src_stop:
        buffer[start + src_start:start + src_stop] += (
            amplitude * shifted[src_start:src_stop]
        )


def _naive_render(taps, pulse, n_samples, time_origin_s):
    buffer = np.zeros(n_samples, dtype=complex)
    for tap in sorted(taps, key=lambda tap: tap.delay_s):
        _naive_place_pulse(
            buffer,
            pulse.samples,
            (tap.delay_s - time_origin_s) / TS,
            tap.amplitude,
            pulse.peak_index,
        )
    return buffer


def _same_taps(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.delay_s, a.amplitude, a.kind, a.order) == (
            b.delay_s, b.amplitude, b.kind, b.order,
        )


# -- placement -------------------------------------------------------------------


class TestPlacementBytes:
    @given(
        register=registers,
        n=st.sampled_from(LENGTHS),
        placements=st.lists(st.tuples(positions, amplitudes), min_size=1,
                            max_size=12),
        complex_pulse=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_place_pulses_equals_the_per_position_loop(
        self, register, n, placements, complex_pulse, seed
    ):
        pulse = _pulse(register)
        samples = (
            pulse.samples.astype(complex) if complex_pulse else pulse.samples
        )
        # Repeat the first placement: a tie must accumulate in order.
        placements = placements + placements[:1]
        where = [p for p, _ in placements]
        amps = [a for _, a in placements]
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # Samples no placement covers must keep every bit, -0.0 included.
        start[::2] = complex(-0.0, -0.0)
        expected = start.copy()
        for position, amplitude in placements:
            _naive_place_pulse(
                expected, samples, position, amplitude, pulse.peak_index
            )
        got = start.copy()
        place_pulses(got, samples, where, amps, pulse.peak_index)
        assert got.tobytes() == expected.tobytes()

        one_by_one = start.copy()
        for position, amplitude in placements:
            place_pulse(
                one_by_one, samples, position, amplitude, pulse.peak_index
            )
        assert one_by_one.tobytes() == expected.tobytes()

    @given(
        n=st.integers(min_value=1, max_value=120),
        delay=st.one_of(
            st.floats(min_value=-60.0, max_value=60.0),
            st.sampled_from([0.0, -0.0, 0.5, 5e-324]),
        ),
        complex_signal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_fractional_delay_equals_the_formula(
        self, n, delay, complex_signal, seed
    ):
        rng = np.random.default_rng(seed)
        signal = rng.standard_normal(n)
        if complex_signal:
            signal = signal + 1j * rng.standard_normal(n)
        got = fractional_delay(signal, delay)
        assert got.tobytes() == _naive_fractional_delay(signal, delay).tobytes()

    def test_amplitude_count_must_match(self, default_pulse):
        with pytest.raises(ValueError, match="amplitudes"):
            place_pulses(
                np.zeros(64, dtype=complex), default_pulse.samples,
                [10.5, 20.5], [1.0],
            )


# -- channels --------------------------------------------------------------------


# Delays on a coarse grid tie often; the stable sort must keep the
# order the taps were given in.
tap_delays = st.one_of(
    st.sampled_from([20e-9, 20.5e-9, 35e-9]),
    st.floats(min_value=0.0, max_value=300e-9),
)
taps = st.lists(
    st.builds(
        ChannelTap,
        delay_s=tap_delays,
        amplitude=amplitudes,
        kind=st.sampled_from(TAP_KINDS),
        order=st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)
real_factors = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestChannelBytes:
    @given(
        tap_list=taps,
        register=registers,
        n=st.sampled_from(LENGTHS),
        origin_ns=st.floats(min_value=-50.0, max_value=200.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_render_equals_the_per_tap_loop(self, tap_list, register, n,
                                            origin_ns):
        pulse = _pulse(register)
        channel = ChannelRealization(tap_list)
        _same_taps(channel.taps, sorted(tap_list, key=lambda t: t.delay_s))
        got = channel.render(pulse, n, time_origin_s=origin_ns * 1e-9)
        expected = _naive_render(tap_list, pulse, n, origin_ns * 1e-9)
        assert got.tobytes() == expected.tobytes()

    def test_drawn_channels_render_as_their_taps_at_every_register(self):
        rng = np.random.default_rng(2018)
        models = (
            IndoorEnvironment.office(),
            IndoorEnvironment.nlos(),
            IndoorEnvironment(n_reflections=0),
            # A short excess delay keeps the per-tap oracle quick.
            SalehValenzuelaModel(max_excess_delay_ns=40.0),
        )
        for register in range(TC_PGDELAY_DEFAULT, TC_PGDELAY_MAX + 1):
            model = models[register % len(models)]
            channel = model.realize(float(rng.uniform(1.0, 30.0)), rng)
            n = LENGTHS[register % len(LENGTHS)]
            # Window the first path near tap 64, as a capture does; every
            # third register starts after it, clipping at the left edge.
            origin = channel.first_path.delay_s - (
                -3e-9 if register % 3 == 0 else 64 * TS
            )
            pulse = _pulse(register)
            got = channel.render(pulse, n, time_origin_s=origin)
            expected = _naive_render(channel.taps, pulse, n, origin)
            assert got.tobytes() == expected.tobytes(), hex(register)

    @given(
        tap_list=taps,
        other=taps,
        extra_ns=st.floats(min_value=0.0, max_value=100.0),
        factor=real_factors,
        attenuation=st.one_of(st.just(0.0), st.floats(min_value=0.0,
                                                      max_value=1.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition_equals_the_per_tap_versions(
        self, tap_list, other, extra_ns, factor, attenuation
    ):
        channel = ChannelRealization(tap_list)
        ordered = channel.taps

        def by_delay(tap_iter):
            return sorted(tap_iter, key=lambda t: t.delay_s)

        _same_taps(
            channel.delayed(extra_ns * 1e-9).taps,
            by_delay(t.delayed(extra_ns * 1e-9) for t in ordered),
        )
        _same_taps(
            channel.scaled(factor).taps, by_delay(t.scaled(factor) for t in ordered)
        )
        _same_taps(
            channel.merged(ChannelRealization(other)).taps,
            by_delay(list(ordered) + list(ChannelRealization(other).taps)),
        )
        expected = [
            t.scaled(attenuation) if t.kind == "los" else t
            for t in ordered
            if t.kind != "los" or attenuation > 0.0
        ]
        if expected:
            _same_taps(channel.without_los(attenuation).taps, expected)
        else:
            with pytest.raises(ValueError, match="no channel taps"):
                channel.without_los(attenuation)

    @given(tap_list=taps)
    @settings(max_examples=50, deadline=None)
    def test_queries_equal_the_per_tap_versions(self, tap_list):
        channel = ChannelRealization(tap_list)
        ordered = sorted(tap_list, key=lambda t: t.delay_s)
        assert len(channel) == len(ordered)
        _same_taps([channel.first_path], ordered[:1])
        _same_taps(list(channel), ordered)
        _same_taps([channel[-1]], ordered[-1:])
        _same_taps(channel[1:3], ordered[1:3])
        los = [t for t in ordered if t.kind == "los"]
        if los:
            _same_taps([channel.los_tap], los[:1])
        else:
            assert channel.los_tap is None
        _same_taps([channel.strongest_tap], [max(ordered, key=lambda t: t.power)])
        _same_taps(
            channel.specular_taps(), [t for t in ordered if t.kind != "diffuse"]
        )
        assert channel.total_power() == sum(t.power for t in ordered)
        assert channel.excess_delay_s == ordered[-1].delay_s - ordered[0].delay_s


class TestArrayConstructor:
    def test_round_trips_and_sorts(self):
        channel = ChannelRealization.from_arrays(
            [30e-9, 10e-9, 10e-9],
            [0.5j, 1.0, 0.25],
            [KIND_DIFFUSE, KIND_LOS, KIND_REFLECTION],
            [2, 0, 1],
        )
        _same_taps(
            channel.taps,
            [
                ChannelTap(10e-9, 1.0, "los", 0),
                ChannelTap(10e-9, 0.25, "reflection", 1),
                ChannelTap(30e-9, 0.5j, "diffuse", 2),
            ],
        )

    @pytest.mark.parametrize(
        "delays, kinds, orders, message",
        [
            ([], [], [], "at least one tap"),
            ([1e-9, -1e-12], [KIND_LOS, KIND_REFLECTION], [0, 1], "non-negative"),
            ([1e-9], [len(TAP_KINDS)], [0], "unknown tap kind"),
            ([1e-9], [-1], [0], "unknown tap kind"),
            ([1e-9], [KIND_REFLECTION], [-1], "order must be >= 0"),
        ],
    )
    def test_rejects_what_a_tap_rejects(self, delays, kinds, orders, message):
        with pytest.raises(ValueError, match=message):
            ChannelRealization.from_arrays(
                delays, [1.0] * len(delays), kinds, orders
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            ChannelRealization.from_arrays([1e-9, 2e-9], [1.0], [0, 1], [0, 1])

    def test_delaying_before_time_zero_is_rejected(self):
        channel = ChannelRealization([ChannelTap(5e-9, 1.0, "los", 0)])
        with pytest.raises(ValueError, match="non-negative"):
            channel.delayed(-6e-9)


class TestNoTapObjectsOnTheHotPath:
    def test_draw_len_and_render_build_no_taps(self, monkeypatch):
        built = []
        original = ChannelTap.__post_init__

        def counting(tap):
            built.append(tap)
            original(tap)

        monkeypatch.setattr(ChannelTap, "__post_init__", counting)
        rng = np.random.default_rng(7)
        for model in (IndoorEnvironment.office(), SalehValenzuelaModel()):
            channel = model.realize(6.0, rng)
            assert len(channel) > 1
            channel.render(_pulse(0xC8), 1016)
        assert built == []
        # A tap-valued query builds the one tap it returns.
        assert channel.first_path.delay_s == channel.taps[0].delay_s
        assert len(built) == 1 + len(channel)
