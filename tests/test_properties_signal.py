"""Property-based tests (hypothesis) for the signal layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import TC_PGDELAY_DEFAULT, TC_PGDELAY_MAX
from repro.signal.pulses import (
    dw1000_pulse,
    pulse_bandwidth_hz,
    pulse_width_factor,
    raised_cosine_pulse,
)
from repro.signal.sampling import (
    fft_upsample,
    fft_upsample_batch,
    fractional_delay,
    place_pulse,
)

registers = st.integers(min_value=TC_PGDELAY_DEFAULT, max_value=TC_PGDELAY_MAX)


class TestPulseProperties:
    @given(register=registers)
    @settings(max_examples=30, deadline=None)
    def test_any_register_yields_unit_energy(self, register):
        assert dw1000_pulse(register).energy() == pytest.approx(1.0)

    @given(register=registers)
    @settings(max_examples=30, deadline=None)
    def test_width_factor_at_least_one(self, register):
        assert pulse_width_factor(register) >= 1.0

    @given(a=registers, b=registers)
    @settings(max_examples=30, deadline=None)
    def test_width_order_matches_register_order(self, a, b):
        if a < b:
            assert pulse_width_factor(a) < pulse_width_factor(b)
            assert pulse_bandwidth_hz(a) > pulse_bandwidth_hz(b)

    @given(register=registers)
    @settings(max_examples=20, deadline=None)
    def test_template_symmetric(self, register):
        pulse = dw1000_pulse(register)
        assert np.allclose(pulse.samples, pulse.samples[::-1], atol=1e-12)

    @given(
        bandwidth=st.floats(min_value=50e6, max_value=900e6),
        t_ns=st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_rc_pulse_bounded_by_one(self, bandwidth, t_ns):
        value = raised_cosine_pulse(np.array([t_ns * 1e-9]), bandwidth)
        assert abs(value[0]) <= 1.0 + 1e-12


def fft_upsample_1d(signal, factor):
    """The 1-D upsampler as it was written before it became a batch of
    one: the oracle the batched rows are held to, byte for byte."""
    if factor == 1:
        return signal.copy()
    n = len(signal)
    was_real = np.isrealobj(signal)
    spectrum = np.fft.fft(signal)
    padded = np.zeros(n * factor, dtype=complex)
    half = (n + 1) // 2
    padded[:half] = spectrum[:half]
    if n > half:
        padded[-(n - half):] = spectrum[half:]
    if n % 2 == 0:
        padded[half] = spectrum[half] / 2.0
        padded[-half] = spectrum[half] / 2.0
    upsampled = np.fft.ifft(padded) * factor
    return upsampled.real if was_real else upsampled


class TestResamplingProperties:
    @given(
        rows=st.integers(min_value=1, max_value=4),
        n=st.sampled_from([1, 2, 3, 64, 509, 1015, 1016]),
        factor=st.sampled_from([1, 2, 3, 8]),
        complex_input=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_equal_1d_transforms_bytewise(
        self, rows, n, factor, complex_input, seed
    ):
        rng = np.random.default_rng(seed)
        signals = rng.standard_normal((rows, n))
        if complex_input:
            signals = signals + 1j * rng.standard_normal((rows, n))
        batched = fft_upsample_batch(signals, factor)
        for row, signal in zip(batched, signals):
            expected = fft_upsample_1d(signal, factor)
            single = fft_upsample(signal, factor)
            assert row.dtype == single.dtype == expected.dtype
            assert row.tobytes() == expected.tobytes()
            assert single.tobytes() == expected.tobytes()

    @given(
        factor=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_upsample_preserves_dc(self, factor, seed):
        rng = np.random.default_rng(seed)
        signal = rng.standard_normal(64)
        up = fft_upsample(signal, factor)
        assert np.mean(up) == pytest.approx(np.mean(signal), abs=1e-9)

    @given(
        delay=st.floats(min_value=-4.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_delay_then_undelay_is_identity(self, delay, seed):
        rng = np.random.default_rng(seed)
        # Band-limited test signal.
        spectrum = np.zeros(64, dtype=complex)
        spectrum[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        signal = np.fft.ifft(spectrum)
        roundtrip = fractional_delay(fractional_delay(signal, delay), -delay)
        assert np.allclose(roundtrip, signal, atol=1e-9)

    @given(
        position=st.floats(min_value=30.0, max_value=480.0),
        amplitude=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_place_pulse_energy_scales_with_amplitude(self, position, amplitude):
        pulse = dw1000_pulse()
        buffer = np.zeros(512, dtype=complex)
        place_pulse(buffer, pulse.samples.astype(complex), position, amplitude)
        assert np.sum(np.abs(buffer) ** 2) == pytest.approx(
            amplitude**2, rel=1e-2
        )

    @given(position=st.floats(min_value=50.0, max_value=450.0))
    @settings(max_examples=25, deadline=None)
    def test_place_then_cancel_is_zero(self, position):
        pulse = dw1000_pulse()
        buffer = np.zeros(512, dtype=complex)
        place_pulse(buffer, pulse.samples.astype(complex), position, 1.0)
        place_pulse(buffer, pulse.samples.astype(complex), position, -1.0)
        assert np.max(np.abs(buffer)) < 1e-9
