"""Unit tests for repro.signal.sampling."""

import numpy as np
import pytest

from repro.signal.sampling import (
    fft_upsample,
    fractional_delay,
    place_pulse,
    placed_segments,
)


class TestFftUpsample:
    def test_factor_one_is_copy(self, rng):
        signal = rng.standard_normal(64)
        out = fft_upsample(signal, 1)
        assert np.array_equal(out, signal)
        assert out is not signal

    def test_length_scales(self, rng):
        signal = rng.standard_normal(100)
        assert len(fft_upsample(signal, 4)) == 400

    def test_original_samples_preserved(self, rng):
        """Band-limited interpolation passes through the input samples."""
        # Use a band-limited signal (low-pass noise) to avoid edge leakage.
        spectrum = np.zeros(128, dtype=complex)
        spectrum[:20] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        spectrum[-19:] = np.conj(spectrum[1:20][::-1])
        signal = np.fft.ifft(spectrum).real
        up = fft_upsample(signal, 8)
        assert np.allclose(up[::8], signal, atol=1e-9)

    def test_real_stays_real(self, rng):
        out = fft_upsample(rng.standard_normal(64), 4)
        assert np.isrealobj(out)

    def test_complex_stays_complex(self, rng):
        signal = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = fft_upsample(signal, 4)
        assert np.iscomplexobj(out)
        assert np.allclose(out[::4], signal, atol=1e-9)

    def test_energy_preserved_for_bandlimited(self):
        n = 128
        t = np.arange(n)
        signal = np.sin(2 * np.pi * 5 * t / n)
        up = fft_upsample(signal, 4)
        assert np.mean(up**2) == pytest.approx(np.mean(signal**2), rel=1e-6)

    def test_odd_length(self, rng):
        signal = rng.standard_normal(63)
        assert len(fft_upsample(signal, 2)) == 126

    @pytest.mark.parametrize("n", (64, 63, 127, 128, 255, 256))
    @pytest.mark.parametrize("factor", (2, 3, 8))
    def test_matches_analytic_sinusoid(self, n, factor):
        """Even *and* odd lengths interpolate a sampled sinusoid onto the
        analytic curve.

        This is the regression test for the odd-length spectrum split:
        with ``half = n // 2`` the positive-frequency bin ``(n - 1) / 2``
        of an odd-length signal was misfiled into the negative block,
        corrupting every interpolated (non-original) sample.
        """
        k = 5  # cycles over the window; below Nyquist for every n here
        t = np.arange(n)
        phase = 0.7
        signal = np.cos(2 * np.pi * k * t / n + phase)
        up = fft_upsample(signal, factor)
        t_fine = np.arange(n * factor) / factor
        expected = np.cos(2 * np.pi * k * t_fine / n + phase)
        assert np.allclose(up, expected, atol=1e-9)

    @pytest.mark.parametrize("factor", (2, 4))
    def test_odd_length_highest_bin(self, factor):
        """The bin at (n-1)/2 — the one the old split misfiled — must
        interpolate exactly for odd n."""
        n = 65
        k = (n - 1) // 2  # highest positive-frequency bin of odd n
        t = np.arange(n)
        signal = np.cos(2 * np.pi * k * t / n + 0.3)
        up = fft_upsample(signal, factor)
        t_fine = np.arange(n * factor) / factor
        expected = np.cos(2 * np.pi * k * t_fine / n + 0.3)
        assert np.allclose(up, expected, atol=1e-9)

    def test_length_one_is_constant(self):
        up = fft_upsample(np.array([3.5]), 4)
        assert np.allclose(up, 3.5)

    def test_complex_exponential_even_and_odd(self):
        for n in (64, 63):
            t = np.arange(n)
            signal = np.exp(2j * np.pi * 7 * t / n)
            up = fft_upsample(signal, 4)
            t_fine = np.arange(n * 4) / 4
            expected = np.exp(2j * np.pi * 7 * t_fine / n)
            assert np.allclose(up, expected, atol=1e-9)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            fft_upsample(rng.standard_normal((4, 4)), 2)
        with pytest.raises(ValueError):
            fft_upsample(rng.standard_normal(8), 0)


class TestFractionalDelay:
    def test_integer_delay_is_roll(self, rng):
        spectrum = np.zeros(64, dtype=complex)
        spectrum[:10] = rng.standard_normal(10)
        signal = np.fft.ifft(spectrum).real
        delayed = fractional_delay(signal, 3.0)
        assert np.allclose(delayed, np.roll(signal, 3), atol=1e-9)

    def test_zero_delay_identity(self, rng):
        signal = rng.standard_normal(32)
        assert np.allclose(fractional_delay(signal, 0.0), signal, atol=1e-12)

    def test_energy_preserved_for_bandlimited(self, rng):
        # Energy preservation holds for signals without Nyquist-bin
        # content (all our pulses are band-limited by construction).
        spectrum = np.zeros(64, dtype=complex)
        spectrum[1:12] = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        spectrum[-11:] = np.conj(spectrum[1:12][::-1])
        signal = np.fft.ifft(spectrum).real
        delayed = fractional_delay(signal, 0.37)
        assert np.sum(delayed**2) == pytest.approx(np.sum(signal**2), rel=1e-9)

    def test_half_then_half_equals_one(self, rng):
        spectrum = np.zeros(64, dtype=complex)
        spectrum[:8] = rng.standard_normal(8)
        signal = np.fft.ifft(spectrum).real
        twice = fractional_delay(fractional_delay(signal, 0.5), 0.5)
        assert np.allclose(twice, fractional_delay(signal, 1.0), atol=1e-9)

    def test_rejects_2d(self, rng):
        with pytest.raises(ValueError):
            fractional_delay(rng.standard_normal((2, 2)), 0.5)


class TestPlacePulse:
    def test_integer_placement(self, default_pulse):
        buffer = np.zeros(100, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 50.0, amplitude=2.0)
        assert np.argmax(np.abs(buffer)) == 50
        peak_value = default_pulse.samples[default_pulse.peak_index]
        assert buffer[50] == pytest.approx(2.0 * peak_value)

    def test_fractional_placement_preserves_energy(self, default_pulse):
        buffer = np.zeros(200, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 100.3, amplitude=1.0)
        assert np.sum(np.abs(buffer) ** 2) == pytest.approx(1.0, rel=1e-3)

    def test_complex_amplitude(self, default_pulse):
        buffer = np.zeros(100, dtype=complex)
        amp = 0.5 * np.exp(1j * 1.2)
        place_pulse(buffer, default_pulse.samples, 40.0, amplitude=amp)
        peak_value = default_pulse.samples[default_pulse.peak_index]
        assert buffer[40] == pytest.approx(amp * peak_value)

    def test_additive(self, default_pulse):
        buffer = np.zeros(100, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 30.0)
        place_pulse(buffer, default_pulse.samples, 30.0)
        peak_value = default_pulse.samples[default_pulse.peak_index]
        assert buffer[30] == pytest.approx(2.0 * peak_value)

    def test_clipping_at_start(self, default_pulse):
        buffer = np.zeros(100, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 2.0)
        # No exception; partial energy landed.
        assert 0 < np.sum(np.abs(buffer) ** 2) < 1.0

    def test_clipping_at_end(self, default_pulse):
        buffer = np.zeros(100, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 98.0)
        assert 0 < np.sum(np.abs(buffer) ** 2) < 1.0

    def test_fully_outside_is_noop(self, default_pulse):
        buffer = np.zeros(100, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 500.0)
        assert np.all(buffer == 0)

    def test_cancellation(self, default_pulse):
        """Subtracting what was placed leaves (near) zero — the core
        operation of search-and-subtract step 5."""
        buffer = np.zeros(200, dtype=complex)
        place_pulse(buffer, default_pulse.samples, 77.4, amplitude=1.5)
        place_pulse(buffer, default_pulse.samples, 77.4, amplitude=-1.5)
        assert np.max(np.abs(buffer)) < 1e-9


class TestPlacedSegment:
    """One placement of placed_segments — the helper the engine's step-5
    update correlates — must describe exactly what place_pulse adds into
    a buffer."""

    @pytest.mark.parametrize("position", (50.0, 50.25, 3.0, 2.7, 97.9))
    def test_matches_place_pulse(self, default_pulse, position):
        samples = default_pulse.samples.astype(complex)
        buffer = np.zeros(100, dtype=complex)
        place_pulse(
            buffer, samples, position, amplitude=1.0,
            peak_index=default_pulse.peak_index,
        )
        starts, lengths, segments = placed_segments(
            samples, [position], default_pulse.peak_index
        )
        start, segment = int(starts[0]), segments[0, : lengths[0]]
        rebuilt = np.zeros(100, dtype=complex)
        src_start = max(0, -start)
        src_stop = len(segment) - max(0, start + len(segment) - 100)
        if src_start < src_stop:
            rebuilt[start + src_start : start + src_stop] = segment[
                src_start:src_stop
            ]
        assert np.allclose(rebuilt, buffer, atol=1e-12)

    def test_integer_position_returns_unshifted_samples(self, default_pulse):
        samples = default_pulse.samples.astype(complex)
        starts, lengths, segments = placed_segments(
            samples, [40.0, 41.0], default_pulse.peak_index
        )
        assert list(lengths) == [len(samples)] * 2
        for segment in segments:
            # No fractional shift; the padding column stays zero.
            assert np.array_equal(segment[: len(samples)], samples)
            assert segment[-1] == 0.0
        assert list(starts) == [
            40 - default_pulse.peak_index, 41 - default_pulse.peak_index
        ]

    def test_fractional_position_pads_one_sample(self, default_pulse):
        samples = default_pulse.samples.astype(complex)
        _, lengths, segments = placed_segments(
            samples, [40.5, 40.0], default_pulse.peak_index
        )
        assert segments.shape == (2, len(samples) + 1)
        assert list(lengths) == [len(samples) + 1, len(samples)]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            placed_segments(np.zeros((2, 2)), [1.0])
