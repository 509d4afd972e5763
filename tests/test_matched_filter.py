"""Unit tests for repro.core.matched_filter."""

import numpy as np
import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import filter_pass
from repro.core.matched_filter import matched_filter
from repro.core.plan import detector_plan
from repro.signal.sampling import place_pulse


def filter_bank_outputs(cir, bank):
    """The engine's filter pass on one native-rate CIR (no upsampling)."""
    plan = detector_plan(list(bank), len(cir), 1, TS)
    return filter_pass(plan, np.asarray(cir)[np.newaxis, :])[0][0]


class TestAlignment:
    def test_peak_lands_on_pulse_position(self, default_pulse):
        cir = np.zeros(512, dtype=complex)
        place_pulse(cir, default_pulse.samples.astype(complex), 237.0, 1.0)
        y = matched_filter(cir, default_pulse)
        assert np.argmax(np.abs(y)) == 237

    def test_output_length_matches_input(self, default_pulse, rng):
        cir = rng.standard_normal(300) + 0j
        assert len(matched_filter(cir, default_pulse)) == 300

    def test_amplitude_recovered_with_unit_energy_template(self, default_pulse):
        """y at the peak equals the pulse's complex amplitude (the basis
        of the paper's step 4)."""
        cir = np.zeros(512, dtype=complex)
        amp = 0.7 * np.exp(1j * 0.9)
        place_pulse(cir, default_pulse.samples.astype(complex), 100.0, amp)
        y = matched_filter(cir, default_pulse)
        assert y[100] == pytest.approx(amp, rel=1e-6)

    def test_pulse_near_edges(self, default_pulse):
        cir = np.zeros(128, dtype=complex)
        place_pulse(cir, default_pulse.samples.astype(complex), 5.0, 1.0)
        y = matched_filter(cir, default_pulse)
        assert np.argmax(np.abs(y)) == 5

    def test_raw_array_template(self, default_pulse):
        cir = np.zeros(256, dtype=complex)
        place_pulse(cir, default_pulse.samples.astype(complex), 80.0, 1.0)
        y = matched_filter(cir, default_pulse.samples)
        assert np.argmax(np.abs(y)) == 80


class TestSnrGain:
    def test_filter_improves_snr(self, default_pulse, rng):
        """The paper's observation on Fig. 4b: matched filtering
        increases the CIR's SNR."""
        fine = default_pulse.resampled(default_pulse.sampling_period_s / 8)
        n = 2048
        cir = np.zeros(n, dtype=complex)
        place_pulse(cir, fine.samples.astype(complex), 1000.0, 0.05)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        noisy = cir + 0.01 * noise
        y = matched_filter(noisy, fine)
        snr_before = np.abs(noisy[1000]) / 0.01
        noise_out = np.std(np.abs(y[:500]))
        snr_after = np.abs(y[1000]) / noise_out
        assert snr_after > snr_before


class TestValidation:
    def test_rejects_2d_cir(self, default_pulse, rng):
        with pytest.raises(ValueError):
            matched_filter(rng.standard_normal((10, 10)), default_pulse)

    def test_rejects_2d_template(self, rng):
        with pytest.raises(ValueError):
            matched_filter(rng.standard_normal(32), rng.standard_normal((2, 2)))

    def test_rejects_bad_peak_index(self, default_pulse, rng):
        with pytest.raises(ValueError):
            matched_filter(
                rng.standard_normal(64), default_pulse.samples, peak_index=999
            )


class TestFilterBank:
    def test_stacked_shape(self, paper_bank, rng):
        cir = rng.standard_normal(256) + 0j
        outputs = filter_bank_outputs(cir, paper_bank)
        assert outputs.shape == (3, 256)

    def test_matching_template_wins(self, paper_bank):
        cir = np.zeros(512, dtype=complex)
        place_pulse(cir, paper_bank[1].samples.astype(complex), 200.0, 1.0)
        outputs = filter_bank_outputs(cir, paper_bank)
        peaks = np.abs(outputs[:, 200])
        assert np.argmax(peaks) == 1
