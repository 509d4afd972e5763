"""Unit tests for the search-and-subtract detector (paper Sect. IV)."""

import numpy as np
import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import filter_pass
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.plan import detector_plan
from repro.signal.sampling import place_pulse


def make_cir(pulses, n=1016, noise_std=0.0, rng=None):
    """pulses: iterable of (position, complex amplitude, template)."""
    cir = np.zeros(n, dtype=complex)
    for position, amplitude, template in pulses:
        place_pulse(cir, template.samples.astype(complex), position, amplitude)
    if noise_std > 0:
        cir += noise_std * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2)
    return cir


class TestConfig:
    def test_defaults(self):
        config = SearchAndSubtractConfig()
        assert config.max_responses == 1
        assert config.upsample_factor == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchAndSubtractConfig(max_responses=0)
        with pytest.raises(ValueError):
            SearchAndSubtractConfig(upsample_factor=0)
        with pytest.raises(ValueError):
            SearchAndSubtractConfig(min_peak_snr=-1.0)

    def test_empty_template_list_rejected(self):
        with pytest.raises(ValueError):
            SearchAndSubtract([])


class TestSingleResponse:
    def test_position_and_amplitude(self, default_pulse, rng):
        cir = make_cir(
            [(300.4, 1e-3 * np.exp(1j * 0.5), default_pulse)],
            noise_std=1e-5,
            rng=rng,
        )
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=1)
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert len(responses) == 1
        assert responses[0].index == pytest.approx(300.4, abs=0.1)
        assert abs(responses[0].amplitude) == pytest.approx(1e-3, rel=0.05)

    def test_delay_is_index_times_period(self, default_pulse):
        cir = make_cir([(200.0, 1.0, default_pulse)])
        detector = SearchAndSubtract(default_pulse)
        response = detector.detect(cir, TS)[0]
        assert response.delay_s == pytest.approx(response.index * TS, rel=1e-9)

    def test_subsample_refinement_beats_integer(self, default_pulse):
        cir = make_cir([(150.37, 1.0, default_pulse)])
        refined = SearchAndSubtract(
            default_pulse,
            SearchAndSubtractConfig(max_responses=1),
        ).detect(cir, TS)[0]
        assert refined.index == pytest.approx(150.37, abs=0.06)


class TestMultipleResponses:
    def test_three_well_separated(self, default_pulse, rng):
        positions = (100.0, 300.5, 700.2)
        amplitudes = (1e-3, 0.6e-3, 0.3e-3)
        cir = make_cir(
            [(p, a, default_pulse) for p, a in zip(positions, amplitudes)],
            noise_std=1e-5,
            rng=rng,
        )
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=3)
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert len(responses) == 3
        for response, expected in zip(responses, positions):
            assert response.index == pytest.approx(expected, abs=0.2)

    def test_sorted_by_delay_not_amplitude(self, default_pulse, rng):
        """Step 7: responses come out in delay order regardless of
        amplitude — the amplitude-agnostic property."""
        cir = make_cir(
            [(500.0, 1e-3, default_pulse), (100.0, 0.2e-3, default_pulse)],
            noise_std=1e-5,
            rng=rng,
        )
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=2)
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert responses[0].index == pytest.approx(100.0, abs=0.2)
        assert abs(responses[0].amplitude) < abs(responses[1].amplitude)

    def test_weak_next_to_strong(self, default_pulse, rng):
        """Subtraction exposes a 10x weaker response 6 samples away."""
        cir = make_cir(
            [(400.0, 1e-3, default_pulse), (406.0, 1e-4, default_pulse)],
            noise_std=2e-6,
            rng=rng,
        )
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=2)
        )
        responses = detector.detect(cir, TS, noise_std=2e-6)
        assert len(responses) == 2
        assert responses[1].index == pytest.approx(406.0, abs=0.3)

    def test_overlapping_half_pulse_apart(self, default_pulse, rng):
        """The Sect. VI capability: two responses ~1 ns apart resolve."""
        cir = make_cir(
            [(400.0, 1e-3, default_pulse), (401.0, 0.9e-3 * 1j, default_pulse)],
            noise_std=1e-5,
            rng=rng,
        )
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=2)
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert len(responses) == 2
        indices = sorted(r.index for r in responses)
        assert indices[0] == pytest.approx(400.0, abs=0.5)
        assert indices[1] == pytest.approx(401.0, abs=0.5)


class TestEarlyStop:
    def test_noise_gate_stops_iteration(self, default_pulse, rng):
        cir = make_cir(
            [(300.0, 1e-3, default_pulse)], noise_std=1e-5, rng=rng
        )
        detector = SearchAndSubtract(
            default_pulse,
            SearchAndSubtractConfig(max_responses=5, min_peak_snr=8.0),
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert len(responses) == 1

    def test_no_gate_extracts_exactly_n(self, default_pulse, rng):
        cir = make_cir(
            [(300.0, 1e-3, default_pulse)], noise_std=1e-5, rng=rng
        )
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=3, min_peak_snr=0.0)
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert len(responses) == 3  # paper behaviour: N-1 strongest, period


class TestMultiTemplate:
    def test_correct_template_recorded(self, paper_bank, rng):
        cir = make_cir(
            [(200.0, 1e-3, paper_bank[0]), (600.0, 0.7e-3, paper_bank[2])],
            noise_std=1e-5,
            rng=rng,
        )
        detector = SearchAndSubtract(
            paper_bank, SearchAndSubtractConfig(max_responses=2)
        )
        responses = detector.detect(cir, TS, noise_std=1e-5)
        assert responses[0].template_index == 0
        assert responses[1].template_index == 2

    def test_scores_per_template(self, paper_bank, rng):
        cir = make_cir([(200.0, 1e-3, paper_bank[1])], noise_std=1e-5, rng=rng)
        detector = SearchAndSubtract(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        response = detector.detect(cir, TS, noise_std=1e-5)[0]
        assert len(response.scores) == 3
        assert int(np.argmax(response.scores)) == 1


class TestResidual:
    def test_subtraction_removes_energy(self, default_pulse):
        """After subtracting the only response, the residual filter
        output drops by an order of magnitude (paper Fig. 4c)."""
        cir = make_cir([(300.0, 1.0, default_pulse)])
        detector = SearchAndSubtract(
            default_pulse, SearchAndSubtractConfig(max_responses=2)
        )
        responses = detector.detect(cir, TS)
        # The weaker "response" is the residual left after subtracting
        # the real one (output is delay-sorted, so compare by magnitude).
        magnitudes = sorted(abs(r.amplitude) for r in responses)
        assert magnitudes[0] < 0.12 * magnitudes[1]


class TestInputValidation:
    def test_rejects_2d(self, default_pulse, rng):
        detector = SearchAndSubtract(default_pulse)
        with pytest.raises(ValueError):
            detector.detect(rng.standard_normal((2, 8)), TS)

    def test_matched_filter_output_accessor(self, default_pulse):
        cir = make_cir([(100.0, 1.0, default_pulse)])
        detector = SearchAndSubtract(default_pulse)
        factor = detector.config.upsample_factor
        # The upsampled matched-filter curve of Fig. 4b.
        plan = detector_plan(detector.templates, len(cir), factor, TS)
        y = filter_pass(plan, cir[np.newaxis, :])[0][0, 0]
        assert len(y) == len(cir) * factor
        assert np.argmax(np.abs(y)) == pytest.approx(800, abs=4)
