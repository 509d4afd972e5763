"""Unit tests for the least-squares amplitude refinement (ablation A3)."""

import numpy as np
import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.detection import (
    SearchAndSubtract,
    SearchAndSubtractConfig,
    refine_amplitudes_least_squares,
)
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse


@pytest.fixture(scope="module")
def detector():
    return SearchAndSubtract(
        dw1000_pulse(), SearchAndSubtractConfig(max_responses=2)
    )


def overlapping_cir(separation_samples, amp2=0.8j):
    pulse = dw1000_pulse()
    cir = np.zeros(1016, dtype=complex)
    place_pulse(cir, pulse.samples.astype(complex), 300.0, 1.0)
    place_pulse(
        cir, pulse.samples.astype(complex), 300.0 + separation_samples, amp2
    )
    return cir


class TestLsRefinement:
    def test_positions_unchanged(self, detector):
        cir = overlapping_cir(1.3)
        plain = detector.detect(cir, TS)
        refined = detector.detect_with_ls_refinement(cir, TS)
        for a, b in zip(plain, refined):
            assert a.index == b.index
            assert a.template_index == b.template_index

    def test_amplitudes_improve_for_overlap(self, detector):
        cir = overlapping_cir(1.3)
        plain = detector.detect(cir, TS)
        refined = detector.detect_with_ls_refinement(cir, TS)
        truth = {0: 1.0, 1: 0.8}  # by delay order
        plain_err = sum(
            abs(abs(r.amplitude) - truth[i]) for i, r in enumerate(plain)
        )
        ls_err = sum(
            abs(abs(r.amplitude) - truth[i]) for i, r in enumerate(refined)
        )
        assert ls_err <= plain_err + 1e-9

    def test_separated_pulses_equal_estimates(self, detector):
        cir = overlapping_cir(200.0)
        plain = detector.detect(cir, TS)
        refined = detector.detect_with_ls_refinement(cir, TS)
        for a, b in zip(plain, refined):
            assert abs(a.amplitude) == pytest.approx(abs(b.amplitude), rel=0.01)

    def test_single_response_passthrough(self, detector):
        pulse = dw1000_pulse()
        cir = np.zeros(512, dtype=complex)
        place_pulse(cir, pulse.samples.astype(complex), 200.0, 1.0)
        single = SearchAndSubtract(
            pulse, SearchAndSubtractConfig(max_responses=1)
        )
        refined = single.detect_with_ls_refinement(cir, TS)
        assert len(refined) == 1

    def test_refine_empty_list(self):
        assert refine_amplitudes_least_squares(
            np.zeros(64, dtype=complex), [], [dw1000_pulse()], TS
        ) == []

    def test_complex_amplitude_recovered(self, detector):
        cir = overlapping_cir(1.5, amp2=0.6 * np.exp(1j * 2.1))
        refined = detector.detect_with_ls_refinement(cir, TS)
        later = max(refined, key=lambda r: r.delay_s)
        assert abs(later.amplitude) == pytest.approx(0.6, abs=0.08)
        assert np.angle(later.amplitude) == pytest.approx(2.1, abs=0.3)

    @pytest.mark.parametrize("separation", (0.9, 1.3, 2.4, 3.8))
    def test_overlap_sweep_recovers_both_amplitudes(self, detector, separation):
        """Across a sweep of pulse overlaps the joint solve keeps both
        amplitude estimates close to the ground truth (quadrature
        amplitudes, so the overlapping mains don't merge coherently)."""
        cir = overlapping_cir(separation, amp2=0.8j)
        refined = detector.detect_with_ls_refinement(cir, TS)
        assert len(refined) == 2
        by_delay = sorted(refined, key=lambda r: r.delay_s)
        assert abs(by_delay[0].amplitude) == pytest.approx(1.0, abs=0.1)
        assert abs(by_delay[1].amplitude) == pytest.approx(0.8, abs=0.1)

    def test_refinement_engine_independent(self, detector):
        """LS refinement on top of the engine equals refinement on top
        of the re-filtering oracle."""
        from repro.core.detection import (
            SearchAndSubtractConfig,
            detect_reference,
            refine_amplitudes_least_squares,
        )
        from repro.signal.pulses import dw1000_pulse

        cir = overlapping_cir(1.7, amp2=0.7j)
        fast = detector.detect_with_ls_refinement(cir, TS)
        templates = [dw1000_pulse()]
        naive = refine_amplitudes_least_squares(
            cir,
            detect_reference(
                cir, templates, TS, SearchAndSubtractConfig(max_responses=2)
            ),
            templates,
            TS,
        )
        assert len(fast) == len(naive)
        for a, b in zip(fast, naive):
            assert np.isclose(a.index, b.index, rtol=1e-9, atol=1e-9)
            assert np.isclose(a.amplitude, b.amplitude, rtol=1e-9, atol=1e-12)

    def test_noisy_overlap_not_worse_than_plain(self, detector, rng):
        """With noise present the joint solve still does at least as well
        as the single-peak reads for overlapping responses."""
        cir = overlapping_cir(1.3)
        cir += 1e-3 * (
            rng.standard_normal(len(cir)) + 1j * rng.standard_normal(len(cir))
        )
        plain = detector.detect(cir, TS)
        refined = detector.detect_with_ls_refinement(cir, TS)
        truth = {0: 1.0, 1: 0.8}
        plain_err = sum(
            abs(abs(r.amplitude) - truth[i]) for i, r in enumerate(plain)
        )
        ls_err = sum(
            abs(abs(r.amplitude) - truth[i]) for i, r in enumerate(refined)
        )
        assert ls_err <= plain_err + 1e-3
