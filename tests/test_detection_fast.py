"""Regression tests: the spectrum-cached FFT engine vs the oracle.

The contract of :mod:`repro.core.plan` and :mod:`repro.core.batch`: the
engine (batched filter bank + incremental subtraction), run by
``detect()`` as a batch of one, is *numerically equivalent* to the
per-template re-filtering transcription of the paper's algorithm,
:func:`repro.core.detection.detect_reference`.  These tests enforce
agreement to ``rtol=1e-9`` (observed agreement is at roundoff, ~1e-14)
across bank sizes, CIR lengths (even and odd), noise levels, fractional
positions, and edge-clipped peaks.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import detect_batch, filter_pass
from repro.core.detection import (
    SearchAndSubtract,
    SearchAndSubtractConfig,
    detect_reference,
)
from repro.core.matched_filter import matched_filter
from repro.core.plan import (
    COVER_CORRELATION,
    DetectorPlan,
    bank_cover,
    detector_plan,
    peak_correlations,
)
from repro.runtime.cache import clear_all_caches, get_cache
from repro.signal.pulses import Pulse
from repro.signal.sampling import fft_upsample, place_pulse
from repro.signal.templates import TemplateBank

RTOL = 1e-9

#: >= 3 bank sizes, >= 3 CIR lengths (incl. an odd one), >= 3 noise levels.
BANK_SIZES = (1, 2, 3)
CIR_LENGTHS = (257, 512, 1016)
NOISE_STDS = (0.0, 1e-3, 3e-2)


def synth_cir(rng, n, bank, noise_std, positions_amplitudes):
    """A CIR with pulses from ``bank`` placed at fractional positions."""
    cir = np.zeros(n, dtype=complex)
    for shape_idx, position, amplitude in positions_amplitudes:
        template = bank[shape_idx % len(bank)]
        place_pulse(
            cir,
            template.samples.astype(complex),
            position,
            amplitude=amplitude,
            peak_index=template.peak_index,
        )
    if noise_std > 0.0:
        cir += noise_std * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2.0)
    return cir


def detect_both(bank, cir, noise_std=0.0, **config_kwargs):
    """Run the engine (a batch of one) and the oracle on the same CIR."""
    config_kwargs.setdefault("max_responses", 3)
    config = SearchAndSubtractConfig(**config_kwargs)
    fast = SearchAndSubtract(bank, config).detect(
        cir, TS, noise_std=noise_std
    )
    naive = detect_reference(cir, bank, TS, config, noise_std=noise_std)
    return fast, naive


def assert_equivalent(fast, naive):
    """Delays, amplitudes, template choices, and scores all agree."""
    assert len(fast) == len(naive)
    for f, n in zip(fast, naive):
        assert f.template_index == n.template_index
        assert np.isclose(f.index, n.index, rtol=RTOL, atol=1e-9)
        assert np.isclose(f.delay_s, n.delay_s, rtol=RTOL, atol=1e-21)
        assert np.isclose(f.amplitude, n.amplitude, rtol=RTOL, atol=1e-12)
        assert len(f.scores) == len(n.scores)
        assert np.allclose(f.scores, n.scores, rtol=RTOL, atol=1e-12)


class TestFastNaiveEquivalence:
    """The acceptance grid: bank sizes x CIR lengths x noise levels."""

    @pytest.mark.parametrize("n_templates", BANK_SIZES)
    @pytest.mark.parametrize("cir_length", CIR_LENGTHS)
    @pytest.mark.parametrize("noise_std", NOISE_STDS)
    def test_grid(self, n_templates, cir_length, noise_std):
        rng = np.random.default_rng(
            1000 * n_templates + cir_length + int(noise_std * 1e6)
        )
        bank = TemplateBank.paper_bank(n_templates)
        placements = [
            (0, 0.22 * cir_length + rng.uniform(-1, 1), 1.0),
            (1, 0.45 * cir_length + rng.uniform(-1, 1), 0.7 * np.exp(1.1j)),
            (2, 0.74 * cir_length + rng.uniform(-1, 1), 0.45 * np.exp(-0.6j)),
        ]
        cir = synth_cir(rng, cir_length, bank, noise_std, placements)
        fast, naive = detect_both(bank, cir, noise_std=noise_std)
        assert len(fast) == 3
        assert_equivalent(fast, naive)

    @pytest.mark.parametrize(
        "n_templates, n_pulses",
        [(4, 4), (1, 2)],
        ids=["table1", "fig7"],
    )
    def test_experiment_shapes(self, n_templates, n_pulses):
        """The Table I shape (4 templates, 4 pulses) and the Fig. 7
        shape (1 template, 2 pulses) on 1016-tap CIRs at 8x upsampling,
        16 random placements each."""
        rng = np.random.default_rng(2018 + n_templates)
        bank = TemplateBank.paper_bank(n_templates)
        for _ in range(16):
            placements = [
                (
                    int(rng.integers(n_templates)),
                    position,
                    rng.uniform(0.4, 1.0) * np.exp(2j * np.pi * rng.random()),
                )
                for position in np.sort(rng.uniform(16.0, 1000.0, n_pulses))
            ]
            cir = synth_cir(rng, 1016, bank, 1e-3, placements)
            fast, naive = detect_both(
                bank, cir, noise_std=1e-3,
                max_responses=n_pulses, upsample_factor=8,
            )
            assert_equivalent(fast, naive)

    @pytest.mark.parametrize("upsample_factor", (1, 4, 8))
    def test_upsample_factors(self, upsample_factor):
        rng = np.random.default_rng(77)
        bank = TemplateBank.paper_bank(2)
        cir = synth_cir(
            rng, 512, bank, 1e-3,
            [(0, 120.4, 1.0), (1, 300.0, 0.6j)],
        )
        fast, naive = detect_both(
            bank, cir, noise_std=1e-3,
            max_responses=2, upsample_factor=upsample_factor,
        )
        assert_equivalent(fast, naive)

    def test_overlapping_responses(self):
        """Close pulses exercise the incremental window update."""
        rng = np.random.default_rng(5)
        bank = TemplateBank.paper_bank(3)
        cir = synth_cir(
            rng, 512, bank, 1e-4,
            [(0, 200.0, 1.0), (2, 203.7, 0.8), (1, 209.3, 0.5j)],
        )
        fast, naive = detect_both(bank, cir, noise_std=1e-4)
        assert_equivalent(fast, naive)

    @pytest.mark.parametrize("position", (3.0, 3.4, 1013.0, 1012.6))
    def test_edge_clipped_peaks(self, position):
        """Peaks near the buffer edges clip the subtracted segment."""
        rng = np.random.default_rng(int(position * 10))
        bank = TemplateBank.paper_bank(2)
        cir = synth_cir(
            rng, 1016, bank, 1e-4,
            [(0, position, 1.0), (1, 500.0, 0.6)],
        )
        fast, naive = detect_both(bank, cir, noise_std=1e-4, max_responses=2)
        assert_equivalent(fast, naive)

    def test_pure_noise(self):
        """Both engines extract the same peaks from noise-only CIRs."""
        rng = np.random.default_rng(3)
        cir = 1e-3 * (
            rng.standard_normal(400) + 1j * rng.standard_normal(400)
        )
        bank = TemplateBank.paper_bank(2)
        fast, naive = detect_both(bank, cir, noise_std=1e-3, max_responses=2)
        assert_equivalent(fast, naive)

    def test_zero_cir_returns_nothing(self):
        bank = TemplateBank.paper_bank(2)
        fast, naive = detect_both(
            bank, np.zeros(256, dtype=complex), max_responses=2
        )
        assert fast == [] and naive == []

    @pytest.mark.parametrize("upsample_factor", (1, 4))
    @pytest.mark.parametrize("n_templates", (16, 32, 96))
    def test_covered_banks(self, n_templates, upsample_factor):
        """Banks with near-duplicate shapes are searched on their cover
        and each shape is picked within one tap of the coarse peak: a
        B=2 pass equals the oracle's rule row by row, with a pulse
        hanging off each buffer edge, and some responses are won by
        templates outside the cover."""
        rng = np.random.default_rng(n_templates + upsample_factor)
        bank = TemplateBank.spread(n_templates)
        cirs = np.stack(
            [
                synth_cir(
                    rng, 1016, bank, 1e-3,
                    [
                        (
                            int(rng.integers(n_templates)),
                            position,
                            rng.uniform(0.4, 1.0)
                            * np.exp(2j * np.pi * rng.random()),
                        )
                        for position in [
                            rng.uniform(-4.0, 10.0),
                            *rng.uniform(20.0, 996.0, 4),
                            rng.uniform(1006.0, 1020.0),
                        ]
                    ],
                )
                for _ in range(2)
            ]
        )
        config = SearchAndSubtractConfig(
            max_responses=8, upsample_factor=upsample_factor
        )
        fast = detect_batch(cirs, bank, TS, config, noise_std=1e-3)
        for row, cir in zip(fast, cirs):
            assert_equivalent(
                row, detect_reference(cir, bank, TS, config, noise_std=1e-3)
            )
        plan = detector_plan(list(bank), 1016, upsample_factor, TS)
        assert len(plan.coarse) < n_templates
        winners = {r.template_index for row in fast for r in row}
        assert winners - set(plan.coarse)


class TestEarlyStopGate:
    def test_min_peak_snr_stops_fast_path(self):
        """With one real response and a high gate, the fast path stops
        after one extraction instead of reporting noise peaks."""
        rng = np.random.default_rng(21)
        bank = TemplateBank.paper_bank(2)
        noise_std = 1e-2
        cir = synth_cir(rng, 512, bank, noise_std, [(0, 200.3, 1.0)])
        config = SearchAndSubtractConfig(max_responses=4, min_peak_snr=8.0)
        responses = SearchAndSubtract(bank, config).detect(
            cir, TS, noise_std=noise_std
        )
        assert len(responses) == 1
        assert responses[0].index == pytest.approx(200.3, abs=0.2)

    @pytest.mark.parametrize("min_peak_snr", (0.0, 5.0, 8.0))
    def test_gate_equivalence(self, min_peak_snr):
        rng = np.random.default_rng(31)
        bank = TemplateBank.paper_bank(3)
        noise_std = 5e-3
        cir = synth_cir(
            rng, 512, bank, noise_std,
            [(0, 150.2, 1.0), (1, 350.8, 0.08)],
        )
        fast, naive = detect_both(
            bank, cir, noise_std=noise_std,
            max_responses=4, min_peak_snr=min_peak_snr,
        )
        assert_equivalent(fast, naive)


class TestPlanCache:
    def test_plan_is_memoised(self, paper_bank):
        clear_all_caches()
        hits0, misses0 = get_cache("detector_plans").snapshot()
        templates = list(paper_bank)
        first = detector_plan(templates, 512, 8, TS)
        second = detector_plan(templates, 512, 8, TS)
        assert first is second
        hits, misses = get_cache("detector_plans").snapshot()
        assert (hits - hits0, misses - misses0) == (1, 1)

    def test_distinct_shapes_get_distinct_plans(self, paper_bank):
        templates = list(paper_bank)
        a = detector_plan(templates, 512, 8, TS)
        b = detector_plan(templates, 256, 8, TS)
        c = detector_plan(templates, 512, 4, TS)
        d = detector_plan(templates[:1], 512, 8, TS)
        assert len({id(a), id(b), id(c), id(d)}) == 4

    def test_repeated_detects_hit_cache(self, paper_bank):
        clear_all_caches()
        hits0, misses0 = get_cache("detector_plans").snapshot()
        rng = np.random.default_rng(4)
        detector = SearchAndSubtract(
            paper_bank, SearchAndSubtractConfig(max_responses=2)
        )
        for _ in range(20):
            cir = 1e-3 * (
                rng.standard_normal(256) + 1j * rng.standard_normal(256)
            )
            detector.detect(cir, TS)
        hits, misses = get_cache("detector_plans").snapshot()
        hits, misses = hits - hits0, misses - misses0
        assert misses == 1
        assert hits == 19
        assert hits / (hits + misses) > 0.9


def filter_bank(plan, working):
    """The reference filter bank: one ``matched_filter`` per template."""
    return np.stack(
        [matched_filter(working, template) for template in plan.templates]
    )


@functools.lru_cache(maxsize=None)
def _spread_bank(n_templates):
    """A bank whose templates differ in length."""
    return list(TemplateBank.spread(n_templates))


def _array_bytes(value):
    """Bytes held in the arrays reachable from a plan's fields."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, Pulse):
        return value.samples.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(item) for item in value)
    if dataclasses.is_dataclass(value):
        return sum(
            _array_bytes(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    return 0


class TestPlanInternals:
    def test_filter_bank_matches_matched_filter(self, paper_bank):
        """The engine's filter pass on a batch of one equals
        per-template ``matched_filter`` on the upsampled CIR."""
        rng = np.random.default_rng(2)
        factor = 4
        cir = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        working = fft_upsample(cir, factor)
        plan = detector_plan(list(paper_bank), 200, factor, TS)
        outputs, _, residual = filter_pass(plan, cir[np.newaxis, :])
        assert outputs.shape == (1, len(paper_bank), 200 * factor)
        for row, template in zip(outputs[0], plan.templates):
            assert np.allclose(
                row, matched_filter(working, template), rtol=RTOL, atol=1e-12
            )
        assert residual is None

    def test_covered_filter_pass_keeps_residual(self):
        """On a bank with templates outside its cover, the filter pass
        filters the coarse channels only and keeps the upsampled CIR,
        between zero margins, as the residual the local pick scores."""
        rng = np.random.default_rng(2)
        factor = 4
        cir = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        working = fft_upsample(cir, factor)
        plan = detector_plan(_spread_bank(32), 200, factor, TS)
        outputs, _, residual = filter_pass(plan, cir[np.newaxis, :])
        coarse = plan.coarse
        assert outputs.shape == (1, len(coarse), 200 * factor)
        assert len(coarse) < 32
        for row, t in zip(outputs[0], coarse):
            assert np.allclose(
                row,
                matched_filter(working, plan.templates[t]),
                rtol=RTOL,
                atol=1e-12,
            )
        margin = plan.residual_margin
        assert np.allclose(
            residual[0, margin:-margin], working, rtol=RTOL, atol=1e-12
        )
        assert not residual[0, :margin].any()
        assert not residual[0, -margin:].any()

    def test_subtract_response_matches_refilter(self, paper_bank):
        """The incremental update equals subtract-then-refilter."""
        rng = np.random.default_rng(6)
        factor = 2
        cir = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        working = fft_upsample(cir, factor)
        plan = DetectorPlan.build(list(paper_bank), 128, factor, TS)
        for position, amplitude in ((50.0, 1.2), (81.37, 0.5 - 0.2j)):
            outputs = filter_bank(plan, working)[np.newaxis]
            magnitudes = np.abs(outputs)
            before = outputs.copy()
            template = plan.templates[1]
            place_pulse(
                working,
                template.samples.astype(complex),
                position,
                amplitude=-amplitude,
                peak_index=template.peak_index,
            )
            expected = filter_bank(plan, working)
            plan.subtract_responses(
                outputs, magnitudes, [0], [1], [position], [amplitude]
            )
            assert not np.array_equal(outputs, before)
            assert np.allclose(outputs[0], expected, rtol=RTOL, atol=1e-12)
            assert np.array_equal(magnitudes, np.abs(outputs))

    def test_subtract_response_outside_signal_is_noop(self, paper_bank):
        plan = DetectorPlan.build(list(paper_bank), 64, 1, TS)
        outputs = np.ones((1, 3, 64), dtype=complex)
        magnitudes = np.ones((1, 3, 64))
        plan.subtract_responses(outputs, magnitudes, [0], [0], [5000.0], [1.0])
        assert np.all(outputs == 1.0)
        assert np.all(magnitudes == 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_templates=st.sampled_from((3, 5)),
        factor=st.sampled_from((1, 2)),
        cir_length=st.sampled_from((160, 211)),
        kinds=st.lists(
            st.sampled_from(
                ("integer", "fractional", "clipped", "outside")
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_subtract_responses_matches_refilter(
        self, seed, n_templates, factor, cir_length, kinds
    ):
        """One batched step-5 update equals place_pulse + re-filtering
        on every row, for integer, fractional, edge-clipped and
        fully-outside placements of templates of different lengths, and
        the residual loses exactly what place_pulse subtracts; rows it
        does not touch stay byte-identical."""
        rng = np.random.default_rng(seed)
        bank = _spread_bank(n_templates)
        plan = DetectorPlan.build(bank, cir_length, factor, TS)
        n_fine = plan.n_fine
        # One more row than picks: the last row is never updated.
        workings = rng.standard_normal((len(kinds) + 1, n_fine)) + 1j * (
            rng.standard_normal((len(kinds) + 1, n_fine))
        )
        outputs = np.stack([filter_bank(plan, w) for w in workings])
        magnitudes = np.abs(outputs)
        expected = outputs.copy()
        margin = plan.residual_margin
        residual = np.pad(workings, ((0, 0), (margin, margin)))
        expected_residual = residual.copy()
        rows = rng.permutation(len(kinds))
        template_indices = rng.integers(n_templates, size=len(kinds))
        amplitudes = rng.standard_normal(len(kinds)) + 1j * (
            rng.standard_normal(len(kinds))
        )
        positions = []
        for row, t, amplitude, kind in zip(
            rows, template_indices, amplitudes, kinds
        ):
            template = plan.templates[t]
            span = len(template.samples)
            head = template.peak_index
            tail = span - head
            if kind == "integer":
                position = float(rng.integers(span, n_fine - span))
            elif kind == "fractional":
                position = rng.uniform(span, n_fine - span)
            elif kind == "clipped":
                # Hangs off the first or the last buffer sample.
                position = rng.choice(
                    [
                        rng.uniform(-0.5 * head, head),
                        rng.uniform(n_fine - tail + 1, n_fine + 0.5 * tail),
                    ]
                )
                if rng.random() < 0.5:
                    position = float(np.floor(position))
            else:
                position = rng.choice([-2.0 * span, n_fine + 2.0 * span])
                position += rng.choice([0.0, 0.5])
            positions.append(position)
            working = workings[row].copy()
            place_pulse(
                working,
                template.samples.astype(complex),
                position,
                amplitude=-amplitude,
                peak_index=template.peak_index,
            )
            expected[row] = filter_bank(plan, working)
            expected_residual[row, margin:-margin] = working
            if kind == "outside":
                expected[row] = outputs[row]
        untouched = [
            row for row, kind in zip(rows, kinds) if kind == "outside"
        ] + [len(kinds)]
        before = outputs[untouched].copy()
        residual_before = residual[untouched].copy()

        plan.subtract_responses(
            outputs, magnitudes, rows, template_indices, positions,
            amplitudes, residual,
        )
        assert np.allclose(outputs, expected, rtol=RTOL, atol=1e-12)
        assert np.array_equal(outputs[untouched], before)
        assert np.array_equal(magnitudes, np.abs(outputs))
        assert np.allclose(residual, expected_residual, rtol=RTOL, atol=1e-12)
        assert np.array_equal(residual[untouched], residual_before)
        assert not residual[:, :margin].any()
        assert not residual[:, -margin:].any()

    def test_96_shape_plan_is_small(self):
        """The swarm's 96-shape plan (1016 taps, U=4) holds the spectra
        of its 12 coarse channels, the 96 fine templates and the
        scoring matrix of the other 84: under 2 MiB of arrays in all
        (7.9 MiB with spectra for all 96 filters)."""
        plan = DetectorPlan.build(_spread_bank(96), 1016, 4, TS)
        assert len(plan.coarse) == 12
        assert plan.scoring.shape[1] == 84
        assert _array_bytes(plan) < 2 * 2**20

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(("paper", "spread")),
        count=st.integers(1, 96),
        factor=st.sampled_from((1, 4, 8)),
    )
    @example(kind="spread", count=96, factor=4)
    @example(kind="paper", count=4, factor=8)
    def test_bank_cover(self, kind, count, factor):
        """Every template correlates at least COVER_CORRELATION with a
        coarse channel; the Gram product equals the bank's
        cross-correlation matrix at the fine rate; the paper's banks
        and spread banks of up to 12 shapes are their own cover."""
        if kind == "paper":
            count = 1 + count % 4
            bank = TemplateBank.paper_bank(count)
        else:
            bank = TemplateBank.spread(count)
        fine = bank.resampled(TS / factor)
        correlations = peak_correlations(list(fine))
        np.testing.assert_allclose(
            correlations, fine.cross_correlation_matrix(), rtol=0, atol=1e-12
        )
        cover = bank_cover(list(fine))
        assert list(cover) == sorted(set(cover))
        assert np.all(
            correlations[:, list(cover)].max(axis=1) >= COVER_CORRELATION
        )
        if kind == "paper" or count <= 12:
            assert cover == tuple(range(count))

    def test_build_validates_inputs(self, paper_bank):
        with pytest.raises(ValueError):
            DetectorPlan.build([], 64, 1, TS)
        with pytest.raises(ValueError):
            DetectorPlan.build(list(paper_bank), 0, 1, TS)
        with pytest.raises(ValueError):
            DetectorPlan.build(list(paper_bank), 64, 0, TS)

    def test_filter_bank_validates_length(self, paper_bank):
        plan = detector_plan(list(paper_bank), 64, 2, TS)
        with pytest.raises(ValueError):
            filter_pass(plan, np.zeros((1, 32), dtype=complex))  # needs 64
        with pytest.raises(ValueError):
            filter_pass(plan, np.zeros((2, 64, 1), dtype=complex))
        with pytest.raises(ValueError):
            filter_pass(plan, np.zeros(64, dtype=complex))
