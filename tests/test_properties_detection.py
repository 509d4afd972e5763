"""Differential property tests: the engine agrees with its oracle.

Each detector ships as one engine plus one oracle —

* search-and-subtract: the batched engine
  (:func:`repro.core.batch.detect_batch`, which ``detect()`` runs as a
  batch of one) against the per-template re-filtering loop
  :func:`~repro.core.detection.detect_reference`;
* threshold baseline: the trigger-hopping scan (and the
  batched-upsampling :meth:`~repro.core.threshold.ThresholdDetector.detect_batch`)
  against the sample-by-sample
  :func:`~repro.core.threshold.detect_threshold_reference`.

This module hammers randomly generated CIRs — odd and even lengths,
fractional and edge-clipped pulse placements, single- and
multi-template banks — through every path and requires the *same
decisions* (response count, template choice) with numerics matching at
``rtol <= 1e-9`` (in practice byte-identical on pocketfft builds, but
the tolerance keeps the suite platform-safe).

``TestConcurrentCalls`` runs every entry point from four threads at
once and one thread's scratch through several batch sizes, a second
bank and a cache clear: each must return exactly the sequential
results.

On the Table I shape (4-template bank, 1016-tap CIRs, 8x upsampling,
4 responses) the batched engines also equal the per-CIR calls at
B in {1, 8, 64}, a B=64 pass makes at most an eighth of the per-CIR
loop's transform calls (``TestBatchSpeedup``), and a two-worker
``run_trials`` sweep builds the plan once per worker
(``TestWorkerPlanReuse``).
"""

import functools
import sys
import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch import detect_batch
from repro.core.batch_id import ClassifyBatchTrial, classify_batch
from repro.core.detection import (
    SearchAndSubtract,
    SearchAndSubtractConfig,
    detect_reference,
)
from repro.core.plan import detector_plan
from repro.core.pulse_id import PulseShapeClassifier
from repro.core.threshold import (
    ThresholdConfig,
    ThresholdDetector,
    detect_threshold_reference,
)
from repro.runtime import MetricsRegistry, choose_batch_size, run_trials
from repro.runtime.cache import clear_all_caches, get_cache
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

TS = CIR_SAMPLING_PERIOD_S
RTOL = 1e-9

_PULSE = dw1000_pulse()
_BANK = TemplateBank.paper_bank(2)

#: Odd, even, prime, and power-of-two-unfriendly lengths: exercises the
#: ``next_fast_len`` padding and the upsampler's odd/even Nyquist split.
_LENGTHS = (257, 318, 509, 1016)


def _random_cir(
    rng: np.random.Generator,
    length: int,
    n_pulses: int,
    clipped: bool = False,
    noise: float = 0.01,
) -> np.ndarray:
    """A CIR with fractional-position pulses and complex white noise.

    ``clipped=True`` allows placements hanging off either edge of the
    buffer (``place_pulse`` clips the out-of-range part), the case where
    a sloppy window computation in any engine would first diverge.
    """
    cir = np.zeros(length, dtype=complex)
    template = _PULSE.samples.astype(complex)
    for _ in range(n_pulses):
        if clipped:
            position = float(rng.uniform(-20.0, length + 20.0))
        else:
            position = float(rng.uniform(40.0, length - 40.0))
        amplitude = rng.uniform(0.2, 1.0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi)
        )
        place_pulse(cir, template, position, amplitude)
    cir += noise * (
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
    ) / np.sqrt(2.0)
    return cir


#: The Table I / Fig. 4 engine shape.
_TABLE1_BANK = TemplateBank.paper_bank(4)
_TABLE1_CONFIG = SearchAndSubtractConfig(max_responses=4, upsample_factor=8)
_TABLE1_NOISE = 1e-3


@functools.lru_cache(maxsize=None)
def _table1_cirs() -> np.ndarray:
    """64 Table I-shaped CIRs: 4 bank pulses at random fractional
    positions with random amplitudes and phases, plus white noise."""
    rng = np.random.default_rng(2018)
    cirs = np.zeros((64, 1016), dtype=complex)
    for cir in cirs:
        for position in np.sort(rng.uniform(16.0, 1000.0, size=4)):
            template = _TABLE1_BANK[int(rng.integers(len(_TABLE1_BANK)))]
            amplitude = rng.uniform(0.4, 1.0) * np.exp(
                2j * np.pi * rng.random()
            )
            place_pulse(
                cir,
                template.samples.astype(complex),
                position,
                amplitude=amplitude,
                peak_index=template.peak_index,
            )
        cir += _TABLE1_NOISE * (
            rng.standard_normal(1016) + 1j * rng.standard_normal(1016)
        ) / np.sqrt(2.0)
    cirs.setflags(write=False)  # one cached array serves every test
    return cirs


def _in_batches(engine, cirs, batch):
    """``engine`` over ``cirs`` in consecutive groups of ``batch``."""
    return [
        row
        for start in range(0, len(cirs), batch)
        for row in engine(
            cirs[start:start + batch],
            _TABLE1_BANK,
            TS,
            _TABLE1_CONFIG,
            noise_std=_TABLE1_NOISE,
        )
    ]


def _assert_responses_close(got, want):
    """Same decisions, numerics within RTOL."""
    assert len(got) == len(want)
    for response, reference in zip(got, want):
        assert response.template_index == reference.template_index
        assert response.index == pytest.approx(
            reference.index, rel=RTOL, abs=1e-9
        )
        assert response.delay_s == pytest.approx(
            reference.delay_s, rel=RTOL, abs=1e-18
        )
        assert abs(response.amplitude - reference.amplitude) <= RTOL * max(
            1.0, abs(reference.amplitude)
        )
        assert len(response.scores) == len(reference.scores)
        for score, ref_score in zip(response.scores, reference.scores):
            assert score == pytest.approx(ref_score, rel=RTOL, abs=1e-12)


class TestSearchEnginesAgree:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        n_pulses=st.integers(1, 3),
        clipped=st.booleans(),
    )
    def test_fast_matches_naive(self, seed, length, n_pulses, clipped):
        rng = np.random.default_rng(seed)
        cir = _random_cir(rng, length, n_pulses, clipped=clipped)
        config = SearchAndSubtractConfig(max_responses=n_pulses)
        fast = SearchAndSubtract(_BANK, config).detect(cir, TS, noise_std=0.01)
        naive = detect_reference(cir, _BANK, TS, config, noise_std=0.01)
        _assert_responses_close(fast, naive)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(1, 5),
        clipped=st.booleans(),
    )
    def test_batched_matches_fast(self, seed, length, batch, clipped):
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [
                _random_cir(rng, length, rng.integers(1, 4), clipped=clipped)
                for _ in range(batch)
            ]
        )
        config = SearchAndSubtractConfig(max_responses=3)
        detector = SearchAndSubtract(_BANK, config)
        serial = [detector.detect(cirs[b], TS, noise_std=0.01) for b in range(batch)]
        batched = detect_batch(cirs, _BANK, TS, config, noise_std=0.01)
        assert len(batched) == batch
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)

    def test_table1_batches_match_per_cir(self):
        cirs = _table1_cirs()
        detector = SearchAndSubtract(_TABLE1_BANK, _TABLE1_CONFIG)
        serial = [
            detector.detect(cir, TS, noise_std=_TABLE1_NOISE) for cir in cirs
        ]
        for batch in (1, 8, 64):
            batched = _in_batches(detect_batch, cirs, batch)
            assert len(batched) == len(serial)
            for got, want in zip(batched, serial):
                _assert_responses_close(got, want)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from(_LENGTHS))
    def test_per_trial_noise_vector_matches_scalar_calls(self, seed, length):
        """A length-B noise vector means trial b sees noise_std[b]."""
        rng = np.random.default_rng(seed)
        cirs = np.stack([_random_cir(rng, length, 2) for _ in range(3)])
        stds = [0.005, 0.02, 0.08]
        config = SearchAndSubtractConfig(max_responses=2, min_peak_snr=4.0)
        detector = SearchAndSubtract(_PULSE, config)
        serial = [
            detector.detect(cirs[b], TS, noise_std=stds[b]) for b in range(3)
        ]
        batched = detect_batch(cirs, _PULSE, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)


class TestRaggedEarlyStop:
    """The vectorised extraction loop retires rows independently (the
    active-row mask): a row whose best peak falls under its noise gate
    stops iterating while its neighbours keep extracting.  These tests
    *force* that ragged termination with per-row noise floors spanning
    two orders of magnitude and require the batched results to stay
    differentially equal to B independent serial runs."""

    @staticmethod
    def _ragged_stds(batch: int):
        # gate = min_peak_snr * std * sqrt(upsample_factor); with
        # amplitudes in [0.2, 1.0] these four decades take rows from
        # "extract everything" down to "gated out before iteration 0".
        return [0.002 * (6.0 ** (b % 4)) for b in range(batch)]

    def test_rows_stop_at_different_iterations(self):
        rng = np.random.default_rng(5)
        batch = 4
        cirs = np.stack(
            [_random_cir(rng, 509, 3, noise=0.0) for _ in range(batch)]
        )
        stds = self._ragged_stds(batch)
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        detector = SearchAndSubtract(_BANK, config)
        serial = [
            detector.detect(cirs[b], TS, noise_std=stds[b])
            for b in range(batch)
        ]
        # The sweep only exercises the mask if termination is *actually*
        # ragged — guard the fixture, not just the comparison.
        assert len({len(responses) for responses in serial}) > 1
        batched = detect_batch(cirs, _BANK, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(2, 6),
        clipped=st.booleans(),
    )
    def test_ragged_sweep_matches_serial(self, seed, length, batch, clipped):
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [
                _random_cir(rng, length, rng.integers(1, 4), clipped=clipped)
                for _ in range(batch)
            ]
        )
        stds = self._ragged_stds(batch)
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        detector = SearchAndSubtract(_BANK, config)
        serial = [
            detector.detect(cirs[b], TS, noise_std=stds[b])
            for b in range(batch)
        ]
        batched = detect_batch(cirs, _BANK, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)

    def test_single_row_fully_gated(self):
        """B=1 whose only row gates out before iteration 0: the
        vectorised path must return ``[[]]``, not raise or hang."""
        rng = np.random.default_rng(9)
        cir = _random_cir(rng, 318, 2)
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        batched = detect_batch(
            cir[np.newaxis, :], _BANK, TS, config, noise_std=10.0
        )
        assert batched == [[]]

    def test_empty_batch_with_gates(self):
        """B=0 through the gated path stays the trivial empty list."""
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        assert detect_batch(
            np.zeros((0, 257)), _BANK, TS, config, noise_std=1.0
        ) == []


class TestThresholdEnginesAgree:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        n_pulses=st.integers(1, 3),
        clipped=st.booleans(),
    )
    def test_fast_scan_matches_naive(self, seed, length, n_pulses, clipped):
        rng = np.random.default_rng(seed)
        cir = _random_cir(rng, length, n_pulses, clipped=clipped)
        fast = ThresholdDetector(
            _PULSE, ThresholdConfig(max_responses=n_pulses)
        ).detect(cir, TS, noise_std=0.01)
        naive = detect_threshold_reference(
            cir, _PULSE, TS, ThresholdConfig(max_responses=n_pulses),
            noise_std=0.01,
        )
        # The two scans walk the *same* upsampled magnitude array, so
        # their peaks must agree exactly — no tolerance.
        assert [r.index for r in fast] == [r.index for r in naive]
        assert [r.amplitude for r in fast] == [r.amplitude for r in naive]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(1, 5),
    )
    def test_batched_matches_serial(self, seed, length, batch):
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [_random_cir(rng, length, rng.integers(1, 4)) for _ in range(batch)]
        )
        detector = ThresholdDetector(_PULSE, ThresholdConfig(max_responses=3))
        serial = [detector.detect(cirs[b], TS, noise_std=0.01) for b in range(batch)]
        batched = detector.detect_batch(cirs, TS, noise_std=0.01)
        assert len(batched) == batch
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)


class TestDegenerateBatches:
    def test_empty_batch_returns_empty(self):
        assert detect_batch(np.zeros((0, 256)), _PULSE, TS) == []
        detector = ThresholdDetector(_PULSE)
        assert detector.detect_batch(np.zeros((0, 256)), TS) == []

    def test_single_trial_batch_equals_serial(self):
        """B=1 is the degenerate batch: ``detect()`` is the same pass."""
        rng = np.random.default_rng(3)
        cir = _random_cir(rng, 509, 2)
        detector = SearchAndSubtract(
            _BANK, SearchAndSubtractConfig(max_responses=2)
        )
        serial = detector.detect(cir, TS, noise_std=0.01)  # warms the plan
        batched = detect_batch(
            cir[np.newaxis, :], _BANK, TS,
            SearchAndSubtractConfig(max_responses=2), noise_std=0.01,
        )
        assert len(batched) == 1
        _assert_responses_close(batched[0], serial)

    def test_empty_template_bank_rejected(self):
        with pytest.raises(ValueError):
            detect_batch(np.zeros((2, 256)), [], TS)

    def test_1d_input_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="np.newaxis"):
            detect_batch(np.zeros(256, dtype=complex), _PULSE, TS)

    def test_all_zero_batch_detects_nothing(self):
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        results = detect_batch(
            np.zeros((3, 257)), _PULSE, TS, config, noise_std=1.0
        )
        assert results == [[], [], []]
        detector = ThresholdDetector(_PULSE, ThresholdConfig(max_responses=3))
        assert detector.detect_batch(np.zeros((3, 257)), TS) == [[], [], []]

    def test_mismatched_noise_vector_rejected(self):
        with pytest.raises(ValueError):
            detect_batch(
                np.zeros((3, 257)), _PULSE, TS, noise_std=[0.1, 0.2]
            )


class TestPlanCacheKey:
    def test_same_shape_same_key(self):
        """Equal templates built apart share one cached plan."""
        assert detector_plan([_PULSE], 509, 8, TS) is detector_plan(
            [dw1000_pulse()], 509, 8, TS
        )


class TestClassifierEnginesAgree:
    """Differential sweep for the batched classifier (Sect. V at scale).

    :func:`repro.core.batch_id.classify_batch` must equal B independent
    :meth:`PulseShapeClassifier.classify` calls — same response count
    and order, same winning shape indices, confidences and positions
    within ``rtol <= 1e-9``.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(1, 5),
        clipped=st.booleans(),
    )
    def test_batched_matches_serial(self, seed, length, batch, clipped):
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch
        from repro.core.pulse_id import PulseShapeClassifier

        bank = TemplateBank.paper_bank(3)
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [
                _random_cir(rng, length, rng.integers(1, 4), clipped=clipped)
                for _ in range(batch)
            ]
        )
        config = SearchAndSubtractConfig(max_responses=3)
        classifier = PulseShapeClassifier(bank, config)
        serial = [
            classifier.classify(cirs[b], TS, noise_std=0.01)
            for b in range(batch)
        ]
        batched = classify_batch(cirs, bank, TS, config, noise_std=0.01)
        assert len(batched) == batch
        for got, want in zip(batched, serial):
            self._assert_classified_close(got, want)

    def test_table1_batches_match_per_cir(self):
        cirs = _table1_cirs()
        classifier = PulseShapeClassifier(_TABLE1_BANK, _TABLE1_CONFIG)
        serial = [
            classifier.classify(cir, TS, noise_std=_TABLE1_NOISE)
            for cir in cirs
        ]
        for batch in (1, 8, 64):
            batched = _in_batches(classify_batch, cirs, batch)
            assert len(batched) == len(serial)
            for got, want in zip(batched, serial):
                self._assert_classified_close(got, want)

    @staticmethod
    def _assert_classified_close(got, want):
        assert len(got) == len(want)
        for classified, reference in zip(got, want):
            assert classified.shape_index == reference.shape_index
            assert classified.shape_name == reference.shape_name
            if np.isinf(reference.confidence):
                assert np.isinf(classified.confidence)
            else:
                assert classified.confidence == pytest.approx(
                    reference.confidence, rel=RTOL
                )
            _assert_responses_close(
                [classified.response], [reference.response]
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from(_LENGTHS))
    def test_per_trial_noise_vector_matches_scalar_calls(self, seed, length):
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch
        from repro.core.pulse_id import PulseShapeClassifier

        bank = TemplateBank.paper_bank(2)
        rng = np.random.default_rng(seed)
        cirs = np.stack([_random_cir(rng, length, 2) for _ in range(3)])
        stds = [0.005, 0.02, 0.08]
        config = SearchAndSubtractConfig(max_responses=2, min_peak_snr=4.0)
        classifier = PulseShapeClassifier(bank, config)
        serial = [
            classifier.classify(cirs[b], TS, noise_std=stds[b])
            for b in range(3)
        ]
        batched = classify_batch(cirs, bank, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            self._assert_classified_close(got, want)

    def test_empty_batch_returns_empty(self):
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch

        assert classify_batch(np.zeros((0, 256)), _BANK, TS) == []

    def test_single_trial_batch_equals_serial(self):
        """B=1: the degenerate batch must round-trip the serial result."""
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch
        from repro.core.pulse_id import PulseShapeClassifier

        rng = np.random.default_rng(7)
        cir = _random_cir(rng, 509, 2)
        config = SearchAndSubtractConfig(max_responses=2)
        serial = PulseShapeClassifier(_BANK, config).classify(
            cir, TS, noise_std=0.01
        )
        batched = classify_batch(
            cir[np.newaxis, :], _BANK, TS, config, noise_std=0.01
        )
        assert len(batched) == 1
        self._assert_classified_close(batched[0], serial)

    def test_single_template_bank_confidence_infinite(self):
        """A 1-template bank has no runner-up: confidence is inf on both
        paths and every response maps to shape 0."""
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch

        bank = TemplateBank.paper_bank(1)
        rng = np.random.default_rng(11)
        cirs = np.stack([_random_cir(rng, 318, 1) for _ in range(2)])
        results = classify_batch(
            cirs, bank, TS, SearchAndSubtractConfig(max_responses=1),
            noise_std=0.01,
        )
        for trial in results:
            assert len(trial) == 1
            assert trial[0].shape_index == 0
            assert np.isinf(trial[0].confidence)

    def test_tied_scores_resolve_deterministically(self):
        """Ties (equal winning and runner-up scores) must resolve to
        ``np.argsort``'s descending-order winner with confidence 1.0 —
        the decision is deterministic, never platform- or path-
        dependent.  Both engines run the same shared decision core
        (:func:`repro.core.pulse_id.classify_responses`), so testing it
        once covers the serial and the batched path by construction."""
        from repro.core.detection import DetectedResponse
        from repro.core.pulse_id import classify_responses

        tied = DetectedResponse(
            index=100.0,
            delay_s=100.0 * TS,
            amplitude=1.0 + 0j,
            template_index=0,
            scores=(0.75, 0.75),
        )
        [classified] = classify_responses([tied])
        # np.argsort is stable ascending; reversed, the tie's winner is
        # the *last* maximal index — pinned here so any future change
        # (e.g. to a first-index rule) must consciously touch this test.
        assert classified.shape_index == 1
        assert classified.confidence == pytest.approx(1.0)

    def test_1d_input_rejected_with_guidance(self):
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch

        with pytest.raises(ValueError, match="np.newaxis"):
            classify_batch(np.zeros(256, dtype=complex), _BANK, TS)

    def test_empty_bank_rejected(self):
        from repro.core.batch_id import ClassifyBatchTrial, classify_batch

        with pytest.raises(ValueError, match="non-empty"):
            classify_batch(np.zeros((2, 256)), [], TS)


class TestConcurrentCalls:
    """Each thread runs the engine on its own scratch and the cached
    plans are immutable, so calls from several threads at once return
    exactly the sequential results, and one thread's scratch serves
    passes of any batch size on any plan."""

    N_THREADS = 4  # more threads than the cores the suite runs on
    PASSES = 3  # overlap several passes per thread

    def _run_threaded(self, call, inputs):
        """Every pass's ``call(inputs[k])`` result from thread ``k``."""
        results = [[] for _ in inputs]
        errors = []
        barrier = threading.Barrier(self.N_THREADS, timeout=30.0)

        def worker(k):
            try:
                barrier.wait()
                for _ in range(self.PASSES):
                    results[k].append(call(inputs[k]))
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(self.N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-pass, often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        return results

    def _assert_threads_equal_sequential(self, call, inputs):
        sequential = [call(item) for item in inputs]
        assert self._run_threaded(call, inputs) == [
            [want] * self.PASSES for want in sequential
        ]

    def _cirs(self):
        rng = np.random.default_rng(43)
        return [
            _random_cir(rng, 509, 3) for _ in range(self.N_THREADS)
        ]

    def test_detect_from_threads_equals_sequential(self):
        detector = SearchAndSubtract(
            TemplateBank.paper_bank(3), SearchAndSubtractConfig(max_responses=3)
        )
        self._assert_threads_equal_sequential(
            lambda cir: detector.detect(cir, TS, noise_std=0.01), self._cirs()
        )

    def test_classify_from_threads_equals_sequential(self):
        classifier = PulseShapeClassifier(
            TemplateBank.paper_bank(3), SearchAndSubtractConfig(max_responses=3)
        )
        self._assert_threads_equal_sequential(
            lambda cir: classifier.classify(cir, TS, noise_std=0.01),
            self._cirs(),
        )

    @pytest.mark.parametrize(
        "engine", [detect_batch, classify_batch],
        ids=["detect_batch", "classify_batch"],
    )
    @pytest.mark.parametrize(
        "bank", [TemplateBank.paper_bank(3), TemplateBank.spread(24)],
        ids=["own_cover", "covered"],
    )
    def test_batch_engine_from_threads_equals_sequential(self, engine, bank):
        """Every thread runs B=4 passes of one shape on the cached plan:
        the covered bank's passes also keep a residual."""
        rng = np.random.default_rng(53)
        batches = [
            np.stack([_random_cir(rng, 509, 3) for _ in range(4)])
            for _ in range(self.N_THREADS)
        ]
        config = SearchAndSubtractConfig(max_responses=3)
        self._assert_threads_equal_sequential(
            lambda cirs: engine(cirs, bank, TS, config, noise_std=0.01),
            batches,
        )

    @pytest.mark.parametrize(
        "engine_type, method, batch_engine",
        [
            (SearchAndSubtract, "detect", detect_batch),
            (PulseShapeClassifier, "classify", classify_batch),
        ],
        ids=["detect", "classify"],
    )
    def test_one_thread_reuses_scratch(self, engine_type, method, batch_engine):
        """Passes at B=64, 8 and 64 on the Table I bank, with a pass on
        a covered bank and a cache clear in between, equal the per-CIR
        calls; the cache keeps one plan per shape, whatever B."""
        cirs = _table1_cirs()
        call = getattr(engine_type(_TABLE1_BANK, _TABLE1_CONFIG), method)
        want = [call(cir, TS, noise_std=_TABLE1_NOISE) for cir in cirs]
        other = TemplateBank.spread(24)
        other_config = SearchAndSubtractConfig(
            max_responses=4, upsample_factor=4
        )
        other_call = getattr(engine_type(other, other_config), method)
        other_want = [
            other_call(cir, TS, noise_std=_TABLE1_NOISE) for cir in cirs[:8]
        ]

        assert _in_batches(batch_engine, cirs, 64) == want
        assert _in_batches(batch_engine, cirs, 8) == want
        assert batch_engine(
            cirs[:8], other, TS, other_config, noise_std=_TABLE1_NOISE
        ) == other_want
        clear_all_caches()
        assert _in_batches(batch_engine, cirs, 64) == want
        assert _in_batches(batch_engine, cirs, 8) == want
        assert len(get_cache("detector_plans")) == 1


class TestEngineTimers:
    """Each engine pass is timed once, under the prefix of the entry
    point that ran it — the stage split sums both prefixes, so a
    classification counted under both would be double-counted."""

    STAGES = ("batch_filter_pass", "batch_extract")

    def _counts(self):
        metrics = global_metrics()
        return {
            (prefix, stage): metrics.timer(f"{prefix}.{stage}").count
            for prefix in ("detector", "classifier")
            for stage in self.STAGES
        }

    def _passes(self, run):
        before = self._counts()
        run()
        after = self._counts()
        return {key: after[key] - before[key] for key in after}

    def _cirs(self):
        rng = np.random.default_rng(47)
        return np.stack([_random_cir(rng, 318, 2) for _ in range(2)])

    def test_classification_is_timed_as_classifier_only(self):
        cirs = self._cirs()
        config = SearchAndSubtractConfig(max_responses=2)

        def run():
            PulseShapeClassifier(_BANK, config).classify(cirs[0], TS)
            classify_batch(cirs, _BANK, TS, config)

        for (prefix, _stage), delta in self._passes(run).items():
            assert delta == (2 if prefix == "classifier" else 0)

    def test_detection_is_timed_as_detector_only(self):
        cirs = self._cirs()
        config = SearchAndSubtractConfig(max_responses=2)

        def run():
            SearchAndSubtract(_BANK, config).detect(cirs[0], TS)
            detect_batch(cirs, _BANK, TS, config)

        for (prefix, _stage), delta in self._passes(run).items():
            assert delta == (2 if prefix == "detector" else 0)


class TestBatchSpeedup:
    """A B=64 pass beats the per-CIR loop on the Table I shape.

    The check counts transform calls instead of timing the passes, so
    it holds on a loaded host as on a quiet one: every ``fft``/``ifft``
    call through ``scipy.fft`` and ``numpy.fft`` is one dispatch of
    engine work, and batching exists to share them across CIRs.
    Wall-clock throughput is the benchmark's to measure
    (``benchmarks/perf``).
    """

    #: Most transform calls a B=64 pass may make, as a share of the
    #: per-CIR loop's over the same 64 CIRs.  The loop makes about 1,000
    #: calls and a B=64 pass a few dozen; a per-row loop in place of
    #: ``detect_batch`` makes as many as the loop.
    MAX_CALL_SHARE = 1 / 8

    @staticmethod
    def _count_transforms(monkeypatch):
        """Count every later ``fft``/``ifft`` call of both modules."""
        calls = [0]
        for module in (scipy.fft, np.fft):
            for name in ("fft", "ifft"):
                def counted(*args, _transform=getattr(module, name), **kw):
                    calls[0] += 1
                    return _transform(*args, **kw)

                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "engine_type, method, batch_engine",
        [
            (SearchAndSubtract, "detect", detect_batch),
            (PulseShapeClassifier, "classify", classify_batch),
        ],
        ids=["detect", "classify"],
    )
    def test_b64_beats_per_cir_loop(
        self, monkeypatch, engine_type, method, batch_engine
    ):
        cirs = _table1_cirs()
        call = getattr(engine_type(_TABLE1_BANK, _TABLE1_CONFIG), method)

        def per_cir():
            for cir in cirs:
                call(cir, TS, noise_std=_TABLE1_NOISE)

        def batched():
            _in_batches(batch_engine, cirs, 64)

        # Build both plans before counting: a build's transforms are
        # paid once per process, not per pass.
        per_cir()
        batched()
        calls = self._count_transforms(monkeypatch)
        per_cir()
        loop_calls = calls[0]
        batched()
        batch_calls = calls[0] - loop_calls
        assert loop_calls >= len(cirs)
        assert batch_calls <= self.MAX_CALL_SHARE * loop_calls, (
            batch_calls, loop_calls,
        )


@functools.lru_cache(maxsize=None)
def _swarm_cirs() -> np.ndarray:
    """2 swarm-shaped CIRs: 12 pulses of the 96-shape bank each, at
    random fractional positions, plus white noise."""
    bank = TemplateBank.spread(96)
    rng = np.random.default_rng(96)
    cirs = np.zeros((2, 1016), dtype=complex)
    for cir in cirs:
        for position in np.sort(rng.uniform(16.0, 1000.0, 12)):
            template = bank[int(rng.integers(96))]
            amplitude = rng.uniform(0.4, 1.0) * np.exp(
                2j * np.pi * rng.random()
            )
            place_pulse(
                cir,
                template.samples.astype(complex),
                position,
                amplitude=amplitude,
                peak_index=template.peak_index,
            )
        cir += 1e-3 * (
            rng.standard_normal(1016) + 1j * rng.standard_normal(1016)
        ) / np.sqrt(2.0)
    cirs.setflags(write=False)
    return cirs


class TestCoarseSearchWork:
    """A swarm-shaped pass transforms far fewer points than a search
    over every filter of the bank.

    One ``classify_batch`` pass at the swarm shape — B=2 CIRs of 1016
    taps, ``TemplateBank.spread(96)``, U=4, 16 responses per row — is
    counted in ``fft``/``ifft`` output points through ``scipy.fft`` and
    ``numpy.fft``, a count that depends only on the CIRs and the bank.
    Searching and updating all 96 filters made 3,558,736 points on
    these CIRs; the search over the bank's 12-channel cover makes
    495,424.  A cover equal to the whole bank fails the bound.
    """

    #: The full-bank search's count on ``_swarm_cirs()``.
    FULL_BANK_POINTS = 3_558_736

    @staticmethod
    def _count_points(monkeypatch):
        """Count the output points of every later ``fft``/``ifft``."""
        points = [0]
        for module in (scipy.fft, np.fft):
            for name in ("fft", "ifft"):
                def counted(*args, _transform=getattr(module, name), **kw):
                    out = _transform(*args, **kw)
                    points[0] += out.size
                    return out

                monkeypatch.setattr(module, name, counted)
        return points

    def test_swarm_pass_transforms_a_quarter_of_the_points(
        self, monkeypatch
    ):
        bank = TemplateBank.spread(96)
        config = SearchAndSubtractConfig(max_responses=16, upsample_factor=4)
        cirs = _swarm_cirs()

        def one_pass():
            rows = classify_batch(cirs, bank, TS, config, noise_std=1e-3)
            assert [len(row) for row in rows] == [16, 16]

        one_pass()  # builds the plan; a build is paid once per process
        points = self._count_points(monkeypatch)
        one_pass()
        first = points[0]
        one_pass()
        assert points[0] - first == first
        assert first <= self.FULL_BANK_POINTS / 4, first


def _never_called(*args):
    raise AssertionError("only the workload shape is read")


class TestAutoBatchSize:
    @pytest.mark.parametrize(
        "bank, factor, channels",
        [(TemplateBank.spread(96), 4, 12), (TemplateBank.paper_bank(3), 8, 3)],
        ids=["swarm", "table1"],
    )
    def test_auto_batch_is_sized_by_filter_channels(
        self, bank, factor, channels
    ):
        """``batch_size="auto"`` scales with the channels the engine
        searches, not the bank size: a 96-shape trial at U=4 gets B=64
        (B=8 when sized by its 96 shapes), as Table I's 3-shape one
        does."""
        trial = ClassifyBatchTrial(
            _never_called,
            _never_called,
            bank,
            TS,
            SearchAndSubtractConfig(upsample_factor=factor),
            cir_length=1016,
        )
        shape = trial.workload
        assert shape.channels == channels
        assert choose_batch_size(
            200, shape.cir_length, shape.channels,
            upsample_factor=shape.upsample_factor,
        ) == 64


def _plan_reuse_trial(rng, index):
    """One Table I-shaped detect; runs inside a pool worker."""
    detector = SearchAndSubtract(_TABLE1_BANK, _TABLE1_CONFIG)
    cir = _table1_cirs()[index]
    return len(detector.detect(cir, TS, noise_std=_TABLE1_NOISE))


class TestWorkerPlanReuse:
    def test_each_worker_builds_the_plan_once(self):
        """From cold caches, 60 detects on 2 workers miss at most once
        per worker; every other lookup is a hit (worker-side counts
        travel back as cache deltas)."""
        clear_all_caches()
        metrics = MetricsRegistry()
        report = run_trials(
            _plan_reuse_trial, 60, seed=2018, workers=2, metrics=metrics
        )
        assert report.fallback_reason is None
        hits = metrics.counter("cache.detector_plans.hits").value
        misses = metrics.counter("cache.detector_plans.misses").value
        assert 1 <= misses <= 2
        assert hits == 60 - misses
