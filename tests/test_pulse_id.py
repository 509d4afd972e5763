"""Unit tests for pulse-shape classification (paper Sect. V)."""

import numpy as np
import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import filter_pass
from repro.core.detection import SearchAndSubtractConfig
from repro.core.plan import detector_plan
from repro.core.pulse_id import ClassifiedResponse, PulseShapeClassifier
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank


def make_cir(pulses, n=1016, noise_std=0.0, rng=None):
    cir = np.zeros(n, dtype=complex)
    for position, amplitude, template in pulses:
        place_pulse(cir, template.samples.astype(complex), position, amplitude)
    if noise_std > 0:
        cir += noise_std * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2)
    return cir


class TestClassification:
    def test_each_shape_classified_correctly(self, paper_bank, rng):
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        for shape in range(3):
            cir = make_cir(
                [(350.0, 1e-3, paper_bank[shape])], noise_std=1e-5, rng=rng
            )
            result = classifier.classify(cir, TS, noise_std=1e-5)
            assert result[0].shape_index == shape

    def test_two_responders_two_shapes(self, paper_bank, rng):
        """The Fig. 6 scenario: s1 at one delay, s3 at another."""
        cir = make_cir(
            [(150.0, 1e-3, paper_bank[0]), (450.0, 0.6e-3, paper_bank[2])],
            noise_std=1e-5,
            rng=rng,
        )
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=2)
        )
        results = classifier.classify(cir, TS, noise_std=1e-5)
        assert [r.shape_index for r in results] == [0, 2]

    def test_output_sorted_by_delay(self, paper_bank, rng):
        cir = make_cir(
            [(500.0, 1e-3, paper_bank[1]), (100.0, 0.5e-3, paper_bank[0])],
            noise_std=1e-5,
            rng=rng,
        )
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=2)
        )
        results = classifier.classify(cir, TS, noise_std=1e-5)
        assert results[0].delay_s < results[1].delay_s

    def test_confidence_above_one(self, paper_bank, rng):
        cir = make_cir([(300.0, 1e-3, paper_bank[0])], noise_std=1e-5, rng=rng)
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        result = classifier.classify(cir, TS, noise_std=1e-5)[0]
        assert result.confidence > 1.0

    def test_shape_name(self, paper_bank, rng):
        cir = make_cir([(300.0, 1e-3, paper_bank[2])], noise_std=1e-5, rng=rng)
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        assert classifier.classify(cir, TS, noise_std=1e-5)[0].shape_name == "s3"

    def test_single_template_bank_confidence_infinite(self, rng):
        bank = TemplateBank((0x93,))
        cir = make_cir([(300.0, 1e-3, bank[0])], noise_std=1e-5, rng=rng)
        classifier = PulseShapeClassifier(
            bank, SearchAndSubtractConfig(max_responses=1)
        )
        result = classifier.classify(cir, TS, noise_std=1e-5)[0]
        assert result.confidence == float("inf")

    def test_amplitude_independence(self, paper_bank, rng):
        """Classification works across a 20 dB amplitude range — the
        amplitude-agnostic requirement of challenge IV."""
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        for amplitude in (1e-2, 1e-3, 2e-4):
            cir = make_cir(
                [(300.0, amplitude, paper_bank[1])], noise_std=1e-5, rng=rng
            )
            result = classifier.classify(cir, TS, noise_std=1e-5)
            assert result[0].shape_index == 1


class TestFilterBankOutputs:
    def test_shape(self, paper_bank, rng):
        cir = make_cir([(300.0, 1e-3, paper_bank[0])], n=512, noise_std=1e-5,
                       rng=rng)
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1, upsample_factor=4)
        )
        # The per-template curves of Fig. 6b: the engine's filter pass
        # over the classifier's bank at its upsampling factor.
        plan = detector_plan(
            list(classifier.bank), len(cir),
            classifier.config.upsample_factor, TS,
        )
        outputs = filter_pass(plan, cir[np.newaxis, :])[0][0]
        assert outputs.shape == (3, 512 * 4)


class TestAccessors:
    def test_classified_response_properties(self, paper_bank, rng):
        cir = make_cir([(222.0, 1e-3, paper_bank[0])], noise_std=1e-5, rng=rng)
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        result = classifier.classify(cir, TS, noise_std=1e-5)[0]
        assert isinstance(result, ClassifiedResponse)
        assert result.index == pytest.approx(222.0, abs=0.2)
        assert result.delay_s == pytest.approx(222.0 * TS, rel=1e-3)
        assert abs(result.amplitude) == pytest.approx(1e-3, rel=0.1)

    def test_index_proxy_is_float(self, paper_bank, rng):
        """Regression: ``ClassifiedResponse.index`` is annotated
        ``-> float`` but used to hand back whatever the wrapped
        :class:`DetectedResponse` stored (an ``np.float64``), leaking
        NumPy scalars into e.g. JSON serialisation.  The proxy must
        coerce to a builtin float."""
        from repro.core.detection import DetectedResponse
        from repro.core.pulse_id import classify_responses

        response = DetectedResponse(
            index=np.float64(123.25),
            delay_s=123.25 * TS,
            amplitude=1.0 + 0j,
            template_index=0,
            scores=(1.0,),
        )
        [classified] = classify_responses([response])
        assert type(classified.index) is float
        assert classified.index == 123.25
        # The end-to-end path returns builtin floats too.
        cir = make_cir([(222.0, 1e-3, paper_bank[0])], noise_std=1e-5, rng=rng)
        classifier = PulseShapeClassifier(
            paper_bank, SearchAndSubtractConfig(max_responses=1)
        )
        result = classifier.classify(cir, TS, noise_std=1e-5)[0]
        assert type(result.index) is float
