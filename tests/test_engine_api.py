"""The engine API: uniform behaviour across detectors and the classifier.

Every CIR-consuming engine has a single-CIR entry point and a batched
one — ``SearchAndSubtract.detect`` / :func:`repro.core.batch.detect_batch`,
``ThresholdDetector.detect`` / ``ThresholdDetector.detect_batch``, and
``PulseShapeClassifier.classify`` / :func:`repro.core.batch_id.classify_batch`.
These tests pin the contract the rest of the codebase (experiments,
trial runtime, benchmarks) relies on: uniform single-CIR signatures,
``B == 0 -> []``, batch row ``b`` equal to the single-CIR call on CIR
``b``, delay-ascending ordering, and the batch entry points being
exported from ``repro.core``.
"""

import inspect
from collections import namedtuple

import numpy as np
import pytest

from repro import core
from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import detect_batch
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.pulse_id import PulseShapeClassifier
from repro.core.threshold import ThresholdConfig, ThresholdDetector
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

_PULSE = dw1000_pulse()
_BANK = TemplateBank.paper_bank(2)
_CONFIG = SearchAndSubtractConfig(max_responses=2)


#: One engine's single-CIR and batched entry points, side by side.
_Entry = namedtuple("_Entry", "name single batch")


def _engines():
    detector = SearchAndSubtract(_BANK, _CONFIG)
    threshold = ThresholdDetector(_PULSE, ThresholdConfig(max_responses=2))
    classifier = PulseShapeClassifier(_BANK, _CONFIG)
    return [
        _Entry(
            "SearchAndSubtract",
            detector.detect,
            lambda cirs, period, noise_std=0.0: detect_batch(
                cirs, _BANK, period, _CONFIG, noise_std=noise_std
            ),
        ),
        _Entry("ThresholdDetector", threshold.detect, threshold.detect_batch),
        _Entry(
            "PulseShapeClassifier",
            classifier.classify,
            lambda cirs, period, noise_std=0.0: classify_batch(
                cirs, _BANK, period, _CONFIG, noise_std=noise_std
            ),
        ),
    ]


def _response(item):
    """The detected response behind a detection or classification."""
    return getattr(item, "response", item)


def _two_pulse_cir(rng, length=509):
    cir = np.zeros(length, dtype=complex)
    for position in (120.0, 320.0):
        place_pulse(
            cir,
            _PULSE.samples.astype(complex),
            position,
            0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
    cir += 0.01 * (
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
    ) / np.sqrt(2.0)
    return cir


class TestProtocolConformance:
    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_uniform_signatures(self, engine):
        """The single-CIR parameter *names* line up, so keyword call
        sites can swap engines freely."""
        parameters = list(inspect.signature(engine.single).parameters)
        assert parameters[:2] == ["cir", "sampling_period_s"]
        assert "noise_std" in parameters


class TestUniformBehaviour:
    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_empty_batch_returns_empty(self, engine):
        assert engine.batch(np.zeros((0, 256)), TS) == []

    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_batch_entries_match_serial(self, engine):
        rng = np.random.default_rng(5)
        cirs = np.stack([_two_pulse_cir(rng) for _ in range(3)])
        serial = [
            engine.single(cirs[b], TS, noise_std=0.01) for b in range(3)
        ]
        batched = engine.batch(cirs, TS, noise_std=0.01)
        assert len(batched) == 3
        for got, want in zip(batched, serial):
            got = [_response(item) for item in got]
            want = [_response(item) for item in want]
            assert [r.template_index for r in got] == [
                r.template_index for r in want
            ]
            assert [r.index for r in got] == pytest.approx(
                [r.index for r in want], rel=1e-9
            )

    @pytest.mark.parametrize("engine", _engines(), ids=lambda e: e.name)
    def test_responses_sorted_by_delay(self, engine):
        rng = np.random.default_rng(9)
        responses = engine.single(_two_pulse_cir(rng), TS, noise_std=0.01)
        delays = [r.delay_s for r in responses]
        assert delays == sorted(delays)
        assert len(responses) == 2

    def test_classifier_batch_matches_serial_classify(self):
        classifier = PulseShapeClassifier(_BANK, _CONFIG)
        rng = np.random.default_rng(17)
        cirs = np.stack([_two_pulse_cir(rng) for _ in range(2)])
        serial = [
            classifier.classify(cirs[b], TS, noise_std=0.01) for b in range(2)
        ]
        batched = classify_batch(cirs, _BANK, TS, _CONFIG, noise_std=0.01)
        for got, want in zip(batched, serial):
            assert [c.shape_index for c in got] == [
                c.shape_index for c in want
            ]
            assert [c.confidence for c in got] == pytest.approx(
                [c.confidence for c in want], rel=1e-9
            )


class TestCoreExports:
    """The batch entry points and the oracle ship from ``repro.core``."""

    @pytest.mark.parametrize(
        "name",
        [
            "ClassifyBatchTrial",
            "classify_batch",
            "classify_responses",
            "detect_batch",
            "detect_reference",
            "detect_threshold_reference",
        ],
    )
    def test_exported(self, name):
        assert name in core.__all__
        assert getattr(core, name) is not None
