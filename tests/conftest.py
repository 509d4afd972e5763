"""Shared fixtures for the test suite."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

# When a hypothesis test fails, hypothesis imports
# ``hypothesis.extra._patching`` to write a patch, and its ``libcst``
# import warns "mypy_extensions.TypedDict is deprecated".  Under
# ``-W error::DeprecationWarning`` that warning ended the session in
# INTERNALERROR before the falsifying example was printed.  Import the
# module here with only that warning ignored; every other
# DeprecationWarning stays an error.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore",
        message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.signal.pulses import dw1000_pulse
from repro.signal.templates import TemplateBank


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "Regenerate tests/golden/*.json from the current code instead "
            "of comparing against it (see tests/test_golden_metrics.py); "
            "review the resulting diff like any other code change."
        ),
    )


@pytest.fixture
def rng():
    """A deterministic random generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def default_pulse():
    """The default (0x93) pulse at the CIR tap rate."""
    return dw1000_pulse()


@pytest.fixture(scope="session")
def paper_bank():
    """The paper's three-shape template bank (s1, s2, s3)."""
    return TemplateBank.paper_bank(3)


@pytest.fixture
def clean_cir(default_pulse):
    """A noiseless CIR containing one unit pulse at index 200."""
    from repro.signal.sampling import place_pulse

    cir = np.zeros(1016, dtype=complex)
    place_pulse(cir, default_pulse.samples.astype(complex), 200.0, amplitude=1.0)
    return cir


@pytest.fixture
def ts():
    """CIR sampling period shorthand."""
    return CIR_SAMPLING_PERIOD_S


@pytest.fixture
def stub_experiment(monkeypatch):
    """Register ``stub``, an experiment whose ``run()`` takes only
    ``seed``, ``workers`` and ``metrics``; its ``calls`` list records the
    keyword arguments of every run."""
    import types

    from repro.cli import EXPERIMENTS
    from repro.experiments.common import ExperimentResult

    module = types.ModuleType(
        "stub", "A stub experiment without trials, batches or checkpoints."
    )
    module.calls = []

    def run(*, seed=0, workers=1, metrics=None):
        module.calls.append(dict(seed=seed, workers=workers))
        return ExperimentResult("Stub", f"seed {seed} on {workers} worker(s)")

    module.run = run
    monkeypatch.setitem(EXPERIMENTS, "stub", module)
    return module
