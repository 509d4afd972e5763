"""Golden regression suite: pinned experiment metrics under fixed seeds.

Every metric of the headline experiments is computed once under a fixed
seed and stored in ``tests/golden/experiment_metrics.json``.  The tests
re-run the same configurations and require the same metric *names* and
values within ``rtol <= 1e-9`` — any drift (a refactor changing RNG
consumption order, a detector "optimisation" changing decisions, a new
engine path that is not actually equivalent) fails loudly with the
offending metric.

Trial counts are deliberately tiny: the point is bit-stability of the
full pipeline (protocol -> channel -> detection -> analysis), not
statistical power — the statistical bands live in
``tests/test_runtime_experiments.py`` and ``benchmarks/``.

Regenerating (after an *intentional* behaviour change)::

    PYTHONPATH=src python -m pytest tests/test_golden_metrics.py --update-golden

then review the JSON diff like any other code change: every changed
value is a behaviour change you are signing off on.

Cases listed in ``GATES`` must also pass their experiment's acceptance
gate (``check(result) == []``), before anything is compared or
regenerated: a regeneration cannot pin values that fail the gate.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import (
    ablation_detectors,
    fig7_overlap,
    fig8_combined,
    sect5_precision,
    security_study,
    swarm_scale,
    table1_pulse_id,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiment_metrics.json"

RTOL = 1e-9

#: Case name -> zero-argument callable producing an ExperimentResult.
#: The name encodes the exact configuration so a changed trial count or
#: seed shows up as a new entry instead of silently comparing apples to
#: oranges.
CASES = {
    "table1_pulse_id(trials=5, seed=17)": (
        lambda: table1_pulse_id.run(trials=5, seed=17)
    ),
    "fig7_overlap(trials=10, seed=23)": (
        lambda: fig7_overlap.run(trials=10, seed=23)
    ),
    "sect5_precision(trials=30, seed=29)": (
        lambda: sect5_precision.run(trials=30, seed=29)
    ),
    "ablation_detectors(trials=10, seed=37)": (
        lambda: ablation_detectors.run(trials=10, seed=37)
    ),
    # Pinned on the batched-classifier port: any drift between the
    # serial and batched identification engines shows up here first
    # (run() defaults to batch_size="auto" on this workload).
    "fig8_combined(trials=6, seed=31)": (
        lambda: fig8_combined.run(trials=6, seed=31)
    ),
    # The full-intensity grid, gated by ``security_study.check``:
    # detection >= 0.9 at full intensity, clean false positives <= 0.05.
    "security_study(trials=4, rounds=6, seed=41, intensities=(1.0,))": (
        lambda: security_study.run(
            trials=4, rounds=6, seed=41, intensities=(1.0,)
        )
    ),
    # The many-agent path end to end — swarm event loop -> batched
    # classification -> anchor-slot decode -> localization — gated by
    # ``swarm_scale.check``.  Every pinned metric is byte-deterministic
    # in (seed, counts, epochs) and invariant in the worker and shard
    # counts.
    "swarm_scale(trials=3, seed=71, counts=(12, 100, 500))": (
        lambda: swarm_scale.run(trials=3, seed=71, counts=(12, 100, 500))
    ),
}


#: Case name -> the experiment's acceptance gate: ``check(result)``
#: returns the violated criteria.
GATES = {
    "security_study(trials=4, rounds=6, seed=41, intensities=(1.0,))": (
        security_study.check
    ),
    "swarm_scale(trials=3, seed=71, counts=(12, 100, 500))": (
        swarm_scale.check
    ),
}


def _measure(name: str) -> dict:
    result = CASES[name]()
    if name in GATES:
        failures = GATES[name](result)
        assert failures == [], f"{name} fails its acceptance gate: {failures}"
    return {key: float(value) for key, value in result.as_dict().items()}


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_metrics(name, request):
    measured = _measure(name)
    if request.config.getoption("--update-golden"):
        data = _load_golden() if GOLDEN_PATH.exists() else {}
        data[name] = measured
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden entry for {name} regenerated")
    assert GOLDEN_PATH.exists(), (
        "golden file missing; generate it with "
        "`python -m pytest tests/test_golden_metrics.py --update-golden`"
    )
    golden = _load_golden()
    assert name in golden, (
        f"no golden entry for {name!r}; run --update-golden and commit "
        "the diff"
    )
    want = golden[name]
    assert set(measured) == set(want), (
        "metric names drifted: "
        f"missing={sorted(set(want) - set(measured))}, "
        f"new={sorted(set(measured) - set(want))}"
    )
    for key, value in sorted(want.items()):
        got = measured[key]
        if math.isnan(value):
            assert math.isnan(got), f"{name}:{key} was NaN, now {got}"
        else:
            assert got == pytest.approx(value, rel=RTOL, abs=1e-12), (
                f"{name}:{key} drifted from {value!r} to {got!r}"
            )


@pytest.mark.parametrize("name", sorted(GATES))
@pytest.mark.parametrize("update", [False, True])
def test_gate_violation_fails_the_case(name, update, monkeypatch, tmp_path):
    """A case whose gate reports a violation fails, and under
    ``--update-golden`` fails before anything is written."""
    from repro.experiments.common import ExperimentResult

    path = tmp_path / "experiment_metrics.json"
    monkeypatch.setitem(globals(), "GOLDEN_PATH", path)
    monkeypatch.setitem(CASES, name, lambda: ExperimentResult("stub", ""))
    monkeypatch.setitem(GATES, name, lambda result: ["violated"])
    request = SimpleNamespace(
        config=SimpleNamespace(getoption=lambda option: update)
    )
    with pytest.raises(AssertionError, match="acceptance gate"):
        test_golden_metrics(name, request)
    assert not path.exists()


def test_golden_cases_are_repeatable():
    """Precondition for pinning: the same configuration must yield the
    same metrics twice within one process."""
    first = table1_pulse_id.run(trials=3, seed=17).as_dict()
    second = table1_pulse_id.run(trials=3, seed=17).as_dict()
    assert first == second


def test_golden_file_is_committed_and_well_formed():
    """The suite must not silently pass because the file is absent."""
    assert GOLDEN_PATH.exists()
    data = _load_golden()
    assert set(data) == set(CASES)
    for name, metrics in data.items():
        assert metrics, f"empty golden entry for {name}"
        for key, value in metrics.items():
            assert isinstance(key, str)
            assert isinstance(value, float)
