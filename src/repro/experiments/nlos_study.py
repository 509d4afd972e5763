"""EXP-N1 — Future-work extension: concurrent ranging under NLOS.

The paper's conclusion: "we have neglected the impact of non-line-of-
sight situations on the performance of concurrent ranging.  We will
hence investigate this impact thoroughly."  This experiment does so in
simulation: the same three-responder round is run across progressively
harsher channel presets — hallway (strong LOS), office, multipath-rich
(attenuated LOS), and NLOS (blocked LOS) — measuring identification
rate and distance bias.

Expected physics: as the direct path weakens, (i) reflections start to
out-power it, costing detections of *other* responders (challenge IV),
and (ii) the first detectable path arrives later than the geometric
LOS, biasing distances long.

Each round is one independently seeded trial on the
:mod:`repro.runtime` executor (``run(..., workers=W)``): trial ``i``
builds its own session from seed child ``i``, so serial and parallel
runs produce identical statistics —
``tests/test_runtime_experiments.py`` asserts it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.experiments.common import ExperimentResult
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials

DISTANCES_M = (3.0, 6.0, 10.0)

ENVIRONMENTS = (
    ("hallway (LOS)", IndoorEnvironment.hallway),
    ("office", IndoorEnvironment.office),
    ("multipath-rich", IndoorEnvironment.multipath_rich),
    ("NLOS (blocked)", IndoorEnvironment.nlos),
)

_ENV_FACTORIES = dict(ENVIRONMENTS)


def _environment_trial(rng: np.random.Generator, index: int, *, environment: str):
    """One three-responder round in the named channel preset.

    The environment travels as its preset *name* (a string) so the
    partial stays picklable for the parallel executor; the trial's own
    generator seeds the session, making every round independent and
    executor-order-free.  Returns ``(n_identified, n_responders,
    biases)`` with one bias entry per identified responder.
    """
    session = ConcurrentRangingSession.build(
        responder_distances_m=list(DISTANCES_M),
        n_shapes=3,
        environment=_ENV_FACTORIES[environment](),
        seed=rng,
        compensate_tx_quantization=True,  # isolate the channel effect
    )
    outcome = session.run_round()
    identified = 0
    biases = []
    for responder in outcome.outcomes:
        if responder.identified:
            identified += 1
            biases.append(float(responder.error_m))
    return identified, len(outcome.outcomes), tuple(biases)


def _run_environment(
    label: str,
    trials: int,
    seed: int,
    env_index: int,
    workers: int,
    metrics: MetricsRegistry | None,
) -> dict:
    report = run_trials(
        partial(_environment_trial, environment=label),
        trials,
        seed=[seed, env_index],
        workers=workers,
        metrics=metrics,
    )
    identified = sum(n for n, _, _ in report.values)
    total = sum(t for _, t, _ in report.values)
    biases = [b for _, _, bs in report.values for b in bs]
    return {
        "id_rate": identified / total,
        "bias_m": float(np.mean(biases)) if biases else float("nan"),
        "std_m": float(np.std(biases)) if biases else float("nan"),
    }


def run(
    *,
    trials: int = 60,
    seed: int = 47,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Sweep the channel presets (full protocol rounds per trial,
    per-cell loops with their own seeding)."""
    result = ExperimentResult(
        experiment_id="NLOS study (future work)",
        description="concurrent ranging vs channel severity",
    )
    table = Table(
        ["environment", "identification rate", "distance bias [m]",
         "distance std [m]"],
        title=f"3 responders at 3/6/10 m, {trials} rounds per environment",
    )
    rates = {}
    for env_index, (label, _) in enumerate(ENVIRONMENTS):
        stats = _run_environment(
            label, trials, seed, env_index, workers, metrics
        )
        rates[label] = stats["id_rate"]
        table.add_row([label, stats["id_rate"], stats["bias_m"], stats["std_m"]])
    result.add_table(table)

    result.compare("id_rate_los", rates["hallway (LOS)"], paper=None)
    result.compare("id_rate_nlos", rates["NLOS (blocked)"], paper=None)
    result.note(
        "no paper numbers exist (declared future work); expected shape: "
        "identification degrades and bias grows as the LOS weakens"
    )
    return result
