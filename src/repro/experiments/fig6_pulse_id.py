"""EXP-F6 — Fig. 6: identifying two responders by pulse shape.

The paper's demonstration: responder 1 at 4 m uses the default shape
s1 (0x93), responder 2 at 10 m uses the wider s3 (0xE6).  Running the
detector with an N_PS = 3 template bank, both peaks are found and each
peak's winning template identifies its responder.

Runs on the :mod:`repro.runtime` trial executor: each round is one
independently seeded trial, so ``workers=4`` parallelises the run with
results identical to a serial one, and the template bank comes from the
process-local runtime cache.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import detection_rate
from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials, template_bank

D1_M = 4.0
D2_M = 10.0


def _trial(rng: np.random.Generator, index: int) -> tuple:
    """One round: ``(both_detected, both_identified)`` booleans.

    Responders at 4 m and 10 m.  With one slot and a 3-shape bank the
    session maps responder ID -> shape index; using three responders
    would change the scenario, so we emulate the paper's setup by
    giving the far responder shape s3 via a 2-entry bank built from
    registers (0x93, 0xE6) and noting the paper runs the *classifier*
    with all three templates.
    """
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    near = Node.at(1, D1_M, 0.0, rng=rng)
    far = Node.at(2, D2_M, 0.0, rng=rng)
    medium.add_nodes([initiator, near, far])

    bank = template_bank((0x93, 0xE6))  # s1 and s3 of the paper's Fig. 5
    scheme = CombinedScheme(SlotPlan.for_range(20.0, n_slots=1), bank)
    session = ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=[near, far],
        scheme=scheme,
        rng=rng,
    )
    outcome = session.run_round()
    near_outcome = outcome.outcome_for(0)
    far_outcome = outcome.outcome_for(1)
    return (
        near_outcome.detected and far_outcome.detected,
        near_outcome.identified and far_outcome.identified,
    )


def run(
    *,
    trials: int = 300,
    seed: int = 5,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Monte-Carlo version of Fig. 6: detection + identification rates.

    ``workers`` parallelises the rounds; for a fixed ``seed`` the
    reproduced numbers are identical for any worker count.
    ``checkpoint`` persists trial checkpoints for resumable runs.
    """
    report = run_trials(
        _trial,
        trials,
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig6",
    )
    both_detected = [detected for detected, _ in report.values]
    both_identified = [identified for _, identified in report.values]

    result = ExperimentResult(
        experiment_id="Fig. 6",
        description="pulse-shape identification of two responders (4 m / 10 m)",
    )
    table = Table(
        ["responder", "distance [m]", "shape"], title="Fig. 6 setup"
    )
    table.add_row(["1", D1_M, "s1 (0x93)"])
    table.add_row(["2", D2_M, "s3 (0xE6)"])
    result.add_table(table)

    result.compare("both_detected_rate", detection_rate(both_detected), paper=1.0)
    result.compare(
        "both_identified_rate", detection_rate(both_identified), paper=0.99
    )
    result.note(
        "paper shows one capture where both responses are 'easily "
        "detectable' and correctly associated; Table I quantifies the rate"
    )
    return result
