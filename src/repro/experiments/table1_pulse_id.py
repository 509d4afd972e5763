"""EXP-T1 — Table I: pulse-shape identification accuracy.

The paper's setup: responder 1 fixed at d1 = 3 m with the default shape
s1; responder 2 at d2 in {6, 7, 8, 9, 10} m using either s2 (0xC8) or
s3 (0xE6); 1000 concurrent ranging rounds per cell.  Reported: the
percentage of rounds in which responder 2's pulse shape was identified
correctly (paper: >= 99.2 % everywhere).

Runs on the :mod:`repro.runtime` trial executor as a
:class:`~repro.core.batch_id.ClassifyBatchTrial`: each round is one
independently seeded trial split at the classification boundary
(:meth:`~repro.protocol.concurrent.ConcurrentRangingSession.begin_round`
/ :meth:`~repro.protocol.concurrent.ConcurrentRangingSession.
finish_round`), so ``workers=4`` parallelises a cell and
``batch_size=B`` (or ``"auto"``) stacks B rounds' CIRs into one batched
classifier pass — with results identical to a serial, unbatched run for
a fixed seed.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.constants import (
    CIR_LENGTH_PRF64,
    CIR_SAMPLING_PERIOD_S,
    PAPER_TABLE1,
)
from repro.core.batch_id import ClassifyBatchTrial
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials, template_bank

D1_M = 3.0
D2_VALUES_M = (6.0, 7.0, 8.0, 9.0, 10.0)

#: Register of the second responder per table row (paper Fig. 5 names).
SHAPE_REGISTERS = {"s2": 0xC8, "s3": 0xE6}


def _bank_registers(register: int) -> tuple:
    """The initiator's 3-template bank for one table row.

    Always the three paper templates (N_PS = 3 as in Sect. V), ordered
    so that responder 2's session ID (1) naturally maps onto the row's
    register.
    """
    other = next(r for r in SHAPE_REGISTERS.values() if r != register)
    return (0x93, register, other)


def _prepare(
    rng: np.random.Generator,
    index: int,
    *,
    d2_m: float,
    register: int,
):
    """One round up to the classification boundary.

    Builds the cell's topology from the trial's own generator and runs
    :meth:`~ConcurrentRangingSession.begin_round`, which consumes every
    random draw the round makes before (and after) classification — so
    serial and batched classification see byte-identical CIRs.
    """
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responder1 = Node.at(1, D1_M, 0.0, rng=rng)
    responder2 = Node.at(2, d2_m, 0.0, rng=rng)
    medium.add_nodes([initiator, responder1, responder2])

    bank = template_bank(_bank_registers(register))
    scheme = CombinedScheme(SlotPlan.for_range(20.0, n_slots=1), bank)
    session = ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=[responder1, responder2],
        scheme=scheme,
        rng=rng,
    )
    pending = session.begin_round()
    return pending.cir, pending.noise_std, (session, pending)


def _finish(classified, context, rng, index) -> float:
    """Score one classified round; 1.0 when responder 2's shape decodes."""
    session, pending = context
    outcome = session.finish_round(pending, classified)
    # d2 >= 2 * d1, so responder 2 is always the later response; its
    # decoded shape must be bank index 1 (the row's register).
    if len(outcome.classified) >= 2:
        later = max(outcome.classified, key=lambda c: c.delay_s)
        if later.shape_index == 1:
            return 1.0
    return 0.0


def _cell_trial(d2_m: float, register: int) -> ClassifyBatchTrial:
    """The batched trial function for one Table I cell.

    The bank and detector configuration mirror the session's own
    classifier (``max_responses`` raised to the responder count), so the
    external classification step — serial or batched — equals what
    :meth:`~ConcurrentRangingSession.run_round` would have computed.
    """
    return ClassifyBatchTrial(
        partial(_prepare, d2_m=d2_m, register=register),
        _finish,
        bank=template_bank(_bank_registers(register)),
        sampling_period_s=CIR_SAMPLING_PERIOD_S,
        config=SearchAndSubtractConfig(max_responses=2),
        cir_length=CIR_LENGTH_PRF64,
    )


def _identification_rate(
    d2_m: float,
    register: int,
    trials: int,
    seed: int,
    workers: int = 1,
    batch_size=1,
    metrics: MetricsRegistry | None = None,
    checkpoint=None,
) -> float:
    """Fraction of rounds where responder 2's shape decoded correctly."""
    report = run_trials(
        _cell_trial(d2_m, register),
        trials,
        seed=seed,
        workers=workers,
        metrics=metrics,
        batch_size=batch_size,
        checkpoint_dir=checkpoint,
        checkpoint_label=f"table1-0x{register:02X}-d{d2_m:g}",
    )
    return float(np.mean(report.values))


def run(
    *,
    trials: int = 200,
    seed: int = 17,
    workers: int = 1,
    batch_size=1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Reproduce Table I (use ``trials=1000`` for the paper's count).

    ``workers`` parallelises the per-cell trial loops and ``batch_size``
    groups rounds per batched-classifier call (an integer, or ``"auto"``
    to size batches from the workload shape); for a fixed ``seed`` the
    reproduced numbers are identical for any worker count and batch
    size.  ``checkpoint`` persists per-cell trial checkpoints for
    resumable runs.
    """
    result = ExperimentResult(
        experiment_id="Table I",
        description="percentage of pulse shapes identified correctly",
    )
    table = Table(
        ["d2 [m]"] + [f"{d:.0f}" for d in D2_VALUES_M],
        title=f"Table I reproduction ({trials} rounds per cell)",
    )
    for shape_name, register in SHAPE_REGISTERS.items():
        rates = []
        for i, d2 in enumerate(D2_VALUES_M):
            rate = _identification_rate(
                d2,
                register,
                trials,
                seed + i + 100 * register,
                workers=workers,
                batch_size=batch_size,
                metrics=metrics,
                checkpoint=checkpoint,
            )
            rates.append(rate)
            result.compare(
                f"{shape_name}_d2_{d2:.0f}m_pct",
                rate * 100.0,
                paper=PAPER_TABLE1[shape_name][int(d2)],
                unit="%",
            )
        table.add_row(
            [f"{shape_name} (0x{register:02X}) [%]"]
            + [f"{rate * 100:.1f}" for rate in rates]
        )
    result.add_table(table)
    result.note("paper: >= 99.2 % in every cell")
    return result
