"""EXP-F8 — Fig. 8: nine responders via RPM x pulse shaping.

The paper's capstone figure: N_RPM = 4 slots and N_PS = 3 shapes carry
nine concurrent responders (capacity 12).  Every responder's slot comes
from ``ID % 4`` and its shape from its ID; the initiator decodes all nine
identities and distances from a single CIR.

Runs on the :mod:`repro.runtime` trial executor as a
:class:`~repro.core.batch_id.ClassifyBatchTrial`: each round is one
independently seeded trial (its own topology, channels, and capture)
split at the classification boundary, so ``workers=W`` parallelises the
rounds and ``batch_size=B`` (the default ``"auto"`` sizes B from the
workload shape) stacks B rounds' nine-response CIRs into one batched
classifier pass — with results identical to a serial, unbatched run for
a fixed seed.  :func:`build_session` keeps the single fixed-topology
session for the examples and benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.constants import CIR_LENGTH_PRF64, CIR_SAMPLING_PERIOD_S
from repro.core.batch_id import ClassifyBatchTrial
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials, template_bank

N_SLOTS = 4
N_SHAPES = 3
N_RESPONDERS = 9

#: Responder distances [m]; spread inside a 12 m operating range so that
#: same-slot responders differ by pulse shape, as in the paper's sketch.
DISTANCES_M = (3.0, 4.5, 6.0, 7.5, 9.0, 10.5, 12.0, 5.0, 8.0)

#: The bank shared by the session classifier and the batched engine
#: (``template_bank`` memoises it; content equals ``paper_bank(3)``).
BANK_REGISTERS = (0x93, 0xC8, 0xE6)

#: The session's detector knobs — bound once so the external (batched)
#: classification step uses the exact configuration the session would.
DETECTOR_CONFIG = SearchAndSubtractConfig(
    max_responses=N_RESPONDERS, upsample_factor=8
)


def _session_from_rng(
    rng: np.random.Generator, compensate_tx_quantization: bool = True
) -> ConcurrentRangingSession:
    """The Fig. 8 topology from an explicit generator (trial entry)."""
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responders = []
    for i, distance in enumerate(DISTANCES_M):
        angle = 2.0 * np.pi * i / len(DISTANCES_M)
        responders.append(
            Node.at(
                i + 1,
                float(distance * np.cos(angle)),
                float(distance * np.sin(angle)),
                rng=rng,
            )
        )
    medium.add_nodes([initiator] + responders)
    bank = template_bank(BANK_REGISTERS)
    # Slot width sized for the experiment's <= 15 m operating range.
    plan = SlotPlan.for_range(15.0, mode="safe", n_slots=N_SLOTS)
    scheme = CombinedScheme(plan, bank)
    return ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=responders,
        scheme=scheme,
        detector_config=DETECTOR_CONFIG,
        compensate_tx_quantization=compensate_tx_quantization,
        rng=rng,
    )


def build_session(
    seed: int = 31, compensate_tx_quantization: bool = True
) -> ConcurrentRangingSession:
    """The Fig. 8 topology: 9 responders on distinct bearings."""
    return _session_from_rng(
        np.random.default_rng(seed), compensate_tx_quantization
    )


def _prepare(rng: np.random.Generator, index: int):
    """One Fig. 8 round up to the classification boundary.

    Every trial draws its *own* topology and channels from its seed
    child, so rounds are independent and executor-order-free (the old
    serial loop reused one session; the runtime port re-rolls it per
    trial).
    """
    session = _session_from_rng(rng)
    pending = session.begin_round()
    return pending.cir, pending.noise_std, (session, pending)


def _finish(classified, context, rng, index) -> tuple:
    """Score one classified round.

    Returns ``(identified_flags, abs_errors)`` with one flag per
    responder and one error entry per identified responder.
    """
    session, pending = context
    outcome = session.finish_round(pending, classified)
    identified = tuple(o.identified for o in outcome.outcomes)
    errors = tuple(
        abs(o.error_m)
        for o in outcome.outcomes
        if o.identified and o.error_m is not None
    )
    return identified, errors


def _fig8_trial() -> ClassifyBatchTrial:
    """The batched trial function for the Fig. 8 round."""
    return ClassifyBatchTrial(
        _prepare,
        _finish,
        bank=template_bank(BANK_REGISTERS),
        sampling_period_s=CIR_SAMPLING_PERIOD_S,
        config=DETECTOR_CONFIG,
        cir_length=CIR_LENGTH_PRF64,
    )


def run(
    *,
    trials: int = 100,
    seed: int = 31,
    workers: int = 1,
    batch_size="auto",
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Monte-Carlo reproduction of the Fig. 8 decode.

    ``workers`` parallelises the rounds and ``batch_size`` groups them
    per batched-classifier call — the default ``"auto"`` lets the
    runtime size batches from the workload shape (nine-response CIRs
    against the 3-template bank); results are identical for any worker
    count and batch size at a fixed ``seed``.  ``checkpoint`` persists
    trial checkpoints for resumable runs.
    """
    report = run_trials(
        _fig8_trial(),
        trials,
        seed=seed,
        workers=workers,
        metrics=metrics,
        batch_size=batch_size,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig8",
    )
    identified_counts = []
    per_responder_hits = np.zeros(N_RESPONDERS)
    errors = []
    for identified, round_errors in report.values:
        identified_counts.append(sum(identified))
        for i, ok in enumerate(identified):
            per_responder_hits[i] += ok
        errors.extend(round_errors)

    result = ExperimentResult(
        experiment_id="Fig. 8",
        description="combined RPM x pulse shaping with 9 responders",
    )
    # Assignment table from the (deterministic) reference topology.
    session = build_session(seed)
    table = Table(
        ["responder ID", "slot (ID % 4)", "shape", "true dist [m]",
         "identified rate"],
        title=f"Fig. 8 reproduction ({trials} rounds)",
    )
    for i in range(N_RESPONDERS):
        assignment = session.scheme.assignment(i)
        table.add_row(
            [
                i,
                assignment.slot,
                assignment.shape_name,
                DISTANCES_M[i],
                per_responder_hits[i] / trials,
            ]
        )
    result.add_table(table)

    result.compare(
        "mean_identified_of_9", float(np.mean(identified_counts)), paper=9.0
    )
    result.compare(
        "capacity", float(session.scheme.capacity), paper=12.0, unit="responders"
    )
    if errors:
        result.compare(
            "median_abs_error_m", float(np.median(errors)), paper=None, unit="m"
        )
    result.note(
        "paper illustrates one round with all nine responders decoded; "
        "capacity N_max = N_RPM * N_PS = 12"
    )
    result.note(
        f"{trials} independently seeded rounds on the trial executor "
        "(identical for any --workers / --batch-size setting)"
    )
    return result
