"""EXP-CHAOS — degradation curves of concurrent ranging under injected faults.

The paper argues concurrent ranging keeps working when reality misbehaves;
this experiment measures *how gracefully* it degrades.  A fault-intensity
knob ``x ∈ [0, 1]`` scales a composed :class:`~repro.faults.FaultPlan`
(responder dropout, poll loss, reply jitter, impulsive CIR interference,
accumulator saturation), and for each intensity a short resilient campaign
(quorum retry + quarantine, see
:class:`~repro.protocol.campaign.ResiliencePolicy`) runs on the Fig. 4
layout.  The output is the degradation curve: identification/detection
rate and ranging error versus fault intensity, plus the resilience
bookkeeping (retries, partial rounds, quarantined responders, injected
faults).

Every trial is one independently seeded campaign on the
:mod:`repro.runtime` executor: fault decisions derive from
``(fault seed, trial index)``, so serial and parallel sweeps are
byte-identical, and ``checkpoint`` lets an interrupted sweep resume
without recomputing finished trials.

Run from the shell::

    python -m repro run chaos --trials 40 --workers 4 \
        --checkpoint DIR [--resume]
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.channel.stochastic import IndoorEnvironment
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.analysis.tables import Table
from repro.faults import (
    CirSaturation,
    FaultPlan,
    ImpulsiveInterference,
    PollLoss,
    ReplyJitter,
    ResponderDropout,
)
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.campaign import RangingCampaign, ResiliencePolicy
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials, template_bank

#: The Fig. 4 layout the sweep stresses.
DISTANCES_M = (3.0, 6.0, 10.0)

#: Intensity grid of the degradation curve.
INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Campaign rounds per trial.
ROUNDS = 4


def fault_plan(intensity: float, seed) -> FaultPlan:
    """The composed fault plan at one intensity.

    ``intensity == 0`` returns the *empty* plan — the clean baseline runs
    with the fault machinery fully detached (zero-cost pass-through),
    pinning the left edge of the degradation curve to fault-free
    behaviour.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if intensity == 0.0:
        return FaultPlan([], seed=seed)
    return FaultPlan(
        [
            ResponderDropout(0.35 * intensity),
            PollLoss(0.15 * intensity),
            ReplyJitter(
                std_s=0.3e-9 * intensity,
                spike_probability=0.1 * intensity,
                spike_s=3e-9,
            ),
            ImpulsiveInterference(
                burst_probability=min(1.0, 0.8 * intensity),
                amplitude_scale=0.9,
                n_bursts=2,
            ),
            CirSaturation(1.0 - 0.4 * intensity),
        ],
        seed=seed,
    )


def _trial(
    rng: np.random.Generator,
    index: int,
    *,
    intensity: float,
    fault_seed: int,
    n_rounds: int,
) -> tuple:
    """One resilient campaign at one fault intensity.

    Returns ``(id_rate, det_rate, mean_abs_error_m, retries,
    partial_rounds, n_quarantined, faults_injected)`` — plain scalars so
    the parallel path ships small payloads.
    """
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responders = [
        Node.at(i + 1, float(d), 0.0, rng=rng)
        for i, d in enumerate(DISTANCES_M)
    ]
    medium.add_nodes([initiator] + responders)
    bank = template_bank((0x93, 0xC8, 0xE6))  # paper_bank(3)
    scheme = CombinedScheme(SlotPlan.for_range(20.0, n_slots=1), bank)
    session = ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=responders,
        scheme=scheme,
        detector_config=SearchAndSubtractConfig(
            max_responses=3, min_peak_snr=8.0
        ),
        rng=rng,
        # Per-trial fault streams: decisions depend only on the fault
        # seed and the trial index, never on the worker schedule.
        faults=fault_plan(intensity, seed=(fault_seed, index)),
    )
    campaign = RangingCampaign(
        session,
        round_interval_s=0.05,
        resilience=ResiliencePolicy(
            quorum_fraction=0.6,
            max_round_retries=2,
            backoff_base_s=1e-3,
            backoff_jitter=0.1,
            quarantine_after=2,
            # Stable across processes (never use hash(): PYTHONHASHSEED
            # would break serial == parallel for the retry jitter).
            seed=(fault_seed, index, 7),
        ),
    )
    result = campaign.run(n_rounds)

    total = 0
    identified = 0
    detected = 0
    abs_errors = []
    for round_result in result.rounds:
        for outcome in round_result.outcomes:
            total += 1
            identified += outcome.identified
            detected += outcome.detected
            if outcome.identified and outcome.error_m is not None:
                abs_errors.append(abs(outcome.error_m))
    return (
        identified / total,
        detected / total,
        float(np.mean(abs_errors)) if abs_errors else float("nan"),
        result.retries,
        result.partial_rounds,
        len(result.quarantined_responders),
        sum(result.faults_injected.values()),
    )


def run(
    *,
    trials: int = 20,
    seed: int = 23,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """The degradation curve: ``trials`` campaigns of :data:`ROUNDS`
    rounds per :data:`INTENSITIES` cell.

    Identification should be near-perfect at intensity 0 and fall
    monotonically (modulo Monte-Carlo noise) as faults intensify, while
    the campaign machinery keeps every cell crash-free — retries and
    quarantines grow instead of exceptions.

    ``checkpoint`` persists per-cell trial checkpoints for resumable
    sweeps.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    result = ExperimentResult(
        experiment_id="Chaos sweep",
        description="graceful degradation under composed fault injection",
    )
    table = Table(
        [
            "intensity",
            "id rate",
            "det rate",
            "|err| [m]",
            "retries/camp",
            "partial/camp",
            "quarantined/camp",
            "faults/camp",
        ],
        title=f"degradation vs fault intensity ({trials} campaigns x "
        f"{ROUNDS} rounds per cell)",
    )

    id_rates = []
    for intensity in INTENSITIES:
        report = run_trials(
            partial(
                _trial,
                intensity=float(intensity),
                fault_seed=seed,
                n_rounds=ROUNDS,
            ),
            trials,
            # Distinct seed stream per cell, all derived from the master.
            seed=(seed, int(round(1000 * intensity))),
            workers=workers,
            metrics=metrics,
            checkpoint_dir=checkpoint,
            checkpoint_label=f"chaos-{intensity:.2f}",
        )
        values = np.array(report.values, dtype=float)
        id_rate = float(np.mean(values[:, 0]))
        det_rate = float(np.mean(values[:, 1]))
        errors = values[:, 2]
        mean_error = (
            float(np.nanmean(errors)) if not np.all(np.isnan(errors))
            else float("nan")
        )
        retries = float(np.mean(values[:, 3]))
        partials = float(np.mean(values[:, 4]))
        quarantined = float(np.mean(values[:, 5]))
        faults = float(np.mean(values[:, 6]))
        metrics.counter("chaos.faults_injected").inc(float(values[:, 6].sum()))
        metrics.counter("chaos.retries").inc(float(values[:, 3].sum()))
        metrics.counter("chaos.quarantined_responders").inc(
            float(values[:, 5].sum())
        )
        table.add_row(
            [
                float(intensity),
                id_rate,
                det_rate,
                mean_error,
                retries,
                partials,
                quarantined,
                faults,
            ]
        )
        id_rates.append(id_rate)
        result.compare(
            f"id_rate_intensity_{intensity:g}", id_rate, unit=""
        )

    result.add_table(table)
    result.compare("id_rate_clean", id_rates[0], paper=1.0)
    result.compare("id_rate_worst", id_rates[-1])
    result.compare(
        "degradation_span", id_rates[0] - id_rates[-1], unit=""
    )
    result.note(
        "intensity 0 runs with an empty FaultPlan (fault machinery "
        "detached); the curve quantifies graceful degradation — no cell "
        "may crash, faults surface as retries/quarantines/partial rounds"
    )
    return result

