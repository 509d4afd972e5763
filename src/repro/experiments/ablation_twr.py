"""EXP-A4 — Ablation: SS-TWR (+/- drift compensation) vs DS-TWR.

Quantifies the clock-drift context the paper's scheme lives in: plain
SS-TWR is exposed to ``(reply_delay / 2) * drift * c`` of bias, which at
290 us and a few ppm is tens of centimetres; CFO compensation (what the
paper's hardware does implicitly) or a third DS-TWR message both remove
it — but DS-TWR costs 50 % more messages per link, which is exactly the
traffic concurrent ranging eliminates.

Every trial is one independently seeded exchange triple (raw SS-TWR,
compensated SS-TWR, DS-TWR) on the :mod:`repro.runtime` executor, so
``--workers`` sweeps are byte-identical to serial runs and
``checkpoint`` resumes interrupted ones.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.twr import DsTwr, SsTwr
from repro.runtime import MetricsRegistry, run_trials

DISTANCE_M = 5.0


def _nodes(rng, clock_rng):
    medium = Medium(environment=IndoorEnvironment.office(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=clock_rng)
    responder = Node.at(1, DISTANCE_M, 0.0, rng=clock_rng)
    medium.add_nodes([initiator, responder])
    return medium, initiator, responder


def _trial(rng: np.random.Generator, index: int, *, seed: int) -> tuple:
    """One exchange per scheme.

    The crystal pair is drawn once from the master seed — every trial
    ranges between the *same* two (drifting) clocks, as the historical
    single-node-pair loop did, so the raw SS-TWR bias stays visible
    instead of averaging out over fresh crystals.  Channel fading and
    timestamp noise come from the per-trial stream.

    Returns ``(ss_compensated_m, ss_raw_m, ds_m)``; the raw estimate
    comes from the *same* SS exchange as the compensated one, so the
    pair differs only by the CFO correction.
    """
    clock_rng = np.random.default_rng(
        np.random.SeedSequence((seed, 101))
    )
    medium, initiator, responder = _nodes(rng, clock_rng)
    ss_outcome = SsTwr(medium, initiator, responder).run(rng)
    ds_outcome = DsTwr(medium, initiator, responder).run(rng)
    return (
        ss_outcome.distance_m,
        ss_outcome.uncompensated_distance_m,
        ds_outcome.distance_m,
    )


def run(
    *,
    trials: int = 400,
    seed: int = 59,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """Bias/std of the three TWR schemes over ``trials`` exchanges
    (one exchange triple per trial)."""
    metrics = metrics if metrics is not None else MetricsRegistry()
    report = run_trials(
        partial(_trial, seed=seed),
        trials,
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="ablation-twr",
    )
    values = np.array(report.values, dtype=float)
    ss_estimates = values[:, 0]
    ss_raw = values[:, 1]
    ds_estimates = values[:, 2]

    result = ExperimentResult(
        experiment_id="Ablation A4",
        description="TWR scheme comparison under clock drift",
    )
    table = Table(
        ["scheme", "messages/link", "bias [m]", "std [m]"],
        title=f"{trials} exchanges at {DISTANCE_M} m, ~2 ppm crystals",
    )
    rows = (
        ("SS-TWR, no compensation", 2, ss_raw),
        ("SS-TWR + CFO compensation", 2, ss_estimates),
        ("DS-TWR (asymmetric)", 3, ds_estimates),
    )
    for label, messages, estimates in rows:
        table.add_row(
            [
                label,
                messages,
                float(np.mean(estimates) - DISTANCE_M),
                float(np.std(estimates)),
            ]
        )
    result.add_table(table)

    result.compare(
        "ss_raw_abs_bias_m",
        float(abs(np.mean(ss_raw) - DISTANCE_M)),
        paper=None,
        unit="m",
    )
    result.compare(
        "ss_compensated_std_m", float(np.std(ss_estimates)), paper=0.0228,
        unit="m",
    )
    result.compare(
        "ds_std_m", float(np.std(ds_estimates)), paper=None, unit="m"
    )
    result.note(
        "compensated SS-TWR and DS-TWR both reach the cm band; plain "
        "SS-TWR carries the drift bias.  Concurrent ranging inherits the "
        "compensated SS-TWR error model on its anchor link."
    )
    return result
