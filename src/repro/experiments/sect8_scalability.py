"""EXP-S8 — Sect. VIII: scalability of the combined scheme.

Three claims are checked:

1. RPM alone supports only ``N_RPM = delta_max * c / r_max`` responders
   (~4 at r_max = 75 m).
2. Combining RPM with ~100 pulse shapes at r_max = 20 m supports more
   than 1500 responders.
3. Message cost for full-network ranging drops from ``N (N - 1)``
   (scheduled SS-TWR) to ``N``-order (concurrent), with corresponding
   energy and channel-utilization gains.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.analysis.tables import Table
from repro.constants import RPM_MAX_OFFSET_M
from repro.core.rpm import paper_slot_count, safe_slot_count
from repro.experiments.common import ExperimentResult
from repro.protocol.scheduling import network_sweep
from repro.runtime import MetricsRegistry, run_trials

#: Pulse-shape count the paper assumes for the >1500-responder claim.
PAPER_SHAPE_COUNT = 100

NETWORK_SIZES = (2, 5, 10, 20, 50, 100)


def _network_trial(
    rng: np.random.Generator, index: int, *, sizes: Sequence[int]
) -> tuple:
    """One network size's scheduled-vs-concurrent cost (closed form).

    The computation is deterministic — the trial seeding contract still
    applies, it simply goes unused — so running the sweep on the trial
    executor parallelises the table rows with results identical at any
    worker count.
    """
    scheduled, concurrent = network_sweep([int(sizes[index])])[0]
    return (
        scheduled.n_nodes,
        scheduled.messages,
        concurrent.messages,
        scheduled.energy_j,
        concurrent.energy_j,
        scheduled.duration_s,
        concurrent.duration_s,
    )


def run(
    *,
    seed: int = 0,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Recompute every Sect. VIII scalability number.

    The network sweep (one trial per network size) runs on
    :func:`repro.runtime.run_trials`, so ``--workers`` parallelises the
    rows and ``--checkpoint`` persists them.  The sweep always runs
    exactly one (deterministic) trial per network size, so it takes no
    trial count.
    """
    result = ExperimentResult(
        experiment_id="Sect. VIII",
        description="scalability: slots, capacity, and message cost",
    )

    # -- claim 1 and 2: slots and capacity -------------------------------
    capacity = Table(
        ["r_max [m]", "N_RPM (paper formula)", "N_RPM (safe)",
         "N_max = N_RPM x 100 shapes"],
        title="responder capacity vs communication range",
    )
    for r_max in (75.0, 50.0, 20.0, 10.0):
        n_paper = paper_slot_count(r_max)
        capacity.add_row(
            [r_max, n_paper, safe_slot_count(r_max), n_paper * PAPER_SHAPE_COUNT]
        )
    result.add_table(capacity)

    result.compare("delta_max_distance_m", RPM_MAX_OFFSET_M, paper=307.0, unit="m")
    result.compare(
        "n_rpm_75m", float(paper_slot_count(75.0)), paper=4.0, unit="slots"
    )
    result.compare(
        "n_max_20m",
        float(paper_slot_count(20.0) * PAPER_SHAPE_COUNT),
        paper=1500.0,
        unit="responders",
    )

    # -- claim 3: message/energy cost ------------------------------------
    costs = Table(
        [
            "N nodes",
            "scheduled msgs (N(N-1))",
            "concurrent msgs",
            "scheduled energy [mJ]",
            "concurrent energy [mJ]",
            "duration ratio",
        ],
        title="full-network ranging cost",
    )
    report = run_trials(
        partial(_network_trial, sizes=NETWORK_SIZES),
        len(NETWORK_SIZES),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="sect8-network-sweep",
    )
    for row in report.values:
        (n_nodes, scheduled_msgs, concurrent_msgs,
         scheduled_j, concurrent_j, scheduled_s, concurrent_s) = row
        costs.add_row(
            [
                n_nodes,
                scheduled_msgs,
                concurrent_msgs,
                scheduled_j * 1e3,
                concurrent_j * 1e3,
                scheduled_s / concurrent_s,
            ]
        )
    result.add_table(costs)

    row_100 = report.values[NETWORK_SIZES.index(100)]
    result.compare(
        "scheduled_messages_n100",
        float(row_100[1]),
        paper=float(100 * 99),
    )
    result.compare(
        "concurrent_messages_n100", float(row_100[2]), paper=200.0
    )
    result.compare(
        "energy_gain_n100",
        row_100[3] / row_100[4],
        paper=None,
    )
    result.note(
        "paper counts the aggregated concurrent response as one message: "
        "N(N-1) -> order-N; energy and duration gains scale the same way"
    )
    return result
