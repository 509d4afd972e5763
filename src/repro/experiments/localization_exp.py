"""EXP-L1 — Future-work extension: anchor-based localization.

The paper's conclusion announces concurrent-ranging-based localization
as future work.  This experiment implements it: four anchors in a room,
a tag initiating one concurrent round per waypoint, robust
multilateration on the decoded (anchor, distance) pairs.

Every waypoint is one independently seeded trial on the
:mod:`repro.runtime` executor, so ``--workers`` sweeps are
byte-identical to serial runs and ``checkpoint`` resumes interrupted
tracks.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.analysis.tables import Table
from repro.channel.geometry import Point
from repro.experiments.common import ExperimentResult
from repro.localization.anchors import AnchorNetwork, InsufficientAnchorsError
from repro.localization.multilateration import gdop
from repro.runtime import MetricsRegistry, run_trials

#: A 10 m x 8 m room with anchors near the corners.
ANCHORS = (
    Point(0.5, 0.5),
    Point(9.5, 0.5),
    Point(9.5, 7.5),
    Point(0.5, 7.5),
)


def waypoints(n: int) -> list[Point]:
    """A rectangular walking path inside the anchor hull."""
    ts = np.linspace(0.0, 1.0, n, endpoint=False)
    points = []
    for t in ts:
        s = 4.0 * t
        if s < 1.0:
            points.append(Point(2.0 + 6.0 * s, 2.0))
        elif s < 2.0:
            points.append(Point(8.0, 2.0 + 4.0 * (s - 1.0)))
        elif s < 3.0:
            points.append(Point(8.0 - 6.0 * (s - 2.0), 6.0))
        else:
            points.append(Point(2.0, 6.0 - 4.0 * (s - 3.0)))
    return points


#: A fix whose range residuals exceed this RMS is flagged invalid — the
#: standard integrity gate of a deployed localization system (a grossly
#: inconsistent range set means an identification or detection failure).
RESIDUAL_GATE_M = 0.3


def _trial(
    rng: np.random.Generator, index: int, *, n_waypoints: int
) -> tuple:
    """One position fix at waypoint ``index`` of the walking path.

    Returns ``(error_m, rms_residual_m, anchors_used, gdop)`` — plain
    scalars so the parallel path ships small payloads.  A round that
    identifies fewer than three anchors is an invalid fix (NaN error,
    infinite residual), not an aborted run.
    """
    waypoint = waypoints(n_waypoints)[index]
    network = AnchorNetwork(ANCHORS, seed=rng, n_slots=4, n_shapes=1)
    try:
        fix = network.locate(waypoint)
    except InsufficientAnchorsError as error:
        return (
            float("nan"),
            float("inf"),
            float(error.anchors_used),
            gdop(ANCHORS, waypoint),
        )
    return (
        fix.error_m,
        fix.fit.rms_residual_m,
        float(fix.anchors_used),
        gdop(ANCHORS, fix.true_position),
    )


def run(
    *,
    trials: int = 20,
    seed: int = 43,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """Track the tag along the path and report position errors.

    ``trials`` is the waypoint count of the rectangular path (one fix
    per trial).
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    report = run_trials(
        partial(_trial, n_waypoints=trials),
        trials,
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="localization",
    )
    values = np.array(report.values, dtype=float)
    errors = values[:, 0]
    residuals = values[:, 1]
    anchors_used = values[:, 2]
    gdops = values[:, 3]
    valid = residuals <= RESIDUAL_GATE_M
    valid_errors = errors[valid] if valid.any() else errors

    result = ExperimentResult(
        experiment_id="Localization (future work)",
        description="anchor-based localization via concurrent ranging",
    )
    table = Table(
        ["metric", "value"],
        title=f"position fixes over {trials} waypoints, 4 anchors",
    )
    table.add_row(["valid fix rate", float(np.mean(valid))])
    table.add_row(["median error (valid) [m]", float(np.median(valid_errors))])
    table.add_row(["p95 error (valid) [m]", float(np.percentile(valid_errors, 95))])
    table.add_row(["rmse (valid) [m]", float(np.sqrt(np.mean(valid_errors**2)))])
    table.add_row(["mean anchors used", float(np.mean(anchors_used))])
    table.add_row(["mean GDOP on path", float(np.mean(gdops))])
    result.add_table(table)

    result.compare("valid_fix_rate", float(np.mean(valid)), paper=None)
    result.compare(
        "median_error_m", float(np.median(valid_errors)), paper=None, unit="m"
    )
    result.compare(
        "messages_per_fix", 2.0, paper=float(2 * len(ANCHORS)), unit="messages"
    )
    result.note(
        "no paper reference numbers exist (future work); the comparison "
        "column for messages shows the saving vs per-anchor SS-TWR"
    )
    return result
