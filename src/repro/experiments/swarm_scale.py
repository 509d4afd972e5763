"""EXP-SWARM — Sect. VIII identification measured at city-swarm scale.

Sect. VIII of the paper *derives* the capacity of the combined scheme —
``N_max = N_RPM x N_PS`` = 16 slots x 96 shapes = 1536 >= 1500 — but
never runs it: the testbed stops at 12 responders.  This experiment is
the first measured point on that curve.  A :class:`SwarmScenario`
(:mod:`repro.netsim.swarm`) puts N mobile responders and several
concurrent initiators in a shared arena; each epoch every active
initiator polls a round-robin window of its in-range members, the
superposed CIR is decoded through the full production path
(search-and-subtract -> pulse-shape classification -> RPM slot decode
-> TWR anchor), and identified responders become multilateration
anchors for the initiator's own fix.

The sweep reports, per responder count:

* **identification rate** — decoded (slot, shape) pairs matching the
  polled member's scheme ID, over all polled members;
* **ambiguous fraction** — correct decodes that alias >1 in-range
  member once the population exceeds scheme capacity;
* **ranging / fix error** — median absolute error of identified
  distances and of the multilateration fixes built from them;
* **rounds/s** — wall-clock throughput of the sharded event loop
  (reported in the table and the metrics registry only: timing is not
  a comparable metric).

Each count is one :mod:`repro.runtime` trial seeded ``(seed, count)``
— the serial sweep's exact derivation — so results are byte-identical
at any worker count; ``SwarmScenario(shards=K)`` partitions the event
loop without changing a single byte of the result (the swarm test
suite pins this).

Run from the shell::

    python -m repro run swarm --trials 10 --workers 4 \
        --checkpoint DIR [--resume]

:func:`check` is the acceptance gate of the 12/100/500-responder sweep
that ``tests/test_golden_metrics.py`` pins.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentResult
from repro.netsim.swarm import SwarmConfig, SwarmScenario
from repro.runtime import MetricsRegistry, run_trials

#: The responder-count sweep: the paper's testbed scale (12), three
#: intermediate city-block populations, the Sect. VIII claim (1500),
#: and one point past scheme capacity (2000 > 1536) where aliasing
#: must appear.
RESPONDER_COUNTS = (12, 100, 500, 1000, 1500, 2000)

#: Paper Sect. VIII scheme: 16 RPM slots x 96 pulse shapes.
N_SLOTS = 16
N_SHAPES = 96


def swarm_config(count: int) -> SwarmConfig:
    """The sweep's scenario configuration for one responder count.

    Everything except the population is pinned so the sweep varies one
    axis; the arena grows with ``sqrt(count)`` (constant density), which
    is what makes this a *scale* sweep rather than a congestion sweep.
    """
    return SwarmConfig(
        n_responders=count,
        n_slots=N_SLOTS,
        n_shapes=N_SHAPES,
    )


def _swarm_cell(
    rng,
    index: int,
    *,
    counts: Sequence[int],
    epochs: int,
    seed: int,
) -> Tuple:
    """Run one responder count's swarm and return its scalar summary.

    The scenario derives its own generator stream from ``(seed, count)``
    (the serial sweep's exact seeding), so the trial executor's ``rng``
    goes unused — results are identical at any worker count or trial
    order.  ``elapsed_s`` is the only non-deterministic element of the
    tuple; everything ``run()`` pins as a comparison metric comes from
    the deterministic prefix.
    """
    del rng  # scenario seeds itself from (seed, count); see docstring
    count = int(counts[index])
    scenario = SwarmScenario(swarm_config(count), seed=(seed, count))
    result = scenario.run(epochs)
    return (
        count,
        result.rounds,
        result.polled,
        result.identified,
        result.ambiguous,
        float(result.median_abs_error_m),
        float(result.median_fix_error_m),
        float(result.median_track_error_m),
        float(result.coverage),
        float(result.elapsed_s),
    )


def run(
    *,
    trials: int = 8,
    seed: int = 71,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
    counts: Sequence[int] = RESPONDER_COUNTS,
) -> ExperimentResult:
    """Sweep responder counts and report the Sect. VIII curve.

    ``trials`` is the number of swarm epochs simulated per responder
    count; the swarm batches CIR classification itself (see
    :attr:`SwarmConfig.batch_size`).
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    counts = tuple(int(c) for c in counts)
    capacity = N_SLOTS * N_SHAPES
    result = ExperimentResult(
        experiment_id="Swarm scale (ours)",
        description="Sect. VIII identification measured from 12 to "
        f"{max(counts)} responders",
    )
    table = Table(
        [
            "responders",
            "scheme load",
            "rounds",
            "polled",
            "ID rate",
            "ambiguous",
            "med |err| [m]",
            "med fix [m]",
            "coverage",
            "rounds/s",
        ],
        title=f"{N_SLOTS} slots x {N_SHAPES} shapes (capacity {capacity}), "
        f"{trials} epochs per point",
    )
    report = run_trials(
        partial(
            _swarm_cell,
            counts=counts,
            epochs=trials,
            seed=seed,
        ),
        len(counts),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="swarm-scale",
    )

    stats = {}
    for row in report.values:
        (
            count,
            rounds,
            polled,
            identified,
            ambiguous,
            med_err,
            med_fix,
            med_track,
            coverage,
            elapsed,
        ) = row
        id_rate = identified / polled if polled else float("nan")
        amb_frac = ambiguous / polled if polled else float("nan")
        rounds_per_s = rounds / elapsed if elapsed > 0 else float("nan")
        stats[count] = {
            "id_rate": id_rate,
            "ambiguous_fraction": amb_frac,
            "median_abs_error_m": med_err,
            "median_fix_error_m": med_fix,
            "median_track_error_m": med_track,
            "coverage": coverage,
        }
        metrics.counter("swarm.rounds").inc(float(rounds))
        metrics.counter("swarm.polled").inc(float(polled))
        metrics.counter("swarm.identified").inc(float(identified))
        metrics.gauge(f"swarm.rounds_per_s.{count}").set(rounds_per_s)
        table.add_row(
            [
                count,
                f"{count}/{capacity}",
                rounds,
                polled,
                id_rate,
                amb_frac,
                med_err,
                med_fix,
                coverage,
                rounds_per_s,
            ]
        )
    result.add_table(table)

    for count in counts:
        cell = stats[count]
        result.compare(f"id_rate_{count}", float(cell["id_rate"]))
        result.compare(
            f"median_abs_error_m_{count}",
            float(cell["median_abs_error_m"]),
            unit="m",
        )
    top = max(counts)
    result.compare("coverage_top", float(stats[top]["coverage"]))
    result.compare(
        "ambiguous_fraction_top", float(stats[top]["ambiguous_fraction"])
    )
    result.compare("scheme_capacity", float(capacity), paper=1500.0)
    result.note(
        "the paper's Sect. VIII claim is a *capacity* (16 x 96 = 1536 "
        ">= 1500 codes); this sweep measures what the decode chain "
        "actually identifies at that population — shape classification "
        "over a 96-template bank is the binding constraint (see the "
        "bank-size ablation), not slot decoding"
    )
    result.note(
        "rounds/s is wall-clock throughput of the sharded swarm loop "
        "and lives in the table/metrics only; every pinned metric above "
        "is byte-deterministic in (seed, counts, epochs) and invariant "
        "in --workers and in the scenario's shard count"
    )
    return result


def check(result: ExperimentResult) -> list:
    """Acceptance gate for the 12/100/500-responder sweep.

    Returns the violated criteria (empty when the run passes): the
    scheme must actually cover the Sect. VIII population, the testbed-
    scale point must identify a solid majority, identification must
    still function at 500 responders, and identified distances must
    stay centimetre-grade at every swept count.
    """
    failures = []
    capacity = result.metric("scheme_capacity").measured
    if not capacity >= 1500:
        failures.append(f"scheme capacity {capacity:.0f} < 1500")
    id_12 = result.metric("id_rate_12").measured
    if not id_12 >= 0.5:
        failures.append(f"id rate at 12 responders {id_12:.3f} < 0.5")
    id_500 = result.metric("id_rate_500").measured
    if not id_500 >= 0.2:
        failures.append(f"id rate at 500 responders {id_500:.3f} < 0.2")
    for comparison in result.comparisons:
        if comparison.name.startswith("median_abs_error_m_"):
            if not comparison.measured <= 0.5:
                failures.append(
                    f"{comparison.name} = {comparison.measured:.3f} m > 0.5 m"
                )
    return failures

