"""repro.runtime — parallel trial execution, artifact caching, metrics.

The runtime subsystem turns every ``--trials N`` loop in the repository
into a parallel, observable, reproducible workload:

* :mod:`repro.runtime.executor` — :class:`SerialExecutor` /
  :class:`ParallelExecutor` with per-trial deterministic seeding
  (``SeedSequence.spawn``), chunked dispatch, per-trial exception
  capture, worker timeouts, graceful serial fallback, and cross-trial
  batching (:class:`BatchTrial` + the ``batch_size`` policy knob).
* :mod:`repro.runtime.cache` — process-local memo caches for immutable
  artifacts (template banks, pulses) with hit/miss accounting.
* :mod:`repro.runtime.metrics` — counters, gauges, timers, histograms,
  and a ``render()`` report (trials/sec, cache hit rates, wall-clock).
* :mod:`repro.runtime.api` — the :func:`run_trials` convenience entry
  point experiments build on.

Quickstart::

    from functools import partial
    from repro.runtime import run_trials

    def trial(rng, index, *, distance_m):
        return simulate_once(distance_m, rng)

    report = run_trials(partial(trial, distance_m=6.0), 1000,
                        seed=7, workers=4)
    print(report.trials_per_s, report.metrics.render())
"""

from repro.runtime.api import TrialRunReport, make_executor, run_trials
from repro.runtime.checkpoint import CheckpointStore, run_key
from repro.runtime.cache import (
    ArtifactCache,
    all_cache_snapshots,
    clear_all_caches,
    get_cache,
    pulse,
    template_bank,
)
from repro.runtime.executor import (
    BatchTrial,
    ExecutionPolicy,
    ParallelExecutor,
    SerialExecutor,
    TrialError,
    TrialExecutor,
    TrialFailure,
    TrialRun,
    WorkloadShape,
    choose_batch_size,
    resolve_policy,
    spawn_trial_seeds,
)
from repro.runtime.metrics import MetricsRegistry, global_metrics

__all__ = [
    "ArtifactCache",
    "BatchTrial",
    "CheckpointStore",
    "ExecutionPolicy",
    "MetricsRegistry",
    "ParallelExecutor",
    "SerialExecutor",
    "TrialError",
    "TrialExecutor",
    "TrialFailure",
    "TrialRun",
    "TrialRunReport",
    "WorkloadShape",
    "all_cache_snapshots",
    "choose_batch_size",
    "clear_all_caches",
    "get_cache",
    "global_metrics",
    "make_executor",
    "pulse",
    "resolve_policy",
    "run_key",
    "run_trials",
    "spawn_trial_seeds",
    "template_bank",
]
