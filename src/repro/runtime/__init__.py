"""repro.runtime — parallel trial execution, artifact caching, metrics.

The runtime subsystem turns every ``--trials N`` loop in the repository
into a parallel, observable, reproducible workload:

* :mod:`repro.runtime.executor` — :func:`run_trials`, the one trial
  runner: per-trial deterministic seeding (``SeedSequence.spawn``), one
  chunk loop that runs in-process or on a fork pool (falling back to
  in-process when the pool cannot start, re-running a timed-out chunk
  in-process), fail-fast :class:`TrialError` reporting, and cross-trial
  batching (:class:`BatchTrial` + ``batch_size``).
* :mod:`repro.runtime.checkpoint` — sharded on-disk results, so an
  interrupted run resumes where it stopped, and the one fresh-or-resume
  rule for ``--checkpoint DIR [--resume]``.
* :mod:`repro.runtime.cache` — process-local memo caches for immutable
  artifacts (template banks, pulses) with hit/miss accounting.
* :mod:`repro.runtime.metrics` — counters, gauges, timers, histograms,
  and a ``render()`` report (trials/sec, cache hit rates, wall-clock).

Quickstart::

    from functools import partial
    from repro.runtime import run_trials

    def trial(rng, index, *, distance_m):
        return simulate_once(distance_m, rng)

    report = run_trials(partial(trial, distance_m=6.0), 1000,
                        seed=7, workers=4)
    print(report.trials_per_s, report.metrics.render())
"""

from repro.runtime.checkpoint import (
    CheckpointStore,
    checkpoint_usage_error,
    run_key,
)
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
    TrialError,
    TrialFailure,
    TrialRunReport,
    WorkloadShape,
    choose_batch_size,
    run_trials,
    spawn_trial_seeds,
)
from repro.runtime.metrics import MetricsRegistry, global_metrics

__all__ = [
    "ArtifactCache",
    "BatchTrial",
    "CheckpointStore",
    "MetricsRegistry",
    "TrialError",
    "TrialFailure",
    "TrialRunReport",
    "WorkloadShape",
    "all_cache_snapshots",
    "checkpoint_usage_error",
    "choose_batch_size",
    "clear_all_caches",
    "get_cache",
    "global_metrics",
    "pulse",
    "run_key",
    "run_trials",
    "spawn_trial_seeds",
    "template_bank",
]
