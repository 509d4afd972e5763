"""`run_trials` — the one-call entry point onto the trial runtime.

Experiments should not juggle executors, policies, and registries; they
call::

    report = run_trials(partial(_trial, d2_m=6.0), trials, seed=17,
                        workers=workers, metrics=metrics)
    rate = float(np.mean(report.values))

and get back a :class:`TrialRunReport` with the per-trial values (in
trial order, identical for any worker count), captured failures, and
throughput numbers.  The shared :class:`MetricsRegistry` accumulates
across calls, so an experiment sweeping ten parameter cells reports one
aggregate trials/sec and cache hit rate for the whole run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Union

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import (
    ExecutionPolicy,
    ParallelExecutor,
    SerialExecutor,
    TrialExecutor,
    TrialFailure,
    TrialFn,
    TrialRun,
    _assemble,
)
from repro.runtime.metrics import MetricsRegistry

__all__ = ["TrialRunReport", "make_executor", "run_trials"]


def _default_label(fn: TrialFn) -> str:
    """A checkpoint label from the trial function's name."""
    if isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__name__", None) or "trials"


@dataclass
class TrialRunReport:
    """A finished trial batch plus the registry that observed it."""

    run: TrialRun
    metrics: MetricsRegistry
    workers: int

    @property
    def values(self) -> List[Any]:
        """Successful trials' return values in trial-index order."""
        return self.run.values

    @property
    def failures(self) -> List[TrialFailure]:
        return self.run.failures

    @property
    def n_trials(self) -> int:
        return self.run.n_trials

    @property
    def elapsed_s(self) -> float:
        return self.run.elapsed_s

    @property
    def trials_per_s(self) -> float:
        return self.run.trials_per_s


def make_executor(
    workers: int = 1,
    policy: Optional[ExecutionPolicy] = None,
) -> TrialExecutor:
    """A serial executor for ``workers <= 1``, else a parallel one."""
    if workers <= 1:
        return SerialExecutor(policy)
    return ParallelExecutor(workers=workers, policy=policy)


def run_trials(
    fn: TrialFn,
    n_trials: int,
    *,
    seed=0,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    fail_fast: bool = True,
    chunk_size: Optional[int] = None,
    worker_timeout_s: float = 600.0,
    max_trial_retries: int = 0,
    batch_size: Union[int, str] = 1,
    checkpoint_dir=None,
    checkpoint_label: Optional[str] = None,
) -> TrialRunReport:
    """Run ``n_trials`` deterministic Monte-Carlo trials of ``fn``.

    Parameters
    ----------
    fn:
        Trial function ``fn(rng, index) -> value``.  Bind experiment
        parameters with ``functools.partial`` over a module-level
        function so the parallel path can pickle it.
    n_trials:
        Number of independent trials.
    seed:
        Master seed (int, sequence of ints, or ``SeedSequence``).  Trial
        ``i`` receives child ``i`` of ``SeedSequence(seed)`` regardless
        of the worker count, so results are reproducible *and*
        executor-independent.
    workers:
        1 (default) runs in-process; >= 2 dispatches to a process pool.
    metrics:
        Optional shared registry; a fresh one is created otherwise.
        Counters/timers accumulate across calls to support multi-cell
        experiments.
    fail_fast:
        ``True``: first trial exception raises
        :class:`~repro.runtime.executor.TrialError`.  ``False``: failures
        are collected on the report and remaining trials continue.
    chunk_size, worker_timeout_s, max_trial_retries:
        See :class:`~repro.runtime.executor.ExecutionPolicy`.
    batch_size:
        When ``fn`` is a :class:`~repro.runtime.executor.BatchTrial`,
        group up to this many consecutive trials of each chunk into one
        batched engine call (e.g. one
        :func:`repro.core.batch.detect_batch` pass across the group).
        The string ``"auto"`` picks the batch size from the workload
        shape (see :func:`~repro.runtime.executor.choose_batch_size`)
        when the trial carries a
        :class:`~repro.runtime.executor.WorkloadShape`, and runs
        unbatched otherwise.  Per-trial seeding is unchanged, so results
        equal the ``batch_size=1`` run for any value.  Ignored for plain
        trial functions.
    checkpoint_dir:
        When given, completed trials are persisted to sharded
        checkpoints in this directory as the run progresses, and a
        subsequent call with the same ``(seed, n_trials, label)`` skips
        everything already on disk — an interrupted run resumes where it
        stopped and yields results byte-identical to an uninterrupted
        one.  Trial values must be picklable.
    checkpoint_label:
        Separates checkpoints of different experiments sharing seed and
        trial count; defaults to the trial function's name.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    metrics = metrics if metrics is not None else MetricsRegistry()
    policy = ExecutionPolicy(
        fail_fast=fail_fast,
        chunk_size=chunk_size,
        worker_timeout_s=worker_timeout_s,
        max_trial_retries=max_trial_retries,
        batch_size=batch_size,
    )
    executor = make_executor(workers=workers, policy=policy)

    if checkpoint_dir is None:
        run = executor.run(fn, n_trials, seed, metrics=metrics)
        return TrialRunReport(
            run=run, metrics=metrics, workers=max(1, workers)
        )

    # Checkpointed path: the store is the source of truth.  Load what a
    # previous (possibly killed) run already computed, dispatch only the
    # missing indices, then assemble the full result from disk — which
    # is what makes `resume == uninterrupted` hold by construction.
    store = CheckpointStore.for_run(
        checkpoint_dir,
        seed,
        n_trials,
        label=checkpoint_label or _default_label(fn),
    )
    started = time.perf_counter()
    done = store.load_entries()
    if done:
        metrics.counter("runtime.checkpoint_hits").inc(len(done))
    missing = [i for i in range(n_trials) if i not in done]
    elapsed_s = 0.0
    fallback_reason = None
    if missing:
        partial_run = executor.run(
            fn,
            n_trials,
            seed,
            metrics=metrics,
            indices=missing,
            checkpoint=store,
        )
        elapsed_s = partial_run.elapsed_s
        fallback_reason = partial_run.fallback_reason
        done = store.load_entries()
    entries = [(index, ok, payload) for index, (ok, payload) in done.items()]
    run = _assemble(
        n_trials, entries, elapsed_s or (time.perf_counter() - started)
    )
    run.fallback_reason = fallback_reason
    return TrialRunReport(run=run, metrics=metrics, workers=max(1, workers))
