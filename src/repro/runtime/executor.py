"""The trial runner: :func:`run_trials`, one chunk loop in-process or on a pool.

The experiments in this repository are embarrassingly parallel: every
Monte-Carlo trial builds its own topology, draws its own channels, and
returns a small result.  :func:`run_trials` runs ``n`` such trials and
returns their results *in trial order* with per-trial deterministic
seeding:

* The master seed expands into per-trial ``numpy.random.SeedSequence``
  children (``SeedSequence(seed).spawn(n)``), so trial ``i`` sees the
  same random stream no matter which process runs it, in which chunk,
  or in what order — every worker count and batch size produces
  **identical** results for the same master seed.
* The trials still to run are split into chunks.  With ``workers >= 2``
  the chunks go to a ``fork`` process pool, about
  :data:`CHUNKS_PER_WORKER` per worker; otherwise they run in this
  process, :data:`IN_PROCESS_CHUNK_TRIALS` trials each.  A trial
  function the pool cannot pickle, or a pool that cannot start, runs
  the same chunks in-process instead — degraded throughput, never a
  crash, and identical results either way.
* The parent handles every finished chunk the same way in both modes:
  it keeps the values, records the chunk's batch counts and its own
  cache hit/miss delta, and writes the chunk to the checkpoint store as
  one shard.
* Trials are fail-fast: the first exception raises :class:`TrialError`
  with the failing index and the traceback text from the process that
  ran it.  A pooled chunk that misses :data:`CHUNK_TIMEOUT_S` re-runs
  in-process (only that chunk; the others keep streaming from the pool).

Trial functions have the signature ``fn(rng, index) -> value`` with
``rng`` a ``numpy.random.Generator``; use ``functools.partial`` over a
module-level function to bind experiment parameters (module-level
functions keep the callable picklable for the pool).
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.cache import all_cache_snapshots
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.metrics import MetricsRegistry

__all__ = [
    "BatchTrial",
    "TrialError",
    "TrialFailure",
    "TrialRunReport",
    "WorkloadShape",
    "choose_batch_size",
    "run_trials",
    "spawn_trial_seeds",
]

#: Trial function type: ``fn(rng, index) -> value``.
TrialFn = Callable[[np.random.Generator, int], Any]

#: Batched trial function type: ``fn(rngs, indices) -> values`` with one
#: generator and one value per trial.
BatchTrialFn = Callable[
    [List[np.random.Generator], List[int]], Sequence[Any]
]

#: Seconds the parent waits for one pooled chunk before it gives the
#: worker up for hung or dead and re-runs the chunk in-process.
CHUNK_TIMEOUT_S = 600.0

#: Pooled chunks per worker: granular enough to balance uneven trial
#: costs, coarse enough to amortise dispatch overhead.
CHUNKS_PER_WORKER = 4

#: Trials per in-process chunk (rounded up to whole batches).  Each chunk
#: is one checkpoint shard, so this is also the most finished trials a
#: killed in-process run can lose.
IN_PROCESS_CHUNK_TRIALS = 8


@dataclass(frozen=True)
class WorkloadShape:
    """What the runner needs to know about a batched engine workload.

    ``batch_size="auto"`` resolves through :func:`choose_batch_size`,
    which needs the shape of the per-trial engine call: the native CIR
    length, the number of filter channels the engine searches, and the
    upsampling factor (the three knobs that size the
    ``(B, channels, fft_length)`` batch scratch buffers).  The channels
    are the template bank's cover (``len(detector_plan(...).coarse)``,
    see :func:`repro.core.plan.bank_cover`), not the bank size: the
    96-shape swarm bank at U=4 searches 12.  A :class:`BatchTrial` that
    carries its workload shape opts in to auto batch sizing; one
    without it runs unbatched under ``"auto"``.
    """

    cir_length: int
    channels: int
    upsample_factor: int = 8

    def __post_init__(self) -> None:
        if self.cir_length < 1:
            raise ValueError(
                f"cir_length must be >= 1, got {self.cir_length}"
            )
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.upsample_factor < 1:
            raise ValueError(
                f"upsample_factor must be >= 1, got {self.upsample_factor}"
            )


#: Scratch-memory ceiling for one batched engine pass (the
#: ``(B, channels, fft_length)`` complex product buffer plus its
#: inverse-transform output) used by :func:`choose_batch_size`.
MAX_BATCH_SCRATCH_BYTES = 256 * 1024 * 1024

#: Largest batch size :func:`choose_batch_size` will ever pick; beyond
#: this the FFT batching gains flatten while the scratch buffers keep
#: growing (``tests/test_properties_detection.py`` runs B in {1, 8, 64}).
MAX_AUTO_BATCH = 64


def choose_batch_size(
    n_trials: int,
    cir_length: int,
    channels: int,
    workers: int = 1,
    *,
    upsample_factor: int = 8,
) -> int:
    """Pick a batch size from the workload shape (``batch_size="auto"``).

    ``channels`` is the number of filter channels the engine searches:
    the template bank's cover, which is the whole bank for every bank
    the paper uses and 12 of the 96-shape swarm bank's shapes at U=4
    (:class:`WorkloadShape`).  The heuristic balances three pressures:

    * **Enough trials per group.**  Each worker sees roughly
      ``n_trials / workers`` trials; a batch larger than that degrades
      into one short group per worker and gains nothing.
    * **Bounded scratch memory.**  One batched pass materialises two
      ``(B, channels, ~2 * cir_length * upsample_factor)`` complex
      tensors (spectrum product + inverse-transform output); B is capped
      so they stay under :data:`MAX_BATCH_SCRATCH_BYTES`.  For 1016-tap
      CIRs at U=4 that allows B=64 up to 16 channels.
    * **Diminishing returns.**  Past :data:`MAX_AUTO_BATCH` the
      forward/inverse transforms are already fully amortised (a B=64
      pass over 64 Table I CIRs makes a few dozen transform calls
      where the per-CIR loop makes about 1,000: ``TestBatchSpeedup`` in
      ``tests/test_properties_detection.py``), so larger batches only
      pay memory.

    The result is rounded down to a power of two so chunks split into
    even groups, and is always >= 1.  Determinism note: the choice
    depends only on the arguments — never on runtime load — so a run
    with ``batch_size="auto"`` is exactly reproducible (and, by the
    :class:`BatchTrial` equivalence contract, equals the
    ``batch_size=1`` run anyway).
    """
    if n_trials <= 1 or cir_length < 1 or channels < 1:
        return 1
    # Two complex (B, channels, padded-length) tensors; the padded FFT
    # length is ~2x the upsampled CIR length (next_fast_len of the full
    # linear-correlation support).
    bytes_per_trial = 2 * 16 * channels * 2 * cir_length * upsample_factor
    memory_cap = max(1, int(MAX_BATCH_SCRATCH_BYTES // max(1, bytes_per_trial)))
    per_worker = max(1, n_trials // max(1, workers))
    batch = min(MAX_AUTO_BATCH, memory_cap, per_worker)
    # Round down to a power of two for even group splits.
    return 1 << (int(batch).bit_length() - 1)


@dataclass(frozen=True)
class BatchTrial:
    """A trial written once, as a batched function over a group of trials.

    ``batch(rngs, indices)`` runs a group of trials and returns one value
    per trial, in order.  :func:`run_trials` calls it once per group of
    ``batch_size`` trials, and as a batch of one for a lone trial (a
    chunk's short last group, ``batch_size=1``, or the instance called as
    a plain ``fn(rng, index)``).  Entry ``k`` must not depend on the
    other members of its group; ``tests/test_runtime_experiments.py``
    checks this for the ported experiments by asserting that
    ``batch_size=B`` runs equal ``batch_size=1`` runs.

    Each trial still consumes its own seed child: the runner builds
    ``rngs[k] = np.random.default_rng(seed_child(indices[k]))`` before
    the batched call, so batching changes neither the random streams nor
    the results — only how many trials share one engine pass (e.g. one
    2-D FFT across the batch via :func:`repro.core.batch.detect_batch`).

    If a group's batched call raises (or returns the wrong number of
    values), the runner re-runs each member as a batch of one — counted
    under ``runtime.batch_fallbacks`` — so a failing trial is still
    reported by its own index.

    Build instances from ``functools.partial`` over module-level
    functions to keep them picklable for the pool.

    ``workload`` (optional) describes the shape of the batched engine
    call (:class:`WorkloadShape`); carrying it opts the trial into
    ``batch_size="auto"`` resolution via :func:`choose_batch_size`.
    """

    batch: BatchTrialFn
    workload: Optional[WorkloadShape] = None

    def __call__(self, rng: np.random.Generator, index: int) -> Any:
        """One trial, as a batch of one."""
        [value] = self.batch([rng], [index])
        return value


@dataclass(frozen=True)
class TrialFailure:
    """One captured per-trial exception."""

    index: int
    error: str
    traceback: str


class TrialError(RuntimeError):
    """A trial failed; the run stops at the first failure.

    Carries the failing trial's index and the formatted traceback from
    the process that ran it (which may not be this one).
    """

    def __init__(self, failure: TrialFailure) -> None:
        super().__init__(
            f"trial {failure.index} failed: {failure.error}\n"
            f"{failure.traceback}"
        )
        self.failure = failure

    def __reduce__(self):
        # Default exception pickling would re-call __init__ with the
        # formatted message instead of the TrialFailure, blowing up in
        # the pool's result-handler thread (which then hangs .get()).
        return (TrialError, (self.failure,))


@dataclass
class TrialRunReport:
    """A finished run plus the registry that observed it."""

    #: Every trial's return value, in trial-index order.
    values: List[Any]
    n_trials: int
    elapsed_s: float
    metrics: MetricsRegistry
    #: Set when trials ran in-process despite ``workers >= 2`` (why).
    fallback_reason: Optional[str] = None

    @property
    def trials_per_s(self) -> float:
        return self.n_trials / self.elapsed_s if self.elapsed_s > 0 else 0.0


def spawn_trial_seeds(seed, n_trials: int) -> List[np.random.SeedSequence]:
    """Per-trial seed sequences from a master seed.

    ``seed`` may be an ``int``, a sequence of ints, or an existing
    ``SeedSequence``.  Trial ``i`` always receives the same child, which
    is what makes serial and parallel runs interchangeable.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(n_trials)


def _resolve_batch_size(
    batch_size: Union[int, str], fn: TrialFn, n_trials: int, workers: int
) -> int:
    """The integer batch size a run uses.

    A plain trial function always runs unbatched.  ``"auto"`` resolves
    through :func:`choose_batch_size` when ``fn`` is a
    :class:`BatchTrial` carrying a :class:`WorkloadShape`, and to ``1``
    otherwise.
    """
    if isinstance(batch_size, str):
        if batch_size != "auto":
            raise ValueError(
                "batch_size must be an int >= 1 or the string 'auto', "
                f"got {batch_size!r}"
            )
    elif batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not isinstance(fn, BatchTrial):
        return 1
    if batch_size != "auto":
        return int(batch_size)
    shape = fn.workload
    if shape is None:
        return 1
    return choose_batch_size(
        n_trials,
        shape.cir_length,
        shape.channels,
        workers,
        upsample_factor=shape.upsample_factor,
    )


def _run_one(fn: TrialFn, index: int, seed: np.random.SeedSequence) -> Any:
    """Run one trial (a :class:`BatchTrial` as a batch of one); an
    exception becomes a :class:`TrialError`."""
    try:
        return fn(np.random.default_rng(seed), index)
    except Exception as error:  # noqa: BLE001 — reported with its traceback
        raise TrialError(
            TrialFailure(
                index=index,
                error=repr(error),
                traceback=traceback_module.format_exc(),
            )
        ) from error


def _cache_delta(
    before: Dict[str, Tuple[int, int]],
    after: Dict[str, Tuple[int, int]],
) -> Dict[str, Tuple[int, int]]:
    """Per-cache ``(hits, misses)`` accumulated between two snapshots."""
    delta = {}
    for name, (hits, misses) in after.items():
        hits0, misses0 = before.get(name, (0, 0))
        if hits != hits0 or misses != misses0:
            delta[name] = (hits - hits0, misses - misses0)
    return delta


def _run_chunk(
    fn: TrialFn,
    items: Sequence[Tuple[int, np.random.SeedSequence]],
    batch_size: int,
) -> Tuple[
    List[Tuple[int, Any]], Dict[str, Tuple[int, int]], float, int, int
]:
    """Run one chunk of ``(trial_index, seed)`` items, in a pool worker
    or in this process.

    Items need not be contiguous (a resumed run dispatches only the
    missing indices).  Returns ``(values, cache_delta, chunk_seconds,
    batches, batch_fallbacks)`` with ``values`` the chunk's
    ``(trial_index, value)`` pairs in item order.  With ``batch_size >
    1`` (only ever resolved for a :class:`BatchTrial`) each group of
    ``batch_size`` consecutive items takes one batched call; a group of
    one, and each member of a group whose batched call failed, runs
    through :func:`_run_one`.
    The cache delta covers this chunk's lookups only, so a chunk re-run
    after a timeout is counted once.  The first failing trial raises
    :class:`TrialError`, which the pool ships back to the parent.
    """
    started = time.perf_counter()
    cache_before = all_cache_snapshots()
    values: List[Tuple[int, Any]] = []
    batches = 0
    batch_fallbacks = 0
    for start in range(0, len(items), batch_size):
        group = items[start:start + batch_size]
        if len(group) > 1:
            indices = [index for index, _ in group]
            rngs = [np.random.default_rng(seed) for _, seed in group]
            try:
                batched = list(fn.batch(rngs, indices))
            except Exception:  # noqa: BLE001 — degrade, never lose trials
                batched = []
            if len(batched) == len(group):
                batches += 1
                values.extend(zip(indices, batched))
                continue
            batch_fallbacks += 1
        values.extend((index, _run_one(fn, index, seed)) for index, seed in group)
    return (
        values,
        _cache_delta(cache_before, all_cache_snapshots()),
        time.perf_counter() - started,
        batches,
        batch_fallbacks,
    )


def _start_pool(fn: TrialFn, processes: int):
    """A ``fork`` pool of ``processes`` workers, or ``(None, why not)``."""
    # A trial function the pool cannot pickle would fail deep inside the
    # dispatch machinery; detect it up front and run in-process instead.
    try:
        pickle.dumps(fn)
    except Exception as error:  # pickling errors vary by payload
        return None, f"unpicklable fn: {error!r}"
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        context = multiprocessing.get_context()
    try:
        return context.Pool(processes=processes), None
    except Exception as error:  # pool refused to start (sandbox, limits)
        return None, f"pool start failed: {error!r}"


def _default_label(fn: TrialFn) -> str:
    """A checkpoint label from the trial function's name (a
    :class:`BatchTrial`'s ``batch``, under any ``functools.partial``)."""
    if isinstance(fn, BatchTrial):
        fn = fn.batch
    if isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__name__", None) or "trials"


def run_trials(
    fn: TrialFn,
    n_trials: int,
    *,
    seed=0,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    batch_size: Union[int, str] = 1,
    checkpoint_dir=None,
    checkpoint_label: Optional[str] = None,
) -> TrialRunReport:
    """Run ``n_trials`` deterministic Monte-Carlo trials of ``fn``.

    Parameters
    ----------
    fn:
        Trial function ``fn(rng, index) -> value``, or a
        :class:`BatchTrial` to run groups of trials per call.  Bind
        experiment parameters with ``functools.partial`` over a module-level
        function so the pool can pickle it.
    n_trials:
        Number of independent trials.
    seed:
        Master seed (int, sequence of ints, or ``SeedSequence``).  Trial
        ``i`` receives child ``i`` of ``SeedSequence(seed)`` regardless
        of the worker count, so results are reproducible *and*
        independent of how the trials were run.
    workers:
        1 (default) runs in-process; >= 2 dispatches to a process pool.
    metrics:
        Optional shared registry; a fresh one is created otherwise.
        Counters/timers accumulate across calls to support multi-cell
        experiments.
    batch_size:
        When ``fn`` is a :class:`BatchTrial`, group up to this many
        consecutive trials of each chunk into one batched engine call
        (e.g. one :func:`repro.core.batch.detect_batch` pass across the
        group).  The string ``"auto"`` picks the batch size from the
        workload shape (see :func:`choose_batch_size`) when the trial
        carries a :class:`WorkloadShape`, and runs unbatched otherwise.
        Per-trial seeding is unchanged, so results equal the
        ``batch_size=1`` run for any value.  Ignored for plain trial
        functions.
    checkpoint_dir:
        When given, every finished chunk is persisted as one shard in
        this directory as the run progresses, and a later call with the
        same ``(seed, n_trials, label)`` skips everything already on
        disk — an interrupted run resumes where it stopped and yields
        results identical to an uninterrupted one.  Trial values must
        be picklable.
    checkpoint_label:
        Separates checkpoints of different experiments sharing seed and
        trial count; defaults to the trial function's name.

    Raises :class:`TrialError` at the first failing trial; chunks that
    finished before it stay in the checkpoint store.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    started = time.perf_counter()
    metrics = metrics if metrics is not None else MetricsRegistry()
    batch = _resolve_batch_size(batch_size, fn, n_trials, max(1, workers))
    metrics.gauge("runtime.batch_size").set(batch)

    store = None
    results: Dict[int, Any] = {}
    if checkpoint_dir is not None:
        store = CheckpointStore.for_run(
            checkpoint_dir,
            seed,
            n_trials,
            label=checkpoint_label or _default_label(fn),
        )
        # A stored failure counts as missing: its trial runs again.
        results = {
            index: payload
            for index, (ok, payload) in store.load_entries().items()
            if ok
        }
        if results:
            metrics.counter("runtime.checkpoint_hits").inc(len(results))
    seeds = spawn_trial_seeds(seed, n_trials)
    items = [(i, seeds[i]) for i in range(n_trials) if i not in results]
    metrics.counter("runtime.trials").inc(len(items))

    pooled = workers > 1 and bool(items)
    if pooled:
        chunk_size = -(-len(items) // (workers * CHUNKS_PER_WORKER))
    else:
        chunk_size = IN_PROCESS_CHUNK_TRIALS
    # Whole batches per chunk, so the groups are the same as one
    # in-process pass over every item (a short group only at the end).
    chunk_size = -(-chunk_size // batch) * batch
    chunks = [
        items[start:start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
    pool = fallback_reason = None
    if pooled:
        pool, fallback_reason = _start_pool(fn, min(workers, len(chunks)))
        if pool is None:
            metrics.counter("runtime.serial_fallbacks").inc()
        else:
            metrics.gauge("runtime.chunk_size").set(chunk_size)
    metrics.gauge("runtime.workers").set(1 if pool is None else workers)

    redispatched = 0
    pending: List[Any] = [None] * len(chunks)
    try:
        if pool is not None:
            pending = [
                pool.apply_async(_run_chunk, (fn, chunk, batch))
                for chunk in chunks
            ]
            pool.close()
        for chunk, result in zip(chunks, pending):
            if result is None:
                outcome = _run_chunk(fn, chunk, batch)
            else:
                try:
                    outcome = result.get(timeout=CHUNK_TIMEOUT_S)
                except multiprocessing.TimeoutError:
                    # A hung or dead worker: re-run only this chunk here,
                    # where its trials still consume their own seed
                    # children; the worker's slot is written off.
                    redispatched += 1
                    metrics.counter("runtime.chunk_redispatches").inc()
                    outcome = _run_chunk(fn, chunk, batch)
            values, cache_delta, chunk_s, batches, batch_fallbacks = outcome
            results.update(values)
            if store is not None:
                store.save_entries([(i, True, value) for i, value in values])
            for name, (hits, misses) in cache_delta.items():
                metrics.counter(f"cache.{name}.hits").inc(hits)
                metrics.counter(f"cache.{name}.misses").inc(misses)
            if batches:
                metrics.counter("runtime.batches").inc(batches)
            if batch_fallbacks:
                metrics.counter("runtime.batch_fallbacks").inc(batch_fallbacks)
            if pool is not None:
                metrics.counter("runtime.chunks").inc()
                metrics.histogram("runtime.chunk_seconds").observe(chunk_s)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    if redispatched:
        fallback_reason = (
            f"re-dispatched {redispatched} timed-out chunk(s) in-process"
        )
    elapsed_s = time.perf_counter() - started
    metrics.timer("runtime.wall_clock").record(elapsed_s)
    return TrialRunReport(
        values=[results[index] for index in range(n_trials)],
        n_trials=n_trials,
        elapsed_s=elapsed_s,
        metrics=metrics,
        fallback_reason=fallback_reason,
    )
