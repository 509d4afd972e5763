"""Unit tests for the trial runner: determinism, failures, fallback."""

import os
import time
from functools import partial

import numpy as np
import pytest

from repro.runtime import (
    BatchTrial,
    MetricsRegistry,
    TrialError,
    clear_all_caches,
    get_cache,
    run_trials,
    spawn_trial_seeds,
    template_bank,
)
from repro.runtime import executor


def draw_normal(rng, index):
    """A trial whose value depends only on its seed child."""
    return float(rng.normal())


def scaled_draw(rng, index, *, scale):
    return scale * float(rng.normal()) + index


def fail_on_three(rng, index):
    if index == 3:
        raise ValueError("boom at three")
    return index


def return_none_on_even(rng, index):
    """None is a legitimate trial value (fig7-style rejection sampling)."""
    return None if index % 2 == 0 else index


def refuse_groups(rngs, indices, *, fail_alone=()):
    """A batched trial whose call fails on any group of more than one."""
    if len(indices) > 1:
        raise RuntimeError("batched pass failed")
    if indices[0] in fail_alone:
        raise ValueError(f"trial {indices[0]} fails alone too")
    return [float(rngs[0].normal()) + indices[0]]


def short_groups(rngs, indices):
    """A batched trial that drops the last value of any group of more
    than one."""
    values = [float(rng.normal()) + i for rng, i in zip(rngs, indices)]
    return values[:-1] if len(values) > 1 else values


class TestSeeding:
    def test_children_are_stable(self):
        a = spawn_trial_seeds(42, 5)
        b = spawn_trial_seeds(42, 5)
        for left, right in zip(a, b):
            assert (
                np.random.default_rng(left).normal()
                == np.random.default_rng(right).normal()
            )

    def test_accepts_seed_sequence_and_entropy_lists(self):
        root = np.random.SeedSequence(7)
        assert len(spawn_trial_seeds(root, 3)) == 3
        assert len(spawn_trial_seeds([7, 1], 3)) == 3

    def test_prefix_property(self):
        """The first k children of n trials equal the children of k trials,
        so growing --trials extends — not reshuffles — the sample."""
        small = spawn_trial_seeds(9, 3)
        large = spawn_trial_seeds(9, 10)
        for left, right in zip(small, large):
            assert (
                np.random.default_rng(left).integers(1 << 30)
                == np.random.default_rng(right).integers(1 << 30)
            )


class TestSerialExecutor:
    """``run_trials`` in this process (``workers=1``)."""

    def test_values_in_index_order(self):
        run = run_trials(scaled_draw_zero, 10, seed=1)
        assert [int(v) for v in run.values] == list(range(10))

    def test_reproducible(self):
        first = run_trials(draw_normal, 8, seed=5)
        second = run_trials(draw_normal, 8, seed=5)
        assert first.values == second.values

    def test_different_seeds_differ(self):
        first = run_trials(draw_normal, 8, seed=5)
        second = run_trials(draw_normal, 8, seed=6)
        assert first.values != second.values

    def test_fail_fast_raises_trial_error(self):
        with pytest.raises(TrialError) as excinfo:
            run_trials(fail_on_three, 6, seed=0)
        assert excinfo.value.failure.index == 3
        assert "boom at three" in str(excinfo.value)
        assert "ValueError" in excinfo.value.failure.error

    def test_none_values_survive(self):
        run = run_trials(return_none_on_even, 6, seed=0)
        assert run.values == [None, 1, None, 3, None, 5]

    def test_metrics_recorded(self):
        metrics = MetricsRegistry()
        run_trials(draw_normal, 7, seed=0, metrics=metrics)
        assert metrics.counter("runtime.trials").value == 7
        assert metrics.timer("runtime.wall_clock").count == 1


class TestParallelExecutor:
    """``run_trials`` on a process pool (``workers >= 2``)."""

    def test_matches_serial_exactly(self):
        serial = run_trials(draw_normal, 24, seed=11)
        parallel = run_trials(draw_normal, 24, seed=11, workers=2)
        assert serial.values == parallel.values

    def test_matches_serial_with_partial(self):
        fn = partial(scaled_draw, scale=3.0)
        serial = run_trials(fn, 15, seed=2)
        parallel = run_trials(fn, 15, seed=2, workers=3)
        assert serial.values == parallel.values

    def test_zero_trials(self):
        run = run_trials(draw_normal, 0, seed=0, workers=2)
        assert run.values == []
        assert run.n_trials == 0

    def test_fail_fast_propagates_from_worker(self):
        with pytest.raises(TrialError) as excinfo:
            run_trials(fail_on_three, 6, seed=0, workers=2)
        assert excinfo.value.failure.index == 3

    def test_unpicklable_fn_falls_back_to_serial(self):
        metrics = MetricsRegistry()
        run = run_trials(
            lambda rng, i: i, 5, seed=0, workers=2, metrics=metrics
        )
        assert run.values == [0, 1, 2, 3, 4]
        assert run.fallback_reason.startswith("unpicklable fn")
        assert metrics.counter("runtime.serial_fallbacks").value == 1
        # No double count of trials through the fallback path.
        assert metrics.counter("runtime.trials").value == 5
        # The in-process chunks are not pool chunks.
        assert metrics.counter("runtime.chunks").value == 0

    def test_parallel_metrics_report_chunks(self):
        metrics = MetricsRegistry()
        run_trials(draw_normal, 40, seed=0, workers=2, metrics=metrics)
        # About four chunks per worker: ceil(40 / 8) = 5 trials each.
        assert metrics.gauge("runtime.chunk_size").value == 5
        assert metrics.counter("runtime.chunks").value == 8
        assert metrics.gauge("runtime.workers").value == 2
        assert metrics.histogram("runtime.chunk_seconds").count == 8


class TestBatchFallback:
    """A group whose batched call fails re-runs member by member, each
    as a batch of one."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch", [refuse_groups, short_groups])
    def test_members_rerun_alone_match_unbatched(self, batch, workers):
        metrics = MetricsRegistry()
        rerun = run_trials(
            BatchTrial(batch=batch), 10, seed=3, workers=workers,
            batch_size=4, metrics=metrics,
        )
        alone = run_trials(BatchTrial(batch=batch), 10, seed=3, batch_size=1)
        assert rerun.values == alone.values
        # Groups of 4, 4 and 2: one fallback each, no batched call kept.
        assert metrics.counter("runtime.batch_fallbacks").value == 3
        assert metrics.counter("runtime.batches").value == 0

    def test_member_failing_alone_raises_its_own_index(self):
        fn = BatchTrial(batch=partial(refuse_groups, fail_alone=(5,)))
        with pytest.raises(TrialError) as excinfo:
            run_trials(fn, 10, seed=3, batch_size=4)
        assert excinfo.value.failure.index == 5
        assert "fails alone too" in excinfo.value.failure.error


class TestRunTrials:
    def test_serial_parallel_equality_via_api(self):
        serial = run_trials(draw_normal, 20, seed=3, workers=1)
        parallel = run_trials(draw_normal, 20, seed=3, workers=2)
        assert serial.values == parallel.values

    def test_report_throughput_fields(self):
        report = run_trials(draw_normal, 10, seed=0)
        assert report.n_trials == 10
        assert report.elapsed_s > 0
        assert report.trials_per_s > 0

    def test_shared_registry_accumulates(self):
        metrics = MetricsRegistry()
        run_trials(draw_normal, 4, seed=0, metrics=metrics)
        run_trials(draw_normal, 6, seed=1, metrics=metrics)
        assert metrics.counter("runtime.trials").value == 10
        assert metrics.timer("runtime.wall_clock").count == 2

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            run_trials(draw_normal, -1, seed=0)


def scaled_draw_zero(rng, index):
    """Index plus a zero-width random draw — order-sensitive payload."""
    return index + 0.0 * float(rng.normal())


#: Pid of the process that imported this module.  Fork-based pool workers
#: inherit this value while ``os.getpid()`` differs, which lets a trial
#: function hang *only* inside a worker and stay instant when the parent
#: re-dispatches the chunk in-process.
_PARENT_PID = os.getpid()


def hang_in_worker(rng, index):
    """Trial 0 hangs inside pool workers; every trial is instant in the
    parent process — simulates a wedged worker the parent must recover."""
    if index == 0 and os.getpid() != _PARENT_PID:
        time.sleep(30.0)
    return index + 0.0 * float(rng.normal())


class TestWorkerTimeoutRecovery:
    def test_redispatch_recovers_hung_chunk(self, monkeypatch):
        monkeypatch.setattr(executor, "CHUNK_TIMEOUT_S", 1.0)
        metrics = MetricsRegistry()
        run = run_trials(
            hang_in_worker, 6, seed=0, workers=2, metrics=metrics
        )
        serial = run_trials(hang_in_worker, 6, seed=0)
        # Only the lost chunk re-runs in-process; results stay identical.
        assert run.values == serial.values
        assert metrics.counter("runtime.chunk_redispatches").value == 1
        assert "re-dispatched" in run.fallback_reason
        # No double count of trials through the recovery path.
        assert metrics.counter("runtime.trials").value == 6


class TestPoolStartFailure:
    class _BrokenContext:
        def Pool(self, *args, **kwargs):
            raise OSError("pool start refused (simulated)")

    def test_pool_start_failure_falls_back_to_serial(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda *a, **k: TestPoolStartFailure._BrokenContext(),
        )
        metrics = MetricsRegistry()
        run = run_trials(draw_normal, 6, seed=3, workers=2, metrics=metrics)
        serial = run_trials(draw_normal, 6, seed=3)
        assert run.values == serial.values
        assert "pool start failed" in run.fallback_reason
        assert metrics.counter("runtime.serial_fallbacks").value == 1
        assert metrics.counter("runtime.trials").value == 6


def bank_after_clear(rng, index):
    """Drops every cache, then looks one template bank up twice: one miss
    and one hit per trial, wherever the trial runs."""
    clear_all_caches()
    template_bank((0x93,))
    template_bank((0x93,))
    return index


def lookup_then_hang_in_worker(rng, index):
    """One lookup per trial; trial 0 then hangs inside pool workers."""
    get_cache("redispatch_probe").get_or_create(index, lambda: index)
    return hang_in_worker(rng, index)


class TestCacheDeltas:
    """Each chunk ships its own hit/miss delta, and only that."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_stay_exact_across_a_clear(self, workers):
        metrics = MetricsRegistry()
        run = run_trials(
            bank_after_clear, 60, seed=0, workers=workers, metrics=metrics
        )
        assert run.fallback_reason is None
        assert metrics.counter("cache.templates.hits").value == 60
        assert metrics.counter("cache.templates.misses").value == 60

    def test_redispatched_chunk_counted_once(self, monkeypatch):
        monkeypatch.setattr(executor, "CHUNK_TIMEOUT_S", 1.0)
        metrics = MetricsRegistry()
        run = run_trials(
            lookup_then_hang_in_worker, 6, seed=0, workers=2, metrics=metrics
        )
        assert "re-dispatched" in run.fallback_reason
        lookups = (
            metrics.counter("cache.redispatch_probe.hits").value
            + metrics.counter("cache.redispatch_probe.misses").value
        )
        assert lookups == 6
