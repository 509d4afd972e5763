"""Unit tests for the trial executors: determinism, failures, fallback."""

import os
import time
from functools import partial

import numpy as np
import pytest

from repro.runtime import (
    ExecutionPolicy,
    MetricsRegistry,
    ParallelExecutor,
    SerialExecutor,
    TrialError,
    run_trials,
    spawn_trial_seeds,
)


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
    def test_values_in_index_order(self):
        run = SerialExecutor().run(scaled_draw_zero, 10, seed=1)
        assert [int(v) for v in run.values] == list(range(10))

    def test_reproducible(self):
        first = SerialExecutor().run(draw_normal, 8, seed=5)
        second = SerialExecutor().run(draw_normal, 8, seed=5)
        assert first.values == second.values

    def test_different_seeds_differ(self):
        first = SerialExecutor().run(draw_normal, 8, seed=5)
        second = SerialExecutor().run(draw_normal, 8, seed=6)
        assert first.values != second.values

    def test_fail_fast_raises_trial_error(self):
        with pytest.raises(TrialError) as excinfo:
            SerialExecutor().run(fail_on_three, 6, seed=0)
        assert excinfo.value.failure.index == 3
        assert "boom at three" in str(excinfo.value)

    def test_collect_policy_captures_failures(self):
        policy = ExecutionPolicy(fail_fast=False)
        run = SerialExecutor(policy).run(fail_on_three, 6, seed=0)
        assert run.values == [0, 1, 2, 4, 5]
        assert run.n_failed == 1
        failure = run.failures[0]
        assert failure.index == 3
        assert "ValueError" in failure.error
        assert "boom at three" in failure.traceback

    def test_none_values_survive(self):
        run = SerialExecutor().run(return_none_on_even, 6, seed=0)
        assert run.values == [None, 1, None, 3, None, 5]

    def test_metrics_recorded(self):
        metrics = MetricsRegistry()
        SerialExecutor().run(draw_normal, 7, seed=0, metrics=metrics)
        assert metrics.counter("runtime.trials").value == 7
        assert metrics.counter("runtime.trials_ok").value == 7
        assert metrics.timer("runtime.wall_clock").count == 1


class TestParallelExecutor:
    def test_matches_serial_exactly(self):
        serial = SerialExecutor().run(draw_normal, 24, seed=11)
        parallel = ParallelExecutor(workers=2).run(draw_normal, 24, seed=11)
        assert serial.values == parallel.values

    def test_matches_serial_with_partial(self):
        fn = partial(scaled_draw, scale=3.0)
        serial = SerialExecutor().run(fn, 15, seed=2)
        parallel = ParallelExecutor(workers=3).run(fn, 15, seed=2)
        assert serial.values == parallel.values

    def test_explicit_chunk_size_preserves_order(self):
        policy = ExecutionPolicy(chunk_size=2)
        run = ParallelExecutor(workers=2, policy=policy).run(
            scaled_draw_zero, 9, seed=4
        )
        assert [int(v) for v in run.values] == list(range(9))

    def test_chunk_size_validation(self):
        # Validation moved to construction time: the policy itself rejects
        # a degenerate chunk size before any executor touches it.
        with pytest.raises(ValueError):
            ExecutionPolicy(chunk_size=0)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_zero_trials(self):
        run = ParallelExecutor(workers=2).run(draw_normal, 0, seed=0)
        assert run.values == []
        assert run.n_trials == 0

    def test_collect_policy_across_chunks(self):
        policy = ExecutionPolicy(fail_fast=False, chunk_size=2)
        run = ParallelExecutor(workers=2, policy=policy).run(
            fail_on_three, 6, seed=0
        )
        assert run.values == [0, 1, 2, 4, 5]
        assert run.failures[0].index == 3

    def test_fail_fast_propagates_from_worker(self):
        with pytest.raises(TrialError) as excinfo:
            ParallelExecutor(workers=2).run(fail_on_three, 6, seed=0)
        assert excinfo.value.failure.index == 3

    def test_unpicklable_fn_falls_back_to_serial(self):
        metrics = MetricsRegistry()
        run = ParallelExecutor(workers=2).run(
            lambda rng, i: i, 5, seed=0, metrics=metrics
        )
        assert run.values == [0, 1, 2, 3, 4]
        assert run.fallback_reason is not None
        assert metrics.counter("runtime.serial_fallbacks").value == 1
        # No double count of trials through the fallback path.
        assert metrics.counter("runtime.trials").value == 5

    def test_parallel_metrics_report_chunks(self):
        metrics = MetricsRegistry()
        policy = ExecutionPolicy(chunk_size=5)
        ParallelExecutor(workers=2, policy=policy).run(
            draw_normal, 20, seed=0, metrics=metrics
        )
        assert metrics.counter("runtime.chunks").value == 4
        assert metrics.gauge("runtime.workers").value == 2
        assert metrics.histogram("runtime.chunk_seconds").count == 4


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

    def test_fail_fast_flag(self):
        report = run_trials(fail_on_three, 6, seed=0, fail_fast=False)
        assert len(report.failures) == 1
        with pytest.raises(TrialError):
            run_trials(fail_on_three, 6, seed=0)


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


#: Per-process attempt ledger for :func:`flaky_once`.
_ATTEMPTS = {}


def flaky_once(rng, index):
    """Fails each index's first attempt in the current process, then
    returns the same draw a never-failing trial would (the retry restarts
    the generator from the same seed child)."""
    count = _ATTEMPTS.get(index, 0)
    _ATTEMPTS[index] = count + 1
    if count == 0:
        raise RuntimeError(f"transient failure at trial {index}")
    return float(rng.normal())


class TestExecutionPolicyValidation:
    def test_defaults_are_valid(self):
        ExecutionPolicy()  # must not raise

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_non_positive_worker_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="worker_timeout_s"):
            ExecutionPolicy(worker_timeout_s=timeout)

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_non_positive_chunk_size_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionPolicy(chunk_size=chunk_size)

    def test_chunk_size_none_is_valid(self):
        assert ExecutionPolicy(chunk_size=None).chunk_size is None

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_trial_retries"):
            ExecutionPolicy(max_trial_retries=-1)


class TestTrialRetries:
    def setup_method(self):
        _ATTEMPTS.clear()

    def test_transient_failures_recover_byte_identically(self):
        policy = ExecutionPolicy(max_trial_retries=2)
        metrics = MetricsRegistry()
        run = SerialExecutor(policy).run(
            flaky_once, 6, seed=9, metrics=metrics
        )
        clean = SerialExecutor().run(draw_normal, 6, seed=9)
        # Recovered trials restart from the same seed child, so results
        # match a run that never failed.
        assert run.values == clean.values
        assert run.n_failed == 0
        assert metrics.counter("runtime.trial_retries").value == 6

    def test_deterministic_failure_exhausts_budget(self):
        policy = ExecutionPolicy(max_trial_retries=2, fail_fast=False)
        run = SerialExecutor(policy).run(fail_on_three, 6, seed=0)
        assert run.values == [0, 1, 2, 4, 5]
        assert run.failures[0].index == 3

    def test_parallel_retries_recover(self):
        policy = ExecutionPolicy(max_trial_retries=1)
        metrics = MetricsRegistry()
        run = ParallelExecutor(workers=2, policy=policy).run(
            flaky_once, 8, seed=9, metrics=metrics
        )
        clean = SerialExecutor().run(draw_normal, 8, seed=9)
        assert run.values == clean.values
        assert metrics.counter("runtime.trial_retries").value == 8


class TestWorkerTimeoutRecovery:
    def test_redispatch_recovers_hung_chunk(self):
        policy = ExecutionPolicy(chunk_size=2, worker_timeout_s=1.0)
        metrics = MetricsRegistry()
        run = ParallelExecutor(workers=2, policy=policy).run(
            hang_in_worker, 6, seed=0, metrics=metrics
        )
        serial = SerialExecutor().run(hang_in_worker, 6, seed=0)
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
        run = ParallelExecutor(workers=2).run(
            draw_normal, 6, seed=3, metrics=metrics
        )
        serial = SerialExecutor().run(draw_normal, 6, seed=3)
        assert run.values == serial.values
        assert "pool start failed" in run.fallback_reason
        assert metrics.counter("runtime.serial_fallbacks").value == 1
        assert metrics.counter("runtime.trials").value == 6
