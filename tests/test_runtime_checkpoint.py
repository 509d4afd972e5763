"""Checkpoint/resume tests: shard store, resume equality, kill-resume."""

import os
import signal
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from repro.runtime import (
    BatchTrial,
    CheckpointStore,
    MetricsRegistry,
    TrialError,
    run_key,
    run_trials,
    spawn_trial_seeds,
)


def draw_normal(rng, index):
    return float(rng.normal())


def draw_pair(rng, index):
    return (index, float(rng.normal()))


def all_ones(rngs, indices):
    return [1.0] * len(indices)


def all_twos(rngs, indices):
    return [2.0] * len(indices)


def draw_or_fail_at(rng, index, *, failing):
    """``draw_normal``, except that trial ``failing`` raises."""
    if index == failing:
        raise ValueError(f"boom at {index}")
    return float(rng.normal())


class TestRunKey:
    def test_stable_across_calls(self):
        assert run_key(7, 100, "x") == run_key(7, 100, "x")

    def test_int_and_seed_sequence_agree(self):
        assert run_key(7, 10) == run_key(np.random.SeedSequence(7), 10)

    def test_distinguishes_seed_count_and_label(self):
        base = run_key(7, 10, "a")
        assert run_key(8, 10, "a") != base
        assert run_key(7, 11, "a") != base
        assert run_key(7, 10, "b") != base

    def test_tuple_seeds_supported(self):
        assert run_key((7, 3), 10) == run_key((7, 3), 10)
        assert run_key((7, 3), 10) != run_key((7, 4), 10)


class TestCheckpointStore:
    def test_save_and_load_roundtrip(self, tmp_path):
        store = CheckpointStore.for_run(tmp_path, 3, 10, label="t")
        store.save_entries([(0, True, 1.5), (1, True, 2.5)])
        store.save_entries([(5, False, "failure-payload")])
        loaded = store.load_entries()
        assert loaded == {
            0: (True, 1.5),
            1: (True, 2.5),
            5: (False, "failure-payload"),
        }

    def test_empty_batch_writes_nothing(self, tmp_path):
        store = CheckpointStore.for_run(tmp_path, 3, 10)
        assert store.save_entries([]) is None
        assert store.load_entries() == {}

    def test_stores_with_different_keys_are_isolated(self, tmp_path):
        a = CheckpointStore.for_run(tmp_path, 3, 10, label="a")
        b = CheckpointStore.for_run(tmp_path, 3, 10, label="b")
        a.save_entries([(0, True, "a0")])
        b.save_entries([(0, True, "b0")])
        assert a.load_entries() == {0: (True, "a0")}
        assert b.load_entries() == {0: (True, "b0")}

    def test_later_shards_win_duplicates(self, tmp_path):
        store = CheckpointStore.for_run(tmp_path, 3, 10)
        store.save_entries([(2, True, "old")])
        store.save_entries([(2, True, "new")])
        assert store.load_entries()[2] == (True, "new")

    def test_corrupt_shard_is_skipped(self, tmp_path):
        store = CheckpointStore.for_run(tmp_path, 3, 10)
        store.save_entries([(0, True, 1.0)])
        good = store.save_entries([(1, True, 2.0)])
        assert good is not None
        # Truncate the first shard (full-disk style corruption).
        first = sorted(tmp_path.glob(f"{store.key}.shard-*.pkl"))[0]
        first.write_bytes(b"\x80corrupt")
        loaded = store.load_entries()
        assert 1 in loaded
        assert 0 not in loaded  # its trial simply runs again


class TestRunTrialsCheckpointing:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = run_trials(draw_normal, 15, seed=9)
        checked = run_trials(
            draw_normal, 15, seed=9, checkpoint_dir=str(tmp_path)
        )
        assert checked.values == plain.values

    def test_full_resume_skips_all_trials(self, tmp_path):
        first = run_trials(
            draw_normal, 12, seed=4, checkpoint_dir=str(tmp_path)
        )
        metrics = MetricsRegistry()
        resumed = run_trials(
            draw_normal,
            12,
            seed=4,
            checkpoint_dir=str(tmp_path),
            metrics=metrics,
        )
        assert resumed.values == first.values
        assert metrics.counter("runtime.checkpoint_hits").value == 12
        # Nothing re-ran.
        assert metrics.counter("runtime.trials").value == 0

    def test_partial_resume_runs_only_missing(self, tmp_path):
        # Pre-populate trials 0..4 as a killed run would have left them.
        seeds = spawn_trial_seeds(6, 20)
        store = CheckpointStore.for_run(
            tmp_path, 6, 20, label="draw_normal"
        )
        store.save_entries(
            [
                (i, True, float(np.random.default_rng(seeds[i]).normal()))
                for i in range(5)
            ]
        )
        metrics = MetricsRegistry()
        resumed = run_trials(
            draw_normal,
            20,
            seed=6,
            checkpoint_dir=str(tmp_path),
            metrics=metrics,
        )
        uninterrupted = run_trials(draw_normal, 20, seed=6)
        assert resumed.values == uninterrupted.values
        assert metrics.counter("runtime.checkpoint_hits").value == 5
        # Only the 15 missing trials actually executed.
        assert metrics.counter("runtime.trials").value == 15

    def test_parallel_checkpointed_matches_serial(self, tmp_path):
        serial = run_trials(draw_pair, 16, seed=2)
        parallel = run_trials(
            draw_pair,
            16,
            seed=2,
            workers=2,
            checkpoint_dir=str(tmp_path / "p"),
        )
        assert parallel.values == serial.values
        # And resuming the parallel store serially still agrees.
        resumed = run_trials(
            draw_pair, 16, seed=2, checkpoint_dir=str(tmp_path / "p")
        )
        assert resumed.values == serial.values

    def test_label_separates_experiments(self, tmp_path):
        run_trials(
            draw_normal,
            8,
            seed=1,
            checkpoint_dir=str(tmp_path),
            checkpoint_label="exp-a",
        )
        metrics = MetricsRegistry()
        run_trials(
            draw_normal,
            8,
            seed=1,
            checkpoint_dir=str(tmp_path),
            checkpoint_label="exp-b",
            metrics=metrics,
        )
        # Different label: no hits, everything re-ran.
        assert metrics.counter("runtime.checkpoint_hits").value == 0
        assert metrics.counter("runtime.trials").value == 8

    def test_default_label_names_the_batch_function(self, tmp_path):
        """Without a label, two batched trials sharing a directory, a
        seed and a trial count keep apart: the label is the name of the
        ``BatchTrial``'s batch function, under any ``partial``."""
        for batch, value in ((all_ones, 1.0), (partial(all_twos), 2.0)):
            report = run_trials(
                BatchTrial(batch=batch),
                3,
                seed=0,
                checkpoint_dir=str(tmp_path),
            )
            assert report.values == [value] * 3

    @pytest.mark.parametrize("workers, kept", [(1, 8), (2, 12)])
    def test_failing_run_keeps_finished_chunks(self, tmp_path, workers, kept):
        """Trial 13 of 20 fails: the chunks finished before it stay on
        disk (8-trial in-process chunks; 3-trial chunks on 2 workers),
        the rerun raises at 13 again, and a fixed trial function resumes
        from the kept trials to the uninterrupted result."""
        failing = partial(draw_or_fail_at, failing=13)
        store = CheckpointStore.for_run(tmp_path, 3, 20, label="fails")
        for attempt in range(2):
            with pytest.raises(TrialError) as excinfo:
                run_trials(
                    failing,
                    20,
                    seed=3,
                    workers=workers,
                    checkpoint_dir=str(tmp_path),
                    checkpoint_label="fails",
                )
            assert excinfo.value.failure.index == 13
            saved = set(store.load_entries())
            if attempt == 0:
                assert saved == set(range(kept))
            else:
                # The rerun's chunks are smaller; it may keep a few more.
                assert set(range(kept)) <= saved <= set(range(13))
        metrics = MetricsRegistry()
        resumed = run_trials(
            draw_normal,
            20,
            seed=3,
            metrics=metrics,
            checkpoint_dir=str(tmp_path),
            checkpoint_label="fails",
        )
        assert resumed.values == run_trials(draw_normal, 20, seed=3).values
        assert metrics.counter("runtime.checkpoint_hits").value == len(saved)
        assert metrics.counter("runtime.trials").value == 20 - len(saved)

    def test_stored_failure_counts_as_missing(self, tmp_path):
        """An ``ok=False`` shard entry (older collect-mode stores) is
        re-run, not returned as a value."""
        store = CheckpointStore.for_run(tmp_path, 0, 5, label="old")
        store.save_entries([(2, False, "failure-payload")])
        metrics = MetricsRegistry()
        report = run_trials(
            draw_normal,
            5,
            seed=0,
            metrics=metrics,
            checkpoint_dir=str(tmp_path),
            checkpoint_label="old",
        )
        assert report.values == run_trials(draw_normal, 5, seed=0).values
        assert metrics.counter("runtime.checkpoint_hits").value == 0
        assert metrics.counter("runtime.trials").value == 5


#: Subprocess body for the kill-resume integration check: a slow,
#: checkpointed in-process run the parent SIGTERMs mid-campaign.
_KILL_SCRIPT = """
import sys, time
from repro.runtime import run_trials

def slow_trial(rng, index):
    time.sleep(0.2)
    return float(rng.normal())

run_trials(slow_trial, 12, seed=5, checkpoint_dir=sys.argv[1],
           checkpoint_label="kill")
"""


class TestKillResumeIntegration:
    def test_sigterm_mid_run_then_resume_equals_uninterrupted(self, tmp_path):
        """Kill a checkpointed run mid-campaign; the resumed run must be
        byte-identical to one that was never interrupted."""
        directory = tmp_path / "ckpt"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        process = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(directory)], env=env
        )
        try:
            # Wait until the first chunk's shard hits the disk, then kill.
            deadline = time.monotonic() + 30.0
            store = CheckpointStore.for_run(directory, 5, 12, label="kill")
            while time.monotonic() < deadline:
                if len(store.load_entries()) >= 2:
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.05)
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        completed = store.load_entries()
        assert len(completed) >= 1, "no shards were written before the kill"

        # Resume with a fast trial function drawing the same stream (the
        # sleep does not consume entropy), and compare against a run that
        # was never interrupted.
        resumed = run_trials(
            draw_normal,
            12,
            seed=5,
            checkpoint_dir=str(directory),
            checkpoint_label="kill",
        )
        uninterrupted = run_trials(draw_normal, 12, seed=5)
        assert resumed.values == uninterrupted.values
