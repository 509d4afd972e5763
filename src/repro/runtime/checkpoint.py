"""Checkpoint/resume for Monte-Carlo trial runs.

A :class:`CheckpointStore` persists per-trial results as *shards* —
small pickle files, each holding a batch of ``(trial_index, ok,
payload)`` entries — under a key derived from the run's identity
(master-seed entropy, trial count, label).  An interrupted campaign
resumes by loading the completed entries and dispatching only the
missing trial indices; because trial ``i`` always consumes seed child
``i`` (see :mod:`repro.runtime.executor`), the resumed run is
byte-identical to an uninterrupted one.

Shards are written atomically (temp file + ``os.replace``) so a run
killed mid-write never corrupts the store: the worst case is losing the
chunk in flight, which the resume simply re-computes.

:func:`checkpoint_usage_error` is the rule ``python -m repro run``
applies to ``--checkpoint DIR [--resume]``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CheckpointStore", "checkpoint_usage_error", "run_key"]

#: ``(trial_index, ok, value)`` as stored in a shard.  Runs only ever
#: write ``ok=True``; a stored ``ok=False`` entry counts as missing.
Entry = Tuple[int, bool, Any]


def run_key(seed, n_trials: int, label: str = "trials") -> str:
    """A stable identity for one run configuration.

    Derived from the expanded ``SeedSequence`` entropy (so ``seed=7``
    and ``SeedSequence(7)`` map to the same key), the trial count, and a
    caller-chosen label separating different experiments that happen to
    share seed and size.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    token = repr((root.entropy, root.spawn_key, int(n_trials), str(label)))
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]


class CheckpointStore:
    """Sharded on-disk result store for one (seed, n_trials, label) run.

    Parameters
    ----------
    directory:
        Where shards live; created on first write.
    key:
        Run identity (see :func:`run_key`); shards of other runs in the
        same directory are ignored.
    """

    def __init__(self, directory, key: str) -> None:
        self.directory = Path(directory)
        self.key = str(key)

    @classmethod
    def for_run(
        cls, directory, seed, n_trials: int, label: str = "trials"
    ) -> "CheckpointStore":
        """The store for one run configuration."""
        return cls(directory, run_key(seed, n_trials, label))

    # -- paths ---------------------------------------------------------------

    def _shard_paths(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"{self.key}.shard-*.pkl"))

    def _next_shard_path(self, lo: int, hi: int) -> Path:
        serial = len(self._shard_paths())
        return self.directory / (
            f"{self.key}.shard-{serial:05d}-{lo:06d}-{hi:06d}.pkl"
        )

    # -- persistence ---------------------------------------------------------

    def save_entries(self, entries: Sequence[Entry]) -> Path | None:
        """Atomically persist a batch of entries as one new shard."""
        if not entries:
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        indices = [entry[0] for entry in entries]
        path = self._next_shard_path(min(indices), max(indices))
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{self.key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(list(entries), handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def load_entries(self) -> Dict[int, Tuple[bool, Any]]:
        """All persisted entries, keyed by trial index.

        Corrupt or truncated shards (a kill mid-``os.replace`` cannot
        produce one, but a full disk can) are skipped — their trials
        simply run again.  Later shards win on duplicate indices.
        """
        loaded: Dict[int, Tuple[bool, Any]] = {}
        for path in self._shard_paths():
            try:
                with open(path, "rb") as handle:
                    entries = pickle.load(handle)
            except Exception:
                continue
            for index, ok, payload in entries:
                loaded[int(index)] = (bool(ok), payload)
        return loaded


def checkpoint_usage_error(
    directory: Optional[str], resume: bool
) -> Optional[str]:
    """Why ``--checkpoint DIR [--resume]`` must not run, or ``None``.

    A fresh run needs an empty (or absent) ``DIR``: shards left there by
    an earlier run of the same configuration would silently stand in for
    trials that were never run this time.  ``--resume`` says reusing
    them is intended, and means nothing without ``--checkpoint``.
    """
    if resume and not directory:
        return "--resume requires --checkpoint DIR"
    if (
        directory
        and not resume
        and os.path.isdir(directory)
        and os.listdir(directory)
    ):
        return (
            f"checkpoint dir {directory!r} is not empty; pass --resume to "
            "continue an interrupted run or choose a fresh directory"
        )
    return None
