"""Process-local memo caches for expensive immutable artifacts.

Trial loops rebuild the same pulse template banks, matched-filter
templates, and upsampled pulses thousands of times: a
:class:`TemplateBank` costs ~0.4 ms to synthesise, which at paper-scale
trial counts (1000-5000 rounds per cell) is pure waste — the artifacts
are immutable and depend only on a small key (register tuple, sampling
period).  An :class:`ArtifactCache` memoises them per process with
hit/miss accounting so the runtime's metrics report can show the cache
doing its job.

Caches are *process-local by design*: parallel workers each warm their
own copy on their first trial, then hit it for every later trial in
the process.  :func:`~repro.runtime.executor.run_trials` ships each
chunk's hit/miss delta back to the parent so the aggregate hit rate is
still observable.

The module-level helpers :func:`template_bank` and :func:`pulse` are
the two artifact constructors the experiments actually share; new
artifact kinds should get their own named cache via :func:`get_cache`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Tuple, TypeVar

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.signal.pulses import Pulse, dw1000_pulse
from repro.signal.templates import TemplateBank

T = TypeVar("T")

__all__ = [
    "ArtifactCache",
    "get_cache",
    "all_cache_snapshots",
    "clear_all_caches",
    "on_clear",
    "template_bank",
    "pulse",
]


class ArtifactCache:
    """A keyed memo cache with hit/miss accounting.

    Thread-safe so a future thread-backed executor can share it; the
    lock is uncontended in the common single-threaded case.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[Hashable, object] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def get_or_create(self, key: Hashable, factory: Callable[[], T]) -> T:
        """Return the cached artifact for ``key``, building it on a miss."""
        with self._lock:
            try:
                value = self._entries[key]
                self._hits += 1
                return value  # type: ignore[return-value]
            except KeyError:
                self._misses += 1
        # Build outside the lock: factories can be slow, and immutable
        # artifacts make a rare duplicate build harmless.
        value = factory()
        with self._lock:
            self._entries.setdefault(key, value)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else 0.0

    def snapshot(self) -> Tuple[int, int]:
        """Current ``(hits, misses)`` — picklable, for cross-process deltas."""
        return (self._hits, self._misses)

    def clear(self) -> None:
        """Drop all entries.

        The hit/miss counts keep going up, like a counter's: a
        :meth:`snapshot` delta taken across a clear stays exact.
        """
        with self._lock:
            self._entries.clear()


#: Process-local registry of named caches.
_CACHES: Dict[str, ArtifactCache] = {}
_CACHES_LOCK = threading.Lock()

#: Called by :func:`clear_all_caches` after the named caches empty.
_CLEAR_HOOKS: List[Callable[[], None]] = []


def get_cache(name: str) -> ArtifactCache:
    """The process-local cache called ``name``, created on first use."""
    with _CACHES_LOCK:
        cache = _CACHES.get(name)
        if cache is None:
            cache = _CACHES[name] = ArtifactCache(name)
        return cache


def all_cache_snapshots() -> Dict[str, Tuple[int, int]]:
    """``{name: (hits, misses)}`` for every cache in this process."""
    with _CACHES_LOCK:
        return {name: cache.snapshot() for name, cache in _CACHES.items()}


def on_clear(hook: Callable[[], None]) -> Callable[[], None]:
    """Have :func:`clear_all_caches` call ``hook()``; returns ``hook``.

    For state kept outside a named cache that must not outlive its
    entries, such as the calling thread's engine scratch, which holds
    the last plan it ran (:mod:`repro.core.batch`).
    """
    _CLEAR_HOOKS.append(hook)
    return hook


def clear_all_caches() -> None:
    """Drop every named cache's entries, and what :func:`on_clear`
    hooks free in the calling thread (used by tests and benchmarks)."""
    with _CACHES_LOCK:
        for cache in _CACHES.values():
            cache.clear()
    for hook in _CLEAR_HOOKS:
        hook()


# -- shared artifact constructors -------------------------------------------


def template_bank(
    registers: Tuple[int, ...],
    sampling_period_s: float = CIR_SAMPLING_PERIOD_S,
) -> TemplateBank:
    """A memoised :class:`TemplateBank` for a register tuple.

    Banks are immutable, so sharing one instance across trials (and
    sessions) is safe; the ``templates`` cache's hit rate appears in the
    runtime metrics report.
    """
    registers = tuple(int(r) for r in registers)
    return get_cache("templates").get_or_create(
        (registers, float(sampling_period_s)),
        lambda: TemplateBank(registers, sampling_period_s=sampling_period_s),
    )


def pulse(
    register: int,
    sampling_period_s: float = CIR_SAMPLING_PERIOD_S,
) -> Pulse:
    """A memoised single :class:`Pulse` template."""
    return get_cache("pulses").get_or_create(
        (int(register), float(sampling_period_s)),
        lambda: dw1000_pulse(
            int(register), sampling_period_s=sampling_period_s
        ),
    )
