"""Unit tests for the artifact cache: accounting, sharing, helpers."""

import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.runtime import (
    ArtifactCache,
    all_cache_snapshots,
    clear_all_caches,
    get_cache,
    pulse,
    template_bank,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test sees empty process-local caches."""
    clear_all_caches()
    yield
    clear_all_caches()


class TestArtifactCache:
    def test_miss_then_hit(self):
        cache = ArtifactCache("test")
        built = []

        def factory():
            built.append(1)
            return "artifact"

        assert cache.get_or_create("k", factory) == "artifact"
        assert cache.get_or_create("k", factory) == "artifact"
        assert built == [1]  # factory ran exactly once
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_distinct_keys_distinct_entries(self):
        cache = ArtifactCache("test")
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        assert len(cache) == 2
        assert "a" in cache and "b" in cache
        assert cache.misses == 2

    def test_hit_rate_empty(self):
        assert ArtifactCache("test").hit_rate == 0.0

    def test_clear_drops_entries_and_keeps_counting(self):
        """Counts only go up, so a snapshot delta across a clear is
        exact."""
        cache = ArtifactCache("test")
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert "a" not in cache
        assert cache.snapshot() == (1, 1)
        cache.get_or_create("a", lambda: 1)
        assert cache.snapshot() == (1, 2)

    def test_snapshot_is_picklable_tuple(self):
        import pickle

        cache = ArtifactCache("test")
        cache.get_or_create("a", lambda: 1)
        assert pickle.loads(pickle.dumps(cache.snapshot())) == (0, 1)


class TestNamedCaches:
    def test_get_cache_returns_same_instance(self):
        assert get_cache("x") is get_cache("x")
        assert get_cache("x") is not get_cache("y")

    def test_all_snapshots(self):
        before = get_cache("alpha").snapshot()
        get_cache("alpha").get_or_create("k", lambda: 1)
        get_cache("alpha").get_or_create("k", lambda: 1)
        snapshots = all_cache_snapshots()
        assert snapshots["alpha"] == (before[0] + 1, before[1] + 1)


class TestSharedArtifacts:
    def test_template_bank_memoised(self):
        hits, misses = get_cache("templates").snapshot()
        first = template_bank((0x93, 0xC8))
        second = template_bank((0x93, 0xC8))
        assert first is second
        assert get_cache("templates").snapshot() == (hits + 1, misses + 1)

    def test_template_bank_key_includes_period(self):
        misses = get_cache("templates").misses
        first = template_bank((0x93,))
        second = template_bank((0x93,), sampling_period_s=CIR_SAMPLING_PERIOD_S / 8)
        assert first is not second
        assert get_cache("templates").misses == misses + 2

    def test_template_bank_matches_direct_construction(self):
        import numpy as np

        from repro.signal.templates import TemplateBank

        cached = template_bank((0x93, 0xE6))
        direct = TemplateBank((0x93, 0xE6))
        assert cached.registers == direct.registers
        for a, b in zip(cached, direct):
            assert np.allclose(a.samples, b.samples)

    def test_pulse_memoised(self):
        hits, misses = get_cache("pulses").snapshot()
        assert pulse(0x93) is pulse(0x93)
        assert pulse(0x93) is not pulse(0xC8)
        assert get_cache("pulses").snapshot() == (hits + 2, misses + 2)


class TestClearFreesEngineScratch:
    def test_plan_dies_with_the_clear(self):
        """The calling thread's engine scratch holds the last plan it
        ran; a clear frees both, so the next pass builds its plan with
        the old buffers gone."""
        import gc
        import weakref

        import numpy as np

        from repro.core.batch import detect_batch
        from repro.core.plan import detector_plan
        from repro.signal.templates import TemplateBank

        bank = list(TemplateBank.paper_bank(3))
        detect_batch(
            np.ones((4, 257), dtype=complex), bank, CIR_SAMPLING_PERIOD_S
        )
        plan = weakref.ref(
            detector_plan(bank, 257, 8, CIR_SAMPLING_PERIOD_S)
        )
        assert plan() is not None
        clear_all_caches()
        gc.collect()
        assert plan() is None
