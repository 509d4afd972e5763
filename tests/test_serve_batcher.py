"""Property tests for the micro-batcher: ordering, deadlines, no loss.

The batcher is item-agnostic, so these tests hammer it with plain
integers and pin down the three contracts the service builds on:

1. **Exactly-once, in order** — concatenating the flushed batches
   reproduces the enqueued sequence exactly (no loss, no duplication,
   no reordering), for any (item count, batch size) combination.
2. **Deadline monotonicity** — a flush happens no later than
   ``max_delay_s`` (plus scheduling slack) after its first item, and
   only short batches may flush for cause ``"deadline"``.
3. **Cancellation safety** — a ``fill`` cancelled mid-gather raises
   ``CancelledError`` at once, even when an item raced the cancel, and
   leaves every consumed item reachable via the ``into`` out-parameter:
   items in ``into`` plus items still queued equal items enqueued.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import STOP, MicroBatcher


def _drive(coro):
    return asyncio.run(coro)


async def _collect_all(batcher, items):
    """Enqueue everything up front, then fill until the stream stops."""
    queue = asyncio.Queue()
    for item in items:
        queue.put_nowait(item)
    queue.put_nowait(STOP)
    flushed = []
    while True:
        batch, cause, stopped = await batcher.fill(queue)
        flushed.append((list(batch), cause))
        if stopped:
            return flushed


class TestExactlyOnceInOrder:
    @given(
        n_items=st.integers(min_value=0, max_value=64),
        batch_size=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_concatenation_reproduces_stream(self, n_items, batch_size):
        items = list(range(n_items))
        batcher = MicroBatcher(batch_size, max_delay_s=0.05)
        flushed = _drive(_collect_all(batcher, items))
        recombined = [item for batch, _ in flushed for item in batch]
        assert recombined == items

    @given(
        n_items=st.integers(min_value=1, max_value=64),
        batch_size=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_sizes_and_causes(self, n_items, batch_size):
        items = list(range(n_items))
        batcher = MicroBatcher(batch_size, max_delay_s=0.05)
        flushed = _drive(_collect_all(batcher, items))
        for batch, cause in flushed:
            assert len(batch) <= batch_size
            if cause == "full":
                assert len(batch) == batch_size
        # Everything was queued ahead of time, so no deadline ever fires:
        # full batches plus one final short drain batch.
        causes = [cause for _, cause in flushed]
        assert "deadline" not in causes
        assert causes[-1] == "drain"

    def test_stop_only_stream(self):
        flushed = _drive(_collect_all(MicroBatcher(4, 0.01), []))
        assert flushed == [([], "drain")]


class TestDeadline:
    def test_lonely_item_flushes_on_deadline(self):
        async def scenario():
            queue = asyncio.Queue()
            batcher = MicroBatcher(8, max_delay_s=0.02)
            loop = asyncio.get_running_loop()
            queue.put_nowait("only")
            started = loop.time()
            batch, cause, stopped = await batcher.fill(queue)
            elapsed = loop.time() - started
            return batch, cause, stopped, elapsed

        batch, cause, stopped, elapsed = _drive(scenario())
        assert batch == ["only"]
        assert cause == "deadline"
        assert not stopped
        assert elapsed >= 0.02
        assert elapsed < 0.5  # scheduling slack, not unbounded waiting

    def test_deadline_counts_from_first_item(self):
        async def scenario():
            queue = asyncio.Queue()
            batcher = MicroBatcher(8, max_delay_s=0.05)
            loop = asyncio.get_running_loop()

            async def trickle():
                for item in range(3):
                    await asyncio.sleep(0.012)
                    queue.put_nowait(item)

            feeder = asyncio.ensure_future(trickle())
            first_seen = loop.time()
            batch, cause, _ = await batcher.fill(queue)
            await feeder
            return batch, cause, loop.time() - first_seen

        batch, cause, elapsed = _drive(scenario())
        assert cause == "deadline"
        assert 1 <= len(batch) <= 3
        # The budget runs from the first item, not from each arrival —
        # three trickled items never extend the window beyond one budget.
        assert elapsed < 0.05 + 0.012 + 0.2

    def test_zero_delay_flushes_immediately_when_starved(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait(1)
            return await MicroBatcher(4, max_delay_s=0.0).fill(queue)

        batch, cause, stopped = _drive(scenario())
        assert batch == [1]
        assert cause == "deadline"
        assert not stopped

    def test_full_beats_deadline_for_queued_burst(self):
        async def scenario():
            queue = asyncio.Queue()
            for item in range(4):
                queue.put_nowait(item)
            return await MicroBatcher(4, max_delay_s=0.0).fill(queue)

        batch, cause, _ = _drive(scenario())
        assert batch == [0, 1, 2, 3]
        assert cause == "full"


class TestCancellationSafety:
    @given(
        n_ready=st.integers(min_value=1, max_value=6),
        n_late=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_cancelled_fill_loses_nothing(self, n_ready, n_late):
        """items(into) + items(queue) == items(enqueued), no duplicates,
        and the cancel wins even when a late item wakes the getter in
        the same loop turn."""

        async def scenario():
            queue = asyncio.Queue()
            # More than a batch can hold is irrelevant here; keep the
            # batch open so the fill is waiting when we cancel it.
            batcher = MicroBatcher(n_ready + n_late + 1, max_delay_s=5.0)
            for item in range(n_ready):
                queue.put_nowait(item)
            held = []
            task = asyncio.ensure_future(batcher.fill(queue, into=held))
            await asyncio.sleep(0.01)  # let it consume the ready items
            for item in range(n_ready, n_ready + n_late):
                queue.put_nowait(item)
            task.cancel()
            loop = asyncio.get_running_loop()
            cancelled_at = loop.time()
            try:
                await task
                raised = False
            except asyncio.CancelledError:
                raised = True
            elapsed = loop.time() - cancelled_at
            left = []
            while not queue.empty():
                left.append(queue.get_nowait())
            return held, left, raised, elapsed

        held, left, raised, elapsed = _drive(scenario())
        assert raised, "a cancelled fill returned a batch instead"
        assert elapsed < 1.0
        assert sorted(held + left) == list(range(n_ready + n_late))
        assert held == sorted(held)  # consumed prefix stays ordered

    def test_into_must_start_empty(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait(1)
            try:
                await MicroBatcher(2, 0.01).fill(queue, into=[0])
            except ValueError as error:
                return str(error)
            return None

        assert "empty" in _drive(scenario())
