"""The dynamic micro-batcher: flush on batch-full *or* deadline.

This is the inference-server batching pattern.  A shard's worker loop
blocks until the first pending item arrives, then keeps gathering until
either the batch is full (``batch_size`` items — amortise the engine's
fixed per-pass cost) or ``max_delay_s`` has elapsed since that first
item (bound the latency a lonely request pays for the company it never
got).  Whichever fires first flushes, and the flush cause is reported
so the service can export the full-vs-deadline split — the single most
useful signal when tuning ``batch_size`` against offered load.

The batcher is deliberately engine- and item-agnostic (items are
opaque; a ``stop`` sentinel ends the stream) so the property tests in
``tests/test_serve_batcher.py`` can hammer it with plain integers:
every enqueued item appears in exactly one flushed batch, in enqueue
order, and no flush waits longer than ``max_delay_s`` past its first
item.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional, Tuple

__all__ = ["MicroBatcher", "STOP"]

#: Sentinel that ends a batcher's stream (enqueue after all real items).
STOP = object()


class MicroBatcher:
    """Gather queue items into batches bounded by size and delay.

    Parameters
    ----------
    batch_size:
        Flush as soon as this many items are pending (cause ``"full"``).
    max_delay_s:
        Flush at most this long after the *first* item of the batch
        arrived (cause ``"deadline"``), even if the batch is short.
        ``0`` degrades to single-item batches with cause ``"deadline"``
        unless the queue already holds a full batch.
    """

    def __init__(self, batch_size: int, max_delay_s: float) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_delay_s < 0:
            raise ValueError(
                f"max_delay_s must be >= 0, got {max_delay_s}"
            )
        self.batch_size = int(batch_size)
        self.max_delay_s = float(max_delay_s)

    async def fill(
        self,
        queue: "asyncio.Queue[Any]",
        first: Optional[Any] = None,
        *,
        into: Optional[List[Any]] = None,
    ) -> Tuple[List[Any], str, bool]:
        """Gather one batch; returns ``(batch, flush_cause, stopped)``.

        Blocks until the first item arrives (or uses ``first`` when the
        caller already dequeued it), then drains without waiting while
        items are immediately available, and waits out the remaining
        deadline budget otherwise.  ``stopped`` is ``True`` when the
        :data:`STOP` sentinel was consumed; the returned batch holds
        every item seen before it (cause ``"drain"``).

        ``into`` (must be an empty list) is filled in place and is also
        the returned batch — a caller that gets cancelled mid-gather
        still holds every item this call consumed from the queue, which
        is how the service keeps its no-lost-requests invariant across
        a non-drain shutdown.  Cancellation always wins: an item that
        reached the getter in the same loop turn as the cancel lands in
        ``into`` (a :data:`STOP` is dropped, the stream ends either way)
        and the call still raises ``CancelledError``.
        """
        batch: List[Any]
        if into is not None:
            if into:
                raise ValueError("into must start empty")
            batch = into
        else:
            batch = []
        if first is None:
            first = await queue.get()
        if first is STOP:
            return batch, "drain", True
        batch.append(first)
        if self.batch_size == 1:
            return batch, "full", False
        loop = asyncio.get_running_loop()
        flush_at = loop.time() + self.max_delay_s
        while len(batch) < self.batch_size:
            # Fast path: take whatever is already queued without
            # yielding — a burst that arrived while the engine ran the
            # previous batch flushes at full size immediately.
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                remaining = flush_at - loop.time()
                if remaining <= 0:
                    return batch, "deadline", False
                # Not wait_for: it returns an item that raced a cancel
                # and swallows the cancellation.
                getter = asyncio.ensure_future(queue.get())
                try:
                    await asyncio.wait((getter,), timeout=remaining)
                except asyncio.CancelledError:
                    if getter.done() and not getter.cancelled():
                        item = getter.result()
                        if item is not STOP:
                            batch.append(item)
                    getter.cancel()
                    raise
                if not getter.done():
                    getter.cancel()
                    return batch, "deadline", False
                item = getter.result()
            if item is STOP:
                return batch, "drain", True
            batch.append(item)
        return batch, "full", False
