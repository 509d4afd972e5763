"""Structured protocol traces: message counts, airtime, utilization.

The scalability claims of the paper's Sect. VIII are about *counting*:
messages, receive time, transmit time.  The trace recorder collects one
entry per radio operation so the benchmark can report message counts,
total airtime, and channel utilization for scheduled vs. concurrent
ranging without touching the protocol logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

VALID_KINDS = ("tx", "rx", "rx_listen")


@dataclass(frozen=True)
class TraceEvent:
    """One radio operation.

    ``kind`` is ``"tx"``, ``"rx"`` (successful frame reception), or
    ``"rx_listen"`` (receiver on without a frame, e.g. guard windows).
    """

    time_s: float
    node_id: int
    kind: str
    duration_s: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}, got {self.kind!r}")
        if self.duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration_s}")


class TraceRecorder:
    """Accumulates trace events and derives summary statistics."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(
        self,
        time_s: float,
        node_id: int,
        kind: str,
        duration_s: float,
        label: str = "",
    ) -> None:
        self._events.append(
            TraceEvent(
                time_s=time_s,
                node_id=node_id,
                kind=kind,
                duration_s=duration_s,
                label=label,
            )
        )

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def count(self, kind: str) -> int:
        """Number of events of a kind across all nodes."""
        return sum(1 for event in self._events if event.kind == kind)

    def count_for_node(self, node_id: int, kind: str) -> int:
        return sum(
            1
            for event in self._events
            if event.kind == kind and event.node_id == node_id
        )

    @property
    def message_count(self) -> int:
        """Total frames put on the air."""
        return self.count("tx")

    def airtime_s(self) -> float:
        """Total on-air time (sum of TX durations)."""
        return sum(e.duration_s for e in self._events if e.kind == "tx")

    def span_s(self) -> float:
        """Wall-clock span from the first event start to the last end."""
        if not self._events:
            return 0.0
        start = min(e.time_s for e in self._events)
        end = max(e.time_s + e.duration_s for e in self._events)
        return end - start

    def channel_utilization(self) -> float:
        """Fraction of the span during which at least one frame was on
        the air.  Overlapping transmissions (concurrent responses) are
        merged, which is exactly why concurrent ranging wins here."""
        intervals = sorted(
            (e.time_s, e.time_s + e.duration_s)
            for e in self._events
            if e.kind == "tx"
        )
        if not intervals:
            return 0.0
        busy = 0.0
        current_start, current_end = intervals[0]
        for start, end in intervals[1:]:
            if start > current_end:
                busy += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        busy += current_end - current_start
        span = self.span_s()
        return busy / span if span > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """All headline numbers in one dictionary."""
        return {
            "messages": float(self.message_count),
            "receptions": float(self.count("rx")),
            "airtime_s": self.airtime_s(),
            "span_s": self.span_s(),
            "utilization": self.channel_utilization(),
        }
