"""Unit tests for nodes, the medium, and traces."""

import pytest

from repro.channel.stochastic import IndoorEnvironment
from repro.channel.geometry import Point, Room
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.netsim.trace import TraceEvent, TraceRecorder
from repro.radio.energy import RadioState


class TestNode:
    def test_at_builds_radio(self, rng):
        node = Node.at(3, 1.0, 2.0, rng=rng)
        assert node.node_id == 3
        assert node.position == Point(1.0, 2.0)
        assert node.radio is not None

    def test_distance(self, rng):
        a = Node.at(0, 0.0, 0.0, rng=rng)
        b = Node.at(1, 3.0, 4.0, rng=rng)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_ideal_clock_without_rng(self):
        node = Node.at(0, 0.0, 0.0)
        assert node.radio.clock.drift_ppm == 0.0

    def test_energy_accounting(self, rng):
        node = Node.at(0, 0.0, 0.0, rng=rng)
        node.account_tx(1e-3)
        node.account_rx(2e-3)
        assert node.radio.energy.duration_s(RadioState.TX) == pytest.approx(1e-3)
        assert node.radio.energy.duration_s(RadioState.RX) == pytest.approx(2e-3)


class TestMedium:
    def _medium(self, rng):
        medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
        medium.add_nodes(
            [Node.at(0, 0.0, 0.0, rng=rng), Node.at(1, 5.0, 0.0, rng=rng)]
        )
        return medium

    def test_duplicate_node_rejected(self, rng):
        medium = self._medium(rng)
        with pytest.raises(ValueError):
            medium.add_node(Node.at(0, 1.0, 1.0, rng=rng))

    def test_channel_reciprocal_within_coherence(self, rng):
        medium = self._medium(rng)
        assert medium.channel_between(0, 1) is medium.channel_between(1, 0)

    def test_channel_refreshes_after_coherence(self, rng):
        medium = self._medium(rng)
        first = medium.channel_between(0, 1)
        medium.new_coherence_interval()
        second = medium.channel_between(0, 1)
        assert first is not second

    def test_self_channel_rejected(self, rng):
        medium = self._medium(rng)
        with pytest.raises(ValueError):
            medium.channel_between(0, 0)

    def test_room_medium_uses_geometry(self, rng):
        room = Room(10.0, 5.0)
        medium = Medium(room=room, rng=rng)
        medium.add_nodes(
            [Node.at(0, 2.0, 3.0, rng=rng), Node.at(1, 7.0, 2.0, rng=rng)]
        )
        channel = medium.channel_between(0, 1)
        kinds = {tap.kind for tap in channel}
        assert "los" in kinds and "reflection" in kinds


class TestTrace:
    def test_counts(self):
        trace = TraceRecorder()
        trace.record(0.0, 0, "tx", 1e-4)
        trace.record(0.1, 1, "rx", 1e-4)
        trace.record(0.2, 0, "tx", 1e-4)
        assert trace.message_count == 2
        assert trace.count("rx") == 1
        assert trace.count_for_node(0, "tx") == 2

    def test_airtime(self):
        trace = TraceRecorder()
        trace.record(0.0, 0, "tx", 2e-4)
        trace.record(1.0, 1, "tx", 3e-4)
        assert trace.airtime_s() == pytest.approx(5e-4)

    def test_span(self):
        trace = TraceRecorder()
        trace.record(1.0, 0, "tx", 0.5)
        trace.record(2.0, 1, "tx", 0.5)
        assert trace.span_s() == pytest.approx(1.5)

    def test_utilization_merges_overlaps(self):
        """Concurrent responses share airtime — the utilization win."""
        trace = TraceRecorder()
        trace.record(0.0, 1, "tx", 1.0)
        trace.record(0.0, 2, "tx", 1.0)  # fully overlapping
        trace.record(3.0, 3, "tx", 1.0)
        # busy = 2 s of 4 s span.
        assert trace.channel_utilization() == pytest.approx(0.5)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            TraceEvent(0.0, 0, "beam", 1.0)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            TraceEvent(0.0, 0, "tx", -1.0)

    def test_empty_summary(self):
        trace = TraceRecorder()
        summary = trace.summary()
        assert summary["messages"] == 0.0
        assert summary["utilization"] == 0.0
