"""Differential test harness for the many-agent swarm path.

The contracts pinned here:

* **Shard invariance** — ``shards=1`` and ``shards=K`` produce
  byte-identical event streams and digests (the tentpole guarantee of
  the sharded event loop).
* **Batched == serial** — routing classification through
  :func:`classify_batch` or the serial classifier changes nothing.
* **Seed determinism** — same seed, same bytes; different seed,
  different bytes.
* **Scheme extensions** — anchor-slot decoding and persistent
  ``scheme_ids`` keep every legacy default byte-identical.
* **Capacity-stress dispatch** — counts <= capacity still run the
  historical static path byte-for-byte; counts above it delegate to
  the swarm medium.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detection import DetectedResponse
from repro.core.pulse_id import ClassifiedResponse
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.netsim.swarm import MobilityTrace, SwarmConfig, SwarmScenario
from repro.signal.templates import TemplateBank


def tiny_config(**overrides) -> SwarmConfig:
    """A fast scenario: small scheme, narrow window, light upsampling."""
    params = dict(
        n_responders=14,
        n_initiators=2,
        n_concurrent=2,
        n_slots=8,
        n_shapes=8,
        window=6,
        upsample_factor=2,
    )
    params.update(overrides)
    return SwarmConfig(**params)


class TestShardInvariance:
    def test_serial_equals_sharded_events_and_digest(self):
        runs = {
            shards: SwarmScenario(tiny_config(), seed=3, shards=shards).run(3)
            for shards in (1, 3)
        }
        assert runs[1].events == runs[3].events
        assert runs[1].digest() == runs[3].digest()

    def test_many_shard_counts_agree(self):
        digests = {
            SwarmScenario(tiny_config(), seed=9, shards=shards)
            .run(2)
            .digest()
            for shards in (1, 2, 5, 8)
        }
        assert len(digests) == 1

    def test_all_deterministic_fields_match(self):
        a = SwarmScenario(tiny_config(), seed=4, shards=1).run(3)
        b = SwarmScenario(tiny_config(), seed=4, shards=4).run(3)
        assert a.rounds == b.rounds
        assert a.polled == b.polled
        assert a.identified == b.identified
        assert a.ambiguous == b.ambiguous
        assert a.errors_m == b.errors_m
        assert a.fix_errors_m == b.fix_errors_m
        assert a.track_errors_m == b.track_errors_m
        assert a.coverage == b.coverage

    def test_city_scale_shards_agree(self):
        """The Sect. VIII sweep's 500-responder point, full scheme: one
        shard and four give one digest, and the rounds identify."""
        from repro.experiments.swarm_scale import swarm_config

        runs = {
            shards: SwarmScenario(swarm_config(500), seed=71, shards=shards)
            .run(2)
            for shards in (1, 4)
        }
        assert runs[1].digest() == runs[4].digest()
        assert runs[1].identified > 0


class TestBatchedEqualsSerial:
    """``batch_size=1`` runs every round as its own batch of one — what
    ``classify()`` does per CIR — so these pin batched == one-at-a-time."""

    def test_batched_classifier_matches_serial(self):
        batched = SwarmScenario(
            tiny_config(batch_size=8), seed=5, shards=1
        ).run(3)
        serial = SwarmScenario(
            tiny_config(batch_size=1), seed=5, shards=1
        ).run(3)
        assert batched.events == serial.events
        assert batched.digest() == serial.digest()

    def test_batched_sharded_matches_serial_unsharded(self):
        batched = SwarmScenario(
            tiny_config(batch_size=3),
            seed=6,
            shards=3,
        ).run(2)
        serial = SwarmScenario(
            tiny_config(batch_size=1), seed=6, shards=1
        ).run(2)
        assert batched.digest() == serial.digest()


class TestSeedDeterminism:
    def test_same_seed_same_bytes(self):
        a = SwarmScenario(tiny_config(), seed=11, shards=2).run(2)
        b = SwarmScenario(tiny_config(), seed=11, shards=2).run(2)
        assert a.digest() == b.digest()

    def test_different_seed_different_bytes(self):
        a = SwarmScenario(tiny_config(), seed=11, shards=1).run(2)
        b = SwarmScenario(tiny_config(), seed=12, shards=1).run(2)
        assert a.digest() != b.digest()

    def test_digest_ignores_wall_clock(self):
        import dataclasses

        result = SwarmScenario(tiny_config(), seed=13, shards=1).run(1)
        clone = dataclasses.replace(result, elapsed_s=result.elapsed_s * 7 + 1)
        assert result.digest() == clone.digest()

    def test_mobility_trace_is_stream_deterministic(self):
        traces = [
            MobilityTrace(np.random.default_rng(21), arena_m=10.0, speed_mps=1.0)
            for _ in range(2)
        ]
        for trace in traces:
            for _ in range(5):
                trace.step(0.25)
        assert traces[0].position == traces[1].position


class TestSwarmScaleExperiment:
    def test_workers_invariance(self):
        from repro.experiments import swarm_scale

        kwargs = dict(trials=2, seed=71, counts=(12, 30))
        serial = swarm_scale.run(workers=1, **kwargs)
        parallel = swarm_scale.run(workers=2, **kwargs)
        assert serial.as_dict() == parallel.as_dict()

    def test_capacity_metric_covers_the_claim(self):
        from repro.experiments import swarm_scale

        result = swarm_scale.run(trials=1, seed=71, counts=(12,))
        capacity = result.metric("scheme_capacity")
        assert capacity.measured >= capacity.paper == 1500.0


class TestSchemeExtensions:
    @staticmethod
    def _scheme(n_slots=8, n_shapes=3):
        return CombinedScheme(
            SlotPlan.for_range(20.0, n_slots=n_slots),
            TemplateBank.paper_bank(n_shapes),
        )

    @staticmethod
    def _response(delay_s, shape_index):
        return ClassifiedResponse(
            response=DetectedResponse(
                index=delay_s / 1e-9, delay_s=delay_s, amplitude=1.0 + 0j
            ),
            shape_index=shape_index,
            confidence=2.0,
        )

    def test_anchor_slot_shifts_decoded_ids(self):
        scheme = self._scheme()
        slot = scheme.slot_plan.slot_duration_s
        classified = [
            self._response(0.0, 1),
            self._response(2 * slot, 2),
        ]
        plain = scheme.decode_responses(classified, d_twr_m=5.0)
        shifted = scheme.decode_responses(
            classified, d_twr_m=5.0, anchor_slot=3
        )
        assert plain.responder_ids == (
            scheme.decode_id(0, 1),
            scheme.decode_id(2, 2),
        )
        assert shifted.responder_ids == (
            scheme.decode_id(3, 1),
            scheme.decode_id(5, 2),
        )
        # Distances depend only on residuals, never on the slot shift.
        assert plain.distances_m == shifted.distances_m

    def test_anchor_slot_zero_is_the_default_byte_for_byte(self):
        scheme = self._scheme()
        slot = scheme.slot_plan.slot_duration_s
        classified = [
            self._response(0.3e-9, 0),
            self._response(slot + 0.1e-9, 2),
            self._response(3 * slot - 0.2e-9, 1),
        ]
        default = scheme.decode_responses(classified, d_twr_m=4.0)
        explicit = scheme.decode_responses(
            classified, d_twr_m=4.0, anchor_slot=0
        )
        assert default == explicit

    def test_anchor_slot_clamps_relative_slots_to_capacity(self):
        scheme = self._scheme()
        slot = scheme.slot_plan.slot_duration_s
        classified = [
            self._response(0.0, 0),
            self._response(6 * slot, 1),
        ]
        decoded = scheme.decode_responses(
            classified, d_twr_m=2.0, anchor_slot=5
        )
        # 5 + 6 would overflow the 8-slot plan; the relative offset is
        # clamped so the decoded slot stays valid.
        assert decoded.responder_ids[1] == scheme.decode_id(7, 1)

    def test_anchor_slot_out_of_range_raises(self):
        scheme = self._scheme()
        with pytest.raises(ValueError, match="anchor slot"):
            scheme.decode_responses([], d_twr_m=1.0, anchor_slot=8)

    def test_session_scheme_ids_validation(self):
        from repro.channel.stochastic import IndoorEnvironment
        from repro.netsim.medium import Medium
        from repro.netsim.node import Node
        from repro.protocol.concurrent import ConcurrentRangingSession

        rng = np.random.default_rng(0)
        medium = Medium(environment=IndoorEnvironment.office(), rng=rng)
        initiator = Node.at(0, 0.0, 0.0, rng=rng)
        responders = [
            Node.at(i + 1, 1.0 + i, 0.0, rng=rng) for i in range(3)
        ]
        medium.add_nodes([initiator] + responders)
        scheme = self._scheme()
        with pytest.raises(ValueError, match="scheme_ids"):
            ConcurrentRangingSession(
                medium=medium,
                initiator=initiator,
                responders=responders,
                scheme=scheme,
                rng=rng,
                scheme_ids=[1, 2],  # wrong length
            )
        with pytest.raises(ValueError, match="non-negative"):
            ConcurrentRangingSession(
                medium=medium,
                initiator=initiator,
                responders=responders,
                scheme=scheme,
                rng=rng,
                scheme_ids=[1, -2, 3],  # negative identity
            )


class TestCapacityStressDispatch:
    def test_static_counts_byte_identical_to_legacy_path(self):
        """Counts <= capacity reproduce the direct static computation."""
        from repro.experiments import capacity_stress

        result = capacity_stress.run(trials=2, seed=5)
        for name, count in (
            ("id_rate_2", 2),
            ("id_rate_9", 9),
            ("id_rate_12_full", 12),
        ):
            direct = capacity_stress._identification_rate(count, 2, 5 + count)
            assert result.metric(name).measured == direct

    def test_oversubscribed_counts_delegate_to_swarm(self, monkeypatch):
        from repro.experiments import capacity_stress

        calls = []
        real = capacity_stress._swarm_identification_rate

        def spy(count, trials, seed):
            calls.append(count)
            return real(count, trials, seed)

        monkeypatch.setattr(
            capacity_stress, "_swarm_identification_rate", spy
        )
        result = capacity_stress.run(trials=1, seed=5)
        assert sorted(calls) == sorted(capacity_stress.SWARM_COUNTS)
        for count in capacity_stress.SWARM_COUNTS:
            rate = result.metric(f"id_rate_{count}_swarm").measured
            assert 0.0 <= rate <= 1.0

    def test_static_path_never_sees_oversubscribed_counts(self, monkeypatch):
        from repro.experiments import capacity_stress

        seen = []
        real = capacity_stress._identification_rate

        def spy(count, trials, seed):
            seen.append(count)
            return real(count, trials, seed)

        monkeypatch.setattr(capacity_stress, "_identification_rate", spy)
        capacity_stress.run(trials=1, seed=5)
        assert max(seen) <= capacity_stress.N_SLOTS * capacity_stress.N_SHAPES


class TestSwarmProperties:
    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shards=st.integers(min_value=2, max_value=4),
    )
    def test_shard_invariance_property(self, n, seed, shards):
        config = tiny_config(n_responders=n)
        a = SwarmScenario(config, seed=seed, shards=1).run(2)
        b = SwarmScenario(config, seed=seed, shards=shards).run(2)
        assert a.events == b.events
        assert a.digest() == b.digest()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_counters_are_consistent(self, seed):
        result = SwarmScenario(tiny_config(), seed=seed, shards=2).run(2)
        assert result.identified + result.ambiguous <= result.polled
        assert len(result.errors_m) == result.identified
        assert 0.0 <= result.coverage <= 1.0
        assert result.n_epochs == 2
