"""Integration tests for the concurrent ranging session (Fig. 3 right)."""

import numpy as np
import pytest

from repro.channel.stochastic import IndoorEnvironment
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.faults import FaultPlan, ResponderDropout
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.signal.templates import TemplateBank


class TestBuild:
    def test_line_topology(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0], seed=1
        )
        assert len(session.responders) == 2
        assert session.initiator.distance_to(session.responders[1]) == pytest.approx(
            6.0
        )

    def test_empty_distances_rejected(self):
        with pytest.raises(ValueError):
            ConcurrentRangingSession.build(responder_distances_m=[])

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            ConcurrentRangingSession.build(
                responder_distances_m=[1.0, 2.0, 3.0], n_slots=1, n_shapes=2,
                seed=1,
            )

    def test_duplicate_assignments_opt_in(self, rng):
        medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
        nodes = [Node.at(i, float(i), 0.0, rng=rng) for i in range(4)]
        medium.add_nodes(nodes)
        scheme = CombinedScheme(
            SlotPlan.for_range(20.0, n_slots=1), TemplateBank((0x93,))
        )
        session = ConcurrentRangingSession(
            medium=medium,
            initiator=nodes[0],
            responders=nodes[1:],
            scheme=scheme,
            scheme_ids=[0, 0, 0],
            rng=rng,
        )
        # Equal scheme IDs all map to the single (slot, shape).
        assert session._assignment(2).slot == 0
        assert session._assignment(2).shape_index == 0


class TestRound:
    def test_anchor_distance_accuracy(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0, 10.0], n_shapes=3, seed=2
        )
        errors = [abs(session.run_round().d_twr_m - 3.0) for _ in range(20)]
        assert np.median(errors) < 0.08

    def test_identification_with_compensation(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0, 10.0],
            n_shapes=3,
            seed=3,
            compensate_tx_quantization=True,
        )
        hits = 0
        trials = 20
        for _ in range(trials):
            result = session.run_round()
            hits += sum(o.identified for o in result.outcomes)
        assert hits / (3 * trials) > 0.9

    def test_quantization_spreads_distance_error(self):
        """With faithful ~8 ns TX flooring, CIR distances jitter by
        ~0.5 m; with compensation they tighten to centimetres — the
        artefact the paper declares out of scope."""
        errors = {}
        for compensate in (False, True):
            session = ConcurrentRangingSession.build(
                responder_distances_m=[3.0, 8.0],
                n_shapes=2,
                seed=4,
                compensate_tx_quantization=compensate,
            )
            far_errors = []
            for _ in range(40):
                result = session.run_round()
                outcome = result.outcome_for(1)
                if outcome.identified:
                    far_errors.append(outcome.error_m)
            errors[compensate] = np.std(far_errors)
        assert errors[True] < 0.15
        assert errors[False] > 2 * errors[True]

    def test_trace_records_round(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0], n_shapes=2, seed=5
        )
        result = session.run_round()
        # 1 INIT + 2 RESP transmissions.
        assert result.trace.message_count == 3
        assert result.trace.count("rx") == 3  # 2 INIT receptions + 1 aggregate

    def test_capture_contains_all_arrivals(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0, 9.0], n_shapes=3, seed=6
        )
        result = session.run_round()
        assert len(result.capture.arrivals) == 3

    def test_outcome_for_unknown_raises(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[3.0], seed=7
        )
        result = session.run_round()
        with pytest.raises(KeyError):
            result.outcome_for(99)

    def test_deterministic_given_start_time(self):
        a = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0], n_shapes=2, seed=8
        )
        b = ConcurrentRangingSession.build(
            responder_distances_m=[3.0, 6.0], n_shapes=2, seed=8
        )
        ra = a.run_round(start_time_s=0.5)
        rb = b.run_round(start_time_s=0.5)
        assert ra.d_twr_m == rb.d_twr_m
        assert ra.ranging.distances_m == rb.ranging.distances_m

    def test_single_responder(self):
        session = ConcurrentRangingSession.build(
            responder_distances_m=[4.0], seed=9
        )
        result = session.run_round()
        assert result.outcome_for(0).detected

    def test_rpm_slots_separate_responses(self):
        """With 2 slots, the two responses appear ~one slot apart in the
        CIR even though the nodes are equidistant."""
        session = ConcurrentRangingSession.build(
            responder_distances_m=[5.0, 5.0],
            n_slots=2,
            n_shapes=1,
            seed=10,
            compensate_tx_quantization=True,
        )
        result = session.run_round()
        assert len(result.classified) == 2
        gap = abs(result.classified[1].delay_s - result.classified[0].delay_s)
        assert gap == pytest.approx(
            session.scheme.slot_plan.slot_duration_s, rel=0.05
        )

    @pytest.mark.parametrize("seed", [1, 5, 9, 13])
    def test_silent_slot0_responder_decodes_from_anchor_slot(self, seed):
        """With the slot-0 responder silent the anchor sits in slot 1:
        TWR must not subtract a slot delay and the decode must count
        slots from the anchor's, or d_TWR is off by tens of metres and
        the silent responder is 'identified' in place of a real one."""
        session = ConcurrentRangingSession.build(
            [3.0, 6.0, 9.0],
            n_slots=3,
            n_shapes=1,
            seed=seed,
            detector_config=SearchAndSubtractConfig(
                max_responses=3, min_peak_snr=8.0
            ),
            compensate_tx_quantization=True,
            faults=FaultPlan(
                [ResponderDropout(1.0, responder_ids=[0])], seed=0
            ),
        )
        result = session.run_round(start_time_s=0.25)
        assert result.d_twr_m == pytest.approx(6.0, abs=0.3)
        assert not result.outcome_for(0).identified
        for responder_id in (1, 2):
            outcome = result.outcome_for(responder_id)
            assert outcome.identified
            assert abs(outcome.error_m) < 0.3
