"""Unit tests for response position modulation and the combined scheme
(paper Sect. VII and VIII)."""

import pytest

from repro.constants import RPM_MAX_OFFSET_M, RPM_MAX_OFFSET_S, SPEED_OF_LIGHT
from repro.core.pulse_id import ClassifiedResponse
from repro.core.detection import DetectedResponse
from repro.core.rpm import SlotPlan, paper_slot_count, safe_slot_count
from repro.core.scheme import CombinedScheme
from repro.signal.templates import TemplateBank


class TestSlotCounts:
    def test_paper_value_75m(self):
        """Sect. VIII: ~4 responders at r_max = 75 m."""
        assert paper_slot_count(75.0) == 4

    def test_paper_value_20m(self):
        """Sect. VIII: >15 slots at 20 m -> >1500 users with 100 shapes."""
        assert paper_slot_count(20.0) >= 15

    def test_max_offset_matches_paper(self):
        # 1016 taps x 1.0016 ns x c ~= 305 m (paper rounds to 307 m).
        assert RPM_MAX_OFFSET_M == pytest.approx(305.0, abs=3.0)

    def test_safe_count_smaller_than_paper(self):
        for r_max in (10.0, 20.0, 75.0):
            assert safe_slot_count(r_max) <= paper_slot_count(r_max)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            paper_slot_count(0.0)
        with pytest.raises(ValueError):
            safe_slot_count(-5.0)

    def test_safe_guard_reduces_count(self):
        assert safe_slot_count(20.0, guard_s=200e-9) <= safe_slot_count(
            20.0, guard_s=0.0
        )


class TestSlotPlan:
    def test_for_range_paper_mode(self):
        plan = SlotPlan.for_range(75.0, mode="paper")
        assert plan.n_slots == 4
        assert plan.n_slots * plan.slot_duration_s == pytest.approx(
            RPM_MAX_OFFSET_S
        )

    def test_explicit_slot_count(self):
        plan = SlotPlan.for_range(20.0, n_slots=4)
        assert plan.n_slots == 4

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SlotPlan.for_range(20.0, mode="bogus")

    def test_delays(self):
        plan = SlotPlan(n_slots=4, slot_duration_s=100e-9)
        assert plan.delay_for_slot(0) == 0.0
        assert plan.delay_for_slot(3) == pytest.approx(300e-9)

    def test_delay_out_of_range(self):
        plan = SlotPlan(n_slots=4, slot_duration_s=100e-9)
        with pytest.raises(ValueError):
            plan.delay_for_slot(4)
        with pytest.raises(ValueError):
            plan.delay_for_slot(-1)

    def test_plan_exceeding_cir_rejected(self):
        with pytest.raises(ValueError):
            SlotPlan(n_slots=10, slot_duration_s=200e-9)

    def test_invalid_plan_values(self):
        with pytest.raises(ValueError):
            SlotPlan(n_slots=0, slot_duration_s=100e-9)
        with pytest.raises(ValueError):
            SlotPlan(n_slots=2, slot_duration_s=0.0)


class TestCombinedScheme:
    @pytest.fixture
    def scheme(self):
        return CombinedScheme(
            SlotPlan(n_slots=4, slot_duration_s=200e-9),
            TemplateBank.paper_bank(3),
        )

    def test_capacity(self, scheme):
        """The paper's Fig. 8: N_max = N_RPM * N_PS = 12."""
        assert scheme.capacity == 12

    def test_assignment_mapping(self, scheme):
        """slot = ID % N_RPM, shape = ID // N_RPM (normalised paper rule)."""
        a5 = scheme.assignment(5)
        assert a5.slot == 1
        assert a5.shape_index == 1
        a0 = scheme.assignment(0)
        assert (a0.slot, a0.shape_index) == (0, 0)
        a11 = scheme.assignment(11)
        assert (a11.slot, a11.shape_index) == (3, 2)

    def test_assignment_bijective(self, scheme):
        seen = set()
        for responder_id in range(scheme.capacity):
            a = scheme.assignment(responder_id)
            seen.add((a.slot, a.shape_index))
            assert scheme.decode_id(a.slot, a.shape_index) == responder_id
        assert len(seen) == scheme.capacity

    def test_extra_delay_follows_slot(self, scheme):
        assert scheme.assignment(6).extra_delay_s == pytest.approx(
            2 * 200e-9
        )

    def test_register_follows_shape(self, scheme):
        assert scheme.assignment(4).register == scheme.bank.registers[1]

    def test_out_of_capacity_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.assignment(12)
        with pytest.raises(ValueError):
            scheme.assignment(-1)

    def test_decode_id_validation(self, scheme):
        with pytest.raises(ValueError):
            scheme.decode_id(4, 0)
        with pytest.raises(ValueError):
            scheme.decode_id(0, 3)

    def test_shape_name(self, scheme):
        assert scheme.assignment(8).shape_name == "s3"


class TestDecodeResponses:
    @pytest.fixture
    def scheme(self):
        return CombinedScheme(
            SlotPlan(n_slots=4, slot_duration_s=200e-9),
            TemplateBank.paper_bank(3),
        )

    def _classified(self, delay_s, shape):
        return ClassifiedResponse(
            response=DetectedResponse(index=0.0, delay_s=delay_s, amplitude=1.0),
            shape_index=shape,
            confidence=2.0,
        )

    def test_single_anchor(self, scheme):
        result = scheme.decode_responses([self._classified(100e-9, 0)], 3.0)
        assert result.responder_ids == (0,)
        assert result.distances_m[0] == pytest.approx(3.0)

    def test_full_fig8_decode(self, scheme):
        """Nine responders across slots and shapes decode to unique IDs
        and correct distances."""
        d_twr = 3.0
        anchor_delay = 100e-9
        classified = []
        expected = {}
        for responder_id, distance in zip(range(9), (3, 4, 5, 6, 7, 8, 9, 4.5, 6.5)):
            a = scheme.assignment(responder_id)
            extra = 2 * (distance - d_twr) / SPEED_OF_LIGHT
            classified.append(
                self._classified(
                    anchor_delay + a.extra_delay_s + extra, a.shape_index
                )
            )
            expected[responder_id] = distance
        result = scheme.decode_responses(classified, d_twr)
        assert sorted(result.responder_ids) == list(range(9))
        for rid, dist in zip(result.responder_ids, result.distances_m):
            assert dist == pytest.approx(expected[rid], rel=1e-9)

    def test_closer_than_anchor_same_slot(self, scheme):
        """A same-slot responder *closer* than the anchor decodes with a
        distance below d_TWR (negative residual)."""
        d_twr = 5.0
        anchor_delay = 100e-9
        closer_extra = 2 * (3.0 - 5.0) / SPEED_OF_LIGHT  # negative
        classified = [
            self._classified(anchor_delay, 0),
            self._classified(anchor_delay + scheme.slot_plan.slot_duration_s
                             + closer_extra, 1),
        ]
        result = scheme.decode_responses(classified, d_twr)
        assert result.responder_ids == (0, 5)
        assert result.distances_m[1] == pytest.approx(3.0, rel=1e-9)

    def test_empty(self, scheme):
        result = scheme.decode_responses([], 3.0)
        assert len(result) == 0

    def _decode_offset(self, n_slots, offset_s, d_twr=3.0):
        """Decode an anchor plus one single-shape response ``offset_s``
        after it; returns that response's ``(slot, residual_s)``."""
        scheme = CombinedScheme(
            SlotPlan(n_slots=n_slots, slot_duration_s=100e-9),
            TemplateBank.paper_bank(1),
        )
        anchor_delay = 100e-9
        result = scheme.decode_responses(
            [
                self._classified(anchor_delay, 0),
                self._classified(anchor_delay + offset_s, 0),
            ],
            d_twr,
        )
        residual_s = 2 * (result.distances_m[1] - d_twr) / SPEED_OF_LIGHT
        # With one shape the decoded responder ID is the slot index.
        return result.responder_ids[1], residual_s

    def test_slot_rounds_to_nearest(self):
        """Same-slot responders deviate to both sides of the slot
        reference, so the slot rounds at half a slot."""
        for offset_s, slot in ((0.0, 0), (40e-9, 0), (60e-9, 1), (310e-9, 3)):
            decoded, _ = self._decode_offset(4, offset_s)
            assert decoded == slot, offset_s

    def test_residual_within_slot_signed(self):
        """The residual after removing the slot reference is signed:
        positive past the reference, negative for a responder closer
        than the anchor."""
        for offset_s, slot, expected_s in (
            (130e-9, 1, 30e-9), (80e-9, 1, -20e-9),
        ):
            decoded, residual_s = self._decode_offset(4, offset_s)
            assert decoded == slot, offset_s
            assert residual_s == pytest.approx(expected_s, abs=1e-15)

    def test_slot_clamped_past_last_slot(self):
        decoded, residual_s = self._decode_offset(2, 1e-6)
        assert decoded == 1
        assert residual_s == pytest.approx(900e-9, abs=1e-15)
