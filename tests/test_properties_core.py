"""Property-based tests (hypothesis) for the core algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.constants import SPEED_OF_LIGHT
from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtract,
    SearchAndSubtractConfig,
)
from repro.core.pulse_id import ClassifiedResponse
from repro.core.ranging import concurrent_distances, twr_distance_compensated
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

_PULSE = dw1000_pulse()
_DETECTOR = SearchAndSubtract(
    _PULSE, SearchAndSubtractConfig(max_responses=1, upsample_factor=8)
)


class TestDetectionProperties:
    @given(
        position=st.floats(min_value=100.0, max_value=900.0),
        amp_db=st.floats(min_value=-30.0, max_value=0.0),
        phase=st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_pulse_always_found(self, position, amp_db, phase):
        """Detection is amplitude-agnostic over a 30 dB range (the
        paper's challenge-IV requirement)."""
        amplitude = 10 ** (amp_db / 20.0) * np.exp(1j * phase)
        cir = np.zeros(1016, dtype=complex)
        place_pulse(cir, _PULSE.samples.astype(complex), position, amplitude)
        response = _DETECTOR.detect(cir, TS)[0]
        assert response.index == pytest.approx(position, abs=0.15)
        assert abs(response.amplitude) == pytest.approx(abs(amplitude), rel=0.05)

    @given(
        p1=st.floats(min_value=100.0, max_value=400.0),
        gap=st.floats(min_value=30.0, max_value=400.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_two_separated_pulses_ordered(self, p1, gap):
        detector = SearchAndSubtract(
            _PULSE, SearchAndSubtractConfig(max_responses=2)
        )
        cir = np.zeros(1016, dtype=complex)
        place_pulse(cir, _PULSE.samples.astype(complex), p1, 1.0)
        place_pulse(cir, _PULSE.samples.astype(complex), p1 + gap, 0.5)
        responses = detector.detect(cir, TS)
        assert responses[0].delay_s <= responses[1].delay_s
        assert responses[0].index == pytest.approx(p1, abs=0.2)


class TestRangingProperties:
    @given(
        distance=st.floats(min_value=0.1, max_value=100.0),
        drift_ppm=st.floats(min_value=-5.0, max_value=5.0),
        reply_us=st.floats(min_value=100.0, max_value=1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_compensated_twr_exact_for_known_drift(
        self, distance, drift_ppm, reply_us
    ):
        tof = distance / SPEED_OF_LIGHT
        reply_true = reply_us * 1e-6
        reply_measured = reply_true * (1 + drift_ppm * 1e-6)
        estimate = twr_distance_compensated(
            0.0, 2 * tof + reply_true, 1.0, 1.0 + reply_measured, drift_ppm
        )
        assert estimate == pytest.approx(distance, abs=1e-4)

    @given(
        d_twr=st.floats(min_value=0.5, max_value=50.0),
        extras=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_concurrent_distances_monotone(self, d_twr, extras):
        """Later responses always decode to larger-or-equal distances."""
        base = 100e-9
        responses = [
            DetectedResponse(index=0.0, delay_s=base + extra * 1e-9, amplitude=1.0)
            for extra in extras
        ]
        distances = concurrent_distances(d_twr, responses)
        assert distances == sorted(distances)
        assert distances[0] == pytest.approx(d_twr)

    @given(
        d_twr=st.floats(min_value=0.5, max_value=50.0),
        extra_ns=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_eq4_half_rate(self, d_twr, extra_ns):
        """1 ns of CIR delay difference = c/2 of distance (Eq. 4)."""
        responses = [
            DetectedResponse(index=0.0, delay_s=0.0, amplitude=1.0),
            DetectedResponse(index=0.0, delay_s=extra_ns * 1e-9, amplitude=1.0),
        ]
        distances = concurrent_distances(d_twr, responses)
        assert distances[1] - distances[0] == pytest.approx(
            extra_ns * 1e-9 * SPEED_OF_LIGHT / 2.0, rel=1e-9
        )


class TestSchemeProperties:
    @given(
        n_slots=st.integers(min_value=1, max_value=8),
        n_shapes=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_assignment_roundtrip(self, n_slots, n_shapes):
        """decode(assign(id)) == id over the whole capacity."""
        scheme = CombinedScheme(
            SlotPlan(n_slots=n_slots, slot_duration_s=100e-9),
            TemplateBank.paper_bank(n_shapes) if n_shapes <= 4
            else TemplateBank.spread(n_shapes),
        )
        for responder_id in range(scheme.capacity):
            a = scheme.assignment(responder_id)
            assert scheme.decode_id(a.slot, a.shape_index) == responder_id

    @given(
        n_slots=st.integers(min_value=1, max_value=10),
        offset_ns=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_slot_residual_consistency(self, n_slots, offset_ns):
        """slot * duration + residual always reconstructs the offset.

        Offsets are to the anchor, which is always the earliest
        response, so they are never negative."""
        scheme = CombinedScheme(
            SlotPlan(n_slots=n_slots, slot_duration_s=100e-9),
            TemplateBank.paper_bank(1),
        )
        offset = offset_ns * 1e-9
        anchor, other = (
            ClassifiedResponse(
                response=DetectedResponse(
                    index=0.0, delay_s=delay_s, amplitude=1.0
                ),
                shape_index=0,
                confidence=2.0,
            )
            for delay_s in (100e-9, 100e-9 + offset)
        )
        d_twr = 3.0
        result = scheme.decode_responses([anchor, other], d_twr)
        # One shape: the decoded responder ID is the slot index.
        slot = result.responder_ids[1]
        residual = 2 * (result.distances_m[1] - d_twr) / SPEED_OF_LIGHT
        assert slot * 100e-9 + residual == pytest.approx(offset, abs=1e-15)
        assert 0 <= slot < n_slots
