"""Failure-injection and edge-case tests across the stack.

The hand-built scenario classes (``TestMissingResponder``,
``TestBlockedLinks``, ``TestNlosBias``) drive the low-level seams
directly: each checks an exact seam behaviour (for example a fully
blocked room raising in ``image_source_taps``, or the ~8 ns NLOS
first-path bias) that no other test pins.  The ``*ViaFaults`` classes
run the same scenarios end to end through the fault-injection
machinery.
"""

import numpy as np
import pytest

from repro.channel.cir import ChannelRealization, ChannelTap
from repro.channel.geometry import Obstacle, Point, Room, image_source_taps
from repro.constants import (
    CIR_LENGTH_PRF16,
    CIR_LENGTH_PRF64,
    CIR_SAMPLING_PERIOD_S,
    SPEED_OF_LIGHT,
)
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.radio.dw1000 import DW1000Radio, SignalArrival
from repro.radio.frame import Prf, RadioConfig
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse


class TestPrf16Configuration:
    def test_cir_length_follows_prf(self):
        radio64 = DW1000Radio(config=RadioConfig(prf=Prf.PRF_64MHZ))
        radio16 = DW1000Radio(config=RadioConfig(prf=Prf.PRF_16MHZ, tc_pgdelay=0x93))
        assert radio64.cir_length == CIR_LENGTH_PRF64
        assert radio16.cir_length == CIR_LENGTH_PRF16

    def test_explicit_length_overrides(self):
        radio = DW1000Radio(cir_length=512)
        assert radio.cir_length == 512

    def test_longer_preamble_lowers_noise(self):
        short = DW1000Radio(config=RadioConfig(psr=64))
        long = DW1000Radio(config=RadioConfig(psr=1024))
        assert long.noise_std < short.noise_std
        assert long.noise_std == pytest.approx(
            short.noise_std / 4.0, rel=1e-9
        )


class TestMissingResponder:
    def test_gated_detector_reports_fewer_responses(self, rng):
        """Only 2 of an expected 3 responders replied: with the SNR gate
        the detector reports 2 responses, not 3 phantoms."""
        pulse = dw1000_pulse()
        cir = np.zeros(1016, dtype=complex)
        place_pulse(cir, pulse.samples.astype(complex), 200.0, 1e-3)
        place_pulse(cir, pulse.samples.astype(complex), 500.0, 0.8e-3)
        cir += 1e-5 * (
            rng.standard_normal(1016) + 1j * rng.standard_normal(1016)
        ) / np.sqrt(2)
        detector = SearchAndSubtract(
            pulse,
            SearchAndSubtractConfig(max_responses=3, min_peak_snr=8.0),
        )
        responses = detector.detect(cir, CIR_SAMPLING_PERIOD_S, noise_std=1e-5)
        assert len(responses) == 2

    def test_pure_noise_cir_yields_nothing_with_gate(self, rng):
        pulse = dw1000_pulse()
        cir = 1e-5 * (
            rng.standard_normal(1016) + 1j * rng.standard_normal(1016)
        ) / np.sqrt(2)
        detector = SearchAndSubtract(
            pulse, SearchAndSubtractConfig(max_responses=3, min_peak_snr=8.0)
        )
        assert detector.detect(cir, CIR_SAMPLING_PERIOD_S, noise_std=1e-5) == []


class TestBlockedLinks:
    def test_fully_blocked_room_link_raises(self):
        """A wall of zero transmittance across the whole room kills every
        path (LOS and all four reflections)."""
        room = Room(
            10.0,
            5.0,
            obstacles=[Obstacle(4.0, 0.0, 6.0, 5.0, attenuation=0.0)],
        )
        with pytest.raises(ValueError):
            image_source_taps(room, Point(2, 2.5), Point(8, 2.5))

    def test_partial_block_keeps_reflections(self):
        """An obstacle blocking only the LOS corridor leaves wall
        reflections as the surviving paths — an NLOS link."""
        room = Room(
            10.0,
            5.0,
            obstacles=[Obstacle(4.0, 2.0, 6.0, 3.0, attenuation=0.0)],
        )
        taps = image_source_taps(room, Point(2, 2.5), Point(8, 2.5))
        assert all(tap.kind == "reflection" for tap in taps)
        channel = ChannelRealization(taps)
        # First path is now a reflection: ranging would read long.
        direct = Point(2, 2.5).distance_to(Point(8, 2.5))
        assert channel.first_path.delay_s > direct / SPEED_OF_LIGHT


class TestNlosBias:
    def test_first_path_biased_late_without_los(self, rng):
        """Removing the LOS biases the earliest detectable path late —
        the systematic NLOS error the future-work study quantifies."""
        base_delay = 200 * CIR_SAMPLING_PERIOD_S
        taps = [
            ChannelTap(delay_s=base_delay, amplitude=1e-3, kind="los", order=0),
            ChannelTap(
                delay_s=base_delay + 8e-9,
                amplitude=0.7e-3,
                kind="reflection",
            ),
        ]
        radio = DW1000Radio()
        los_channel = ChannelRealization(taps)
        nlos_channel = los_channel.without_los()

        def first_path(channel):
            capture = radio.capture_cir(
                [SignalArrival(channel, dw1000_pulse(), 0.0)], rng
            )
            return capture.rx_timestamp_s

        los_times = [first_path(los_channel) for _ in range(10)]
        nlos_times = [first_path(nlos_channel) for _ in range(10)]
        bias = np.mean(nlos_times) - np.mean(los_times)
        assert bias == pytest.approx(8e-9, abs=1.5e-9)


def _fault_session(faults=None, seed=3, distances=(3.0, 6.0, 10.0)):
    from repro.protocol.concurrent import ConcurrentRangingSession

    return ConcurrentRangingSession.build(
        distances,
        seed=seed,
        detector_config=SearchAndSubtractConfig(
            max_responses=3, min_peak_snr=8.0
        ),
        faults=faults,
    )


class TestMissingResponderViaFaults:
    """Missing-responder scenario expressed through repro.faults.

    ``TestMissingResponder`` above checks the detector seam with a
    hand-built CIR; here a targeted :class:`ResponderDropout` silences
    one responder inside a full session round and the loss is *reported*
    — annotated on the outcome and in the round's fault log — instead of
    surfacing as a phantom identification.
    """

    def test_targeted_dropout_is_annotated_and_unidentified(self):
        from repro.faults import FaultPlan, ResponderDropout

        plan = FaultPlan([ResponderDropout(1.0, responder_ids=[2])], seed=0)
        result = _fault_session(plan).run_resilient_round(start_time_s=0.25)
        by_id = {o.responder_id: o for o in result.outcomes}
        assert "dropout" in by_id[2].faults
        assert by_id[2].faulted
        assert not by_id[2].identified
        assert (2, "dropout") in result.fault_events
        # The other responders still range and identify normally.
        for rid in set(by_id) - {2}:
            assert by_id[rid].identified
            assert not by_id[rid].faulted

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        from repro.faults import FaultPlan

        clean = _fault_session(None).run_round(start_time_s=0.25)
        empty = _fault_session(FaultPlan([], seed=9)).run_round(
            start_time_s=0.25
        )
        assert clean.d_twr_m == empty.d_twr_m
        assert [o.estimated_distance_m for o in clean.outcomes] == [
            o.estimated_distance_m for o in empty.outcomes
        ]
        assert empty.fault_events == ()


class TestBlockedLinksViaFaults:
    """Blocked-LOS scenario expressed through repro.faults.

    ``TestBlockedLinks``/``TestNlosBias`` above drive the geometry and
    radio seams directly; :class:`NlosOnset` produces the same late-read
    bias end-to-end, switching on at a configurable round.
    """

    def _errors(self, faults, n_rounds=8, seed=11):
        session = _fault_session(faults, seed=seed, distances=(5.0,))
        errors = []
        for index in range(n_rounds):
            outcome = session.run_resilient_round(
                start_time_s=0.1, round_index=index
            ).outcomes[0]
            if outcome.error_m is not None:
                errors.append(outcome.error_m)
        return errors

    def test_nlos_onset_biases_ranges_late(self):
        from repro.faults import FaultPlan, NlosOnset

        clean = self._errors(None)
        faulted = self._errors(FaultPlan([NlosOnset(onset_round=0)], seed=1))
        # Clean rounds land within centimetres; losing the LOS locks the
        # leading edge onto a reflection and every range reads long.
        assert abs(np.mean(clean)) < 0.05
        assert len(faulted) >= 1
        assert np.mean(faulted) > 0.1

    def test_onset_round_gates_the_fault(self):
        from repro.faults import FaultPlan, NlosOnset

        session = _fault_session(
            FaultPlan([NlosOnset(onset_round=2)], seed=1),
            seed=11,
            distances=(5.0,),
        )
        pre = session.run_resilient_round(start_time_s=0.1, round_index=0)
        post = session.run_resilient_round(start_time_s=0.1, round_index=2)
        assert all(kind != "nlos_onset" for _, kind in pre.fault_events)
        assert any(kind == "nlos_onset" for _, kind in post.fault_events)
        # Pre-onset the link ranges cleanly.
        assert abs(pre.outcomes[0].error_m) < 0.05


class TestDegenerateGeometry:
    def test_collinear_anchors_flagged_by_gdop(self):
        from repro.localization.multilateration import gdop

        line = [Point(0, 5), Point(5, 5), Point(10, 5)]
        square = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        # Near the anchors' line all bearing vectors are nearly parallel,
        # so the cross-line coordinate is barely constrained.
        assert gdop(line, Point(2.5, 5.05)) > 5 * gdop(square, Point(5, 5))

    def test_multilateration_with_conflicting_ranges_large_residual(self):
        from repro.localization.multilateration import multilaterate

        anchors = [Point(0, 0), Point(10, 0), Point(5, 10)]
        # Ranges inconsistent with any single point.
        fit = multilaterate(anchors, [1.0, 1.0, 1.0])
        assert fit.rms_residual_m > 1.0
