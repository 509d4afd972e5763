"""Unit tests for the time-hopping + CIR-anomaly defense layer."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core.ranging import RangingResult
from repro.faults import EarlyReplyAttacker, FaultPlan
from repro.protocol.campaign import RangingCampaign, ResiliencePolicy
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.protocol.defense import (
    AnomalyDetectorConfig,
    DefensePlan,
    TimeHoppingConfig,
    screen_responses,
    screen_round,
)
from repro.runtime import MetricsRegistry


class TestTimeHoppingConfig:
    def test_eager_validation(self):
        with pytest.raises(ValueError):
            TimeHoppingConfig(hop_range_s=-1e-9)
        with pytest.raises(ValueError):
            TimeHoppingConfig(early_tolerance_s=-1e-9)
        with pytest.raises(ValueError):
            TimeHoppingConfig(late_tolerance_s=float("nan"))
        with pytest.raises(ValueError):
            TimeHoppingConfig(max_range_m=0.0)
        with pytest.raises(ValueError):
            TimeHoppingConfig(secret_seed="not-a-seed")

    def test_tuple_secret_accepted(self):
        config = TimeHoppingConfig(secret_seed=(41, 77))
        assert 0.0 <= config.hop_offset_s(0, 0) < config.hop_range_s

    def test_hop_is_deterministic_and_stateless(self):
        config = TimeHoppingConfig(secret_seed=5, hop_range_s=100e-9)
        assert config.hop_offset_s(3, 1) == config.hop_offset_s(3, 1)
        # A second, independently built config derives the same hops.
        twin = TimeHoppingConfig(secret_seed=5, hop_range_s=100e-9)
        assert twin.hop_offset_s(3, 1) == config.hop_offset_s(3, 1)

    def test_hops_vary_per_round_and_responder(self):
        config = TimeHoppingConfig(secret_seed=5, hop_range_s=100e-9)
        hops = {
            config.hop_offset_s(r, rid)
            for r in range(4)
            for rid in range(4)
        }
        assert len(hops) == 16

    def test_hops_vary_with_secret(self):
        a = TimeHoppingConfig(secret_seed=5, hop_range_s=100e-9)
        b = TimeHoppingConfig(secret_seed=6, hop_range_s=100e-9)
        assert a.hop_offset_s(0, 0) != b.hop_offset_s(0, 0)

    def test_zero_range_disables_hopping(self):
        config = TimeHoppingConfig(secret_seed=5, hop_range_s=0.0)
        assert config.hop_offset_s(7, 2) == 0.0

    def test_window(self):
        config = TimeHoppingConfig(
            early_tolerance_s=10e-9, late_tolerance_s=5e-9, max_range_m=30.0
        )
        lo, hi = config.window_s
        assert lo == -10e-9
        assert hi == pytest.approx(2 * 30.0 / SPEED_OF_LIGHT + 5e-9)


class TestAnomalyDetectorConfig:
    def test_eager_validation(self):
        with pytest.raises(ValueError):
            AnomalyDetectorConfig(dup_min_amplitude_ratio=1.5)
        with pytest.raises(ValueError):
            AnomalyDetectorConfig(min_confidence=0.5)
        with pytest.raises(ValueError):
            AnomalyDetectorConfig(max_tail_peak_ratio=0.0)
        with pytest.raises(ValueError):
            AnomalyDetectorConfig(tail_width_taps=0)
        with pytest.raises(ValueError):
            AnomalyDetectorConfig(peak_halfwidth_taps=-1)

    def test_tail_peak_ratio_decaying_channel(self):
        config = AnomalyDetectorConfig(
            tail_start_taps=4, tail_width_taps=16, peak_halfwidth_taps=1
        )
        samples = np.zeros(64)
        samples[10] = 1.0  # a clean impulse: no tail energy
        assert config.tail_peak_ratio(samples, 10) == 0.0

    def test_tail_peak_ratio_inflated_tail(self):
        config = AnomalyDetectorConfig(
            tail_start_taps=4, tail_width_taps=16, peak_halfwidth_taps=1
        )
        samples = np.zeros(64)
        samples[10] = 1.0
        samples[14:30] = 0.8
        assert config.tail_peak_ratio(samples, 10) > 1.0

    def test_tail_peak_ratio_zero_peak(self):
        config = AnomalyDetectorConfig()
        samples = np.zeros(8)
        assert config.tail_peak_ratio(samples, 0) == 0.0


class TestDefensePlan:
    def test_type_validation(self):
        with pytest.raises(TypeError):
            DefensePlan(time_hopping=object())
        with pytest.raises(TypeError):
            DefensePlan(anomaly=object())

    def test_hop_offset_without_hopping(self):
        assert DefensePlan().hop_offset_s(3, 1) == 0.0


# -- screen_round on synthetic rounds ------------------------------------

PERIOD_S = 1e-9
REPLY_DELAY_S = 1e-3
FIRST_PATH = 100


def _assignment_fn(rid):
    if rid > 15:
        raise ValueError(f"identity {rid} beyond capacity")
    return SimpleNamespace(extra_delay_s=0.0)


def _capture(rx_timestamp_s, n=512):
    samples = np.zeros(n)
    samples[FIRST_PATH] = 1.0
    return SimpleNamespace(
        samples=samples,
        sampling_period_s=PERIOD_S,
        rx_timestamp_s=rx_timestamp_s,
        first_path_index=FIRST_PATH,
    )


def _synthetic_round(hopping, tofs_2way_s, ids, amplitudes=None,
                     round_index=0):
    """A decoded round whose arrivals are *exactly* consistent with the
    secret hops: response ``i`` arrives ``tofs_2way_s[i]`` after its
    expected zero-range instant.  Returns ``(ranging, capture)`` with
    distances carrying the raw (hop-uncorrected) relative offsets, as
    the decoder would produce them."""
    amplitudes = amplitudes or [1.0] * len(ids)
    hops = [hopping.hop_offset_s(round_index, rid) for rid in ids]
    # Anchor the capture timestamp on the first response.
    rx_timestamp_s = REPLY_DELAY_S + hops[0] + tofs_2way_s[0]
    responses = []
    for hop, tof in zip(hops, tofs_2way_s):
        arrival_s = REPLY_DELAY_S + hop + tof
        index = FIRST_PATH + (arrival_s - rx_timestamp_s) / PERIOD_S
        responses.append(SimpleNamespace(index=index, amplitude=1.0))
    for response, amplitude in zip(responses, amplitudes):
        response.amplitude = amplitude
    true_m = [tof * SPEED_OF_LIGHT / 2.0 for tof in tofs_2way_s]
    # The decoder sees each non-anchor response offset by its relative
    # hop; the screen is expected to remove that again.
    distances = tuple(
        d + (hop - hops[0]) * SPEED_OF_LIGHT / 2.0
        for d, hop in zip(true_m, hops)
    )
    ranging = RangingResult(
        d_twr_m=true_m[0],
        responses=tuple(responses),
        distances_m=distances,
        responder_ids=tuple(ids),
    )
    return ranging, _capture(rx_timestamp_s)


def _screen(plan, ranging, capture, round_index=0):
    return screen_round(
        plan,
        ranging=ranging,
        capture=capture,
        t_tx_init_local_s=0.0,
        reply_delay_s=REPLY_DELAY_S,
        assignment_fn=_assignment_fn,
        round_index=round_index,
    )


HOPPING = TimeHoppingConfig(secret_seed=5, hop_range_s=100e-9)


class TestScreenRoundHopVerification:
    def test_legitimate_round_passes(self):
        plan = DefensePlan(time_hopping=HOPPING)
        ranging, capture = _synthetic_round(
            HOPPING, [20e-9, 60e-9], ids=[0, 1]
        )
        screened, report = _screen(plan, ranging, capture)
        assert not report.triggered
        assert report.checked == 2
        assert report.rejected_responses == 0
        assert len(screened.responses) == 2

    def test_dehop_restores_true_distances(self):
        plan = DefensePlan(time_hopping=HOPPING)
        tofs = [20e-9, 60e-9]
        ranging, capture = _synthetic_round(HOPPING, tofs, ids=[0, 1])
        screened, _ = _screen(plan, ranging, capture)
        for distance, tof in zip(screened.distances_m, tofs):
            assert distance == pytest.approx(
                tof * SPEED_OF_LIGHT / 2.0, abs=1e-9
            )

    def test_early_arrival_is_rejected(self):
        plan = DefensePlan(time_hopping=HOPPING)
        # Response 1 arrives 40 ns before its expected zero-range
        # instant — impossible without knowing the secret hop.
        ranging, capture = _synthetic_round(
            HOPPING, [20e-9, -40e-9], ids=[0, 1]
        )
        screened, report = _screen(plan, ranging, capture)
        assert report.triggered
        assert [f.reason for f in report.flags] == ["hop_window"]
        assert report.rejected_ids == (1,)
        assert len(screened.responses) == 1
        assert screened.responder_ids == (0,)

    def test_late_arrival_is_rejected(self):
        plan = DefensePlan(time_hopping=HOPPING)
        late = 2 * HOPPING.max_range_m / SPEED_OF_LIGHT + 50e-9
        ranging, capture = _synthetic_round(
            HOPPING, [20e-9, late], ids=[0, 1]
        )
        _, report = _screen(plan, ranging, capture)
        assert report.rejected_ids == (1,)

    def test_unknown_identity_is_skipped(self):
        plan = DefensePlan(time_hopping=HOPPING)
        ranging, capture = _synthetic_round(
            HOPPING, [20e-9, 60e-9], ids=[0, 99]
        )
        _, report = _screen(plan, ranging, capture)
        # Identity 99 has no slot assignment: not verifiable, not
        # rejected (it already failed identification upstream).
        assert report.checked == 1
        assert not report.triggered

    def test_weak_duplicate_skips_hop_check(self):
        plan = DefensePlan(
            time_hopping=HOPPING,
            anomaly=AnomalyDetectorConfig(dup_min_amplitude_ratio=0.6),
        )
        # The weak second copy of identity 0 is a misread multipath
        # echo: its arrival cannot match identity 0's hop, but it must
        # not raise a hop alarm (amplitude 0.1 of the strong copy).
        ranging, capture = _synthetic_round(
            HOPPING,
            [20e-9, -400e-9],
            ids=[0, 0],
            amplitudes=[1.0, 0.1],
        )
        _, report = _screen(plan, ranging, capture)
        assert report.checked == 1
        assert not report.triggered


class TestScreenRoundAnomalies:
    def test_strong_duplicate_pair_rejected(self):
        plan = DefensePlan(
            anomaly=AnomalyDetectorConfig(dup_min_amplitude_ratio=0.6)
        )
        ranging, capture = _synthetic_round(
            HOPPING, [20e-9, 25e-9], ids=[0, 0], amplitudes=[1.0, 0.9]
        )
        screened, report = _screen(plan, ranging, capture)
        assert {f.reason for f in report.flags} == {"duplicate_id"}
        assert report.rejected_ids == (0,)
        assert len(screened.responses) == 0

    def test_weak_duplicate_group_does_not_fire(self):
        plan = DefensePlan(
            anomaly=AnomalyDetectorConfig(dup_min_amplitude_ratio=0.6)
        )
        ranging, capture = _synthetic_round(
            HOPPING, [20e-9, 25e-9], ids=[0, 0], amplitudes=[1.0, 0.1]
        )
        _, report = _screen(plan, ranging, capture)
        assert not report.triggered

    def test_low_confidence_flagged(self):
        plan = DefensePlan(
            anomaly=AnomalyDetectorConfig(min_confidence=1.2)
        )
        ranging, capture = _synthetic_round(HOPPING, [20e-9], ids=[0])
        ranging.responses[0].confidence = 1.05
        _, report = _screen(plan, ranging, capture)
        assert [f.reason for f in report.flags] == ["low_confidence"]

    def test_inflated_tail_flagged_at_peak_response(self):
        plan = DefensePlan(
            anomaly=AnomalyDetectorConfig(max_tail_peak_ratio=1.5)
        )
        ranging, capture = _synthetic_round(HOPPING, [20e-9], ids=[0])
        # Pump the diffuse tail behind the (single) response peak.
        capture.samples[FIRST_PATH + 4 : FIRST_PATH + 36] = 0.9
        _, report = _screen(plan, ranging, capture)
        assert [f.reason for f in report.flags] == ["tail_energy"]

    def test_physical_profile_passes_tail_check(self):
        plan = DefensePlan(
            anomaly=AnomalyDetectorConfig(max_tail_peak_ratio=1.5)
        )
        ranging, capture = _synthetic_round(HOPPING, [20e-9], ids=[0])
        capture.samples[FIRST_PATH + 4 : FIRST_PATH + 36] = 0.05
        _, report = _screen(plan, ranging, capture)
        assert not report.triggered

    def test_serve_screen_agrees_with_session_screen(self):
        """The serve-side screen raises the same CIR-only flags as the
        session screen, unattributed (no identities on the serve path)."""
        plan = DefensePlan(
            anomaly=AnomalyDetectorConfig(
                min_confidence=1.2, max_tail_peak_ratio=1.5
            )
        )
        for low_confidence, inflated_tail, reasons in (
            (True, False, ["low_confidence"]),
            (False, True, ["tail_energy"]),
            (True, True, ["low_confidence", "tail_energy"]),
        ):
            ranging, capture = _synthetic_round(HOPPING, [20e-9], ids=[0])
            if low_confidence:
                ranging.responses[0].confidence = 1.05
            if inflated_tail:
                capture.samples[FIRST_PATH + 4 : FIRST_PATH + 36] = 0.9
            _, report = _screen(plan, ranging, capture)
            served = screen_responses(
                plan, capture.samples, ranging.responses
            )
            assert [f.reason for f in report.flags] == reasons
            assert [(f.reason, f.value) for f in served] == [
                (f.reason, f.value) for f in report.flags
            ]
            assert all(f.responder_id is None for f in served)


# -- session and campaign integration ------------------------------------

DEFENSE = DefensePlan(
    time_hopping=TimeHoppingConfig(secret_seed=(41, 77), hop_range_s=500e-9),
    anomaly=AnomalyDetectorConfig(
        dup_min_amplitude_ratio=0.6, max_tail_peak_ratio=1.5
    ),
)


def _session(seed=7, faults=None, defense=None):
    return ConcurrentRangingSession.build(
        [3.0, 6.0], n_shapes=2, seed=seed, faults=faults, defense=defense
    )


class TestSessionIntegration:
    def test_defense_off_reports_none(self):
        result = _session().run_round(round_index=0)
        assert result.defense is None

    def test_rejects_wrong_defense_type(self):
        with pytest.raises(TypeError):
            _session(defense=object())

    def test_defended_clean_round_reports(self):
        result = _session(defense=DEFENSE).run_round(round_index=0)
        assert result.defense is not None
        assert result.defense.checked >= 1

    def test_hopless_defense_is_transparent(self):
        """hop_range 0 + no anomaly checks: the defended session must be
        byte-identical to an undefended one (the hop adds 0.0 to every
        reply and the screen rejects nothing)."""
        transparent = DefensePlan(
            time_hopping=TimeHoppingConfig(secret_seed=1, hop_range_s=0.0)
        )
        reference = _session(seed=29).run_round(round_index=0)
        result = _session(seed=29, defense=transparent).run_round(
            round_index=0
        )
        assert np.array_equal(
            result.capture.samples, reference.capture.samples
        )
        assert result.d_twr_m == reference.d_twr_m
        assert [o.estimated_distance_m for o in result.outcomes] == [
            o.estimated_distance_m for o in reference.outcomes
        ]
        assert result.defense is not None
        assert not result.defense.triggered

    @staticmethod
    def _scheme_id_session(scheme_ids, n_slots, hop_range_s=60e-9):
        return ConcurrentRangingSession.build(
            [3.0, 6.0, 10.0],
            n_slots=n_slots,
            n_shapes=3,
            seed=2,
            compensate_tx_quantization=True,
            scheme_ids=scheme_ids,
            defense=DefensePlan(
                time_hopping=TimeHoppingConfig(
                    secret_seed=1, hop_range_s=hop_range_s
                )
            ),
        )

    @pytest.mark.parametrize(
        "scheme_ids, n_slots", [([5, 6, 7], 4), ([2, 0, 1], 1)]
    )
    def test_hops_key_on_scheme_codes(self, scheme_ids, n_slots):
        """Responders hop by their scheme code, and the screen looks the
        decoded code up in the scheme and de-hops by it (codes beyond
        the responder count included): nothing is flagged, and the
        de-hopped distances are a hopless round's."""
        hopped = self._scheme_id_session(scheme_ids, n_slots).run_round()
        hopless = self._scheme_id_session(
            scheme_ids, n_slots, hop_range_s=0.0
        ).run_round()
        assert not hopped.defense.triggered
        for outcome, reference in zip(hopped.outcomes, hopless.outcomes):
            assert outcome.identified and reference.identified
            assert outcome.estimated_distance_m == pytest.approx(
                reference.estimated_distance_m, abs=0.1
            )

    def test_early_reply_detected(self):
        faults = FaultPlan([EarlyReplyAttacker(advance_s=40e-9)], seed=5)
        session = _session(seed=31, faults=faults, defense=DEFENSE)
        detected = 0
        for round_index in range(5):
            result = session.run_round(round_index=round_index)
            detected += result.defense.triggered
        assert detected >= 4


class TestCampaignCounters:
    def _campaign(self, session, metrics=None):
        return RangingCampaign(
            session,
            round_interval_s=0.05,
            resilience=ResiliencePolicy(
                quorum_fraction=0.0,
                max_round_retries=0,
                quarantine_after=3,
                seed=(1, 7),
            ),
            metrics=metrics,
        )

    def test_attacked_defended_campaign_counts_detections(self):
        metrics = MetricsRegistry()
        faults = FaultPlan([EarlyReplyAttacker(advance_s=40e-9)], seed=5)
        session = _session(seed=37, faults=faults, defense=DEFENSE)
        result = self._campaign(session, metrics).run(6)
        assert result.attacked_rounds == 6
        assert result.detected_rounds >= 5
        assert result.false_positive_rounds == 0
        assert metrics.counter("faults.attacks_injected").value > 0
        assert (
            metrics.counter("defense.detected").value
            == result.detected_rounds
        )

    def test_clean_defended_campaign_counts_false_positives(self):
        metrics = MetricsRegistry()
        session = _session(seed=37, defense=DEFENSE)
        result = self._campaign(session, metrics).run(6)
        assert result.attacked_rounds == 0
        assert result.detected_rounds == 0
        triggered = sum(
            1
            for round_result in result.rounds
            if round_result.defense.triggered
        )
        assert result.false_positive_rounds == triggered
        assert (
            metrics.counter("defense.false_positives").value == triggered
        )

    def test_undefended_campaign_counts_attacks_only(self):
        faults = FaultPlan([EarlyReplyAttacker(advance_s=40e-9)], seed=5)
        session = _session(seed=37, faults=faults)
        result = self._campaign(session).run(4)
        assert result.attacked_rounds == 4
        assert result.detected_rounds == 0
        assert result.false_positive_rounds == 0

    def test_rejected_attacker_gets_quarantined(self):
        """A persistently rejected responder reads as missing and flows
        into the existing quarantine machinery."""
        faults = FaultPlan(
            [EarlyReplyAttacker(advance_s=40e-9, responder_ids=(0,))],
            seed=5,
        )
        session = _session(seed=43, faults=faults, defense=DEFENSE)
        result = self._campaign(session).run(8)
        assert 0 in result.quarantined_responders
