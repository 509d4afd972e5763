"""Tests for INIT frame loss in the concurrent session.

INIT loss is the :class:`~repro.faults.PollLoss` injector: a responder
that misses the INIT broadcast (frame loss, deep fade) never learns
about the round and stays silent, so it does not appear in the CIR.
"""

import pytest

from repro.core.detection import SearchAndSubtractConfig
from repro.faults import FaultPlan, PollLoss
from repro.protocol.concurrent import ConcurrentRangingSession


def build_session(loss, seed=88, gate=6.0):
    return ConcurrentRangingSession.build(
        responder_distances_m=[3.0, 6.0, 9.0],
        n_shapes=3,
        seed=seed,
        faults=FaultPlan([PollLoss(loss)], seed=seed),
        compensate_tx_quantization=True,
        detector_config=SearchAndSubtractConfig(
            max_responses=3, upsample_factor=8, min_peak_snr=gate
        ),
    )


class TestInitLoss:
    def test_zero_loss_all_respond(self):
        session = build_session(0.0)
        result = session.run_round()
        assert len(result.capture.arrivals) == 3

    def test_lossy_rounds_have_missing_responders(self):
        session = build_session(0.4)
        arrival_counts = []
        for _ in range(25):
            try:
                arrival_counts.append(len(session.run_round().capture.arrivals))
            except RuntimeError:
                arrival_counts.append(0)  # everyone missed the INIT
        assert min(arrival_counts) < 3
        assert max(arrival_counts) <= 3

    def test_loss_rate_roughly_matches(self):
        session = build_session(0.3)
        total, present = 0, 0
        for _ in range(40):
            total += 3
            try:
                present += len(session.run_round().capture.arrivals)
            except RuntimeError:
                pass  # all three lost: zero arrivals this round
        observed_loss = 1.0 - present / total
        assert observed_loss == pytest.approx(0.3, abs=0.12)

    def test_silent_responder_rarely_identified(self):
        """A responder that stayed silent is almost never credited with
        a correct identification.  (The detector may still extract a
        present responder's multipath component as an extra peak — the
        paper's challenge IV — but the ID decode then collides with the
        present responder and the silent one stays unidentified.)"""
        session = build_session(0.5)
        missing_total, missing_identified = 0, 0
        for _ in range(40):
            try:
                result = session.run_round()
            except RuntimeError:
                continue
            present = {a.source_id for a in result.capture.arrivals}
            for outcome in result.outcomes:
                if outcome.responder_id not in present:
                    missing_total += 1
                    missing_identified += outcome.identified
        assert missing_total > 0
        assert missing_identified / missing_total < 0.3

    def test_truth_still_covers_all_responders(self):
        session = build_session(0.5)
        for _ in range(20):
            try:
                result = session.run_round()
            except RuntimeError:
                continue
            assert len(result.outcomes) == 3
            return
        pytest.fail("no round with at least one arrival in 20 attempts")

    def test_all_lost_raises(self):
        session = build_session(0.99, seed=3)
        with pytest.raises(RuntimeError):
            for _ in range(200):
                session.run_round()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            PollLoss(1.5)
        with pytest.raises(ValueError):
            PollLoss(-0.1)
