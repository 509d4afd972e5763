"""Unit tests for CIR alignment (Sect. IV step 1) and messages."""

import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core.alignment import distance_axis
from repro.core.detection import DetectedResponse
from repro.core.ranging import concurrent_distances
from repro.protocol.messages import (
    INIT_PAYLOAD_BYTES,
    RESP_PAYLOAD_BYTES,
    InitMessage,
    RespMessage,
)


class TestDistanceAxis:
    def test_anchor_maps_to_dtwr(self):
        axis = distance_axis(100, 1e-9, first_peak_index=40.0, d_twr_m=3.0)
        assert axis[40] == pytest.approx(3.0)

    def test_half_rate_slope(self):
        """1 ns per tap -> c/2 per tap of distance (Eq. 4)."""
        axis = distance_axis(100, 1e-9, 0.0, 0.0)
        assert axis[1] - axis[0] == pytest.approx(1e-9 * SPEED_OF_LIGHT / 2)

    def test_length(self):
        assert len(distance_axis(256, 1e-9, 0.0, 0.0)) == 256

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            distance_axis(0, 1e-9, 0.0, 0.0)

    def test_fractional_anchor(self):
        axis = distance_axis(10, 1e-9, 4.5, 5.0)
        mid = (axis[4] + axis[5]) / 2
        assert mid == pytest.approx(5.0)


class TestAlignResponses:
    def test_matches_concurrent_distances(self):
        """Read at each response's tap, the axis anchored on the
        earliest response gives its :func:`concurrent_distances` value."""
        responses = [
            DetectedResponse(index=140.0, delay_s=140e-9, amplitude=0.5),
            DetectedResponse(index=100.0, delay_s=100e-9, amplitude=1.0),
        ]
        axis = distance_axis(256, 1e-9, first_peak_index=100.0, d_twr_m=3.0)
        assert concurrent_distances(3.0, responses) == pytest.approx(
            [axis[100], axis[140]]
        )

    def test_empty(self):
        assert concurrent_distances(3.0, []) == []


class TestMessages:
    def test_init_size(self):
        assert InitMessage(initiator_id=1).size_bytes == INIT_PAYLOAD_BYTES

    def test_resp_size(self):
        message = RespMessage(responder_id=2, t_rx_local_s=1.0, t_tx_local_s=1.0003)
        assert message.size_bytes == RESP_PAYLOAD_BYTES

    def test_reply_time(self):
        message = RespMessage(responder_id=2, t_rx_local_s=1.0, t_tx_local_s=1.00029)
        assert message.reply_time_s == pytest.approx(290e-6)

    def test_resp_larger_than_init(self):
        """RESP carries two 40-bit timestamps, so it is strictly larger."""
        assert RESP_PAYLOAD_BYTES > INIT_PAYLOAD_BYTES
