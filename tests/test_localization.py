"""Unit + integration tests for the localization subpackage."""

from functools import partial

import numpy as np
import pytest

from repro.channel.geometry import Point
from repro.experiments import localization_exp
from repro.localization.anchors import AnchorNetwork
from repro.localization.multilateration import (
    gdop,
    multilaterate,
    multilaterate_robust,
)
from repro.runtime import run_trials

SQUARE = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]


def ranges_from(anchors, position, noise=None, rng=None):
    distances = [position.distance_to(a) for a in anchors]
    if noise:
        distances = [d + float(rng.normal(0, noise)) for d in distances]
    return distances


class TestMultilaterate:
    def test_exact_recovery(self):
        truth = Point(3.0, 7.0)
        fit = multilaterate(SQUARE, ranges_from(SQUARE, truth))
        assert fit.position.distance_to(truth) < 1e-6
        assert fit.converged

    def test_noisy_recovery(self, rng):
        truth = Point(6.0, 4.0)
        fit = multilaterate(SQUARE, ranges_from(SQUARE, truth, 0.05, rng))
        assert fit.position.distance_to(truth) < 0.2

    def test_three_anchors_minimum(self):
        truth = Point(4.0, 4.0)
        anchors = SQUARE[:3]
        fit = multilaterate(anchors, ranges_from(anchors, truth))
        assert fit.position.distance_to(truth) < 1e-5

    def test_two_anchors_rejected(self):
        with pytest.raises(ValueError):
            multilaterate(SQUARE[:2], [1.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            multilaterate(SQUARE, [1.0, 2.0])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            multilaterate(SQUARE, [1.0, -2.0, 3.0, 4.0])

    def test_initial_guess_honoured(self):
        truth = Point(2.0, 2.0)
        fit = multilaterate(
            SQUARE, ranges_from(SQUARE, truth), initial=Point(2.1, 2.1)
        )
        assert fit.position.distance_to(truth) < 1e-6
        assert fit.iterations <= 10

    def test_residuals_reported(self, rng):
        truth = Point(5.0, 5.0)
        fit = multilaterate(SQUARE, ranges_from(SQUARE, truth, 0.1, rng))
        assert len(fit.residuals_m) == 4
        assert fit.rms_residual_m < 0.5


class TestRobust:
    def test_outlier_tolerated(self):
        """One range off by 3 m barely moves the Huber fix."""
        truth = Point(5.0, 5.0)
        distances = ranges_from(SQUARE, truth)
        distances[0] += 3.0
        plain = multilaterate(SQUARE, distances)
        robust = multilaterate_robust(SQUARE, distances)
        assert robust.position.distance_to(truth) < plain.position.distance_to(
            truth
        )
        assert robust.position.distance_to(truth) < 0.5

    def test_clean_data_unaffected(self):
        truth = Point(3.0, 8.0)
        distances = ranges_from(SQUARE, truth)
        robust = multilaterate_robust(SQUARE, distances)
        assert robust.position.distance_to(truth) < 1e-5

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            multilaterate_robust(SQUARE, [1.0] * 4, huber_delta_m=0.0)


class TestGdop:
    def test_good_geometry_low_gdop(self):
        assert gdop(SQUARE, Point(5.0, 5.0)) < 2.0

    def test_collinear_anchors_high_gdop(self):
        line = [Point(0, 0), Point(5, 0), Point(10, 0)]
        assert gdop(line, Point(5.0, 5.0)) > gdop(SQUARE, Point(5.0, 5.0))

    def test_needs_three_anchors(self):
        with pytest.raises(ValueError):
            gdop(SQUARE[:2], Point(5, 5))

    def test_position_on_anchor_rejected(self):
        with pytest.raises(ValueError):
            gdop(SQUARE, Point(0, 0))


class TestAnchorNetwork:
    def test_locate_accuracy(self):
        network = AnchorNetwork(SQUARE, seed=11)
        fix = network.locate(Point(4.0, 6.0))
        assert fix.error_m < 0.3
        assert fix.anchors_used >= 3

    def test_track_returns_fix_per_waypoint(self):
        network = AnchorNetwork(SQUARE, seed=12)
        fixes = network.track([Point(3, 3), Point(5, 5)])
        assert len(fixes) == 2

    def test_too_few_anchors_rejected(self):
        with pytest.raises(ValueError):
            AnchorNetwork(SQUARE[:2])

    def test_capacity_check(self):
        with pytest.raises(ValueError):
            AnchorNetwork(SQUARE, n_slots=1, n_shapes=2)


class TestInsufficientAnchors:
    def test_short_round_is_an_invalid_fix_not_an_aborted_run(self):
        """Waypoint 8 of the seed-43, 16-waypoint path identifies two
        anchors; that waypoint is one invalid fix, the run goes on."""
        report = run_trials(
            partial(localization_exp._trial, n_waypoints=16), 16, seed=43
        )
        short = [row for row in report.values if row[2] < 3]
        assert len(short) == 1
        error_m, residual_m, anchors_used, _ = short[0]
        assert np.isnan(error_m)
        assert residual_m == np.inf
        assert anchors_used == 2.0
        result = localization_exp.run(trials=16)
        assert result.metric("valid_fix_rate").measured == 15 / 16
        assert result.metric("median_error_m").measured < 0.25
