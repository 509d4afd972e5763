"""Tests for DS-TWR, the Eq.-behind-it, and the CLI."""

import re

import numpy as np
import pytest

from repro.channel.stochastic import IndoorEnvironment
from repro.cli import EXPERIMENTS, main
from repro.constants import SPEED_OF_LIGHT
from repro.core.ranging import ds_twr_distance
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.twr import DsTwr


def make_dstwr(rng, distance_m=5.0):
    medium = Medium(environment=IndoorEnvironment.office(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responder = Node.at(1, distance_m, 0.0, rng=rng)
    medium.add_nodes([initiator, responder])
    return DsTwr(medium, initiator, responder)


class TestDsTwrFormula:
    def test_ideal_symmetric_exchange(self):
        d = 8.0
        tof = d / SPEED_OF_LIGHT
        reply = 290e-6
        estimate = ds_twr_distance(
            t_round1_s=2 * tof + reply,
            t_reply1_s=reply,
            t_round2_s=2 * tof + reply,
            t_reply2_s=reply,
        )
        assert estimate == pytest.approx(d, abs=1e-6)

    def test_asymmetric_replies_still_exact(self):
        d = 8.0
        tof = d / SPEED_OF_LIGHT
        r1, r2 = 290e-6, 410e-6
        estimate = ds_twr_distance(2 * tof + r1, r1, 2 * tof + r2, r2)
        assert estimate == pytest.approx(d, abs=1e-6)

    def test_drift_immunity_first_order(self):
        """Scale one side's measurements by (1 + 3 ppm): the error stays
        sub-millimetre, unlike SS-TWR's ~dm bias."""
        d = 8.0
        tof = d / SPEED_OF_LIGHT
        reply = 290e-6
        drift = 1 + 3e-6
        estimate = ds_twr_distance(
            t_round1_s=2 * tof + reply,          # initiator clock
            t_reply1_s=reply * drift,            # responder clock
            t_round2_s=(2 * tof + reply) * drift,
            t_reply2_s=reply,
        )
        assert abs(estimate - d) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ds_twr_distance(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ds_twr_distance(0.0, 0.0, 0.0, 0.0)


class TestDsTwrProtocol:
    def test_accuracy(self, rng):
        ds = make_dstwr(rng)
        estimates = ds.run_many(200, rng)
        assert np.mean(estimates) == pytest.approx(5.0, abs=0.02)
        assert np.std(estimates) < 0.04

    def test_no_cfo_needed(self, rng):
        """DS-TWR reaches cm precision with drifting clocks and no
        drift estimate at all."""
        ds = make_dstwr(rng)
        estimates = ds.run_many(150, rng)
        assert abs(np.mean(estimates) - 5.0) < 0.05

    def test_same_node_rejected(self, rng):
        medium = Medium(environment=IndoorEnvironment.office(), rng=rng)
        node = Node.at(0, 0.0, 0.0, rng=rng)
        medium.add_node(node)
        with pytest.raises(ValueError):
            DsTwr(medium, node, node)

    def test_run_many_validation(self, rng):
        with pytest.raises(ValueError):
            make_dstwr(rng).run_many(0, rng)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_one(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "178" in out

    def test_run_with_trials(self, capsys):
        assert main(["run", "sect5", "--trials", "30"]) == 0
        out = capsys.readouterr().out
        assert "30 SS-TWR exchanges" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_covers_all_experiment_modules(self):
        """Every experiments/ module with a run() is reachable by CLI."""
        import pkgutil

        import repro.experiments as package

        modules = {
            name
            for _, name, _ in pkgutil.iter_modules(package.__path__)
            if name != "common"
        }
        registered = {module.__name__.rsplit(".", 1)[-1]
                      for module in EXPERIMENTS.values()}
        assert modules == registered


class TestFlagRouting:
    """Each experiment gets the ``run`` flags its ``run()`` signature
    names; the rest are skipped with one note each."""

    def test_run_skips_flags_the_experiment_does_not_take(
        self, stub_experiment, tmp_path, capsys
    ):
        argv = [
            "run", "stub", "--trials", "3", "--batch-size", "4",
            "--checkpoint", str(tmp_path),
        ]
        assert main(argv) == 0
        assert stub_experiment.calls == [dict(seed=0, workers=1)]
        captured = capsys.readouterr()
        assert "Stub" in captured.out
        notes = captured.err.strip().splitlines()
        assert notes == [
            f"note: stub does not take {flag}; skipped"
            for flag in ("--trials", "--batch-size", "--checkpoint")
        ]

    def test_taken_flags_reach_run(self, stub_experiment, capsys):
        assert main(["run", "stub", "--seed", "9", "--workers", "2"]) == 0
        assert stub_experiment.calls == [dict(seed=9, workers=2)]
        assert capsys.readouterr().err == ""

    def test_list_shows_each_experiments_flags(self, capsys):
        assert main(["list"]) == 0
        lines = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
        }
        assert lines["table1"].endswith(
            "[--trials --seed --workers --batch-size --checkpoint]"
        )
        assert lines["fig3"].endswith("[--seed --workers --checkpoint]")
        assert lines["fig7"].endswith("[--trials --seed --workers]")


class TestCheckpointFlags:
    """``repro run`` applies one fresh-or-resume rule to
    ``--checkpoint DIR [--resume]``."""

    @staticmethod
    def _stale(directory):
        (directory / "stale.shard").write_bytes(b"")
        return str(directory)

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["run", "sect5", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_non_empty_dir_needs_resume(self, tmp_path, capsys):
        argv = ["run", "sect5", "--trials", "4"]
        assert main(argv + ["--checkpoint", self._stale(tmp_path)]) == 2
        assert "is not empty" in capsys.readouterr().err

    def test_resume_proceeds_and_reruns_nothing(self, tmp_path, capsys):
        argv = ["run", "sect5", "--trials", "4", "--checkpoint", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert re.search(r"^  runtime\.trials +0$", resumed, re.M)
        # The results (everything before the metrics report) match.
        assert resumed.split("== runtime")[0] == first.split("== runtime")[0]

        # The chaos sweep keeps one checkpoint per intensity cell: 5 x 2.
        argv = [
            "run", "chaos", "--trials", "2",
            "--checkpoint", str(tmp_path / "chaos"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert re.search(r"^  runtime\.trials +0$", resumed, re.M)
        assert re.search(r"^  runtime\.checkpoint_hits +10$", resumed, re.M)
