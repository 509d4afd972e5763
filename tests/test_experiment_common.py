"""Unit tests for the experiment harness (ExperimentResult etc.)."""

import pytest

from repro.analysis.tables import Table
from repro.experiments.common import Comparison, ExperimentResult


class TestComparison:
    def test_ratio(self):
        assert Comparison("x", measured=2.0, paper=4.0).ratio == 0.5

    def test_ratio_without_paper_value(self):
        assert Comparison("x", measured=2.0).ratio is None

    def test_ratio_zero_paper(self):
        assert Comparison("x", measured=2.0, paper=0.0).ratio is None


class TestExperimentResult:
    def _result(self):
        result = ExperimentResult("Fig. X", "demo experiment")
        result.compare("metric_a", 1.5, paper=2.0, unit="m")
        result.compare("metric_b", 3.0)
        return result

    def test_metric_lookup(self):
        result = self._result()
        assert result.metric("metric_a").measured == 1.5
        assert result.metric("metric_a").paper == 2.0

    def test_metric_missing(self):
        with pytest.raises(KeyError):
            self._result().metric("nope")

    def test_as_dict(self):
        assert self._result().as_dict() == {"metric_a": 1.5, "metric_b": 3.0}

    def test_render_contains_everything(self):
        result = self._result()
        table = Table(["col"], title="inner")
        table.add_row([42])
        result.add_table(table)
        result.note("a caveat")
        text = result.render()
        assert "Fig. X" in text
        assert "inner" in text
        assert "metric_a" in text
        assert "a caveat" in text

    def test_render_dash_for_missing_paper(self):
        text = self._result().render()
        # metric_b has no paper value -> rendered as '-'.
        lines = [l for l in text.splitlines() if "metric_b" in l]
        assert lines and "-" in lines[0]


class TestNewExperimentsSmoke:
    def test_nlos_degrades_monotonically_enough(self):
        from repro.experiments import nlos_study

        result = nlos_study.run(trials=12)
        assert (
            result.metric("id_rate_nlos").measured
            <= result.metric("id_rate_los").measured
        )

    def test_ablation_amplitude_smoke(self):
        from repro.experiments import ablation_amplitude

        result = ablation_amplitude.run(trials=8)
        assert result.metric("plain_rmse_separated").measured < 0.1

    def test_ablation_twr_smoke(self):
        from repro.experiments import ablation_twr

        result = ablation_twr.run(trials=60)
        assert result.metric("ss_compensated_std_m").measured < 0.05
        assert result.metric("ss_raw_abs_bias_m").measured > 0.005


class TestRunVocabulary:
    def test_every_run_takes_keyword_only_parameters(self):
        """The CLI passes each experiment the flags its ``run()``
        signature names, by keyword, plus a ``metrics`` registry: every
        registered ``run()`` takes its parameters keyword-only, and
        takes ``metrics``."""
        import inspect

        from repro.cli import EXPERIMENTS

        for name, module in EXPERIMENTS.items():
            parameters = inspect.signature(module.run).parameters
            assert "metrics" in parameters, name
            for parameter in parameters.values():
                assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                    name, parameter.name,
                )
