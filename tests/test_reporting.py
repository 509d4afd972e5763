"""Unit tests for the markdown report generator and its CLI command."""

import pytest

from repro.analysis.reporting import generate_report
from repro.cli import main


class TestGenerateReport:
    def test_subset(self):
        report = generate_report(names=["fig3"])
        assert "# Concurrent-ranging reproduction report" in report
        assert "Fig. 3" in report
        assert "178" in report

    def test_tables_fenced(self):
        report = generate_report(names=["fig5"])
        assert report.count("```") % 2 == 0
        assert "TC_PGDELAY" in report

    def test_trials_forwarded(self):
        report = generate_report(names=["sect5"], trials=25)
        assert "25 SS-TWR exchanges" in report

    def test_trials_skipped_where_run_takes_none(self, stub_experiment):
        report = generate_report(names=["stub"], trials=3)
        assert "Stub" in report
        assert stub_experiment.calls == [dict(seed=0, workers=1)]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            generate_report(names=["nope"])

    def test_comparison_rows_present(self):
        report = generate_report(names=["fig3"])
        assert "| min_delay_us |" in report


class TestReportCommand:
    def test_stdout(self, capsys):
        assert main(["report", "fig3"]) == 0
        assert "min_delay_us" in capsys.readouterr().out

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "fig3", "-o", str(target)]) == 0
        assert target.exists()
        assert "Fig. 3" in target.read_text()

    def test_unknown_experiment(self, capsys):
        assert main(["report", "bogus"]) == 2
        assert "unknown" in capsys.readouterr().err
