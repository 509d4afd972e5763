"""The suite's own configuration: failures report under the CI flags.

CI runs tier-1 with ``-W error::DeprecationWarning``.  A failing
hypothesis test must still print its falsifying example under that flag
(``tests/conftest.py`` imports hypothesis's patch writer, whose
``libcst`` import warns, with only that warning ignored), and every
other DeprecationWarning must stay an error.  A ``-q`` run, the tier-1
and CI command, must still end with pytest's pass/skip totals.
"""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FAILING_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(value):
    assert value < 0


def test_deprecation_is_an_error():
    warnings.warn("still an error", DeprecationWarning)
'''


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="hypothesis writes no patch (and imports no libcst) without it",
)
def test_failing_given_reports_its_example_under_deprecation_errors(
    tmp_path,
):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-W", "error::DeprecationWarning",
            "-p", "no:cacheprovider", "test_failing.py",
        ],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "2 failed" in output


def test_quiet_run_from_the_root_ends_with_its_totals():
    """The repo's pytest config adds no ``-q`` of its own, so the
    tier-1 command's ``-q`` keeps the closing ``N passed`` line."""
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_geometry.py",
        ],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    last = run.stdout.strip().splitlines()[-1]
    assert re.match(r"\d+ passed", last), run.stdout
