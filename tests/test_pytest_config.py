"""The test configuration itself: a failing test must not stop the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_leaves_the_run_going(tmp_path):
    # hypothesis imports libcst to report a failing example; under
    # filterwarnings = error a warning from that import used to end the run
    # with INTERNALERROR (exit 3) before any later test ran
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
