"""The repository's pytest configuration reports a failing test instead of aborting the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_fails_without_stopping_the_run(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout[-2000:]
    assert "1 failed, 1 passed" in done.stdout
