"""The hand-run scripts `tests/headroom.py` and `tests/mc_calibration.py` run on one seed and report.

Each runs in its own process: `headroom` reassigns `test_acceptance`'s seeds
and its `_report`, which would otherwise leak into the rest of the session.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    ("argv", "summary"),
    [
        (
            ["headroom.py", "--seeds", "1000", "--only", "6", "7", "9"],
            [r"# seeds 1000:1001 \(1\); quantiles", *(rf"criterion 0{k}: .*; limit .*; fail 0 of 1" for k in (6, 7, 9))],
        ),
        (
            ["mc_calibration.py", "--seeds", "6000"],
            [r"# seeds 6000:6001 \(1\); \d+ z values", r"mean z\^2 \S+ \(1 expected\)", r"\|z\| > 3: \d+ \(expected",
             r"\|z\| > 4: \d+ \(expected"],
        ),
        (
            ["mc_calibration.py", "--group", "moment_bounds", "--seeds", "6000"],
            [r"# seeds 6000:6001 \(1\); quantiles", r"moment_bounds\.second: z .*; above 3: \d+",
             r"moment_bounds\.fourth: z .*; above 3: \d+"],
        ),
    ],
    ids=["headroom", "mc_loss", "moment_bounds"],
)
def test_a_hand_run_tool_prints_its_summary(argv, summary):
    done = subprocess.run([sys.executable, str(TESTS / argv[0]), *argv[1:]], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == len(summary), done.stdout
    for line, pattern in zip(lines, summary):
        assert re.match(pattern, line), (pattern, line)
