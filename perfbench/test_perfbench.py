"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest perfbench`. They use
the smoke mode, which shrinks every workload to a tiny size, so they check
the result schema, the output checks and reproducibility, never speed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402


def smoke(seed: int, trace: int, cwd: Path = BENCH_DIR.parent):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "all", "--smoke",
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def records(stdout: str) -> list:
    return [json.loads(ln[len("# record "):]) for ln in stdout.splitlines() if ln.startswith("# record ")]


def test_counts_and_digests_repeat_on_one_seed():
    first, second = smoke(5, 1), smoke(5, 1)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    a, b = records(first.stdout), records(second.stdout)
    assert [r["workload"] for r in a] == ["convergence", "breakdown-d100", "verify-sweep"]
    for ra, rb in zip(a, b):
        assert ra["counts"] == rb["counts"]
        assert ra["digests"] and ra["digests"] == rb["digests"]
    by_name = {r["workload"]: r["counts"] for r in a}
    assert by_name["convergence"]["optimizer.l1.updates"] > 0
    assert by_name["breakdown-d100"]["optimizer.huber_x30.updates"] > 0
    assert by_name["verify-sweep"]["analytic.evals"] > 0
    assert by_name["verify-sweep"]["optimizer.l1.updates"] == 0


def test_second_seed_has_no_failed_operations():
    proc = smoke(17, 0)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] > 0, name
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for record in records(proc.stdout):
        assert record["ops_failed"] == 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke(1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _write_run(out: Path, values) -> None:
    out.mkdir()
    (out / "breakdown.csv").write_text(
        "# experiment=breakdown\neta,l1,l2\n" + "".join(f"{e!r},{a!r},{b!r}\n" for e, a, b in values)
    )
    (out / "manifest.csv").write_text(
        f"kind,name,value\ncell,eta=0.2/rep0,1\nfile,breakdown.csv,{checks.file_digest(out / 'breakdown.csv')}\n"
    )


def test_breakdown_check_passes_a_sound_table(tmp_path):
    _write_run(tmp_path / "ok", [(0.2, 0.1, 50.0), (0.5, 0.3, 90.0)])
    outcome = checks.check_breakdown(tmp_path / "ok", 0, (0.2, 0.5), ("l1", "l2"))
    assert (outcome.attempted, outcome.failed, outcome.problems) == (4, 0, [])
    assert outcome.cells == 1 and outcome.l1_err_h == [0.1, 0.3]


@pytest.mark.parametrize(
    "values, code, failed",
    [
        ([(0.2, math.nan, 50.0), (0.5, 0.3, 90.0)], 0, 1),  # a silent NaN record
        ([(0.2, 0.1, 50.0), (0.5, 95.0, 90.0)], 0, 1),  # L1 not below L2
        ([(0.2, 0.1, 50.0), (0.5, 0.3, 90.0)], 1, 4),  # non-zero exit fails every entry
    ],
)
def test_breakdown_check_flags_faults(tmp_path, values, code, failed):
    _write_run(tmp_path / "bad", values)
    outcome = checks.check_breakdown(tmp_path / "bad", code, (0.2, 0.5), ("l1", "l2"))
    assert outcome.failed == failed and outcome.problems


def test_manifest_check_flags_a_changed_file(tmp_path):
    _write_run(tmp_path / "run", [(0.2, 0.1, 50.0)])
    with open(tmp_path / "run" / "breakdown.csv", "a") as fh:
        fh.write("# edited\n")
    outcome = checks.check_breakdown(tmp_path / "run", 0, (0.2,), ("l1", "l2"))
    assert outcome.failed == outcome.attempted == 2
    assert any("digest" in p for p in outcome.problems)


def test_verify_check_needs_a_passing_suite_line(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    for path, status, suite in ((good, "pass", "pass"), (bad, "fail", "fail")):
        path.mkdir()
        (path / "verify_report.csv").write_text(f"# seed=1\nmc_loss[clean],{status},0.5\n# suite={suite}\n")
    assert checks.check_verify(good, 0).failed == 0
    outcome = checks.check_verify(bad, 1)
    assert outcome.failed == outcome.attempted == 1 and outcome.checks_failed == 1
