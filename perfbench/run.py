"""Benchmark runner for streamrobust.

Usage (from the repository root):

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --smoke --seed 1 --seconds 0 --trace 1

Each workload runs in fresh Python child processes through the public entry
`streamrobust.cli.main`, with BLAS threads capped at 1. Children are started
one after another, all on the same seeded inputs, until `--seconds` have
passed and at least MIN_CHILDREN have run; timings are medians over them.
`--trace 0` prints the end-to-end metrics, `--trace 1` runs an untraced and
a traced child in turn and prints the per-layer metrics of the traced child
whose wall time is the median.

The 2-vCPU virtual machine this benchmark was tuned on is shared, and its
speed swings by up to 2x, often within a second, so raw times change by
10-38 % from one run to the next. Each child therefore times a fixed
reference loop right before and right after its calls, and the end-to-end
`wall_s` and `setup_s` are reference-speed seconds: the measured time
scaled by REF_SECONDS over that loop's mean time, i.e. the time the work
would take on a machine where the loop takes REF_SECONDS. The raw times are
still printed and recorded.

Every call's outputs are checked; the last
stdout line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`, whose names and units are those listed in BENCHMARK.json.
`--smoke` shrinks every workload to a tiny size; it checks the result schema
and the outputs but asserts no speed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402

MIN_CHILDREN = 3
REF_SECONDS = 0.1  # nominal time of one reference loop; about its unloaded time here
START_LIMIT_S = 150.0  # no child starts that would end after this
KILL_LIMIT_S = 170.0  # a child still running then is killed: a run ends within 180 s
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ESTIMATORS = ("l1", "l2", "huber", "huber_x30", "oracle")
DATAGEN_FNS = ("sample_stream", "inject_outliers", "multi_pass_stream", "tiered_contamination", "sample_arrays")
CHECK_GROUPS = (
    "mc_loss", "gradient_fd", "hessian_fd", "scale_drift",
    "error_loss_link", "avg_iterate_bound", "scalar_inequalities", "moment_bounds",
)
LAYERS = ("cli", "bench", "datagen", "optimizer", "analytic", "verify")

# Each workload keeps the shape of a default CLI run at a size that lets a
# run repeat it many times; see NOTES.md for why each one exists. The
# reference loop is the one whose slow phases track the workload's hot path:
# per-row Python loops for the engine, large vector passes for verify.
WORKLOADS = {
    "convergence": {
        "kind": "convergence",
        "config": {
            "n_samples": 5000, "dim": 10, "sigma": 1.0, "eta": 0.2, "passes": 5,
            "replications": 1, "losses": ("l1", "l2", "huber", "oracle"),
            "covariances": ("identity", "spectrum"), "preset": "tiered", "huber_tau": 1.0,
        },
        "reference": "rows",
        "smoke": {"n_samples": 200},
    },
    "breakdown-d100": {
        "kind": "breakdown",
        "config": {
            "n_samples": 10000, "dim": 100, "sigma": 1.0, "eta_grid": (0.2, 0.5, 0.8), "passes": 1,
            "replications": 1, "estimators": ESTIMATORS, "covariance": "identity",
            "preset": "tiered", "huber_tau": 1.0,
        },
        "reference": "rows",
        "smoke": {"n_samples": 300},
    },
    "verify-sweep": {
        "kind": "verify",
        "config": {"seeds": 4},
        "reference": "vector",
        "smoke": {"seeds": 1},
    },
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


# ---------------------------------------------------------------------------
# environment record


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu() -> dict:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read(Path("/proc/cpuinfo")).splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}{kind[0].lower() if kind in ('Data', 'Instruction') else ''}"] = size
    return {"model": model, "caches": caches}


def environment(seed: int, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        **versions,
        "git_sha": _git_sha(),
        "seed": seed,
        "thread_caps": THREAD_CAPS,
    }


# ---------------------------------------------------------------------------
# workloads


def _ini_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _plan(kind: str, cfg: dict, seed: int, run_dir: Path, child_dir: Path, trace: bool):
    """The child's timed calls, its traced-only group calls, and their checks."""
    out = child_dir / "out"
    if kind == "verify":
        calls = [
            ["verify", "--seed", str(seed + i), "--out", str(out / f"seed{seed + i}")]
            for i in range(cfg["seeds"])
        ]
        checked = [(checks.check_verify, Path(c[-1])) for c in calls]
        groups = {}
        if trace:
            groups = {
                g: ["verify", "--seed", str(seed), "--only", g, "--out", str(child_dir / "groups" / g)]
                for g in CHECK_GROUPS
            }
        return calls, groups, checked
    ini = run_dir / "workload.ini"
    argv = [kind, "--config", str(ini), "--seed", str(seed), "--jobs", "1", "--out", str(out)]
    if kind == "convergence":
        check = functools.partial(checks.check_convergence, losses=cfg["losses"], covariances=cfg["covariances"])
    else:
        check = functools.partial(checks.check_breakdown, etas=cfg["eta_grid"], estimators=cfg["estimators"])
    return [argv], {}, [(check, out)]


def _write_ini(kind: str, cfg: dict, path: Path) -> None:
    lines = [f"[{kind}]"] + [f"{k} = {_ini_value(v)}" for k, v in cfg.items()]
    path.write_text("\n".join(lines) + "\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("STREAMROBUST_SEED", None)
    env.update(THREAD_CAPS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap(proc: subprocess.Popen, index: int, deadline: float):
    """Wait for the child and return its own resource usage (wait4)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError(f"child {index} still running {KILL_LIMIT_S} s into the run")
        time.sleep(0.005)


def run_child(wl: dict, cfg: dict, seed: int, run_dir: Path, index: int, trace: bool, deadline: float) -> dict:
    """Spawn one child, check its outputs, and return its measurements."""
    kind = wl["kind"]
    child_dir = run_dir / f"child{index}"
    child_dir.mkdir()
    calls, groups, checked = _plan(kind, cfg, seed, run_dir, child_dir, trace)
    spec = {
        "src": str(SRC), "calls": calls, "group_calls": groups, "trace": trace,
        "huber_tau": cfg.get("huber_tau", 1.0), "reference": wl["reference"],
    }
    (child_dir / "spec.json").write_text(json.dumps(spec))
    log_path = child_dir / "child.log"
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(child_dir / "spec.json")],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        usage = _reap(proc, index, deadline)
    result_path = child_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"child {index} exited {proc.returncode} without a result:\n{tail}")
    result = json.loads(result_path.read_text())

    outcome = checks.Outcome()
    for (check, out_dir), code in zip(checked, result["codes"]):
        outcome.add(check(out_dir, code))
    for group, summary in result.get("groups", {}).items():
        # group calls count as operations, but their reports are not part
        # of the workload's digests or check counts
        extra = checks.check_verify(child_dir / "groups" / group, summary["code"])
        outcome.attempted += extra.attempted
        outcome.failed += extra.failed
        outcome.problems += extra.problems
    shutil.rmtree(child_dir)
    return {
        "raw_setup_s": result["ready"] - spawned,
        "raw_wall_s": result["wall_s"],
        "setup_s": (result["ready"] - spawned) * REF_SECONDS / result["ref_s"],
        "wall_s": result["wall_s"] * REF_SECONDS / result["ref_s"],
        "ref_s": result["ref_s"],
        "rss_mb": usage.ru_maxrss / 1024.0,
        "outcome": outcome,
        "trace": result.get("trace"),
        "groups": result.get("groups", {}),
        "versions": result["versions"],
    }


def _median_child(children: List[dict]) -> dict:
    ranked = sorted(children, key=lambda c: c["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def layer_metrics(traced: dict, untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from one traced child; self times sum to its wall."""
    t = traced["trace"]
    by_layer, by_name, counts = t["self_by_layer"], t["self_by_name"], t["counts"]
    outcome = traced["outcome"]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m: Dict[str, float] = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    m["bench.cells"] = outcome.cells
    m["bench.l1_err_h"] = statistics.fmean(outcome.l1_err_h) if outcome.l1_err_h else 0.0
    m["datagen.rows"] = counts.get("datagen.rows", 0)
    m["datagen.rows_per_s"] = rate(m["datagen.rows"], m["datagen.self_s"])
    for fn in DATAGEN_FNS:
        m[f"datagen.{fn}.self_s"] = by_name.get(f"datagen.{fn}", 0.0)
    for est in ESTIMATORS:
        updates = counts.get(f"optimizer.{est}.updates", 0)
        seconds = by_name.get(f"optimizer.{est}", 0.0)
        m[f"optimizer.{est}.updates"] = updates
        m[f"optimizer.{est}.self_s"] = seconds
        m[f"optimizer.{est}.updates_per_s"] = rate(updates, seconds)
    m["optimizer.oracle.kept_frac"] = rate(
        counts.get("optimizer.oracle.updates", 0), counts.get("optimizer.oracle.offered", 0)
    )
    m["analytic.evals"] = t["spans_by_layer"].get("analytic", 0)
    m["analytic.evals_per_s"] = rate(m["analytic.evals"], m["analytic.self_s"])
    for group in CHECK_GROUPS:
        summary = traced["groups"].get(group)
        m[f"verify.{group}.self_s"] = summary["self_by_layer"].get("verify", 0.0) if summary else 0.0
    m["verify.checks"] = outcome.checks
    m["verify.checks_failed"] = outcome.checks_failed
    m["verify.mc_samples_per_s"] = rate(
        counts.get("verify.mc_samples", 0), by_name.get("verify.mc_expected_loss", 0.0)
    )
    m["trace.wall_s"] = traced["raw_wall_s"]
    m["trace.unattributed_s"] = traced["raw_wall_s"] - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4f} q3={q3:.4f} n={len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    """Measure one workload; prints its lines and returns the result object."""
    wl = WORKLOADS[name]
    kind = wl["kind"]
    cfg = {**wl["config"], **(wl["smoke"] if smoke else {})}
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    untraced: List[dict] = []
    traced: List[dict] = []
    try:
        if kind != "verify":
            _write_ini(kind, cfg, run_dir / "workload.ini")
        start = time.monotonic()
        deadline = start + KILL_LIMIT_S
        while True:
            untraced.append(run_child(wl, cfg, seed, run_dir, 2 * len(untraced), False, deadline))
            if trace:
                traced.append(run_child(wl, cfg, seed, run_dir, 2 * len(traced) + 1, True, deadline))
            elapsed = time.monotonic() - start
            if len(untraced) >= MIN_CHILDREN and elapsed >= seconds:
                break
            if elapsed * (len(untraced) + 1) / len(untraced) > START_LIMIT_S:
                if len(untraced) < MIN_CHILDREN:
                    raise BenchError(f"{name}: only {len(untraced)} children fit in {START_LIMIT_S} s")
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    children = untraced + traced
    outcome = checks.Outcome()
    for child in children:
        outcome.attempted += child["outcome"].attempted
        outcome.failed += child["outcome"].failed
        outcome.problems += child["outcome"].problems
    expected_digests = untraced[0]["outcome"].digests
    for i, child in enumerate(children[1:], 1):
        if child["outcome"].digests != expected_digests:
            outcome.problems.append(f"child {i}: output digests differ from child 0 on the same seed")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    walls = [c["wall_s"] for c in untraced]
    setups = [c["setup_s"] for c in untraced]
    raw_walls = [c["raw_wall_s"] for c in untraced]
    raw_setups = [c["raw_setup_s"] for c in untraced]
    rss = [c["rss_mb"] for c in untraced]
    first = untraced[0]["outcome"]
    if trace:
        traced_walls = [c["wall_s"] for c in traced]
        metrics = layer_metrics(_median_child(traced), statistics.median(walls), statistics.median(traced_walls))
        section = "per_layer"
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json {section}")

    ops_failed = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"workload={name} seed={seed} trace={int(trace)} smoke={int(smoke)} children={len(untraced)}")
    print(f"  wall_s = {statistics.median(walls):.4f} s at reference speed (median; {_quartiles(walls)})")
    print(f"  setup_s = {statistics.median(setups):.4f} s at reference speed (median; {_quartiles(setups)})")
    print(f"  raw wall_s = {statistics.median(raw_walls):.4f} s (median; {_quartiles(raw_walls)})")
    print(f"  raw setup_s = {statistics.median(raw_setups):.4f} s (median; {_quartiles(raw_setups)})")
    print(f"  peak_rss_mb = {statistics.median(rss):.1f} MB (median; {_quartiles(rss)})")
    print(f"  ops_failed = {ops_failed:.4f} ratio ({outcome.failed}/{outcome.attempted})")
    if first.l1_err_h:
        print(f"  l1_err_h = {statistics.fmean(first.l1_err_h)!r} err_H (mean final err_H of L1 entries)")
    if trace:
        for key in sorted(metrics):
            print(f"  {key} = {metrics[key]!r} {units[key]}")
    counts = {"bench.cells": first.cells, "verify.checks": first.checks}
    if trace:
        counts.update({k: v for k, v in metrics.items() if k.endswith((".updates", ".rows", ".evals"))})
    record = {
        "workload": name,
        "env": environment(seed, untraced[0]["versions"]),
        "config": cfg,
        "counts": counts,
        "digests": first.digests,
        "samples": {
            "wall_s": walls, "setup_s": setups, "peak_rss_mb": rss, "raw_wall_s": raw_walls,
            "raw_setup_s": raw_setups, "ref_s": [c["ref_s"] for c in untraced],
        },
        "ops_failed": ops_failed,
    }
    print("# record " + json.dumps(record, sort_keys=True))
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; checks schema and outputs only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        if not (SRC / "streamrobust" / "cli.py").is_file():
            raise BenchError(f"no streamrobust sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, spec)
            for name in names
        }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
