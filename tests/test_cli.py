import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamrobust.bench import ConvergenceConfig, convergence_experiment
from streamrobust.cli import ENV_SEED, build_parser, main
from streamrobust.optimizer import default_checkpoints


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


def _write_config(tmp_path, text):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


TINY_CONV = """
[convergence]
n_samples = 600
dim = 3
passes = 2
replications = 2
losses = l1, oracle
covariances = identity
seed = 7
"""

TINY_BREAK = """
[breakdown]
n_samples = 800
dim = 3
replications = 2
eta_grid = 0.2, 0.5
estimators = l1, oracle
seed = 7
"""


# ---------------------------------------------------------------------------
# parser plumbing


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "streamrobust" in capsys.readouterr().out


def test_missing_out_is_usage_error(capsys):
    assert main(["convergence"]) == 2
    assert "--out" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # the package is numpy-only: importing the entry point must not pay for
    # scipy, nor for the process pool that only --jobs > 1 starts
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, streamrobust.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_experiment_runs_leave_numpy_ma_unimported(tmp_path):
    # importing numpy.ma (np.unique does) cost about 1 MB of peak RSS and 5 % of the wall time
    # of the small convergence run the benchmark times
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argvs = [
        [name, "--jobs", "1", "--config", _write_config(tmp_path / name, text), "--out", str(tmp_path / name / "out")]
        for name, text in (("breakdown", TINY_BREAK), ("convergence", TINY_CONV))
    ]
    code = (
        "import sys; from streamrobust.cli import main; "
        + "; ".join(f"assert main({argv!r}) == 0" for argv in argvs)
        + "; print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_bad_jobs_and_seed_rejected(capsys):
    assert main(["verify", "--jobs", "0"]) == 2
    assert main(["verify", "--seed", "-3"]) == 2


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "flag, argv", [("--jobs", ["--jobs", "2"]), ("--svg", ["--svg"]), ("--config", ["--config", "x.ini"])]
)
def test_verify_rejects_flags_it_ignores(flag, argv, capsys):
    assert main(["verify", "--only", "scalar_inequalities"] + argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


def test_verify_scalar_group(capsys):
    assert main(["verify", "--only", "scalar_inequalities"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# streamrobust ")
    assert out[1].startswith("# seed=")
    body = [l for l in out if not l.startswith("#")]
    assert len(body) == 4
    assert all(",pass," in l for l in body)
    assert out[-1] == "# suite=pass"


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err
    assert "scalar_inequalities" in err  # the listing helps the user


def test_verify_a_key_error_inside_a_check_is_not_an_unknown_check(tmp_path, monkeypatch, capsys):
    from streamrobust import verify

    def broken():
        raise KeyError("sigma")

    monkeypatch.setattr(verify, "check_scalar_inequalities", broken)
    with pytest.raises(KeyError, match="sigma"):
        main(["verify", "--only", "scalar_inequalities"])
    with pytest.raises(KeyError, match="sigma"):
        main(["verify", "--out", str(tmp_path / "report")])
    assert "unknown check" not in capsys.readouterr().err


def test_verify_report_file(tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["verify", "--only", "scale_drift", "--out", str(out_dir)]) == 0
    report = (out_dir / "verify_report.csv").read_text()
    assert report == capsys.readouterr().out


def test_verify_full_suite_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "# suite=pass" in out
    # every advertised group shows up in the report
    for frag in ("mc_loss", "gradient_fd", "hessian_fd", "scale_drift",
                 "error_loss_link", "avg_iterate_bound", "scalar.", "moment_bounds"):
        assert frag in out


# ---------------------------------------------------------------------------
# convergence


def test_convergence_end_to_end(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_CONV)
    out_dir = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "convergence_l1_identity.csv",
        "convergence_oracle_identity.csv",
        "manifest.csv",
    ]
    manifest = (out_dir / "manifest.csv").read_text()
    assert "# seed=7" in manifest
    assert "cell,identity/rep0," in manifest
    assert "file,convergence_l1_identity.csv," in manifest

    # identical invocation into a fresh directory is byte-identical
    out2 = tmp_path / "out2"
    assert main(["convergence", "--config", cfg, "--out", str(out2)]) == 0
    for name in names:
        assert (out_dir / name).read_bytes() == (out2 / name).read_bytes()


POINT_CONV = """
[convergence]
preset = point
n_samples = 3000
dim = 5
replications = 2
"""


def test_point_preset_convergence_averages_the_oracle_over_shared_checkpoints(tmp_path):
    # each replication's oracle steps on its own clean count, so its own checkpoints
    cfg = _write_config(tmp_path, POINT_CONV)
    out_dir = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--seed", "9", "--jobs", "1", "--out", str(out_dir)]) == 0
    records = convergence_experiment(ConvergenceConfig(3000, 5, replications=2, preset="point", seed=9)).records

    def steps(name):
        lines = [line for line in (out_dir / f"convergence_{name}.csv").read_text().splitlines() if line[0] != "#"]
        return [int(line.split(",")[0]) for line in lines[1:]]

    for cov in ("identity", "spectrum"):
        plans = [rec.steps.tolist() for rec in records[f"oracle@{cov}"]]
        assert plans[0] != plans[1]
        shared = sorted(set(plans[0]) & set(plans[1]))
        assert steps(f"oracle_{cov}") == shared
        assert shared[-1] < min(plan[-1] for plan in plans)
        assert steps(f"l1_{cov}") == default_checkpoints(3000 * 5).tolist()


def test_convergence_divergence_exits_1(tmp_path, capsys):
    # squared loss at gamma0 = 50 overflows within a few hundred steps
    cfg = _write_config(tmp_path, TINY_CONV.replace("losses = l1, oracle", "losses = l1, l2\ngamma0 = 50"))
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "l2 with gamma0=50.0 diverged" in err
    assert not (tmp_path / "out" / "manifest.csv").exists()


def test_convergence_svg(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONV)
    out_dir = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out_dir), "--svg"]) == 0
    svg = (out_dir / "convergence_l1_identity.svg").read_text()
    assert svg.startswith("<svg ")


def test_convergence_config_errors_listed(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "[convergence]\nn_samples = -5\nsigma = zero\nlosses = l9\n",
    )
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 3
    for frag in ("n_samples", "sigma", "losses"):
        assert frag in err


def test_convergence_missing_config_file(tmp_path, capsys):
    code = main(
        ["convergence", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_seed_precedence_flag_beats_env_beats_config(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, TINY_CONV)

    monkeypatch.setenv(ENV_SEED, "1234")
    out_env = tmp_path / "env"
    assert main(["convergence", "--config", cfg, "--out", str(out_env)]) == 0
    assert "# seed=1234" in (out_env / "manifest.csv").read_text()

    out_flag = tmp_path / "flag"
    assert main(["convergence", "--config", cfg, "--out", str(out_flag), "--seed", "9"]) == 0
    assert "# seed=9" in (out_flag / "manifest.csv").read_text()

    monkeypatch.delenv(ENV_SEED)
    out_cfg = tmp_path / "cfg"
    assert main(["convergence", "--config", cfg, "--out", str(out_cfg)]) == 0
    assert "# seed=7" in (out_cfg / "manifest.csv").read_text()


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_seed_above_64_bits_is_usage_error(tmp_path, monkeypatch, capsys, source):
    # 2**64 would otherwise alias seed 0
    too_big = str(2**64)
    text = TINY_CONV.replace("seed = 7", f"seed = {too_big}") if source == "config" else TINY_CONV
    argv = ["convergence", "--config", _write_config(tmp_path, text), "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", too_big]
    if source == "env":
        monkeypatch.setenv(ENV_SEED, too_big)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert {"flag": "--seed", "env": ENV_SEED, "config": "config error: seed"}[source] in err
    assert too_big in err
    assert not (tmp_path / "out").exists()


def test_largest_64_bit_seed_is_accepted(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONV.replace("seed = 7", f"seed = {2**64 - 1}"))
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert f"# seed={2**64 - 1}" in (tmp_path / "out" / "manifest.csv").read_text()


@pytest.mark.parametrize(
    "sections, found",
    [("[breakdwon]\nn_samples = 40\n", "['breakdwon']"), (TINY_BREAK + "[verify]\nseed = 1\n", "['breakdown', 'verify']")],
    ids=["misspelt", "extra"],
)
def test_config_without_its_section_or_with_a_stray_one_is_usage_error(tmp_path, capsys, sections, found):
    cfg = _write_config(tmp_path, sections)
    out_dir = tmp_path / "out"
    assert main(["breakdown", "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config") and "[breakdown]" in err and found in err
    assert not out_dir.exists()


def test_config_with_both_experiment_sections_runs(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONV + TINY_BREAK)
    assert main(["breakdown", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["convergence", "verify"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, command):
    target = tmp_path / "taken"
    target.write_text("keep me\n")
    argv = [command, "--out", str(target)]
    argv += ["--config", _write_config(tmp_path, TINY_CONV)] if command == "convergence" else ["--only", "scalar_inequalities"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot use --out {str(target)!r} as a directory")
    assert captured.out == ""
    assert target.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["taken"] + (["config.ini"] if command == "convergence" else []))


def test_bad_env_seed(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, TINY_CONV)
    monkeypatch.setenv(ENV_SEED, "not-a-seed")
    code = main(["convergence", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert ENV_SEED in capsys.readouterr().err


# ---------------------------------------------------------------------------
# breakdown


def test_breakdown_end_to_end(tmp_path):
    cfg = _write_config(tmp_path, TINY_BREAK)
    out_dir = tmp_path / "out"
    assert main(["breakdown", "--config", cfg, "--out", str(out_dir), "--svg"]) == 0
    table = (out_dir / "breakdown.csv").read_text().splitlines()
    header = [l for l in table if not l.startswith("#")][0]
    assert header == "eta,l1,oracle"
    rows = [l for l in table if not l.startswith("#")][1:]
    assert len(rows) == 2
    assert rows[0].startswith("0.2,")
    manifest = (out_dir / "manifest.csv").read_text()
    assert manifest.count("cell,eta=") == 4  # 2 etas x 2 replications
    assert (out_dir / "breakdown.svg").exists()


def test_manifest_lists_only_the_files_the_run_wrote(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONV + TINY_BREAK)
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    assert main(["convergence", "--config", cfg, "--out", str(stale), "--svg"]) == 0
    (stale / "notes.txt").write_text("not made by a run\n")
    (stale / "sub").mkdir()
    for out in (fresh, stale):
        assert main(["breakdown", "--config", cfg, "--seed", "5", "--out", str(out), "--svg"]) == 0
    manifest = (stale / "manifest.csv").read_text()
    assert manifest == (fresh / "manifest.csv").read_text()
    assert [l.split(",")[1] for l in manifest.splitlines() if l.startswith("file,")] == ["breakdown.csv", "breakdown.svg"]


def test_breakdown_empty_grid_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[breakdown]\neta_grid =\n")
    assert main(["breakdown", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "eta_grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.0", "0.2"])
def test_breakdown_unknown_preset_is_config_error(tmp_path, capsys, grid):
    cfg = _write_config(tmp_path, f"[breakdown]\nn_samples = 40\neta_grid = {grid}\npreset = bogus\n")
    out_dir = tmp_path / "out"
    assert main(["breakdown", "--config", cfg, "--jobs", "1", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: preset: unknown preset 'bogus', allowed ['tiered', 'point']\n"
    assert not out_dir.exists()


def test_breakdown_svg_with_zero_eta_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_BREAK.replace("eta_grid = 0.2, 0.5", "eta_grid = 0.0, 0.5"))
    out_dir = tmp_path / "out"
    assert main(["breakdown", "--config", cfg, "--jobs", "1", "--out", str(out_dir), "--svg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --svg") and "eta_grid must not contain 0.0" in err
    assert not out_dir.exists()
    # without --svg the same grid runs
    assert main(["breakdown", "--config", cfg, "--jobs", "1", "--out", str(out_dir)]) == 0
    assert (out_dir / "breakdown.csv").read_text().splitlines()[3].startswith("0.0,")


def test_breakdown_cell_without_clean_rows_is_usage_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "[breakdown]\nn_samples = 4\ndim = 2\nreplications = 1\neta_grid = 0.99\npreset = point\n",
    )
    assert main(["breakdown", "--config", cfg, "--jobs", "1", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: all 4 samples are corrupted, nothing to run on\n"
    assert not (tmp_path / "out" / "manifest.csv").exists()


def test_breakdown_defaults_without_config(tmp_path, monkeypatch):
    # no config file at all: the built-in defaults apply, but that sweep is
    # minutes long, so just confirm the config resolution path by shrinking
    # through an env seed and a tiny config written on the spot
    cfg = _write_config(tmp_path, TINY_BREAK)
    monkeypatch.setenv(ENV_SEED, "99")
    out_dir = tmp_path / "out"
    assert main(["breakdown", "--config", cfg, "--out", str(out_dir)]) == 0
    assert "# seed=99" in (out_dir / "manifest.csv").read_text()


# ---------------------------------------------------------------------------
# README


def test_the_readme_python_example_runs():
    root = Path(__file__).resolve().parents[1]
    (block,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
