"""Command line front end.

Subcommands map one-to-one onto the harness: `verify` runs the numerical
check suite, `convergence` and `breakdown` run the experiments and write
their tables plus a manifest of the files the run wrote into the output
directory. Configuration is a flat INI file, one section per subcommand.
Exit codes: 0 on success, 1 when a check fails or an estimator diverges, 2
for usage and configuration errors.

Seed precedence, highest first: `--seed` flag, then the STREAMROBUST_SEED
environment variable, then the config file, then the built-in default. All
output files are comma-delimited text with `#` comment lines and are
byte-identical across re-runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__
from .bench import (
    _KEY_RULES,
    BreakdownConfig,
    ConvergenceConfig,
    ExperimentResult,
    breakdown_experiment,
    config_from_mapping,
    config_lines,
    convergence_experiment,
    table_svg,
)
from .core import NonFiniteError
from .verify import DEFAULT_SUITE_SEED, CHECK_GROUPS, report_lines, run_suite, suite_passed

ENV_SEED = "STREAMROBUST_SEED"

# command -> (config class, file name prefix of its tables)
EXPERIMENTS = {
    "convergence": (ConvergenceConfig, "convergence_"),
    "breakdown": (BreakdownConfig, ""),
}


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_seed(flag: Optional[str], fallback: int) -> int:
    """The --seed flag, else STREAMROBUST_SEED, else the fallback: the config's seed, or verify's default.

    Flag and variable are parsed by the config's seed rule; a bad value is a usage error that names its source.
    """
    for source, raw in (("--seed", flag), (ENV_SEED, os.environ.get(ENV_SEED))):
        if raw is not None:
            try:
                return _KEY_RULES["seed"](raw)
            except ValueError as exc:
                raise SystemExit(_fail_usage(f"{source}: {exc}"))
    return fallback


def _read_config_section(path: Optional[str], section: str) -> Dict[str, str]:
    if path is None:
        return {}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise SystemExit(_fail_usage(f"cannot read config {path!r}: {exc}"))
    except configparser.Error as exc:
        raise SystemExit(_fail_usage(f"malformed config {path!r}: {exc}"))
    # configparser merges a [DEFAULT] section into every other one, and leaves it out of sections()
    found = ([parser.default_section] if parser.defaults() else []) + parser.sections()
    if section not in found or any(name not in EXPERIMENTS for name in found):
        raise SystemExit(_fail_usage(
            f"config {path!r} must have a [{section}] section and no other than {list(EXPERIMENTS)}; found {found}"))
    return dict(parser.items(section))


def _write_lines(path: Path, lines: List[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _write_manifest(out_dir: Path, experiment: str, result: ExperimentResult, cfg, files: List[str]) -> None:
    """manifest.csv: the config, the cell seeds and a digest of each of `files`, the files this run wrote."""
    lines = [
        f"# streamrobust {__version__}",
        f"# experiment={experiment}",
        f"# config={result.config_digest}",
        f"# seed={cfg.seed}",
    ]
    lines.extend(f"# cfg {line}" for line in config_lines(cfg))
    lines.append("kind,name,value")
    for label, cell_seed in result.cell_seeds:
        lines.append(f"cell,{label},{cell_seed}")
    for name in sorted(files):
        lines.append(f"file,{name},{_file_digest(out_dir / name)}")
    _write_lines(out_dir / "manifest.csv", lines)


def _prepare_out_dir(raw: str) -> Path:
    out = Path(raw)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file by that name, or below one
        raise SystemExit(_fail_usage(f"cannot use --out {raw!r} as a directory: {exc}"))
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args: argparse.Namespace) -> int:
    if args.only is not None and args.only not in CHECK_GROUPS:
        return _fail_usage(f"unknown check {args.only!r}; available: {', '.join(CHECK_GROUPS)}")
    seed = _resolve_seed(args.seed, DEFAULT_SUITE_SEED)
    out = None if args.out is None else _prepare_out_dir(args.out)
    results = run_suite(seed=seed, only=args.only)
    passed = suite_passed(results)
    lines = [f"# streamrobust {__version__}", f"# seed={seed}"]
    lines.extend(report_lines(results))
    lines.append(f"# suite={'pass' if passed else 'fail'}")
    for line in lines:
        print(line)
    if out is not None:
        _write_lines(out / "verify_report.csv", lines)
    return 0 if passed else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    config_class, prefix = EXPERIMENTS[args.command]
    cfg, errors = config_from_mapping(config_class, _read_config_section(args.config, args.command))
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.svg and 0.0 in getattr(cfg, "eta_grid", ()):
        return _fail_usage("--svg draws eta on a log axis, so eta_grid must not contain 0.0")
    cfg = replace(cfg, seed=_resolve_seed(args.seed, cfg.seed))
    out = _prepare_out_dir(args.out)

    # looked up when the command runs, so the function bound to the name in this module then is the one called
    experiment = convergence_experiment if args.command == "convergence" else breakdown_experiment
    try:
        result = experiment(cfg, jobs=args.jobs or os.cpu_count() or 1)
    except NonFiniteError:  # a ValueError too, but a failed run: main exits 1
        raise
    except ValueError as exc:  # a valid config whose data leave a cell nothing to run on
        return _fail_usage(str(exc))
    written = {}  # file name -> lines
    for table in result.tables:
        stem = prefix + table.name.replace("@", "_")
        written[f"{stem}.csv"] = table.to_lines()
        if args.svg:
            written[f"{stem}.svg"] = [table_svg(table)]
    for name, lines in written.items():
        _write_lines(out / name, lines)
    _write_manifest(out, args.command, result, cfg, list(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamrobust",
        description="Streaming robust regression: verification suite and experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"streamrobust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("verify", "run the numerical verification suite", cmd_verify),
        ("convergence", "convergence-rate experiment", cmd_experiment),
        ("breakdown", "breakdown sweep over corruption levels", cmd_experiment),
    )
    for name, help_text, func in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", default=None, metavar="U64", help="master seed")
        if name == "verify":
            p.add_argument("--only", default=None, metavar="NAME", help="run one check group")
            p.add_argument("--out", default=None, metavar="DIR", help="output directory")
        else:
            p.add_argument("--config", default=None, metavar="PATH", help="INI config file")
            p.add_argument("--jobs", type=int, default=None, metavar="N", help="processes that take whole engine calls")
            p.add_argument("--svg", action="store_true", help="also write SVG charts")
            p.add_argument("--out", required=True, metavar="DIR", help="output directory")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error, or --help or --version
        return exc.code
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        return _fail_usage(f"--jobs must be >= 1, got {args.jobs}")
    try:
        return args.func(args)
    except SystemExit as exc:  # raised by usage helpers
        code = exc.code
        return code if isinstance(code, int) else 2
    except NonFiniteError as exc:  # a diverged estimator is a failed run, not a nan cell
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
