"""Output checks that decide which benchmark operations failed.

An operation is one estimator entry of an output table, or one line of a
verify report. A call whose exit code is not 0 fails every operation it
owns. Table values must be finite and positive, every file must be listed
in `manifest.csv` with a matching digest, and L1's final err_H must lie
below L2's on every output row: that is the paper's robustness claim.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """What one call's outputs showed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    l1_err_h: List[float] = field(default_factory=list)
    cells: int = 0
    checks: int = 0
    checks_failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.l1_err_h += other.l1_err_h
        self.cells += other.cells
        self.checks += other.checks
        self.checks_failed += other.checks_failed
        self.digests.update(other.digests)


def file_digest(path: Path) -> str:
    """The manifest's digest: the first 16 hex digits of the file's SHA-256."""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def read_table(path: Path) -> Tuple[List[str], List[List[float]]]:
    """Header and numeric rows of a `#`-commented comma-delimited table."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path.name}: no header")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: empty or ragged table")
    return header, rows


def _bad_values(rows: Sequence[Sequence[float]]) -> bool:
    return any(not (math.isfinite(v) and v > 0.0) for row in rows for v in row)


def check_manifest(out_dir: Path) -> Tuple[Dict[str, str], List[str]]:
    """Digests the manifest lists, and the problems found with them."""
    path = out_dir / "manifest.csv"
    if not path.exists():
        return {}, [f"{out_dir.name}: no manifest.csv"]
    listed = {}
    for line in path.read_text().splitlines():
        parts = line.split(",")
        if parts[0] == "file" and len(parts) == 3:
            listed[parts[1]] = parts[2]
    problems = []
    present = {p.name for p in out_dir.iterdir() if p.name != "manifest.csv"}
    if set(listed) != present:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    for name in sorted(set(listed) & present):
        if file_digest(out_dir / name) != listed[name]:
            problems.append(f"{name}: digest does not match manifest")
    return listed, problems


def _manifest_cells(out_dir: Path) -> int:
    path = out_dir / "manifest.csv"
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines() if line.startswith("cell,"))


def check_convergence(out_dir: Path, code: int, losses: Sequence[str], covariances: Sequence[str]) -> Outcome:
    """One operation per (loss, covariance) table."""
    out = Outcome(attempted=len(losses) * len(covariances))
    out.digests, whole = check_manifest(out_dir)
    out.cells = _manifest_cells(out_dir)
    if code != 0:
        whole.append(f"convergence exited {code}")
    failed = set()
    for cov in covariances:
        final = {}
        for loss in losses:
            path = out_dir / f"convergence_{loss}_{cov}.csv"
            try:
                header, rows = read_table(path)
                final[loss] = rows[-1][header.index("err_H")]
            except (OSError, ValueError) as exc:
                out.problems.append(f"{path.name}: {exc}")
                failed.add((loss, cov))
                continue
            if _bad_values(rows):
                out.problems.append(f"{path.name}: non-finite or non-positive value")
                failed.add((loss, cov))
        if "l1" in final:
            out.l1_err_h.append(final["l1"])
            if "l2" in final and not final["l1"] < final["l2"]:
                out.problems.append(f"{cov}: final err_H of l1 {final['l1']!r} >= l2 {final['l2']!r}")
                failed.add(("l1", cov))
    out.failed = out.attempted if whole else len(failed)
    out.problems = whole + out.problems
    return out


def check_breakdown(out_dir: Path, code: int, etas: Sequence[float], estimators: Sequence[str]) -> Outcome:
    """One operation per (eta, estimator) entry of the breakdown table."""
    out = Outcome(attempted=len(etas) * len(estimators))
    out.digests, whole = check_manifest(out_dir)
    out.cells = _manifest_cells(out_dir)
    if code != 0:
        whole.append(f"breakdown exited {code}")
    failed = 0
    try:
        header, rows = read_table(out_dir / "breakdown.csv")
    except (OSError, ValueError) as exc:
        whole.append(f"breakdown.csv: {exc}")
        header, rows = [], []
    if rows and (header != ["eta", *estimators] or [r[0] for r in rows] != list(etas)):
        whole.append(f"breakdown.csv: header {header} or eta column does not match the config")
        rows = []
    for row in rows:
        entries = dict(zip(estimators, row[1:]))
        bad = {e for e, v in entries.items() if not (math.isfinite(v) and v > 0.0)}
        if bad:
            out.problems.append(f"eta={row[0]!r}: non-finite or non-positive {sorted(bad)}")
        out.l1_err_h.append(entries["l1"])
        if not entries["l1"] < entries["l2"]:
            out.problems.append(f"eta={row[0]!r}: l1 {entries['l1']!r} >= l2 {entries['l2']!r}")
            bad.add("l1")
        failed += len(bad)
    out.failed = out.attempted if whole else failed
    out.problems = whole + out.problems
    return out


def check_verify(out_dir: Path, code: int) -> Outcome:
    """One operation per check line of the verify report."""
    out = Outcome()
    path = out_dir / "verify_report.csv"
    lines = path.read_text().splitlines() if path.exists() else []
    checks = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    out.checks = len(checks)
    out.checks_failed = sum(1 for c in checks if len(c) != 3 or c[1] == "fail")
    out.attempted = max(out.checks, 1)
    whole = code != 0 or not checks or lines[-1] != "# suite=pass"
    if whole:
        out.problems.append(f"{out_dir.name}: verify exited {code}, report ends {lines[-1:]}")
    elif out.checks_failed:
        out.problems.append(f"{out_dir.name}: {out.checks_failed} check line(s) failed")
    out.failed = out.attempted if whole else out.checks_failed
    if path.exists():
        out.digests[f"{out_dir.name}/verify_report.csv"] = file_digest(path)
    return out
