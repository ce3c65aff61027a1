"""Experiment harness: convergence curves, breakdown sweep, slope fits.

Every experiment is a grid of independent cells. A cell owns one corrupted
data stream and runs every requested estimator on it, so estimators are
compared under common random numbers. The cells of an experiment step
together, each on its own stream, in as few engine calls as the per-call
memory cap allows but at least one per worker, and the `jobs` worker
processes take whole calls. The aggregation step is a pure reduction over
the returned records and can be re-run on stored records without changing
a single byte of output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ERROR_FIELDS,
    Huber,
    Identity,
    INV_SQRT,
    L1,
    L2,
    RegressionModel,
    RunRecord,
    SEED_MAX,
    Spectrum,
    StepSchedule,
    derive_seed,
    no_outliers,
    short_digest,
    substream,
)
from .datagen import CHUNK, _chunk_arrays, array_chunks, tiered_contamination
from .optimizer import default_gamma0, oracle_row, run_batch, sgd_row

CONVERGENCE_LOSSES = ("l1", "l2", "huber", "oracle")
BREAKDOWN_ESTIMATORS = ("l1", "l2", "huber", "huber_x30", "oracle")
COVARIANCE_NAMES = ("identity", "spectrum")
PRESETS = ("tiered", "point")

DEFAULT_ETA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class ConvergenceConfig:
    """Grid definition for the convergence-rate experiment."""

    n_samples: int = 100000
    dim: int = 10
    sigma: float = 1.0
    eta: float = 0.2
    passes: int = 5
    replications: int = 5
    losses: Tuple[str, ...] = CONVERGENCE_LOSSES
    covariances: Tuple[str, ...] = COVARIANCE_NAMES
    preset: str = "tiered"
    outlier_value: float = 1000.0
    huber_tau: float = 1.0
    gamma0: Optional[float] = None  # None: 1 / trace(H) per covariance
    seed: int = 0


@dataclass(frozen=True)
class BreakdownConfig:
    """Grid definition for the breakdown sweep over corruption levels."""

    n_samples: int = 100000
    dim: int = 10
    sigma: float = 1.0
    eta_grid: Tuple[float, ...] = DEFAULT_ETA_GRID
    passes: int = 1
    replications: int = 5
    estimators: Tuple[str, ...] = BREAKDOWN_ESTIMATORS
    covariance: str = "identity"
    preset: str = "tiered"
    outlier_value: float = 1000.0
    huber_tau: float = 1.0
    gamma0: Optional[float] = None
    seed: int = 0


# ---------------------------------------------------------------------------
# config parsing


def _integer(minimum: int = 1, maximum: Optional[int] = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _number(low=None, high=None, low_open=False, high_open=False):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value!r}")
        if low is not None and (value < low or (low_open and value == low)):
            raise ValueError(f"must be {'>' if low_open else '>='} {low}, got {value!r}")
        if high is not None and (value > high or (high_open and value == high)):
            raise ValueError(f"must be {'<' if high_open else '<='} {high}, got {value!r}")
        return value

    return parse


def _names(allowed: Tuple[str, ...]):
    def parse(text: str) -> Tuple[str, ...]:
        names = tuple(part.strip() for part in text.split(",") if part.strip())
        if not names:
            raise ValueError("empty list")
        bad = [n for n in names if n not in allowed]
        if bad:
            raise ValueError(f"unknown entries {bad}, allowed {sorted(allowed)}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate entries in {names}")
        return names

    return parse


def _choice(noun: str, allowed: Tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"unknown {noun} {text!r}, allowed {list(allowed)}")
        return text

    return parse


def _eta_grid(text: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty grid")
    values = [_number()(p) for p in parts]
    for v in values:
        if not (0.0 <= v < 1.0):
            raise ValueError(f"entries must lie in [0, 1), got {v!r}")
    if values != sorted(values):
        raise ValueError(f"must be ascending, got {values}")
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate entries in {values}")
    return tuple(values)


# One rule per config key, shared by every config class that has the key.
_KEY_RULES = {
    "n_samples": _integer(minimum=4),
    "dim": _integer(),
    "sigma": _number(low=0.0, low_open=True),
    "eta": _number(low=0.0, high=1.0, high_open=True),
    "eta_grid": _eta_grid,
    "passes": _integer(),
    "replications": _integer(),
    "losses": _names(CONVERGENCE_LOSSES),
    "estimators": _names(BREAKDOWN_ESTIMATORS),
    "covariances": _names(COVARIANCE_NAMES),
    "covariance": _choice("name", COVARIANCE_NAMES),
    "preset": _choice("preset", PRESETS),
    "outlier_value": _number(),
    "huber_tau": _number(low=0.0, low_open=True),
    "gamma0": _number(low=0.0, low_open=True),
    "seed": _integer(minimum=0, maximum=SEED_MAX),
}


def config_from_mapping(config_class, mapping: Mapping[str, str]):
    """Parse a flat key/value mapping into `config_class`; returns (config, error list).

    The known keys are the class's fields; a key left out keeps the field's
    default. Every error is listed, one per offending key.
    """
    known = {f.name for f in fields(config_class)}
    errors: List[str] = []
    values = {}
    for key, raw in mapping.items():
        if key not in known:
            errors.append(f"{key}: unknown key")
            continue
        try:
            values[key] = _KEY_RULES[key](str(raw).strip())
        except ValueError as exc:
            errors.append(f"{key}: {exc}")
    return (None if errors else config_class(**values)), errors


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class Table:
    """Delimited numeric table with `#` comment lines above the header."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    comments: Tuple[str, ...] = ()

    def to_lines(self) -> List[str]:
        lines = [f"# {c}" for c in self.comments]
        lines.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != header width {len(self.columns)}")
            lines.append(",".join(repr(v) for v in row))
        return lines


def mean_run_record(records: Sequence[RunRecord]) -> RunRecord:
    """Average the error curves of runs sharing a checkpoint grid."""
    if not records:
        raise ValueError("no records to average")
    steps = records[0].steps
    for rec in records[1:]:
        if not np.array_equal(rec.steps, steps):
            raise ValueError("records disagree on checkpoint steps")
    return RunRecord(
        steps=steps.copy(),
        err_h=np.mean([r.err_h for r in records], axis=0),
        err_2=np.mean([r.err_2 for r in records], axis=0),
        err_last_h=np.mean([r.err_last_h for r in records], axis=0),
        config_digest=short_digest(["mean", len(records)] + [r.config_digest for r in records]),
        theta_bar=np.mean([r.theta_bar for r in records], axis=0),
        theta_last=np.mean([r.theta_last for r in records], axis=0),
        min_abs_residual=min(r.min_abs_residual for r in records),
    )


def convergence_table(name: str, records: Sequence[RunRecord], comments=()) -> Table:
    """The mean curve of the records over the checkpoints all of them share.

    Under the point preset each replication has its own clean count, so each
    oracle record has its own plan; under the tiered preset all plans agree.
    """
    shared = set.intersection(*(set(rec.steps.tolist()) for rec in records))  # np.intersect1d imports numpy.ma
    cut = [(rec, [t in shared for t in rec.steps.tolist()]) for rec in records]
    mean = mean_run_record([replace(rec, **{f: getattr(rec, f)[at] for f in ("steps",) + ERROR_FIELDS}) for rec, at in cut])
    rows = tuple(
        (int(mean.steps[i]), float(mean.err_h[i]), float(mean.err_2[i]), float(mean.err_last_h[i]))
        for i in range(mean.steps.size)
    )
    extra = (f"records={len(records)}", f"digest={mean.config_digest}")
    return Table(name, ("n", "err_H", "err_2", "err_last_H"), rows, tuple(comments) + extra)


# ---------------------------------------------------------------------------
# experiment cells


def _covariance_spec(name: str, dim: int, master_seed: int):
    if name == "identity":
        return Identity(dim)
    if name == "spectrum":
        eigs = tuple(1.0 / k for k in range(1, dim + 1))
        return Spectrum(eigs, basis_seed=derive_seed(master_seed, "basis", name))
    raise ValueError(f"unknown covariance name {name!r}")


def _clean_model(dim: int, sigma: float, cov_name: str, master_seed: int) -> RegressionModel:
    theta_star = np.ones(dim) / math.sqrt(dim)
    return RegressionModel(theta_star, _covariance_spec(cov_name, dim, master_seed), sigma, no_outliers())


def _contamination(n: int, eta: float, preset: str, value: float, seed: int) -> np.ndarray:
    if eta == 0.0:
        return np.zeros(n)
    if preset == "tiered":
        return tiered_contamination(n, eta, seed)
    if preset == "point":
        flags = substream(seed, "flags").random(n) < eta
        return np.where(flags, value, 0.0)
    raise ValueError(f"unknown preset {preset!r}")


def _corrupted_stream(model, b, passes, seed):
    """Writers of a cell's (X, y + b, b) chunks, b its contamination; b != 0 flags a row.

    Pass 0 is drawn chunk by chunk in draw order; each pass p >= 1 revisits
    its rows in its own seeded permutation, so the rows are stored only when
    passes > 1. The model draws no outliers of its own.
    """
    n = b.size
    stored = (np.empty((n, model.d)), np.empty(n)) if passes > 1 else None
    draws = _chunk_arrays(model, derive_seed(seed, "data"), n)
    for start, draw in zip(range(0, n, CHUNK), draws):
        yield partial(_shifted_chunk, draw, b, start, stored)
    order_seed = derive_seed(seed, "order")
    for p in range(1, passes):
        yield from array_chunks(*stored, b, substream(order_seed, "pass", p).permutation(n))


def _shifted_chunk(draw, b, start, stored, x, y, flags) -> int:
    """Draw the chunk of the rows from `start`, y shifted by b; copied into `stored` when given."""
    rows = draw(x, y, flags)
    y[:rows] += b[start : start + rows]
    flags[:rows] = b[start : start + rows]
    if stored:
        stored[0][start : start + rows], stored[1][start : start + rows] = x[:rows], y[:rows]
    return rows


def _loss_for(name: str, tau: float):
    if name == "l1":
        return L1()
    if name == "l2":
        return L2()
    if name == "huber":
        return Huber(tau)
    if name == "huber_x30":
        return Huber(30.0 * tau)
    raise ValueError(f"unknown estimator {name!r}")


# An engine call holds every stream's contamination b, the rows of every
# stream that makes several passes and, during a later pass, its permutation,
# and per chunk row and stream about 8 R words of engine arrays and d + 2 of
# the chunk buffer (features, response, flag). Calls are capped at this many
# such bytes: at the default sizes that is 10 breakdown streams, or one stored
# convergence stream, per call. The per-stream slope of tracemalloc's peak
# was 1.27 MB against 1.24 counted (breakdown, d = 100, n = 10 000) and 1.42
# against 1.40 (five-pass convergence, d = 10, n = 10 000).
_BYTES_PER_CALL = 16 << 20


def _stream_bytes(cfg, names) -> int:
    """Bytes one stream adds to an engine call, as `_BYTES_PER_CALL` counts them."""
    held = cfg.n_samples * (1 + (cfg.dim + 2) * (cfg.passes > 1))
    return 8 * (held + CHUNK * (8 * len(names) + cfg.dim + 2))


def _cell_records(args) -> List[Dict[str, RunRecord]]:
    """Every estimator of every cell in one engine call, each cell on its own stream.

    A cell is (covariance name, eta, cell seed). The oracle steps on the
    clean rows of every pass; the others take n_samples * passes steps with
    gamma0 / sqrt(n).
    """
    cfg, names, cells = args
    n_steps = cfg.n_samples * cfg.passes
    models = {cov: _clean_model(cfg.dim, cfg.sigma, cov, cfg.seed) for cov in {cell[0] for cell in cells}}
    streams, grid = [], []
    for cov, eta, seed in cells:
        model = models[cov]
        b = _contamination(cfg.n_samples, eta, cfg.preset, cfg.outlier_value, derive_seed(seed, "contam"))
        g0 = default_gamma0(model) if cfg.gamma0 is None else cfg.gamma0
        grid.append([
            oracle_row(0.5 * g0, cfg.passes * int(np.count_nonzero(b == 0.0)), n_steps, model) if name == "oracle"
            else sgd_row(_loss_for(name, cfg.huber_tau), StepSchedule(g0, INV_SQRT), n_steps, seed, model)
            for name in names
        ])
        streams.append(_corrupted_stream(model, b, cfg.passes, seed))
    records = run_batch(grid, streams, [models[cell[0]] for cell in cells])
    return [dict(zip(names, recs)) for recs in records]


def _experiment_records(cfg, names, cells, jobs) -> List[Dict[str, RunRecord]]:
    """Records of every cell, in cell order.

    Cells are split once, into as many engine calls as the _BYTES_PER_CALL
    cap needs and at least one per worker, and with jobs > 1 the worker
    processes take whole calls. A stream's records do not depend on which
    streams share its call, so the split changes no bit.
    """
    per_call = max(1, _BYTES_PER_CALL // _stream_bytes(cfg, names))
    count = max(math.ceil(len(cells) / per_call), min(jobs, len(cells)))
    size = math.ceil(len(cells) / count)
    # calls of `size` cells, but never fewer than `count`: where that would
    # leave calls empty, the last ones take one cell each
    bounds = [min(i * size, len(cells) - count + i) for i in range(count + 1)]
    calls = [(cfg, names, cells[a:b]) for a, b in zip(bounds, bounds[1:])]
    if jobs > 1 and len(calls) > 1:
        # imported here: the pool machinery is about 30 modules and 1.5 MB of
        # RSS that a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
            done = list(pool.map(_cell_records, calls))
    else:
        done = [_cell_records(call) for call in calls]
    return [records for call in done for records in call]


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated tables plus the raw records and seeds behind them."""

    tables: Tuple[Table, ...]
    records: Mapping[str, Tuple[RunRecord, ...]]
    cell_seeds: Tuple[Tuple[str, int], ...]
    config_digest: str


def config_lines(cfg) -> List[str]:
    """The config's fields as sorted `key=value!r` lines, as its digest and the manifest list them."""
    return [f"{key}={value!r}" for key, value in sorted(vars(cfg).items())]


def _config_digest(cfg) -> str:
    return short_digest([type(cfg).__name__] + config_lines(cfg))


def convergence_experiment(config: ConvergenceConfig, jobs: int = 1) -> ExperimentResult:
    """Mean error curves for each (loss, covariance) pair of the config."""
    keys = [(cov, rep) for cov in config.covariances for rep in range(config.replications)]
    cells = [(cov, config.eta, derive_seed(config.seed, "cell", cov, rep)) for cov, rep in keys]
    by_cell = dict(zip(keys, _experiment_records(config, config.losses, cells, jobs)))

    digest = _config_digest(config)
    tables = []
    records: Dict[str, Tuple[RunRecord, ...]] = {}
    for cov in config.covariances:
        for loss in config.losses:
            cell_records = tuple(by_cell[(cov, rep)][loss] for rep in range(config.replications))
            key = f"{loss}@{cov}"
            records[key] = cell_records
            comments = (
                f"experiment=convergence loss={loss} covariance={cov}",
                f"config={digest} seed={config.seed}",
            )
            tables.append(convergence_table(key, cell_records, comments))
    seeds = tuple((f"{cov}/rep{rep}", cell[2]) for (cov, rep), cell in zip(keys, cells))
    return ExperimentResult(tuple(tables), records, seeds, digest)


def breakdown_experiment(config: BreakdownConfig, jobs: int = 1) -> ExperimentResult:
    """Final mean errors per corruption level, one row per eta."""
    keys = [(eta, rep) for eta in config.eta_grid for rep in range(config.replications)]
    cells = [(config.covariance, eta, derive_seed(config.seed, "cell", repr(eta), rep)) for eta, rep in keys]
    by_cell = dict(zip(keys, _experiment_records(config, config.estimators, cells, jobs)))

    digest = _config_digest(config)
    rows = []
    records: Dict[str, Tuple[RunRecord, ...]] = {}
    for eta in config.eta_grid:
        row = [float(eta)]
        for est in config.estimators:
            cell_records = tuple(by_cell[(eta, rep)][est] for rep in range(config.replications))
            records[f"{est}@eta={eta!r}"] = cell_records
            row.append(float(np.mean([rec.final_err_h for rec in cell_records])))
        rows.append(tuple(row))
    table = Table(
        "breakdown",
        ("eta",) + tuple(config.estimators),
        tuple(rows),
        (
            f"experiment=breakdown covariance={config.covariance} preset={config.preset}",
            f"config={digest} seed={config.seed}",
        ),
    )
    seeds = tuple((f"eta={eta!r}/rep{rep}", cell[2]) for (eta, rep), cell in zip(keys, cells))
    return ExperimentResult((table,), records, seeds, digest)


# ---------------------------------------------------------------------------
# analysis helpers


def fit_rate_slope(record: RunRecord, window: float = 0.5):
    """Least-squares slope of log(err_H) against log(n) on trailing checkpoints."""
    if not (0.0 < window <= 1.0):
        raise ValueError(f"window must lie in (0, 1], got {window!r}")
    count = math.ceil(window * record.steps.size)
    if count < 5:
        raise ValueError(f"need at least 5 checkpoints in the trailing window, got {count}")
    steps = record.steps[-count:].astype(float)
    errs = record.err_h[-count:]
    if np.any(errs <= 0.0):
        raise ValueError("err_H must be positive to fit a log-log slope")
    log_n = np.log(steps)  # the steps strictly increase, as every record's do
    log_e = np.log(errs)
    slope, intercept = np.polyfit(log_n, log_e, 1)
    fitted = slope * log_n + intercept
    ss_res = float(np.sum((log_e - fitted) ** 2))
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# SVG chart


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_loglog_svg(title: str, curves: Mapping[str, Tuple[Sequence[float], Sequence[float]]]) -> str:
    """Tiny dependency-free log-log line chart. Curves map name -> (x, y)."""
    width, height = 640.0, 440.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in curves.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in curves.values()])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log chart needs positive coordinates")
    lx0, lx1 = math.floor(np.log10(xs.min())), math.ceil(np.log10(xs.max()))
    ly0, ly1 = math.floor(np.log10(ys.min())), math.ceil(np.log10(ys.max()))
    lx1 = max(lx1, lx0 + 1)
    ly1 = max(ly1, ly0 + 1)

    def px(v: float) -> float:
        return left + (math.log10(v) - lx0) / (lx1 - lx0) * (width - left - right)

    def py(v: float) -> float:
        return height - bottom - (math.log10(v) - ly0) / (ly1 - ly0) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:g}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for exp in range(lx0, lx1 + 1):
        x = px(10.0**exp)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top:g}" x2="{x:.1f}" y2="{height - bottom:g}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - bottom + 16:g}" text-anchor="middle">1e{exp}</text>'
        )
    for exp in range(ly0, ly1 + 1):
        y = py(10.0**exp)
        parts.append(
            f'<line x1="{left:g}" y1="{y:.1f}" x2="{width - right:g}" y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(f'<text x="{left - 6:g}" y="{y + 4:.1f}" text-anchor="end">1e{exp}</text>')
    for k, (name, (x, y)) in enumerate(curves.items()):
        color = _SVG_PALETTE[k % len(_SVG_PALETTE)]
        pts = " ".join(f"{px(float(a)):.1f},{py(float(b)):.1f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - right - 4:g}" y="{top + 14 * (k + 1):g}" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def table_svg(table: Table) -> str:
    """Render a table's positive columns against its first: errors against n, or against eta."""
    steps = [row[0] for row in table.rows]
    curves = {}
    for col in range(1, len(table.columns)):
        ys = [row[col] for row in table.rows]
        if all(isinstance(v, float) and v > 0 for v in ys):
            curves[table.columns[col]] = (steps, ys)
    if not curves:
        raise ValueError(f"table {table.name!r} has no positive series to plot")
    return render_loglog_svg(table.name, curves)
