"""Streaming SGD on the absolute loss, with squared and Huber variants.

The estimator never solves a system or stores the data: each observation
updates the iterate once and is discarded. For the absolute loss the update
is theta += gamma_n sgn(y - <x, theta>) x, so its size is gamma_n ||x||
regardless of how wild the response is; that single fact is the robustness
mechanism. Iterates are averaged online and errors are checkpointed against
the model known to the harness (the estimator itself never reads theta* or H).

All estimators run on one batched engine, `run_batch`. It walks S streams
at once, each with its own model and R estimators, holding the iterates as
an (S, R, d) array, so the estimators of a stream advance in lockstep on the
same observations and independent streams (replications, corruption levels,
covariances) share one pass of the per-row loop. Every loss is one
influence function,

    psi(r) = clip(r * s, -lo, lo):  L1 s = inf, lo = 1;  L2 lo = inf;  Huber lo = tau,

and the per-row loop keeps only the dependent chain (residual, influence,
rank-one update), pausing at checkpoint rows to read the iterates. The
averaged iterate and min |r| are closed forms evaluated once per chunk from
that chunk's coefficients. The tests hold a one-observation scalar reference
that the engine is checked against, bit for bit on the trajectory.

A stream is a triple of arrays (X, y, corrupted), as `datagen` draws it;
`run` and `oracle_ls_run` drive the engine for one estimator, on a model
(drawn chunk by chunk) or on such a triple.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np
from numpy import add, matmul, multiply, subtract

try:  # the bare ufunc: np.clip's argument checks cost more than the clip itself
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .core import (
    CONSTANT,
    Huber,
    L1,
    L2,
    Loss,
    NonFiniteError,
    RegressionModel,
    RunRecord,
    StepSchedule,
    loss_label,
    short_digest,
)
from .datagen import _chunk_arrays, array_chunks, stacked_chunks

# The L1 influence scales residuals by the largest double instead of inf:
# every residual with |r| > gamma * 2**-1023 is clipped to its sign, and a
# zero residual gives 0 rather than the NaN of 0 * inf.
_SIGN_SCALE = np.finfo(float).max


def default_gamma0(model: RegressionModel) -> float:
    """Practical step scale 1 / trace(H)."""
    return 1.0 / model.design.r2


def default_checkpoints(n_steps: int, ratio: float = 1.25) -> np.ndarray:
    """Geometric checkpoint grid within [1, n_steps], always ending at n_steps."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if ratio <= 1.0:
        raise ValueError(f"checkpoint ratio must be > 1, got {ratio}")
    marks = set()
    v = 1.0
    while v <= n_steps:
        marks.add(int(math.ceil(v)))
        v *= ratio
    marks.add(n_steps)
    return np.array(sorted(marks), dtype=np.int64)


def _validated_checkpoints(checkpoint_plan, n_steps: int) -> np.ndarray:
    if checkpoint_plan is None:
        return default_checkpoints(n_steps)
    plan = np.asarray(checkpoint_plan, dtype=np.int64)
    if plan.size == 0:
        raise ValueError("checkpoint plan is empty")
    if np.any(np.diff(plan) <= 0):
        raise ValueError("checkpoint plan must be strictly increasing")
    if plan[0] < 1 or plan[-1] > n_steps:
        raise ValueError(f"checkpoints must lie in [1, {n_steps}], got [{plan[0]}, {plan[-1]}]")
    return plan


# ---------------------------------------------------------------------------
# the batched engine


@dataclass(frozen=True, eq=False)
class Estimator:
    """One row of the engine and the provenance its record carries.

    A clean_only row (the least-squares oracle) steps only on observations
    not flagged as corrupted: its step counter, step sizes, checkpoints,
    average and min |r| all count its own steps. The plan defaults to the
    geometric grid over n_steps.
    """

    loss: Loss
    schedule: StepSchedule
    n_steps: int
    checkpoint_plan: Optional[np.ndarray] = None
    clean_only: bool = False
    digest: str = ""
    seed: int = 0
    plan: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not isinstance(self.loss, (L1, L2, Huber)):
            raise TypeError(f"not a loss: {self.loss!r}")
        object.__setattr__(self, "plan", _validated_checkpoints(self.checkpoint_plan, self.n_steps))


# The loop refills its buffers once per window of stream rows, and each window
# row holds six small array views: windows of at most 256 rows and about this
# many (row, estimator) cells keep the buffers and views under 1 MB.
_WINDOW_CELLS = 4096
_ROW_BUFFERS = ("r", "scale", "neg_lo", "lo", "c")


def _window_views(s_count: int, r_count: int):
    """Window buffers and, per stream row, a (S, 1, 1, 1) response view and (S, R, 1, 1) views."""
    rows = min(256, max(16, _WINDOW_CELLS // (s_count * r_count)))
    buf = {name: np.empty((rows, s_count, r_count)) for name in _ROW_BUFFERS}
    buf["y"] = np.empty((rows, s_count, 1))
    names = ("y",) + _ROW_BUFFERS
    steps = list(zip(*(buf[name][:, :, :, None, None] for name in names)))
    return buf, steps


def _advance(theta, x, y, scale, lo, r_out, c_out, window, tmp) -> None:
    """The dependent chain over consecutive stream rows, every estimator of every stream at once.

    Row i takes c = clip((y_si - x_si . theta_sr) * scale_isr, -lo_isr, lo_isr)
    and steps theta_sr += c x_si; residuals and coefficients go to r_out and
    c_out. A stream's features are read as (S, 1, 1, d) against theta seen as
    (S, R, d, 1) and (S, R, 1, d): the stacked (1, d) @ (d, 1) products give
    each estimator's dot product bit for bit as `x @ theta_sr`, which a
    (R, d) @ (d,) product does not.
    """
    buf, steps = window
    theta_col, theta_row = theta[:, :, :, None], theta[:, :, None, :]
    for a in range(0, len(y), len(steps)):
        n = min(len(steps), len(y) - a)
        buf["y"][:n, :, 0] = y[a : a + n]
        buf["scale"][:n] = scale[a : a + n]
        buf["lo"][:n] = lo[a : a + n]
        np.negative(lo[a : a + n], out=buf["neg_lo"][:n])
        for x_i, (y_i, r, s, neg_lo, hi, c) in zip(x[a : a + n, :, None, None, :], steps):
            matmul(x_i, theta_col, out=r)
            subtract(y_i, r, out=r)
            multiply(r, s, out=c)
            _clip(c, neg_lo, hi, out=c)
            multiply(c, x_i, out=tmp)
            add(theta_row, tmp, out=theta_row)
        r_out[a : a + n] = buf["r"][:n]
        c_out[a : a + n] = buf["c"][:n]


def _row_array(rows, value, dtype=float) -> np.ndarray:
    return np.array([[value(row) for row in stream] for stream in rows], dtype=dtype)


def run_batch(
    grid: Sequence[Sequence[Estimator]],
    chunks: Iterable[tuple],
    models: Sequence[RegressionModel],
    theta0=None,
    record_iterates: bool = False,
) -> List[List[RunRecord]]:
    """Run S streams at once, each with its own model and the same number R of rows.

    `grid[s]` holds stream s's rows and `models[s]` the model its errors are
    measured against. Chunks are (X (b, S, d), y (b, S), corrupted (b, S))
    of at most `datagen.CHUNK` rows, as `datagen.stacked_chunks` lays them
    out. Row (s, r) takes gamma_sr times clip(r s_sr, -lo_sr, lo_sr) as its
    step coefficient; masks and step sizes are laid out per chunk, then
    `_advance` runs the chunk, pausing after each checkpoint row. The running
    sum of pre-update iterates, the averages at checkpoints and min |r| follow
    in closed form from the chunk's coefficients, stream by stream, so memory
    stays bounded by the chunk size whatever the stream length, and a
    stream's records do not depend on which streams share the call. Returns
    records as grid[s][r]. Raises NonFiniteError on a non-finite response
    (naming its stream index) or a diverged iterate.
    """
    s_count, r_count = len(models), len(grid[0]) if len(grid) else 0
    if not s_count or len(grid) != s_count or not r_count or any(len(rows) != r_count for rows in grid):
        raise ValueError(f"need one model and the same number of rows for each stream, got {s_count} models")
    d = models[0].d
    if any(m.d != d for m in models):
        raise ValueError("every stream's model must have the same dimension")
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.size != d:
        raise ValueError(f"theta0 has dimension {theta0.size}, model has {d}")
    n_steps = _row_array(grid, lambda row: row.n_steps, np.int64)
    clean_only = _row_array(grid, lambda row: row.clean_only, bool)
    is_l1 = _row_array(grid, lambda row: isinstance(row.loss, L1), bool)
    lo = _row_array(grid, lambda row: 1.0 if isinstance(row.loss, L1) else getattr(row.loss, "tau", math.inf))
    gamma0 = _row_array(grid, lambda row: row.schedule.gamma0)
    constant = _row_array(grid, lambda row: row.schedule.kind == CONSTANT, bool)

    theta = np.tile(theta0, (s_count, r_count, 1))
    tmp = np.empty((s_count, r_count, 1, d))
    sums = np.zeros_like(theta)  # per row: sum of its pre-update iterates so far
    done = np.zeros((s_count, r_count), dtype=np.int64)
    min_r = np.full((s_count, r_count), math.inf)
    errs = [[np.empty((3, row.plan.size)) for row in stream] for stream in grid]
    iterates = [[np.empty((row.n_steps, d)) for row in stream] for stream in grid] if record_iterates else None
    window = _window_views(s_count, r_count)
    plans = [[row.plan.tolist() for row in stream] for stream in grid]
    seen = 0

    for x, y, corrupted in chunks:
        eligible = ~(clean_only[None] & np.asarray(corrupted, dtype=bool)[:, :, None])
        count = done + np.cumsum(eligible, axis=0)  # each row's own step index
        active = eligible & (count <= n_steps)
        read = active.any(axis=2)  # chunk rows each stream's estimators read
        used = np.flatnonzero(read.any(axis=1))
        b = int(used[-1]) + 1 if used.size else 0  # rows past the last active one stay unread
        bad = np.argwhere(~np.isfinite(y[:b]) & read[:b])
        if bad.size:
            i, s = bad[0]
            where = f" of stream {s}" if s_count > 1 else ""
            raise NonFiniteError(f"non-finite response {float(y[i, s])!r} at stream index {seen + i}{where}")
        seen += y.shape[0]
        if b == 0:
            continue
        # rows a stream does not read step nothing, and their responses are not looked at
        active, y = active[:b], np.where(read[:b], y[:b], 0.0)
        # in place where it can be: these arrays are chunk rows by S by R
        gamma = np.sqrt(np.maximum(count[:b], 1, out=count[:b]))
        del eligible, count
        np.divide(gamma0, gamma, out=gamma)
        np.copyto(gamma, gamma0, where=constant)
        scale = np.where(is_l1, _SIGN_SCALE, gamma)
        bound = np.multiply(gamma, lo, out=gamma)
        idle = ~active
        scale[idle], bound[idle] = 0.0, 0.0
        del gamma, idle

        # checkpoints inside the chunk: the chunk row of each one's step
        own = np.cumsum(active, axis=0)  # each row's own steps up to and including a chunk row
        taken = own[-1]
        marks = {}  # (s, r): first, end, targets, chunk rows and last iterates of its checkpoints in the chunk
        readers = {b - 1: []}  # chunk row: the (s, r) rows with a checkpoint at it
        before, reached = done.tolist(), (done + taken).tolist()
        for s, stream in enumerate(grid):
            for r, row in enumerate(stream):
                first = bisect_right(plans[s][r], before[s][r])
                end = bisect_right(plans[s][r], reached[s][r])
                if end > first:
                    targets = row.plan[first:end] - before[s][r]
                    marks[s, r] = (first, end, targets, np.searchsorted(own[:, s, r], targets), [])
                    for i in marks[s, r][3].tolist():
                        readers.setdefault(i, []).append((s, r))

        # the loop pauses after each checkpoint row to copy the iterates read there
        start = theta.copy()
        xb, rb, cb = x[:b], np.empty((b, s_count, r_count)), np.empty((b, s_count, r_count))
        with np.errstate(over="ignore", invalid="ignore"):
            begin = 0
            for stop in sorted(readers):
                part = slice(begin, stop + 1)
                _advance(theta, xb[part], y[part], scale[part], bound[part], rb[part], cb[part], window, tmp)
                for key in readers[stop]:
                    marks[key][4].append(theta[key].copy())
                begin = stop + 1
        if not (np.isfinite(rb).all() and np.isfinite(theta).all()):
            _raise_divergence(grid, rb, theta, active, done)
        del scale, bound  # the chain's inputs: the closed forms below do not need them

        if iterates is not None:
            paths = np.empty((b,) + theta.shape)
            paths[0] = start
            np.multiply(cb[:-1, :, :, None], xb[:-1, :, None, :], out=paths[1:])
            np.cumsum(paths, axis=0, out=paths)
            for (s, r), n in np.ndenumerate(taken):
                if n:
                    iterates[s][r][done[s, r] : done[s, r] + n] = paths[active[:, s, r], s, r]
        rows_read = (b - np.argmax(read[b - 1 :: -1], axis=0)) * read.any(axis=0)  # per stream
        for s, m in enumerate(rows_read.tolist()):
            if not m:
                continue
            # a product's rounding depends on the length and layout of its operands, so each
            # stream's products run on its own rows only, as they would with no other stream
            xs = np.ascontiguousarray(xb[:m, s])
            for r in range(r_count):
                if (s, r) in marks:
                    first, end, targets, at, last = marks[s, r]
                    bar = _averages(targets, at, own[:, s, r], cb[:, s, r], xs, start[s, r], sums[s, r], done[s, r])
                    errs[s][r][:, first:end] = _errors(bar, np.array(last), models[s].theta_star, models[s].design.h)
            sums[s] += taken[s, :, None] * start[s] + ((taken[s] - own[:m, s]) * cb[:m, s]).T @ xs
        min_r = np.minimum(min_r, np.where(active, np.abs(rb), math.inf).min(axis=0))
        done += taken
        if np.all(done == n_steps):
            break  # before the next chunk is drawn
        del x, y, corrupted, xb, xs, marks  # not held while the next chunk is drawn

    if np.any(done < n_steps):
        s, r = np.argwhere(done < n_steps)[0]
        raise ValueError(
            f"stream ended after {seen} samples with {loss_label(grid[s][r].loss)} at "
            f"{done[s, r]} of {n_steps[s, r]} steps"
        )
    return [
        [
            RunRecord(
                steps=row.plan, err_h=errs[s][r][0], err_2=errs[s][r][1], err_last_h=errs[s][r][2],
                config_digest=row.digest, seed=int(row.seed), theta_bar=sums[s, r] / row.n_steps,
                theta_last=theta[s, r].copy(), min_abs_residual=float(min_r[s, r]),
                iterates=None if iterates is None else iterates[s][r],
            )
            for r, row in enumerate(stream)
        ]
        for s, stream in enumerate(grid)
    ]


def _averages(targets, at, own, coef, x, start, sums, done) -> np.ndarray:
    """One row's averaged iterates at the checkpoints inside a chunk.

    With theta_j = start + sum_{l<j} coef_l x_l, the row's own steps up to
    chunk row i add own_i * start + sum_{l<=i} (own_i - own_l) coef_l x_l to
    the running sum of its pre-update iterates. `targets` are the checkpoint
    step counts relative to the chunk start and `at` their chunk rows.
    """
    bar = np.empty((targets.size, x.shape[1]))
    for j, (t, i) in enumerate(zip(targets, at + 1)):
        bar[j] = (sums + t * start + (coef[:i] * (t - own[:i])) @ x[:i]) / (done + t)
    return bar


def _errors(bar, last, theta_star, h) -> np.ndarray:
    """(err_H, err_2, err_last_H) of iterates given row by row."""
    d_bar, d_last = bar - theta_star, last - theta_star
    return np.stack([
        np.einsum("md,de,me->m", d_bar, h, d_bar),
        np.einsum("md,md->m", d_bar, d_bar),
        np.einsum("md,de,me->m", d_last, h, d_last),
    ])


def _raise_divergence(grid, residuals, theta, active, done) -> None:
    bad = np.argwhere(~np.isfinite(residuals))
    if bad.size:
        i, s, r = bad[0]
    else:  # the chunk's last update overflowed
        i, (s, r) = residuals.shape[0] - 1, np.argwhere(~np.isfinite(theta).all(axis=2))[0]
    row = grid[s][r]
    step = int(done[s, r] + np.count_nonzero(active[: i + 1, s, r]))
    raise NonFiniteError(
        f"{loss_label(row.loss)} with gamma0={row.schedule.gamma0!r} diverged: "
        f"non-finite iterate by step {step}"
    )


# ---------------------------------------------------------------------------
# single-estimator drivers


def _stream_arrays(stream):
    """(X, y, corrupted) as float, float and bool arrays; a nonzero corruption value b flags its row."""
    x, y, corrupted = stream
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    corrupted = np.asarray(corrupted, dtype=bool)
    if x.ndim != 2 or y.shape != (x.shape[0],) or corrupted.shape != y.shape:
        raise ValueError(f"stream arrays disagree: X {x.shape}, y {y.shape}, corrupted {corrupted.shape}")
    return x, y, corrupted


def run_digest(loss, schedule, n_steps, seed, model, theta0, plan) -> str:
    """Config digest of an averaged-SGD run record."""
    return short_digest(
        [
            "run",
            loss_label(loss),
            schedule.kind,
            schedule.gamma0.hex(),
            n_steps,
            seed,
            model.fingerprint(),
            theta0,
            plan,
        ]
    )


def oracle_digest(gamma0, n_steps, n_offered, n_clean, model) -> str:
    """Config digest of a clean-data oracle record."""
    return short_digest(["oracle_ls", gamma0, n_steps, n_offered, n_clean, model.fingerprint()])


def run(
    source: Union[RegressionModel, Sequence[np.ndarray]],
    loss: Loss,
    schedule: StepSchedule,
    n_steps: int,
    checkpoint_plan=None,
    seed: int = 0,
    *,
    model: Optional[RegressionModel] = None,
    theta0=None,
    record_iterates: bool = False,
) -> RunRecord:
    """One estimator over one stream: the engine with S = R = 1.

    `source` is either a model (a fresh seeded stream is generated from it,
    chunk by chunk) or an (X, y, corrupted) triple, of which the first
    n_steps rows are used; `model` must then be given so errors can be
    measured. Deterministic: identical arguments produce a bit-identical
    record.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if isinstance(source, RegressionModel):
        if model is None:
            model = source
        chunks = stacked_chunks([_chunk_arrays(source, seed)])
    else:
        if model is None:
            raise ValueError("a reference model is required when running from stream arrays")
        x, y, corrupted = _stream_arrays(source)
        if y.size < n_steps:
            raise ValueError(f"stream ended after {y.size} samples, {n_steps} steps requested")
        chunks = array_chunks(x[:n_steps, None], y[:n_steps, None], corrupted[:n_steps, None])
    plan = _validated_checkpoints(checkpoint_plan, n_steps)
    theta0 = np.zeros(model.d) if theta0 is None else np.asarray(theta0, dtype=float).reshape(-1)
    row = Estimator(
        loss, schedule, n_steps, plan,
        digest=run_digest(loss, schedule, n_steps, seed, model, theta0, plan),
        seed=int(seed),
    )
    ((record,),) = run_batch([[row]], chunks, [model], theta0, record_iterates)
    return record


def oracle_ls_run(
    stream: Sequence[np.ndarray],
    gamma0: float,
    n_steps: Optional[int] = None,
    *,
    model: RegressionModel,
    checkpoint_plan=None,
    theta0=None,
) -> RunRecord:
    """Clean-data baseline: constant-step averaged squared-loss SGD.

    `stream` is an (X, y, corrupted) triple. Every row flagged as corrupted
    is dropped before it reaches the estimator; this is the one consumer
    allowed to read the flags. With n_steps omitted, all clean rows are
    consumed. (Within a cell, the engine instead masks the oracle row off on
    the corrupted rows.)
    """
    x, y, corrupted = _stream_arrays(stream)
    clean = ~corrupted
    n_clean = int(np.count_nonzero(clean))
    if n_clean == 0:
        raise ValueError(f"all {y.size} samples are corrupted, nothing to run on")
    if n_steps is None:
        n_steps = n_clean
    elif n_clean < n_steps:
        raise ValueError(
            f"only {n_clean} clean samples among {y.size}, {n_steps} steps requested"
        )
    row = Estimator(
        L2(), StepSchedule(gamma0, CONSTANT), n_steps, checkpoint_plan,
        digest=oracle_digest(gamma0, n_steps, y.size, n_clean, model),
    )
    chunks = array_chunks(x[clean, None], y[clean, None], corrupted[clean, None])
    ((record,),) = run_batch([[row]], chunks, [model], theta0)
    return record
