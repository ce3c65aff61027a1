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
rank-one update), pausing at checkpoint rows to read the iterates. The chain
is six numpy calls per stream row on same-shape (S, R) operands: the
responses are laid out across the R estimators beforehand, so nothing
broadcasts them, and the residual's dot products come from `np.vecdot`,
which makes one unit-stride BLAS ddot per (stream, estimator) pair, as the
scalar `x @ theta` does, and so matches it bit for bit. The tests hold a
one-observation scalar reference that the engine is checked against, bit
for bit on the trajectory.

Everything else is per chunk, in whole-grid array operations. The averaged
iterates and min |r| are closed forms of the chunk's coefficients, and the
errors of every checkpoint in the chunk take three `np.vecdot` passes, the
two H forms one call per design. A vecdot value is one ddot, whatever else
shares the call, so a record does not depend on the chunk size, on its
other checkpoints or on the streams beside it.

Chunks come from `datagen.stacked_chunks`: each is written in place into a
stream-major buffer and read as a (rows, S, d) view, so a stream's rows are
contiguous and nothing is copied to step them. `run` and `oracle_ls_run`
drive the engine for one estimator, on a model (drawn chunk by chunk) or on
a stored (X, y, corrupted) triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np
from numpy import add, multiply, subtract, vecdot

# bare: np.clip's argument checks cost more than the clip
from numpy._core.umath import clip as _clip

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
    check_errors,
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


def _step_count(n_steps) -> int:
    """n_steps as an int; a ValueError naming it unless it is a whole number >= 1."""
    if not (isinstance(n_steps, (int, float, np.integer, np.floating)) and float(n_steps).is_integer() and n_steps >= 1):
        raise ValueError(f"n_steps must be a whole number >= 1, got {n_steps!r}")
    return int(n_steps)


def default_checkpoints(n_steps: int) -> np.ndarray:
    """Geometric checkpoint grid of ratio 1.25 within [1, n_steps], always ending at n_steps."""
    n_steps = _step_count(n_steps)
    marks = set()
    v = 1.0
    while v <= n_steps:
        marks.add(int(math.ceil(v)))
        v *= 1.25
    marks.add(n_steps)
    return np.array(sorted(marks), dtype=np.int64)


def _validated_checkpoints(checkpoint_plan, n_steps: int) -> np.ndarray:
    if checkpoint_plan is None:
        return default_checkpoints(n_steps)
    raw = np.asarray(checkpoint_plan)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf" or not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise ValueError(f"checkpoint plan must be a 1-D sequence of whole numbers, got {checkpoint_plan!r}")
    plan = raw.astype(np.int64)
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

    A row steps on every observation of its stream that it may read, so
    n_steps is their count: every row, or for a clean_only row (the
    least-squares oracle) every row not flagged as corrupted. A clean_only
    row's step counter, step sizes, checkpoints, average and min |r| all
    count its own steps. The plan defaults to the geometric grid over n_steps.
    """

    loss: Loss
    schedule: StepSchedule
    n_steps: int
    checkpoint_plan: Optional[np.ndarray] = None
    clean_only: bool = False
    digest: str = ""
    plan: np.ndarray = field(init=False)

    def __post_init__(self):
        _step_count(self.n_steps)
        if not isinstance(self.loss, (L1, L2, Huber)):
            raise TypeError(f"not a loss: {self.loss!r}")
        object.__setattr__(self, "plan", _validated_checkpoints(self.checkpoint_plan, self.n_steps))


# The loop refills its buffers once per window of stream rows, and each window
# row holds seven views, about 1 kB: an (S, R) view of each of the six
# (rows, S, R) buffers and an (S, R, 1) view of c. Windows of at most 256 rows
# and about this many (row, estimator) cells keep the buffers near 200 kB
# while S R <= 256, and the views under 270 kB.
_WINDOW_CELLS = 4096
_ROW_BUFFERS = ("y", "r", "scale", "neg_lo", "lo", "c")


def _window_views(s_count: int, r_count: int):
    """Window buffers and, per stream row, (S, R) views of each and an (S, R, 1) view of c.

    The responses fill all R columns of their buffer, so the residual's
    subtract sees two operands of one shape and broadcasts nothing.
    """
    rows = min(256, max(16, _WINDOW_CELLS // (s_count * r_count)))
    buf = {name: np.empty((rows, s_count, r_count)) for name in _ROW_BUFFERS}
    steps = list(zip(*(buf[name] for name in _ROW_BUFFERS), buf["c"][:, :, :, None]))
    return buf, steps


def _advance(theta, x, y, scale, lo, r_out, c_out, window, tmp) -> None:
    """The dependent chain over consecutive stream rows, every estimator of every stream at once.

    Row i takes c = clip((y_si - x_si . theta_sr) * scale_isr, -lo_isr, lo_isr)
    and steps theta_sr += c x_si; residuals and coefficients go to r_out and
    c_out. Each row is six numpy calls on (S, R) operands, with theta (S, R, d)
    updated through tmp (S, R, d). The residual's dot product is
    vecdot(x_si (S, 1, d), theta (S, R, d)): like `x @ theta_sr`, it makes one
    unit-stride ddot per (stream, estimator) pair, so it gives each estimator's
    dot product bit for bit as the scalar `x @ theta_sr`, which a (R, d) @ (d,)
    product does not.
    """
    buf, steps = window
    for a in range(0, len(y), len(steps)):
        n = min(len(steps), len(y) - a)
        buf["y"][:n] = y[a : a + n, :, None]
        buf["scale"][:n] = scale[a : a + n]
        buf["lo"][:n] = lo[a : a + n]
        np.negative(lo[a : a + n], out=buf["neg_lo"][:n])
        for x_i, (y_i, r, s, neg_lo, hi, c, c_col) in zip(x[a : a + n, :, None, :], steps):
            vecdot(x_i, theta, r)  # outputs passed positionally: parsing an out= keyword costs more
            subtract(y_i, r, r)
            multiply(r, s, c)
            _clip(c, neg_lo, hi, c)
            multiply(c_col, x_i, tmp)
            add(theta, tmp, theta)
        r_out[a : a + n] = buf["r"][:n]
        c_out[a : a + n] = buf["c"][:n]


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
    of at most `datagen.CHUNK` rows; a nonzero or true `corrupted` flags a
    row. `datagen.stacked_chunks` yields them as views of a stream-major
    buffer, X (S, CHUNK, d), so each stream's rows X[:, s] are contiguous,
    and writes the next chunk over the last: the engine is done with a chunk
    before it asks for the next.

    Every row steps on each stream row that it may read, to the end of its
    stream: all of them, or the clean ones for a clean_only row. A ValueError
    names a row whose stream runs past its n_steps, or ends short of them.

    Row (s, r) takes gamma_sr times clip(r s_sr, -lo_sr, lo_sr) as its step
    coefficient; masks and step sizes are laid out per chunk, then `_advance`
    runs the chunk, pausing after each checkpoint row. The running sum of
    pre-update iterates, the averages at checkpoints and min |r| follow in
    closed form from the chunk's coefficients, for every row at once, and so
    do the errors of the chunk's checkpoints, so memory stays bounded by the
    chunk size whatever the stream length, and a stream's records do not
    depend on which streams share the call. Returns
    records as grid[s][r]. Raises NonFiniteError on any non-finite response
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
    if not np.all(np.isfinite(theta0)):
        raise ValueError(f"theta0 must be finite, got {theta0.tolist()}")
    # row k = s R + r; its checkpoints are plan[at[k] : at[k + 1]], their errors those columns of errs
    rows = [row for stream in grid for row in stream]
    k_count = len(rows)

    def row_array(values, dtype=float) -> np.ndarray:
        return np.array(values, dtype=dtype).reshape(s_count, r_count)

    n_steps = row_array([row.n_steps for row in rows], np.int64)
    clean_only = row_array([row.clean_only for row in rows], bool)
    is_l1 = row_array([isinstance(row.loss, L1) for row in rows], bool)
    lo = row_array([1.0 if isinstance(row.loss, L1) else getattr(row.loss, "tau", math.inf) for row in rows])
    gamma0 = row_array([row.schedule.gamma0 for row in rows])
    constant = row_array([row.schedule.kind == CONSTANT for row in rows], bool)
    at = np.cumsum([0] + [row.plan.size for row in rows])
    plan = np.concatenate([row.plan for row in rows])
    plan_row = np.repeat(np.arange(k_count), np.diff(at))
    errs = np.empty((3, plan.size))
    theta_star = np.array([m.theta_star for m in models])
    designs = {}  # the error forms take one call per design, for every stream that shares it
    stream_design = np.array([designs.setdefault(id(m.design), (len(designs), m.design.h))[0] for m in models])
    hs = [h for _, h in designs.values()]
    paths = [] if record_iterates else None  # per chunk: the iterates before each row, and who stepped

    theta = np.tile(theta0, (s_count, r_count, 1))
    tmp = np.empty_like(theta)
    sums = np.zeros_like(theta)  # per row: sum of its pre-update iterates so far
    done = np.zeros((s_count, r_count), dtype=np.int64)
    min_r = np.full((s_count, r_count), math.inf)
    window = _window_views(s_count, r_count)
    seen = 0

    for x, y, corrupted in chunks:
        b = y.shape[0]
        if not np.isfinite(y).all():
            i, s = np.argwhere(~np.isfinite(y))[0]
            where = f" of stream {s}" if s_count > 1 else ""
            raise NonFiniteError(f"non-finite response {float(y[i, s])!r} at stream index {seen + i}{where}")
        eligible = ~(clean_only[None] & np.asarray(corrupted, dtype=bool)[:, :, None])
        own = eligible.astype(np.int64)  # each row's own steps up to and including a chunk row
        np.cumsum(own, axis=0, out=own)  # a cumsum in place is about 3x faster
        taken = own[-1]
        if np.any(over := done + taken > n_steps):  # a row's n_steps are all the rows it may read
            s, r = np.argwhere(over)[0]
            i = seen + int(np.argmax(own[:, s, r] + done[s, r] > n_steps[s, r]))
            raise ValueError(
                f"stream runs past the n_steps={n_steps[s, r]} of {loss_label(grid[s][r].loss)} at stream index {i}"
            )
        seen += b
        # in place where it can be: these arrays are chunk rows by S by R
        gamma = np.sqrt(own + done)  # each row's own step index; 0 only where the row does not step
        np.maximum(gamma, 1.0, out=gamma)
        np.divide(gamma0, gamma, out=gamma)
        np.copyto(gamma, gamma0, where=constant)
        scale = np.where(is_l1, _SIGN_SCALE, gamma)
        bound = np.multiply(gamma, lo, out=gamma)
        scale[~eligible], bound[~eligible] = 0.0, 0.0

        # every row's checkpoints in the chunk: mark j is entry marks[j] of plan, row mark_row[j]'s
        # mark_step[j]-th step in the chunk, at chunk row mark_at[j], found in one search of the
        # rows' nondecreasing step counts laid end to end, column c offset by c (b + 1)
        before = done.reshape(k_count)
        inside = plan > before[plan_row]
        inside &= plan <= (before + taken.reshape(k_count))[plan_row]
        marks = np.flatnonzero(inside)
        mark_row = plan_row[marks]
        mark_step = plan[marks] - before[mark_row]
        keys = own.reshape(b, k_count).T + (np.arange(k_count) * (b + 1))[:, None]
        mark_at = np.searchsorted(keys.ravel(), mark_row * (b + 1) + mark_step) - mark_row * b

        # the loop pauses after each checkpoint row to copy the iterates read there
        start, last = theta.copy(), np.empty((marks.size, d))
        rb, cb = np.empty((b, s_count, r_count)), np.empty((b, s_count, r_count))
        with np.errstate(over="ignore", invalid="ignore"):
            begin = 0
            for stop in sorted(set(mark_at.tolist()) | {b - 1}):  # not np.unique, which imports numpy.ma
                part = slice(begin, stop + 1)
                _advance(theta, x[part], y[part], scale[part], bound[part], rb[part], cb[part], window, tmp)
                reached = np.flatnonzero(mark_at == stop)
                last[reached] = theta.reshape(k_count, d)[mark_row[reached]]
                begin = stop + 1
        if not (np.isfinite(rb).all() and np.isfinite(theta).all()):
            _raise_divergence(grid, rb, theta, eligible, done)
        del scale, bound  # the chain's inputs: the closed forms below do not need them

        if paths is not None:
            path = np.empty((b,) + theta.shape)
            path[0] = start
            np.multiply(cb[:-1, :, :, None], x[:-1, :, None, :], out=path[1:])
            np.cumsum(path, axis=0, out=path)
            paths.append((path.reshape(b, k_count, d), eligible.reshape(b, k_count)))

        # a product's rounding depends on the length and layout of its operands, so each
        # stream's products run on its own rows only, as they would with no other stream
        ahead = np.empty((marks.size, d))  # per mark: sum over chunk rows l <= its row of (t - own_l) coef_l x_l
        moved = np.empty_like(sums)  # per row: sum over the chunk of (taken - own_l) coef_l x_l
        stream_marks = np.searchsorted(mark_row, np.arange(0, k_count + 1, r_count)).tolist()
        per_mark = list(zip((mark_row % r_count).tolist(), mark_step.tolist(), (mark_at + 1).tolist()))
        for s in range(s_count):
            xs = np.ascontiguousarray(x[:, s])
            for j in range(stream_marks[s], stream_marks[s + 1]):
                r, t, i = per_mark[j]
                ahead[j] = (cb[:i, s, r] * (t - own[:i, s, r])) @ xs[:i]
            moved[s] = ((taken[s] - own[:, s]) * cb[:, s]).T @ xs
        # with theta_j = start + sum_{l<j} coef_l x_l, a row's own steps up to chunk row i add
        # own_i start + sum_{l<=i} (own_i - own_l) coef_l x_l to the sum of its pre-update iterates
        d_bar = sums.reshape(k_count, d)[mark_row]  # in place from here: a first chunk has many marks
        d_bar += mark_step[:, None] * start.reshape(k_count, d)[mark_row]
        d_bar += ahead
        d_bar /= (before[mark_row] + mark_step)[:, None]
        # (err_H, err_2, err_last_H) of every mark at once, the H forms one call per design: each
        # value is one vecdot, a ddot per pair, so it does not depend on which marks share the call
        mark_stream = mark_row // r_count
        d_bar -= theta_star[mark_stream]
        d_last = np.subtract(last, theta_star[mark_stream], out=last)
        with np.errstate(over="ignore"):  # an overflow is reported by check_errors after the loop
            errs[1, marks] = vecdot(d_bar, d_bar)
            for g, h_g in enumerate(hs):
                of = slice(None) if len(hs) == 1 else np.flatnonzero(stream_design[mark_stream] == g)
                for k, diff in ((0, d_bar[of]), (2, d_last[of])):
                    errs[k, marks[of]] = vecdot(diff, vecdot(diff[:, None, :], h_g))
        sums += taken[:, :, None] * start + moved
        min_r = np.minimum(min_r, np.where(eligible, np.abs(rb), math.inf).min(axis=0))
        done += taken
        del x, y, corrupted, xs, last, d_bar, d_last, ahead  # not held while the next chunk is drawn

    if np.any(done < n_steps):
        s, r = np.argwhere(done < n_steps)[0]
        raise ValueError(
            f"stream ended after {seen} samples with {loss_label(grid[s][r].loss)} at "
            f"{done[s, r]} of {n_steps[s, r]} steps"
        )
    check_errors(errs)  # every record's at once; each plan was checked when its Estimator was made
    if paths is not None:  # each row's iterates at the stream rows it stepped on; a view when it stepped on all
        path, stepped = (np.concatenate(parts) if len(parts) > 1 else parts[0] for parts in zip(*paths))
        iterates = [path[:, k] if stepped[:, k].all() else path[stepped[:, k], k] for k in range(k_count)]
    theta_bar = (sums / n_steps[:, :, None]).reshape(k_count, d)
    theta_last, min_r = theta.reshape(k_count, d).copy(), min_r.reshape(k_count).tolist()
    records = [
        RunRecord.checked(
            steps=row.plan, err_h=(err := errs[:, at[k] : at[k + 1]])[0], err_2=err[1], err_last_h=err[2],
            config_digest=row.digest, theta_bar=theta_bar[k], theta_last=theta_last[k],
            min_abs_residual=min_r[k], iterates=None if paths is None else iterates[k],
        )
        for k, row in enumerate(rows)
    ]
    return [records[s * r_count : (s + 1) * r_count] for s in range(s_count)]


def _raise_divergence(grid, residuals, theta, eligible, done) -> None:
    bad = np.argwhere(~np.isfinite(residuals))
    if bad.size:
        i, s, r = bad[0]
    else:  # the chunk's last update overflowed
        i, (s, r) = residuals.shape[0] - 1, np.argwhere(~np.isfinite(theta).all(axis=2))[0]
    row = grid[s][r]
    step = int(done[s, r] + np.count_nonzero(eligible[: i + 1, s, r]))
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


def oracle_digest(gamma0, n_clean, n_offered, model) -> str:
    """Config digest of a clean-data oracle record: it steps on the n_clean clean rows of n_offered."""
    # the clean count is hashed twice, as the steps and as the rows kept, so that digests keep their bytes
    return short_digest(["oracle_ls", gamma0, n_clean, n_offered, n_clean, model.fingerprint()])


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
    n_steps = _step_count(n_steps)
    if isinstance(source, RegressionModel):
        if model is None:
            model = source
        chunks = stacked_chunks([_chunk_arrays(source, seed, n_steps)], source.d)
    else:
        if model is None:
            raise ValueError("a reference model is required when running from stream arrays")
        x, y, corrupted = _stream_arrays(source)
        if y.size < n_steps:
            raise ValueError(f"stream ended after {y.size} samples, {n_steps} steps requested")
        chunks = stacked_chunks([array_chunks(x[:n_steps], y[:n_steps], corrupted[:n_steps])], x.shape[1])
    plan = _validated_checkpoints(checkpoint_plan, n_steps)
    theta0 = np.zeros(model.d) if theta0 is None else np.asarray(theta0, dtype=float).reshape(-1)
    row = Estimator(
        loss, schedule, n_steps, plan,
        digest=run_digest(loss, schedule, n_steps, seed, model, theta0, plan),
    )
    ((record,),) = run_batch([[row]], chunks, [model], theta0, record_iterates)
    return record


def oracle_ls_run(stream: Sequence[np.ndarray], gamma0: float, *, model: RegressionModel) -> RunRecord:
    """Clean-data baseline: constant-step averaged squared-loss SGD from 0.

    `stream` is an (X, y, corrupted) triple. Every row flagged as corrupted
    is dropped before it reaches the estimator; this is the one consumer
    allowed to read the flags. Every clean row is consumed, with the
    geometric checkpoints. (Within a cell, the engine instead masks the
    oracle row off on the corrupted rows.)
    """
    x, y, corrupted = _stream_arrays(stream)
    clean = ~corrupted
    n_clean = int(np.count_nonzero(clean))
    if n_clean == 0:
        raise ValueError(f"all {y.size} samples are corrupted, nothing to run on")
    row = Estimator(
        L2(), StepSchedule(gamma0, CONSTANT), n_clean,
        digest=oracle_digest(gamma0, n_clean, y.size, model),
    )
    chunks = stacked_chunks([array_chunks(x, y, corrupted, np.flatnonzero(clean))], x.shape[1])
    ((record,),) = run_batch([[row]], chunks, [model])
    return record
