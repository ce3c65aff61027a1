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

and the per-row loop, `_advance`, keeps only the dependent chain (residual,
influence, rank-one update): six numpy calls per stream row on same-shape
(S, R) operands, which match the tests' one-observation scalar reference
bit for bit on the trajectory.

Per chunk, `run_batch` calls named parts. `_Grid` holds the rows as (S, R)
arrays, their plans end to end and each row's checkpoint cursor;
`_own_steps` and `_step_sizes` lay out where each row steps and how far;
`_pauses` yields the chunk rows where some row reaches a checkpoint and
moves those rows' cursors once per pause. There each checkpoint is read
whole: its average from the running sum, the chunk's start and one gemv
of its stream's rows, and its errors from `_errors`, one `np.vecdot` (a
ddot) each, so a record does not depend on the chunk size, its other
checkpoints or the streams beside it. The running sums and min |r| are
closed forms of each chunk's coefficients. No pass scans the data for
non-finite values: a non-finite response or feature leaves a non-finite
residual in every row, and only then does `_raise_divergence` name the
earliest poisoned row, its response before its features.

The engine takes streams, iterators of `datagen` chunk writers, and lays
out their chunks itself: each stream writes into its slice of one
stream-major buffer, X (S, CHUNK, d), which the engine reads as a
(rows, S, d) view, so a stream's rows are contiguous and nothing is copied
to step them. Every row starts at 0, checks its step count and plan once,
as its `Estimator` is made, and is built with its config digest by
`sgd_row` (averaged SGD on a loss) or `oracle_row` (the clean-data
least-squares oracle). A recorded path holds each row's iterate before
every row of its stream. One `sgd_row` on stored (X, y, corrupted) arrays is
`run_batch([[sgd_row(...)]], [array_chunks(x, y, b)], [model])`, and the
oracle there is its masked row, the same call with an `oracle_row`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np
from numpy import add, multiply, subtract, vecdot

# bare: np.clip's argument checks cost more than the clip
from numpy._core.umath import clip as _clip

from .core import (
    CONSTANT,
    Identity,
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
from .datagen import CHUNK

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

    Every row starts at 0; `sgd_row` and `oracle_row` build the package's
    rows with their digests. A row steps on every observation of its stream
    that it may read, so n_steps is their count: every row, or for a
    clean_only row (the least-squares oracle) every row not flagged as
    corrupted. A clean_only row's step counter, step sizes, checkpoints,
    average and min |r| all count its own steps. n_steps and the plan are
    checked here, once; a plan of None becomes the geometric grid over n_steps.
    """

    loss: Loss
    schedule: StepSchedule
    n_steps: int
    plan: Optional[np.ndarray] = None
    clean_only: bool = False
    digest: str = ""

    def __post_init__(self):
        object.__setattr__(self, "n_steps", _step_count(self.n_steps))
        loss_label(self.loss)  # a TypeError unless it is a loss
        object.__setattr__(self, "plan", _validated_checkpoints(self.plan, self.n_steps))


def sgd_row(loss: Loss, schedule: StepSchedule, n_steps: int, seed, model: RegressionModel, plan=None) -> Estimator:
    """Averaged SGD on `loss` from 0, on the plan (the geometric grid by default), with its config digest."""
    row = Estimator(loss, schedule, n_steps, plan)
    digest = short_digest(
        [
            "run",
            loss_label(loss),
            schedule.kind,
            schedule.gamma0.hex(),
            row.n_steps,
            seed,
            model.fingerprint(),
            np.zeros(model.d),  # the start, so that digests keep their bytes
            row.plan,
        ]
    )
    return replace(row, digest=digest)


def oracle_row(gamma0: float, n_clean: int, n_offered: int, model: RegressionModel) -> Estimator:
    """The clean-data oracle, with its config digest: constant-step least squares from 0.

    The row is masked off on corrupted rows, so it steps on the n_clean
    clean rows of the n_offered, with the geometric checkpoints.
    """
    if n_clean == 0:
        raise ValueError(f"all {n_offered} samples are corrupted, nothing to run on")
    # the clean count is hashed twice, as the steps and as the rows kept, so that digests keep their bytes
    digest = short_digest(["oracle_ls", gamma0, n_clean, n_offered, n_clean, model.fingerprint()])
    return Estimator(L2(), StepSchedule(gamma0, CONSTANT), n_clean, clean_only=True, digest=digest)


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


class _Grid:
    """The grid's rows as (S, R) arrays, their plans laid end to end, and their checkpoint cursors.

    Row k = s R + r. Its errors are columns at[k] to at[k + 1] of errs; col[k], its cursor, is the column
    of its next, and marks[col[k] + k] that checkpoint's step, or n_steps + 1 once it has read its last.
    """

    def __init__(self, grid: Sequence[Sequence[Estimator]], models: Sequence[RegressionModel], stream_count: int):
        s_count, r_count = len(models), len(grid[0]) if len(grid) else 0
        if not s_count or len(grid) != s_count or not r_count or any(len(rows) != r_count for rows in grid):
            raise ValueError(f"need one model and the same number of rows for each stream, got {s_count} models")
        if stream_count != s_count:
            raise ValueError(f"need one stream for each of the {s_count} models, got {stream_count} streams")
        self.grid, self.shape, self.d = grid, (s_count, r_count), models[0].d
        if any(m.d != self.d for m in models):
            raise ValueError("every stream's model must have the same dimension")
        self.rows = rows = [row for stream in grid for row in stream]
        self.n_steps = np.array([row.n_steps for row in rows], np.int64).reshape(self.shape)
        self.clean_only = np.array([row.clean_only for row in rows], bool).reshape(self.shape)
        self.is_l1 = np.array([isinstance(row.loss, L1) for row in rows], bool).reshape(self.shape)
        tau = [getattr(row.loss, "tau", math.inf) for row in rows]  # L2 has none: it clips nowhere
        self.lo = np.where(self.is_l1, 1.0, np.reshape(tau, self.shape))
        self.gamma0 = np.array([row.schedule.gamma0 for row in rows], float).reshape(self.shape)
        self.constant = np.array([row.schedule.kind == CONSTANT for row in rows], bool).reshape(self.shape)
        self.at = np.cumsum([0] + [row.plan.size for row in rows])
        self.errs, self.col = np.empty((3, self.at[-1])), self.at[:-1].copy()
        self.marks = np.concatenate([part for row in rows for part in (row.plan, [row.n_steps + 1])])
        self.theta_star = np.array([m.theta_star for m in models])
        self.hs = [None if isinstance(m.covariance, Identity) else m.design.h for m in models]


def _own_steps(g, corrupted, done, seen):
    """Which rows step on each chunk row, and their own steps so far; a ValueError names an over-run."""
    eligible = ~(g.clean_only[None] & (corrupted != 0.0)[:, :, None])
    own = eligible.astype(np.int64)
    np.cumsum(own, axis=0, out=own)  # a cumsum in place is about 3x faster
    if np.any(over := done + own[-1] > g.n_steps):  # a row's n_steps are all the rows it may read
        s, r = np.argwhere(over)[0]
        i = seen + int(np.argmax(own[:, s, r] + done[s, r] > g.n_steps[s, r]))
        raise ValueError(
            f"stream runs past the n_steps={g.n_steps[s, r]} of {loss_label(g.grid[s][r].loss)} at stream index {i}"
        )
    return eligible, own


def _step_sizes(g, eligible, own, done):
    """Each row's residual scale and coefficient bound on each chunk row, both 0 where it does not step."""
    gamma = np.sqrt(own + done)  # own step index, 0 only where a row does not step; in place from here
    np.maximum(gamma, 1.0, out=gamma)
    np.divide(g.gamma0, gamma, out=gamma)
    np.copyto(gamma, g.gamma0, where=g.constant)
    scale = np.where(g.is_l1, _SIGN_SCALE, gamma)
    bound = np.multiply(gamma, g.lo, out=gamma)
    scale[~eligible], bound[~eligible] = 0.0, 0.0
    return scale, bound


def _pauses(g, own, done):
    """Yield (i, reads) at each chunk row i where some row reaches its next checkpoint, and at the last.

    reads holds (k, column, t, n) for each such row k, n steps in and t of them in the chunk. Once
    the caller has read them, all their cursors move on in one step.
    """
    b, every = own.shape[0], np.arange(g.col.size)
    before, first = done.reshape(every.size), every * b
    # each row's chunk row of its next checkpoint (b or more if it is not in the chunk), found in one
    # search of the rows' nondecreasing step counts laid end to end, row k's offset by k (b + 1)
    keys = (own.reshape(b, every.size).T + (first + every)[:, None]).ravel()
    shift = first + every - before  # a step count's key in row k's part of keys
    due_at = np.searchsorted(keys, g.marks[g.col + every] + shift) - first
    while True:
        i = min(int(due_at.min()), b - 1)
        k = np.flatnonzero(due_at == i)
        c = g.col[k]
        n = g.marks[c + k]
        yield i, zip(k.tolist(), c.tolist(), (n - before[k]).tolist(), n.tolist())
        g.col[k] = c = c + 1
        due_at[k] = np.searchsorted(keys, g.marks[c + k] + shift[k]) - first[k]
        if i == b - 1:
            return


def _errors(bar, last, h) -> tuple:
    """(err_H, err_2, err_last_H), each value one vecdot, a ddot, whatever the call holds; h is None for I."""
    if h is None:  # diff . (diff @ I) is diff . diff bit for bit
        return (norm := vecdot(bar, bar)), norm, vecdot(last, last)
    return vecdot(bar, vecdot(bar, h)), vecdot(bar, bar), vecdot(last, vecdot(last, h))


def run_batch(
    grid: Sequence[Sequence[Estimator]],
    streams: Sequence[Iterable[Callable]],
    models: Sequence[RegressionModel],
    *,
    record_iterates: bool = False,
) -> List[List[RunRecord]]:
    """Run S streams at once, each with its own model and the same number R of rows.

    `grid[s]` holds stream s's rows, `streams[s]` its chunk writers (see
    `datagen`) and `models[s]` the model its errors are measured against; a
    nonzero flag b marks a corrupted row. The streams write chunks of equal
    lengths, into their slices of the engine's buffer.

    Every row starts at 0 and steps on each stream row that it may read, to
    the end of its stream: all of them, or the clean ones for a clean_only
    row. Row (s, r) takes gamma_sr times clip(r s_sr, -lo_sr, lo_sr) as its
    step coefficient. Each chunk goes through the parts the module docstring
    names; memory stays bounded by the chunk size whatever the stream length
    or the plans, and a stream's records do not depend on its call mates.
    Returns records as grid[s][r], with the row's iterate before every row of
    its stream if record_iterates. A ValueError names a grid unlike the
    models or the streams, a stream unlike its model, chunks of unequal
    lengths, or a row whose stream runs past its n_steps or ends short of
    them; a NonFiniteError names a non-finite response or feature by its
    stream index, or a diverged iterate.
    """
    g = _Grid(grid, models, len(streams))
    s_count, r_count = g.shape
    paths = [] if record_iterates else None  # per chunk: every row's iterates before each stream row
    theta, tmp = np.zeros((s_count, r_count, g.d)), np.empty((s_count, r_count, g.d))
    sums = np.zeros_like(theta)  # per row: sum of its pre-update iterates so far
    done, min_r = np.zeros(g.shape, dtype=np.int64), np.full(g.shape, math.inf)
    window, seen = _window_views(s_count, r_count), 0
    # stream-major: a product's rounding depends on the length and layout of its operands, so
    # each stream's products run on its own contiguous rows xb[s, :b], as with no other stream
    xb, yb, bb = np.empty((s_count, CHUNK, g.d)), np.empty((s_count, CHUNK)), np.empty((s_count, CHUNK))
    for writers in zip_longest(*streams):  # a stream that has ended writes 0 rows
        lengths = {write(xb[s], yb[s], bb[s]) if write else 0 for s, write in enumerate(writers)}
        if len(lengths) != 1:
            raise ValueError(f"streams wrote chunks of unequal lengths {sorted(lengths)}")
        (b,) = lengths
        x, y = xb[:, :b].transpose(1, 0, 2), yb[:, :b].T
        eligible, own = _own_steps(g, bb[:, :b].T, done, seen)
        scale, bound = _step_sizes(g, eligible, own, done)
        taken = own[-1]
        seen += b
        start = theta.copy()
        rb, cb = np.empty((b, s_count, r_count)), np.empty((b, s_count, r_count))
        begin = 0
        with np.errstate(over="ignore", invalid="ignore"):  # a divergence or overflow is reported below
            for i, reads in _pauses(g, own, done):
                _advance(theta, *(a[begin : i + 1] for a in (x, y, scale, bound, rb, cb)), window, tmp)
                begin = i + 1
                # with theta_j = start + sum_{l<j} coef_l x_l, a row's t steps in the chunk add
                # t start + sum_{l<=i} (t - own_l) coef_l x_l to the sum of its pre-update iterates
                for k, c, t, n in reads:
                    s, r = divmod(k, r_count)
                    bar = sums[s, r] + t * start[s, r]
                    bar += (cb[:begin, s, r] * (t - own[:begin, s, r])) @ xb[s, :begin]
                    bar /= n
                    bar -= g.theta_star[s]
                    g.errs[:, c] = _errors(bar, theta[s, r] - g.theta_star[s], g.hs[s])
        if not (np.isfinite(rb).all() and np.isfinite(theta).all()):
            _raise_divergence(grid, x, y, rb, theta, eligible, done, seen - b)
        del scale, bound  # the chain's inputs: the sums below do not need them
        if paths is not None:
            path = np.empty((b,) + theta.shape)
            path[0] = start
            np.multiply(cb[:-1, :, :, None], x[:-1, :, None, :], out=path[1:])
            np.cumsum(path, axis=0, out=path)
            paths.append(path.reshape(b, s_count * r_count, g.d))
        # per row: sum over the chunk of (taken - own_l) coef_l x_l
        moved = np.array([((taken[s] - own[:, s]) * cb[:, s]).T @ xb[s, :b] for s in range(s_count)])
        sums += taken[:, :, None] * start + moved
        min_r = np.minimum(min_r, np.where(eligible, np.abs(rb), math.inf).min(axis=0))
        done += taken
    return _records(g, sums, theta, min_r, paths, done, seen)


def _records(g, sums, theta, min_r, paths, done, seen) -> List[List[RunRecord]]:
    """Each row's record, as grid[s][r]; a ValueError names a row whose stream ended short of its n_steps."""
    if np.any(done < g.n_steps):
        s, r = np.argwhere(done < g.n_steps)[0]
        raise ValueError(
            f"stream ended after {seen} samples with {loss_label(g.grid[s][r].loss)} at "
            f"{done[s, r]} of {g.n_steps[s, r]} steps"
        )
    check_errors(g.errs)  # every record's at once; each plan was checked when its Estimator was made
    if paths is not None:  # each row's iterate before each stream row, as a view
        path = np.concatenate(paths) if len(paths) > 1 else paths[0]
    theta_bar = (sums / g.n_steps[:, :, None]).reshape(-1, g.d)
    theta_last, min_r = theta.reshape(-1, g.d).copy(), min_r.ravel().tolist()
    records = [
        RunRecord.checked(
            steps=row.plan, err_h=(err := g.errs[:, g.at[k] : g.at[k + 1]])[0], err_2=err[1], err_last_h=err[2],
            config_digest=row.digest, theta_bar=theta_bar[k], theta_last=theta_last[k],
            min_abs_residual=min_r[k], iterates=None if paths is None else path[:, k],
        )
        for k, row in enumerate(g.rows)
    ]
    return [records[k : k + g.shape[1]] for k in range(0, len(records), g.shape[1])]


def _raise_divergence(grid, x, y, residuals, theta, eligible, done, offset) -> None:
    """Name the earliest poisoned row's non-finite response, else feature, else the row that diverged."""
    bad = np.argwhere(~np.isfinite(residuals))
    if bad.size:
        i, s, r = bad[0]
    else:  # the chunk's last update overflowed
        i, (s, r) = residuals.shape[0] - 1, np.argwhere(~np.isfinite(theta).all(axis=2))[0]
    where = f" of stream {s}" if len(grid) > 1 else ""
    if (odd := np.flatnonzero(~np.isfinite(y[: i + 1, s]))).size:
        raise NonFiniteError(f"non-finite response {float(y[odd[0], s])!r} at stream index {offset + odd[0]}{where}")
    if (odd := np.argwhere(~np.isfinite(x[: i + 1, s]))).size:  # it poisons rows that skip it as well
        j, f = odd[0]
        raise NonFiniteError(f"non-finite feature {float(x[j, s, f])!r} at stream index {offset + j}{where}")
    row = grid[s][r]
    step = int(done[s, r] + np.count_nonzero(eligible[: i + 1, s, r]))
    raise NonFiniteError(
        f"{loss_label(row.loss)} with gamma0={row.schedule.gamma0!r} diverged: "
        f"non-finite iterate by step {step}"
    )
