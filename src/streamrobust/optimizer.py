"""Streaming SGD on the absolute loss, with squared and Huber variants.

The estimator never solves a system or stores the data: each observation
updates the iterate once and is discarded. For the absolute loss the update
is theta += gamma_n sgn(y - <x, theta>) x, so its size is gamma_n ||x||
regardless of how wild the response is; that single fact is the robustness
mechanism. Iterates are averaged online and errors are checkpointed against
the model known to the harness (the estimator itself never reads theta* or H).

All estimators run on one batched engine, `run_batch`. It holds the iterates
of K estimators as a (K, d) array and walks a shared stream of chunk arrays
once, so the estimators of an experiment cell advance in lockstep on the
same observations. Every loss is one influence function,

    psi(r) = clip(r * s, -lo, lo):  L1 s = inf, lo = 1;  L2 lo = inf;  Huber lo = tau,

and the per-row loop keeps only the dependent chain (residual, influence,
rank-one update), pausing at checkpoint rows to read the iterates. The
averaged iterate and min |r| are closed forms evaluated once per chunk from
that chunk's coefficients. `sgd_step` is the one-observation scalar
reference the engine is tested against.

A stream is a triple of arrays (X, y, corrupted), as `datagen` draws it;
`run` and `oracle_ls_run` drive the engine for one estimator, on a model
(drawn chunk by chunk) or on such a triple.
"""

from __future__ import annotations

import math
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
    SgdState,
    StepSchedule,
    loss_label,
    schedule_gamma,
    short_digest,
)
from .datagen import _chunk_arrays, array_chunks

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


def sgd_step(state: SgdState, x: np.ndarray, y: float, schedule: StepSchedule) -> SgdState:
    """Advance the state by one observation (x, y); mutates and returns `state`.

    The scalar reference for `run_batch`. The running average is refreshed
    from the pre-update iterate, matching the convention that theta_bar after
    n steps is the mean of theta_0 .. theta_{n-1}. sgn(0) is taken to be 0
    so a zero residual leaves the iterate unchanged under the absolute loss.
    """
    k = state.n + 1
    theta = state.theta
    r = float(y) - float(x @ theta)
    if not math.isfinite(r):
        raise NonFiniteError(f"non-finite residual {r!r} at step {k}")
    gamma = schedule_gamma(schedule, k)
    state.theta_bar += (theta - state.theta_bar) / k
    loss = state.loss
    if isinstance(loss, L1):
        if r > 0.0:
            theta += gamma * x
        elif r < 0.0:
            theta -= gamma * x
    elif isinstance(loss, L2):
        theta += (gamma * r) * x
    elif isinstance(loss, Huber):
        if abs(r) <= loss.tau:
            theta += (gamma * r) * x
        elif r > 0.0:
            theta += (gamma * loss.tau) * x
        else:
            theta -= (gamma * loss.tau) * x
    else:
        raise TypeError(f"not a loss: {loss!r}")
    state.n = k
    return state


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


# Rows the loop runs between refills of its buffers: each row needs five
# small array views, and a window of this size keeps them well under 1 MB.
_WINDOW = 256
_ROW_BUFFERS = ("r", "scale", "neg_lo", "lo", "c")


def _window_views(k: int):
    """Window buffers and, per stream row, (K, 1, 1) views of them."""
    buf = {name: np.empty((_WINDOW, k)) for name in _ROW_BUFFERS}
    steps = list(zip(*(buf[name][:, :, None, None] for name in _ROW_BUFFERS)))
    return buf, steps


def _advance(theta, x, y, scale, lo, r_out, c_out, window, tmp) -> None:
    """The dependent chain over consecutive stream rows, all K estimators at once.

    Row i takes c = clip((y_i - x_i . theta_k) * scale_ik, -lo_ik, lo_ik) and
    steps theta_k += c x_i; residuals and coefficients go to r_out and c_out.
    Estimators work as (K, 1, 1) columns against theta seen as (K, d, 1)
    and (K, 1, d): the stacked (1, d) @ (d, 1) products give each
    estimator's dot product bit for bit as `x @ theta_k`, which a
    (K, d) @ (d,) product does not.
    """
    buf, steps = window
    theta_col, theta_row = theta[:, :, None], theta[:, None, :]
    for a in range(0, len(y), _WINDOW):
        n = min(_WINDOW, len(y) - a)
        buf["scale"][:n] = scale[a : a + n]
        buf["lo"][:n] = lo[a : a + n]
        np.negative(lo[a : a + n], out=buf["neg_lo"][:n])
        for x_i, y_i, (r, s, neg_lo, hi, c) in zip(x[a : a + n, None, :], y[a : a + n], steps):
            matmul(x_i, theta_col, out=r)
            subtract(y_i, r, out=r)
            multiply(r, s, out=c)
            _clip(c, neg_lo, hi, out=c)
            multiply(c, x_i, out=tmp)
            add(theta_row, tmp, out=theta_row)
        r_out[a : a + n] = buf["r"][:n]
        c_out[a : a + n] = buf["c"][:n]


def run_batch(
    rows: Sequence[Estimator],
    chunks: Iterable[tuple],
    model: RegressionModel,
    theta0=None,
    record_iterates: bool = False,
) -> List[RunRecord]:
    """Run every row over one shared stream of (X, y, corrupted) chunks.

    Chunks hold at most `datagen.CHUNK` rows. Row k takes gamma_k times
    clip(r s_k, -lo_k, lo_k) as its step coefficient; masks and step sizes
    are laid out per chunk, then `_advance` runs the chunk, pausing after
    each checkpoint row. The running sum of pre-update iterates, the
    averages at checkpoints and min |r| follow in closed form from the
    chunk's coefficients, so memory stays bounded by the chunk size whatever
    the stream length. Raises NonFiniteError on a non-finite response
    (naming its stream index) or a diverged iterate.
    """
    k_rows, d = len(rows), model.d
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.size != d:
        raise ValueError(f"theta0 has dimension {theta0.size}, model has {d}")
    theta_star, h = model.theta_star, model.design.h

    n_steps = np.array([row.n_steps for row in rows], dtype=np.int64)
    clean_only = np.array([row.clean_only for row in rows])
    is_l1 = np.array([isinstance(row.loss, L1) for row in rows])
    lo = np.array([
        1.0 if isinstance(row.loss, L1) else row.loss.tau if isinstance(row.loss, Huber) else math.inf
        for row in rows
    ])
    gamma0 = np.array([row.schedule.gamma0 for row in rows])
    constant = np.array([row.schedule.kind == CONSTANT for row in rows])

    theta = np.tile(theta0, (k_rows, 1))
    tmp = np.empty((k_rows, 1, d))
    sums = np.zeros_like(theta)  # per row: sum of its pre-update iterates so far
    done = np.zeros(k_rows, dtype=np.int64)
    min_r = np.full(k_rows, math.inf)
    errs = [np.empty((3, row.plan.size)) for row in rows]
    iterates = [np.empty((row.n_steps, d)) for row in rows] if record_iterates else None
    window = _window_views(k_rows)
    seen = 0

    for x, y, corrupted in chunks:
        if np.all(done == n_steps):
            break
        eligible = ~(clean_only[None, :] & np.asarray(corrupted, dtype=bool)[:, None])
        count = done + np.cumsum(eligible, axis=0)  # each row's own step index
        active = eligible & (count <= n_steps)
        used = np.flatnonzero(active.any(axis=1))
        b = int(used[-1]) + 1 if used.size else 0  # rows past the last active one stay unread
        bad = np.flatnonzero(~np.isfinite(y[:b]))
        if bad.size:
            raise NonFiniteError(f"non-finite response {float(y[bad[0]])!r} at stream index {seen + bad[0]}")
        seen += y.shape[0]
        if b == 0:
            continue
        active, count = active[:b], count[:b]
        gamma = np.where(constant, gamma0, gamma0 / np.sqrt(np.maximum(count, 1)))
        scale = np.where(active, np.where(is_l1, _SIGN_SCALE, gamma), 0.0)
        bound = np.where(active, gamma * lo, 0.0)

        # checkpoints inside the chunk: the chunk row of each one's step
        own = np.cumsum(active, axis=0)  # each row's own steps up to and including a chunk row
        taken = own[-1]
        marks = []
        for k, row in enumerate(rows):
            first, end = np.searchsorted(row.plan, [done[k] + 1, done[k] + taken[k] + 1])
            targets = row.plan[first:end] - done[k]
            marks.append((first, end, targets, np.searchsorted(own[:, k], targets)))
        # not np.union1d: np.unique imports numpy.ma on first use, which nothing else needs
        pause = np.zeros(b, dtype=bool)
        pause[b - 1] = True
        for m in marks:
            pause[m[3]] = True
        stops = np.flatnonzero(pause)

        # the loop pauses after each checkpoint row to read the iterates
        start = theta.copy()
        after = np.empty((stops.size, k_rows, d))
        xb, ys, rb, cb = x[:b], y[:b].tolist(), np.empty((b, k_rows)), np.empty((b, k_rows))
        with np.errstate(over="ignore", invalid="ignore"):
            begin = 0
            for j, stop in enumerate((stops + 1).tolist()):
                part = slice(begin, stop)
                _advance(theta, xb[part], ys[part], scale[part], bound[part], rb[part], cb[part], window, tmp)
                after[j] = theta
                begin = stop
        if not (np.isfinite(rb).all() and np.isfinite(theta).all()):
            _raise_divergence(rows, rb, theta, active, done)

        for k, (row, (first, end, targets, at)) in enumerate(zip(rows, marks)):
            if end > first:
                last = after[np.searchsorted(stops, at), k]
                bar = _averages(targets, at, own[:, k], cb[:, k], xb, start[k], sums[k], done[k])
                errs[k][:, first:end] = _errors(bar, last, theta_star, h)
            if iterates is not None and taken[k]:
                path = np.cumsum(np.vstack([start[k], cb[:-1, k, None] * xb[:-1]]), axis=0)
                iterates[k][done[k] : done[k] + taken[k]] = path[active[:, k]]
        sums += taken[:, None] * start + ((taken - own) * cb).T @ xb
        min_r = np.minimum(min_r, np.where(active, np.abs(rb), math.inf).min(axis=0))
        done += taken

    if np.any(done < n_steps):
        k = int(np.flatnonzero(done < n_steps)[0])
        raise ValueError(
            f"stream ended after {seen} samples with {loss_label(rows[k].loss)} at "
            f"{done[k]} of {n_steps[k]} steps"
        )
    return [
        RunRecord(
            steps=row.plan,
            err_h=errs[k][0],
            err_2=errs[k][1],
            err_last_h=errs[k][2],
            config_digest=row.digest,
            seed=int(row.seed),
            theta_bar=sums[k] / row.n_steps,
            theta_last=theta[k].copy(),
            min_abs_residual=float(min_r[k]),
            iterates=None if iterates is None else iterates[k],
        )
        for k, row in enumerate(rows)
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


def _raise_divergence(rows, residuals, theta, active, done) -> None:
    bad = np.argwhere(~np.isfinite(residuals))
    if bad.size:
        i, k = bad[0]
    else:  # the chunk's last update overflowed
        i, k = residuals.shape[0] - 1, np.flatnonzero(~np.isfinite(theta).all(axis=1))[0]
    row = rows[k]
    step = int(done[k] + np.count_nonzero(active[: i + 1, k]))
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
    """One estimator over a stream: the engine with K = 1.

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
        chunks = ((x, y, b != 0.0) for x, y, b in _chunk_arrays(source, seed))
    else:
        if model is None:
            raise ValueError("a reference model is required when running from stream arrays")
        x, y, corrupted = _stream_arrays(source)
        if y.size < n_steps:
            raise ValueError(f"stream ended after {y.size} samples, {n_steps} steps requested")
        chunks = array_chunks(x[:n_steps], y[:n_steps], corrupted[:n_steps])
    plan = _validated_checkpoints(checkpoint_plan, n_steps)
    theta0 = np.zeros(model.d) if theta0 is None else np.asarray(theta0, dtype=float).reshape(-1)
    row = Estimator(
        loss, schedule, n_steps, plan,
        digest=run_digest(loss, schedule, n_steps, seed, model, theta0, plan),
        seed=int(seed),
    )
    (record,) = run_batch([row], chunks, model, theta0, record_iterates)
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
    (record,) = run_batch([row], array_chunks(x[clean], y[clean], corrupted[clean]), model, theta0)
    return record
