"""Seeded generation of observation streams.

A stream is held as arrays (X, y, b): row i of X and entry i of y are one
observation, and b[i] != 0 flags it for the harness (b is the corruption
value added to y, or 1.0 for a flag given as a boolean). Streams are drawn in
fixed-size chunks from three separate generator substreams (features, dense
noise, corruption), so the corruption process is oblivious by construction:
regenerating with the same seed but a different theta* changes y only
through <x, theta*>. A stream's first n rows do not depend on how many rows
are drawn.

Chunks are written in place. A stream is an iterator of chunk writers: each
writer fills the first rows of the slice it is given, X (CHUNK, d), y and b
(CHUNK,), returns how many rows it wrote, and refuses a slice of another
dimension than its rows. Drawn streams (`_chunk_arrays`) write their draws
there; stored streams (`array_chunks`, the one entry for stored arrays and
the one check of their shapes) gather their rows there. The engine,
`optimizer.run_batch`, gives each stream its slice of its own chunk buffer;
`sample_arrays` copies the same writers' chunks into the arrays it returns,
so both paths yield bit-identical rows for identical seeds, whatever their
lengths.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .core import Identity, RegressionModel, substream

CHUNK = 1024


def _chunk_arrays(model: RegressionModel, seed: int, n: int) -> Iterator[Callable]:
    """Writers of the chunks of the first n rows drawn from the model law.

    n is required: an engine row steps on every row of its stream, so a
    stream must end where its rows' steps do.

    Under a law with eta > 0 the corruption substream burns three uniforms
    per sample (flag, component pick, position), whether or not the flag
    fires, keeping stream alignment independent of the realized flags. A
    clean law (eta 0) draws none and writes b = 0; the features and noise
    come from their own substreams, so they are the same either way.
    """
    # z @ eye(d) == z bit for bit, so an identity design skips the product
    chol_t = None if isinstance(model.covariance, Identity) else model.design.chol.T
    rngs = substream(seed, "x"), substream(seed, "noise"), substream(seed, "outlier")
    for start in range(0, n, CHUNK):
        yield partial(_draw_chunk, model, chol_t, min(CHUNK, n - start), *rngs)


def _draw_chunk(model, chol_t, rows, rng_x, rng_noise, rng_outlier, x, y, b) -> int:
    """Draw the next `rows` <= CHUNK rows of a stream into x (CHUNK, d), y and b (CHUNK,).

    A product's rounding depends on its operands' shapes, so every chunk's
    products run over all CHUNK rows, the ones past `rows` zeroed; row i's
    uniforms sit at i, CHUNK + i, 2 CHUNK + i.
    """
    _check_width(model.d, x)
    rng_x.standard_normal(out=x[:rows])
    x[rows:] = 0.0
    if chol_t is not None:
        np.matmul(x, chol_t, out=x)  # an overlapping ufunc output: numpy works on a copy of x
    np.matmul(x, model.theta_star, out=y)
    y[:rows] += rng_noise.standard_normal(rows) * model.sigma
    if model.outliers.eta == 0.0:  # no flag can fire: every b would be 0
        b[:rows] = 0.0
        return rows
    u = rng_outlier.random(2 * CHUNK + rows)
    u_flag, u_comp, u_pos = u[:rows], u[CHUNK : CHUNK + rows], u[2 * CHUNK :]
    b[:rows] = np.where(u_flag < model.outliers.eta, model.outliers.values_from_uniforms(u_comp, u_pos), 0.0)
    y[:rows] += b[:rows]
    return rows


def sample_arrays(model: RegressionModel, n: int, seed: int) -> tuple:
    """First n rows of the seeded stream as arrays (X, y, b); b != 0 flags corruption."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    xs, ys, bs = np.empty((n, model.d)), np.empty(n), np.empty(n)
    chunk = np.empty((CHUNK, model.d)), np.empty(CHUNK), np.empty(CHUNK)
    for start, write in zip(range(0, n, CHUNK), _chunk_arrays(model, seed, n)):
        rows = write(*chunk)
        xs[start : start + rows], ys[start : start + rows], bs[start : start + rows] = (a[:rows] for a in chunk)
    return xs, ys, bs


def array_chunks(x: np.ndarray, y: np.ndarray, b: np.ndarray, order=None) -> Iterator[Callable]:
    """Writers of a stored stream's chunks of at most CHUNK rows, visiting rows in `order`.

    With `order` omitted the rows are visited as stored; a permutation of
    the rows visits them once more, in another order, as a later pass does.
    b != 0 flags a row. The arrays are read as float64 (a float64 array is
    not copied), so integer or boolean entries and lists run as their
    float64 arrays. The call itself, before any chunk is written, raises a
    ValueError naming the shapes unless X is 2-D and y and b hold one entry
    per row of X, and one naming the order unless it is a 1-D array of
    integer row indices in [0, n).
    """
    x, y, b = (np.asarray(a, dtype=float) for a in (x, y, b))
    if x.ndim != 2 or y.shape != (x.shape[0],) or b.shape != y.shape:
        raise ValueError(f"stream arrays disagree: X {x.shape}, y {y.shape}, corrupted {b.shape}")
    order = np.arange(y.size) if order is None else np.asarray(order)
    if order.ndim != 1 or not np.issubdtype(order.dtype, np.integer):
        raise ValueError(f"order must be 1-D integer row indices, got {order.dtype} of shape {order.shape}")
    if order.size and not (0 <= order.min() and order.max() < y.size):
        raise ValueError(f"order must index rows in [0, {y.size}), got entries from {order.min()} to {order.max()}")
    return (partial(_gathered_chunk, x, y, b, order[start : start + CHUNK]) for start in range(0, order.size, CHUNK))


def _gathered_chunk(x_all, y_all, b_all, idx, x, y, b) -> int:
    """Gather rows `idx` of stored arrays into the first rows of x, y and b."""
    _check_width(x_all.shape[1], x)
    rows = idx.size
    # mode="clip": array_chunks checked the indices, and "raise" would gather into a temporary
    for source, out in ((x_all, x), (y_all, y), (b_all, b)):
        np.take(source, idx, axis=0, out=out[:rows], mode="clip")
    return rows


def _check_width(d: int, x: np.ndarray) -> None:
    """A ValueError naming both dimensions unless the slice x holds rows of d features."""
    if x.shape[1] != d:
        raise ValueError(f"stream rows have dimension {d}, but the models have dimension {x.shape[1]}")


def tiered_contamination(n: int, eta: float, seed: int) -> np.ndarray:
    """Three-population outlier assignment for benchmark streams.

    Returns a length-n array of corruption values b. Scattered uniformly at
    random, floor(eta * n) entries are nonzero and split into three tiers:
    a block at 1000, an equal block at sqrt(1000), and the remainder drawn
    i.i.d. from U[1, 10]. For eta > 1/2 the two fixed tiers take floor(n/4)
    entries each; for smaller eta the corrupted budget is split in thirds,
    min(floor(n/4), floor(eta n / 3)) per fixed tier, so all three
    populations stay represented across a breakdown sweep.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    total = int(math.floor(eta * n))
    if eta > 0.5:
        fixed = n // 4
    else:
        fixed = min(n // 4, int(math.floor(eta * n / 3.0)))
    rest = total - 2 * fixed

    where = substream(seed, "where").permutation(n)[:total]
    values = np.zeros(n)
    values[where[:fixed]] = 1000.0
    values[where[fixed : 2 * fixed]] = math.sqrt(1000.0)
    if rest > 0:
        values[where[2 * fixed :]] = substream(seed, "value").uniform(1.0, 10.0, rest)
    return values

