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
(CHUNK,), and returns how many rows it wrote. `stacked_chunks` gives S
streams their slices of one stream-major buffer, X (S, CHUNK, d), and hands
the engine each chunk as a (rows, S, d) view of it, so each stream's rows
stay contiguous and nothing is stacked or copied. Drawn streams
(`_chunk_arrays`) write their draws there; stored streams (`array_chunks`)
gather their rows there. `sample_arrays` copies the same writers' chunks
into the arrays it returns, so both paths yield bit-identical rows for
identical seeds, whatever their lengths.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import Identity, RegressionModel, substream

CHUNK = 1024


def _chunk_arrays(model: RegressionModel, seed: int, n: int) -> Iterator[Callable]:
    """Writers of the chunks of the first n rows drawn from the model law.

    n is required: an engine row steps on every row of its stream, so a
    stream must end where its rows' steps do.

    The corruption substream always burns three uniforms per sample (flag,
    component pick, position), whether or not the flag fires, keeping stream
    alignment independent of the realized flags.
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
    rng_x.standard_normal(out=x[:rows])
    x[rows:] = 0.0
    if chol_t is not None:
        np.matmul(x, chol_t, out=x)  # an overlapping ufunc output: numpy works on a copy of x
    np.matmul(x, model.theta_star, out=y)
    y[:rows] += rng_noise.standard_normal(rows) * model.sigma
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


def stacked_chunks(streams: Sequence[Iterable[Callable]], d: int) -> Iterator[tuple]:
    """Chunks of S streams side by side: X (rows, S, d), y (rows, S), b (rows, S).

    Every chunk is written into one stream-major buffer, X (S, CHUNK, d), y
    and b (S, CHUNK), stream s into its own slice, and yielded as views of
    it. The next chunk is written over it, so a consumer must be done with a
    chunk before it asks for the next. The streams must write chunks of
    equal lengths; the stacked stream ends with the shortest one.
    """
    s_count = len(streams)
    x, y, b = np.empty((s_count, CHUNK, d)), np.empty((s_count, CHUNK)), np.empty((s_count, CHUNK))
    for writers in zip(*streams):
        rows = {write(x[s], y[s], b[s]) for s, write in enumerate(writers)}
        if len(rows) != 1:
            raise ValueError(f"streams wrote chunks of unequal lengths {sorted(rows)}")
        (rows,) = rows
        yield x[:, :rows].transpose(1, 0, 2), y[:, :rows].T, b[:, :rows].T


def array_chunks(x: np.ndarray, y: np.ndarray, b: np.ndarray, order=None) -> Iterator[Callable]:
    """Writers of a stored stream's chunks of at most CHUNK rows, visiting rows in `order`.

    With `order` omitted the rows are visited as stored; a multi-pass stream
    is one X with an order made of one permutation per pass. b != 0 flags a
    row; boolean flags are written as 0.0 and 1.0.
    """
    b = np.asarray(b, dtype=float)
    order = np.arange(y.shape[0]) if order is None else order
    for start in range(0, order.size, CHUNK):
        yield partial(_gathered_chunk, x, y, b, order[start : start + CHUNK])


def _gathered_chunk(x_all, y_all, b_all, idx, x, y, b) -> int:
    """Gather rows `idx` of stored arrays into the first rows of x, y and b."""
    rows = idx.size
    # mode="clip": the indices are in range, and "raise" would gather into a temporary
    for source, out in ((x_all, x), (y_all, y), (b_all, b)):
        np.take(source, idx, axis=0, out=out[:rows], mode="clip")
    return rows


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

