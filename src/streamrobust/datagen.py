"""Seeded generation of observation streams.

A stream is held as arrays (X, y, corrupted): row i of X and entry i of y
are one observation, and corrupted[i] flags it for the harness. Streams are
drawn in fixed-size chunks from three separate generator substreams
(features, dense noise, corruption), so the corruption process is oblivious
by construction: regenerating with the same seed but a different theta*
changes y only through <x, theta*>. A stream's first n rows do not depend on
how many rows are drawn, so the chunked path (`_chunk_arrays`, which the
engine reads as it goes) and the materialized one (`sample_arrays`) yield
bit-identical rows for identical seeds, whatever their lengths.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import Identity, RegressionModel, substream

CHUNK = 1024


def _chunk_arrays(model: RegressionModel, seed: int, n: Optional[int] = None) -> Iterator[tuple]:
    """(X, y, b) chunk arrays drawn from the model law: n rows in all, or no end with n omitted.

    The corruption substream always burns three uniforms per sample (flag,
    component pick, position), whether or not the flag fires, keeping stream
    alignment independent of the realized flags.
    """
    # z @ eye(d) == z bit for bit, so an identity design skips the product
    chol_t = None if isinstance(model.covariance, Identity) else model.design.chol.T
    rngs = substream(seed, "x"), substream(seed, "noise"), substream(seed, "outlier")
    left = math.inf if n is None else n
    while left > 0:  # the frame holds no chunk between draws: many streams may be suspended at once
        yield _draw_chunk(model, chol_t, min(CHUNK, left), *rngs)
        left -= CHUNK


def _draw_chunk(model, chol_t, rows, rng_x, rng_noise, rng_outlier) -> tuple:
    """The next `rows` <= CHUNK rows of a stream, with the products and uniform offsets of a whole chunk.

    A product's rounding depends on its operands' shapes, so short chunks are
    drawn into zero-padded CHUNK-row features; row i's uniforms sit at i, CHUNK + i, 2 CHUNK + i.
    """
    x = np.zeros((CHUNK, model.d))
    rng_x.standard_normal(out=x[:rows])
    if chol_t is not None:
        x = x @ chol_t
    eps = rng_noise.standard_normal(rows) * model.sigma
    u = rng_outlier.random(2 * CHUNK + rows)
    u_flag, u_comp, u_pos = u[:rows], u[CHUNK : CHUNK + rows], u[2 * CHUNK :]
    b = np.where(u_flag < model.outliers.eta, model.outliers.values_from_uniforms(u_comp, u_pos), 0.0)
    return x[:rows], (x @ model.theta_star)[:rows] + eps + b, b


def sample_arrays(model: RegressionModel, n: int, seed: int) -> tuple:
    """First n rows of the seeded stream as arrays (X, y, b); b != 0 flags corruption."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    xs, ys, bs = np.empty((n, model.d)), np.empty(n), np.empty(n)
    for start, (x, y, b) in zip(range(0, n, CHUNK), _chunk_arrays(model, seed, n)):
        xs[start : start + CHUNK], ys[start : start + CHUNK], bs[start : start + CHUNK] = x, y, b
    return xs, ys, bs


def stacked_chunks(streams: Sequence[Iterable[tuple]]) -> Iterator[tuple]:
    """Chunks of S streams side by side: X (b, S, d), y (b, S), flags (b, S).

    The streams must yield chunks of equal lengths; the stacked stream ends
    with the shortest one.
    """
    iterators = [iter(stream) for stream in streams]
    while True:  # not zip(*streams): a zip keeps its last items, each stream's own chunk
        parts = [next(it, None) for it in iterators]
        if any(part is None for part in parts):
            return
        stacked = tuple(np.stack(arrays, axis=1) for arrays in zip(*parts))
        del parts
        yield stacked
        del stacked


def array_chunks(x: np.ndarray, y: np.ndarray, corrupted: np.ndarray, order=None) -> Iterator[tuple]:
    """(X, y, corrupted) chunks of at most CHUNK rows, visiting rows in `order`.

    With `order` omitted the rows are visited as stored, as views; a
    multi-pass stream is one X with an order made of one permutation per pass.
    """
    if order is None:
        for start in range(0, y.shape[0], CHUNK):
            yield x[start : start + CHUNK], y[start : start + CHUNK], corrupted[start : start + CHUNK]
        return
    for start in range(0, order.size, CHUNK):
        idx = order[start : start + CHUNK]
        yield x[idx], y[idx], corrupted[idx]


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

