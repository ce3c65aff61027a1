"""Seeded generation of observation streams.

A stream is held as arrays (X, y, corrupted): row i of X and entry i of y
are one observation, and corrupted[i] flags it for the harness. Streams are
drawn in fixed-size chunks from three separate generator substreams
(features, dense noise, corruption), so the corruption process is oblivious
by construction: regenerating with the same seed but a different theta*
changes y only through <x, theta*>. Because chunk boundaries never move, the
chunked path (`_chunk_arrays`, which the engine reads as it goes) and the
materialized one (`sample_arrays`) yield bit-identical rows for identical
seeds.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import RegressionModel, substream

CHUNK = 1024


def _chunk_arrays(model: RegressionModel, seed: int) -> Iterator[tuple]:
    """Infinite stream of (X, y, b) chunk arrays drawn from the model law.

    The corruption substream always burns three uniforms per sample (flag,
    component pick, position), whether or not the flag fires, keeping stream
    alignment independent of the realized flags.
    """
    design = model.design
    chol_t = design.chol.T
    rng_x = substream(seed, "x")
    rng_noise = substream(seed, "noise")
    rng_outlier = substream(seed, "outlier")
    eta = model.outliers.eta
    while True:
        x = rng_x.standard_normal((CHUNK, model.d)) @ chol_t
        eps = rng_noise.standard_normal(CHUNK) * model.sigma
        u_flag = rng_outlier.random(CHUNK)
        u_comp = rng_outlier.random(CHUNK)
        u_pos = rng_outlier.random(CHUNK)
        b = np.where(u_flag < eta, model.outliers.values_from_uniforms(u_comp, u_pos), 0.0)
        y = x @ model.theta_star + eps + b
        yield x, y, b


def sample_arrays(model: RegressionModel, n: int, seed: int) -> tuple:
    """First n rows of the seeded stream as arrays (X, y, b); b != 0 flags corruption."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    xs, ys, bs = np.empty((n, model.d)), np.empty(n), np.empty(n)
    for start, (x, y, b) in zip(range(0, n, CHUNK), _chunk_arrays(model, seed)):
        stop = min(start + CHUNK, n)
        xs[start:stop] = x[: stop - start]
        ys[start:stop] = y[: stop - start]
        bs[start:stop] = b[: stop - start]
    return xs, ys, bs


def array_chunks(x: np.ndarray, y: np.ndarray, corrupted: np.ndarray, order=None) -> Iterator[tuple]:
    """(X, y, corrupted) chunks of at most CHUNK rows, visiting rows in `order`.

    With `order` omitted the rows are visited as stored; a multi-pass stream
    is one X with an order made of one permutation per pass.
    """
    if order is None:
        order = np.arange(y.shape[0])
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

