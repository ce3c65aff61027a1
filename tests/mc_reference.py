"""The whole-block Monte Carlo that `verify.mc_expected_loss` is tested against.

It draws each block of draws whole, into fresh arrays, where the sampler
draws in place, in pieces, into reused buffers; the in-place sampler must
give the same (mean, stderr) bit for bit. Like the sampler, it draws the
design term <x, theta* - theta> as one normal scaled by its spread.
"""

import math

import numpy as np
from numpy.random import SFC64

from streamrobust.analytic import theta_array
from streamrobust.core import substream
from streamrobust.verify import _MC_BLOCK


def whole_block_mc_expected_loss(theta, model, n_samples: int, seed: int) -> tuple:
    """Monte Carlo estimate (mean, stderr) of E|y - <x, theta>|, each block drawn whole."""
    theta = theta_array(np.reshape(theta, -1), model)
    spread = float(np.linalg.norm(model.design.chol.T @ (model.theta_star - theta)))
    eta = model.outliers.eta
    rng = substream(seed, "mc", bit_generator=SFC64)
    s1 = 0.0
    s2 = 0.0
    left = n_samples
    while left > 0:
        m = min(_MC_BLOCK, left)
        r = rng.standard_normal(m) * spread
        r += rng.standard_normal(m) * model.sigma
        if eta > 0.0:
            u = rng.random(3 * m)  # the flag, component and position blocks
            r += np.where(u[:m] < eta, model.outliers.values_from_uniforms(u[m : 2 * m], u[2 * m :]), 0.0)
        s1 += float(np.abs(r).sum())
        s2 += float((r * r).sum())
        left -= m
    mean = s1 / n_samples
    var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)
