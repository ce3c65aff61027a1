"""The whole-piece Monte Carlo that `verify.mc_expected_loss` is tested against.

It draws each piece whole, into fresh arrays, its uniforms in one call that
it splits, where the sampler draws term by term, in place, into buffers it
reuses; the in-place sampler must give the same (mean, stderr) bit for bit.
Like the sampler, it draws the design term <x, theta* - theta> as one normal
scaled by its spread, and a component uniform only under a mixture.
"""

import math

import numpy as np
from numpy.random import SFC64

from streamrobust.analytic import theta_array
from streamrobust.core import substream
from streamrobust.verify import _MC_PIECE


def whole_piece_mc_expected_loss(theta, model, n_samples: int, seed: int) -> tuple:
    """Monte Carlo estimate (mean, stderr) of E|y - <x, theta>|, each piece drawn whole."""
    theta = theta_array(np.reshape(theta, -1), model)
    spread = float(np.linalg.norm(model.design.chol.T @ (model.theta_star - theta)))
    eta = model.outliers.eta
    uniforms = 3 if len(model.outliers.components) > 1 else 2
    rng = substream(seed, "mc", bit_generator=SFC64)
    s1 = 0.0
    s2 = 0.0
    for a in range(0, n_samples, _MC_PIECE):
        k = min(_MC_PIECE, n_samples - a)
        r = rng.standard_normal(k) * spread
        r += rng.standard_normal(k) * model.sigma
        if eta > 0.0:
            u = rng.random(uniforms * k)  # the flag, (component,) and position uniforms
            r += np.where(u[:k] < eta, model.outliers.values_from_uniforms(u[k : 2 * k], u[-k:]), 0.0)
        s1 += float(np.abs(r).sum())
        s2 += float((r * r).sum())
    mean = s1 / n_samples
    var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)
