"""The per-point forms that verify's stacked closed-form calls are tested against.

`gradient` takes one iterate and forms H delta as one matrix-vector product;
`fd_gradient` differences one iterate; `fd_hessian_at_optimum` makes seven
`expected_loss` calls, one per stencil; `avg_iterate_bound` takes the H norm
of each averaged iterate and the H^-1 norm of each averaged gradient one
sequence at a time. The stacked forms in `analytic` and `verify` must give
the same doubles.
"""

import math

import numpy as np

from streamrobust.analytic import effective_eta, expected_loss, gradient_scale, theta_array


def gradient(theta, model) -> np.ndarray:
    """Gradient of the population loss at one iterate."""
    delta = theta_array(np.reshape(theta, -1), model) - model.theta_star
    h = model.design.h
    hdelta = h @ delta
    z = math.sqrt(max(float(delta @ hdelta), 0.0))
    return gradient_scale(z, model) * hdelta


def fd_gradient(theta, model) -> np.ndarray:
    """Central finite differences of the closed-form loss at one iterate, step 1e-5."""
    h = 1e-5
    theta = np.asarray(theta, dtype=float).reshape(-1)
    steps = h * np.eye(theta.size)
    return (expected_loss(theta + steps, model) - expected_loss(theta - steps, model)) / (2.0 * h)


def fd_hessian_at_optimum(model) -> np.ndarray:
    """Central second differences of the closed-form loss at theta*, step 1e-4, one call per stencil."""
    h = 1e-4
    theta = model.theta_star
    steps = h * np.eye(model.d)
    f0 = expected_loss(theta, model)
    out = np.diag((expected_loss(theta + steps, model) - 2.0 * f0 + expected_loss(theta - steps, model)) / (h * h))
    i, j = np.triu_indices(model.d, 1)
    ei, ej = steps[i], steps[j]
    fpp = expected_loss(theta + ei + ej, model)
    fpm = expected_loss(theta + ei - ej, model)
    fmp = expected_loss(theta - ei + ej, model)
    fmm = expected_loss(theta - ei - ej, model)
    out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return out


def avg_iterate_bound(seqs, model) -> float:
    """Worst margin of the averaged-iterate bound over a (k, n, d) stack, its two norms one sequence at a time."""
    h = model.design.h
    deltas = seqs - model.theta_star
    hdeltas = deltas @ h
    zsq = np.einsum("id,id->i", deltas.reshape(-1, model.d), hdeltas.reshape(-1, model.d)).reshape(seqs.shape[:2])
    scales = gradient_scale(np.sqrt(np.maximum(zsq, 0.0)), model)
    avg_grad = (scales[..., None] * hdeltas).mean(axis=1)
    align = np.mean(scales * zsq, axis=1)

    bar = deltas.mean(axis=1)
    lhs = np.array([b @ h @ b for b in bar])
    gnorm_hinv = np.array([g @ np.linalg.solve(h, g) for g in avg_grad])

    eta = model.outliers.eta
    et = effective_eta(model.outliers, model.sigma)
    sigma2 = model.sigma * model.sigma
    rhs = (
        2.0 * sigma2 / (1.0 - et) ** 2 * gnorm_hinv
        + 800.0 / (1.0 - et) ** 2 * math.log(2.0 / (1.0 - eta)) ** 2 * align * align
    )
    return float(np.min(rhs - lhs))
