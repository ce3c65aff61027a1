"""Closed forms for the population absolute loss under Gaussian data.

Conditional on the corruption value b, the residual y - <x, theta> is
Gaussian with mean b and standard deviation s = sqrt(sigma^2 + sigma_theta^2),
where sigma_theta = ||theta - theta*||_H is the prediction error scale. Its
absolute value therefore follows a folded normal law, whose mean is available
in closed form through the Gauss error function. Averaging the folded-normal
mean over the corruption law gives the population objective

    F(theta) = E_b[ sqrt(2/pi) s exp(-b^2/(2 s^2)) + b erf(b / (sqrt(2) s)) ],

a smooth function of theta even though the pointwise loss is not. Expectations
over point-mass components are exact; uniform components are integrated with
64-node Gauss-Legendre quadrature, which converges geometrically here
because the integrands are entire.

The derivative structure is what the optimizer relies on: the gradient is a
scalar multiple of H (theta - theta*), with the multiplier depending on theta
only through sigma_theta. `gradient_scale` evaluates that multiplier. All
functions are pure and cache nothing, so they stay easy to audit.

The error function is the standard library's `math.erf`, applied elementwise
by `erf` where |x| < 6; past that erf is exactly +-1.0 in doubles (erfc(6) is
below half an ulp of 1), so `erf` takes the sign there and skips the call.
numpy is the only dependency. The closed forms take one point (an error scale
or an iterate) or an array of them, so a whole grid is one call: the
quadrature nodes of the corruption law ride on a trailing axis that the
expectation reduces.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (
    OutlierDistribution,
    PointMass,
    RegressionModel,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def erf(x):
    """Gauss error function of a float or an array, elementwise.

    math.erf where |x| < 6; elsewhere the sign of x, which is what math.erf
    returns there (it is exactly +-1.0 from |x| = 5.9216 on), and NaN at NaN.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(np.sign(x))
    inner = np.abs(x) < 6.0
    out[inner] = np.fromiter(map(math.erf, x[inner].tolist()), float)
    return out[()]


@lru_cache(maxsize=None)
def _leggauss():
    """Nodes and weights of the 64-node Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(64)


def conditional_outlier_mean(dist: OutlierDistribution, fn):
    """E[fn(b) | b != 0].

    fn takes a 1-D array of corruption values and returns an array whose
    last axis runs over them; the mean reduces that axis, so a fn that
    broadcasts extra leading axes yields one mean per leading index.
    """
    total = 0.0
    for weight, comp in dist.components:
        if isinstance(comp, PointMass):
            total = total + weight * fn(np.array([comp.value]))[..., 0]
        else:
            x, w = _leggauss()
            nodes = 0.5 * (comp.hi + comp.lo) + 0.5 * (comp.hi - comp.lo) * x
            # mean over [lo, hi]: the interval length cancels the jacobian
            # an elementwise reduction, so each leading index sums its nodes the same way
            total = total + weight * 0.5 * np.sum(fn(nodes) * w, axis=-1)
    return total


def full_outlier_mean(dist: OutlierDistribution, fn):
    """E[fn(b)] over the full law: mass 1 - eta at zero plus eta times the mixture."""
    clean = fn(np.zeros(1))[..., 0]
    if dist.eta == 0.0:
        return clean
    return (1.0 - dist.eta) * clean + dist.eta * conditional_outlier_mean(dist, fn)


def outlier_gauss_moment(dist: OutlierDistribution, s: float) -> float:
    """E[exp(-b^2 / (2 s^2)) | b != 0], a value in (0, 1]."""
    if not (s > 0):
        raise ValueError(f"scale s must be > 0, got {s}")
    inv = 0.5 / (s * s)
    return float(conditional_outlier_mean(dist, lambda b: np.exp(-inv * b * b)))


def effective_eta(dist: OutlierDistribution, sigma: float) -> float:
    """Effective corruption level eta * (1 - E[exp(-b^2/(2 sigma^2)) | b != 0]).

    Corruptions much smaller than sigma barely move the residual law, and this
    quantity discounts them accordingly; it is what the curvature of the
    objective at theta* actually depends on.
    """
    if not (sigma > 0):
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if dist.eta == 0.0:
        return 0.0
    return dist.eta * (1.0 - outlier_gauss_moment(dist, sigma))


def theta_array(theta, model: RegressionModel) -> np.ndarray:
    """theta as a float array, checked before any arithmetic: finite, with the model's dimension on its last axis."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (model.d,):
        raise ValueError(f"theta of shape {theta.shape} does not end in the model's dimension {model.d}")
    if not np.isfinite(theta).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(theta))[0])
        raise ValueError(f"theta has a non-finite entry {theta[index]} at index {index}")
    return theta


def pred_error_sigma(theta: np.ndarray, model: RegressionModel):
    """Prediction error scale ||theta - theta*||_H of one iterate (d,) or a stack (..., d)."""
    delta = theta_array(theta, model) - model.theta_star
    h = model.design.h
    return np.sqrt(np.maximum(np.sum(delta @ h * delta, axis=-1), 0.0))


def expected_loss_radial(z, model: RegressionModel):
    """Population loss as a function of the error scale z = sigma_theta alone.

    z may be a float or an array of scales; the result has the shape of z.
    """
    s2 = (model.sigma * model.sigma + np.square(z))[..., None]
    s = np.sqrt(s2)

    def folded_mean(b):
        return SQRT_2_OVER_PI * s * np.exp(-b * b / (2.0 * s2)) + b * erf(b / (math.sqrt(2.0) * s))

    return full_outlier_mean(model.outliers, folded_mean)


def expected_loss(theta: np.ndarray, model: RegressionModel):
    """Population value of E|y - <x, theta>| at one iterate (d,) or a stack (..., d)."""
    return expected_loss_radial(pred_error_sigma(theta, model), model)


def gradient_scale(z, model: RegressionModel):
    """Scalar multiplier in the gradient: grad F(theta) = gradient_scale(sigma_theta) H (theta - theta*).

    Equals sqrt(2/pi) (sigma^2 + z^2)^{-1/2} E[exp(-b^2/(2(sigma^2+z^2)))] over
    the full corruption law. At z = 0 this is sqrt(2/pi) (1 - effective_eta) / sigma.
    z may be a float or an array of scales; the result has the shape of z.
    """
    if not np.all(np.greater_equal(z, 0)):  # a NaN scale fails this too
        raise ValueError(f"error scale must be >= 0, got {np.min(z)}")
    s2 = model.sigma * model.sigma + np.square(z)
    s2_nodes = s2[..., None]
    moment = full_outlier_mean(model.outliers, lambda b: np.exp(-b * b / (2.0 * s2_nodes)))
    return SQRT_2_OVER_PI * moment / np.sqrt(s2)


def gradient(theta: np.ndarray, model: RegressionModel) -> np.ndarray:
    """Gradient of the population loss at one iterate (d,) or a stack (..., d), one H delta product per iterate."""
    delta = theta_array(theta, model) - model.theta_star
    hdelta = np.matmul(model.design.h, delta[..., None])[..., 0]
    z = np.sqrt(np.maximum(np.vecdot(delta, hdelta), 0.0))
    return gradient_scale(z, model)[..., None] * hdelta


def hessian_at_optimum(model: RegressionModel) -> np.ndarray:
    """Hessian of the population loss at theta*: sqrt(2/pi) (1 - effective_eta) / sigma * H."""
    coeff = SQRT_2_OVER_PI * (1.0 - effective_eta(model.outliers, model.sigma)) / model.sigma
    return coeff * model.design.h
