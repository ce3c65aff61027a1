"""Closed forms against frozen brute-force values and structural identities.

The literal constants below were computed once with adaptive quadrature
(scipy.integrate.quad, abs tolerance far below 1e-10) and pasted in, so the
package's 64-node Gauss-Legendre path is compared against an independent
integration route.
"""

import math

import numpy as np
import pytest

from streamrobust import analytic
from streamrobust.analytic import (
    SQRT_2_OVER_PI,
    conditional_outlier_mean,
    effective_eta,
    erf,
    expected_loss,
    expected_loss_radial,
    full_outlier_mean,
    gradient,
    gradient_scale,
    hessian_at_optimum,
    outlier_gauss_moment,
    pred_error_sigma,
)
from streamrobust.core import (
    Identity,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    Uniform,
    no_outliers,
    point_outliers,
)
from streamrobust.verify import default_models

# quad references, abserr < 1e-13
GAUSS_MOMENT_U1_10_S1 = 0.04418774949148349
GAUSS_MOMENT_U_M2_3_S07 = 0.350174700489043
GAUSS_MOMENT_MIX_S2 = 0.1334859111711726
LOSS_U1_10_ETA025_S13_Z08 = 2.2984878133477893
LOSS_PM5_ETA03_S1_Z2 = 2.754800850976517


def _uniform_gauss_moment_erf(lo, hi, s):
    # E[exp(-b^2 / (2 s^2))] for b ~ U[lo, hi], via the antiderivative
    c = s * math.sqrt(math.pi / 2.0)
    return c * (math.erf(hi / (math.sqrt(2.0) * s)) - math.erf(lo / (math.sqrt(2.0) * s))) / (hi - lo)


# ---------------------------------------------------------------------------
# outlier moments


def test_gauss_moment_uniform_against_quad():
    dist = OutlierDistribution(0.5, ((1.0, Uniform(1.0, 10.0)),))
    got = outlier_gauss_moment(dist, 1.0)
    assert abs(got - GAUSS_MOMENT_U1_10_S1) < 1e-10


def test_gauss_moment_uniform_negative_span_against_quad():
    dist = OutlierDistribution(0.5, ((1.0, Uniform(-2.0, 3.0)),))
    got = outlier_gauss_moment(dist, 0.7)
    assert abs(got - GAUSS_MOMENT_U_M2_3_S07) < 1e-10


def test_gauss_moment_mixture_against_quad():
    dist = OutlierDistribution(0.5, ((0.3, PointMass(5.0)), (0.7, Uniform(1.0, 10.0))))
    got = outlier_gauss_moment(dist, 2.0)
    assert abs(got - GAUSS_MOMENT_MIX_S2) < 1e-10


@pytest.mark.parametrize(
    "lo,hi,s",
    [(1.0, 10.0, 1.0), (-2.0, 3.0, 0.7), (0.5, 0.6, 2.0), (-50.0, 50.0, 3.0)],
)
def test_gauss_moment_uniform_matches_erf_closed_form(lo, hi, s):
    dist = OutlierDistribution(0.5, ((1.0, Uniform(lo, hi)),))
    assert abs(outlier_gauss_moment(dist, s) - _uniform_gauss_moment_erf(lo, hi, s)) < 1e-12


def test_gauss_moment_point_mass_exact():
    dist = point_outliers(0.3, 4.0)
    assert outlier_gauss_moment(dist, 2.0) == pytest.approx(math.exp(-16.0 / 8.0), abs=1e-15)


def test_conditional_and_full_means():
    dist = OutlierDistribution(0.4, ((1.0, PointMass(3.0)),))
    assert conditional_outlier_mean(dist, lambda b: b * b) == 9.0
    # full mean weighs in the 60% atom at zero
    assert full_outlier_mean(dist, lambda b: b * b) == pytest.approx(0.4 * 9.0)
    assert full_outlier_mean(no_outliers(), lambda b: b * b) == 0.0


def test_quadrature_order_insensitive(monkeypatch):
    # the fixed 64-node rule is converged: a 96-node rule moves the result by < 1e-13
    dist = OutlierDistribution(0.5, ((0.3, PointMass(5.0)), (0.7, Uniform(1.0, 10.0))))
    a = outlier_gauss_moment(dist, 2.0)
    monkeypatch.setattr(analytic, "_leggauss", lambda: np.polynomial.legendre.leggauss(96))
    b = outlier_gauss_moment(dist, 2.0)
    assert a != b
    assert abs(a - b) < 1e-13


def test_effective_eta_basics():
    assert effective_eta(no_outliers(), 1.0) == 0.0
    # huge outliers contribute fully
    assert effective_eta(point_outliers(0.2, 1e6), 1.0) == pytest.approx(0.2, abs=1e-15)
    # tiny outliers barely count
    small = effective_eta(point_outliers(0.9, 0.001), 1.0)
    assert small < 1e-5
    # mid-scale interpolates
    mid = effective_eta(point_outliers(0.5, 1.0), 1.0)
    assert mid == pytest.approx(0.5 * (1.0 - math.exp(-0.5)), abs=1e-15)


# ---------------------------------------------------------------------------
# the error function


def test_erf_scalars_and_special_values():
    for x in (0.0, -0.0, 0.3, -2.5, 7.0, 6.0, -6.0, 1e308, -5e-324, math.inf, -math.inf):
        for got in (erf(x), erf(np.array(x))):
            assert isinstance(got, float)
            assert got == math.erf(x) and math.copysign(1.0, got) == math.copysign(1.0, math.erf(x))
    assert erf(0.0) == 0.0
    assert erf(math.inf) == 1.0
    assert erf(-math.inf) == -1.0
    assert math.isnan(erf(math.nan)) and math.isnan(erf(np.array(math.nan)))


def test_erf_arrays_keep_shape_and_dtype():
    x = np.array([[0.0, np.inf, -np.inf], [np.nan, 0.5, -1e-300]])
    got = erf(x)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == x.shape
    assert np.array_equal(got[0], [0.0, 1.0, -1.0])
    assert np.isnan(got[1, 0])
    assert got[1, 1] == math.erf(0.5) and got[1, 2] == math.erf(-1e-300)
    for empty in (np.empty(0), np.empty((0, 3)), np.empty((2, 0))):
        got = erf(empty)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == empty.shape


def _doubles_around(x, count):
    """The count consecutive doubles centred on x."""
    below = [x]
    for _ in range(count // 2):
        below.append(math.nextafter(below[-1], -math.inf))
    above = [x]
    for _ in range(count - count // 2 - 1):
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[:0:-1] + above)


@pytest.mark.parametrize("centre", [5.92, 6.0, -5.92, -6.0])
def test_erf_keeps_the_bits_of_math_erf_around_the_saturation_cut(centre):
    x = _doubles_around(centre, 4000)
    assert np.unique(x).size == 4000
    got = erf(x)
    assert np.array_equal(got, [math.erf(v) for v in x])
    assert np.all(np.abs(got[np.abs(x) >= 5.9217]) == 1.0)


def test_erf_keeps_the_bits_of_math_erf_on_the_smoothing_grid():
    # the (t, b) grid of verify's scalar.smoothing_gap_bound, where about a third of the arguments pass the cut
    t = np.linspace(0.0, 1.0, 201)[:, None]
    b = np.linspace(0.0, 10.0, 401)[None, :]
    x = b / np.sqrt(1.0 + t * t)
    got = erf(x)
    assert got.shape == (201, 401)
    assert np.array_equal(got, np.vectorize(math.erf)(x))
    assert 0.3 < np.mean(x >= 6.0) < 0.35


def test_erf_hands_math_erf_no_argument_past_the_cut(monkeypatch):
    seen, real = [], math.erf

    def counting(v):
        seen.append(v)
        return real(v)

    monkeypatch.setattr(analytic.math, "erf", counting)
    x = np.concatenate([_doubles_around(6.0, 50), _doubles_around(-6.0, 50), [math.inf, -math.inf, math.nan, 20.0]])
    got = erf(x)
    monkeypatch.undo()
    assert np.array_equal(got[:-2], [math.erf(v) for v in x[:-2]])
    assert sorted(seen) == sorted(v for v in x if abs(v) < 6.0)


# ---------------------------------------------------------------------------
# array-valued closed forms


@pytest.mark.parametrize("name, model", default_models(), ids=[name for name, _ in default_models()])
def test_radial_forms_on_arrays_match_scalar_calls(name, model):
    zs = np.concatenate([[0.0], np.logspace(-6.0, 6.0, 61) * model.sigma]).reshape(2, 31)
    for fn in (expected_loss_radial, gradient_scale):
        got = fn(zs, model)
        assert got.shape == zs.shape
        want = np.array([[fn(float(z), model) for z in row] for row in zs])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), fn.__name__


@pytest.mark.parametrize("name, model", default_models(), ids=[name for name, _ in default_models()])
def test_expected_loss_on_a_stack_of_iterates(name, model):
    rng = np.random.default_rng(5)
    thetas = model.theta_star + rng.normal(size=(4, 3, model.d))
    got = expected_loss(thetas, model)
    assert got.shape == (4, 3)
    want = np.array([[expected_loss(t, model) for t in row] for row in thetas])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_gradient_scale_rejects_a_negative_entry(point_model):
    with pytest.raises(ValueError, match="error scale"):
        gradient_scale(np.array([0.0, 1.0, -1e-9]), point_model)


@pytest.mark.parametrize("z", [math.nan, np.array([0.0, math.nan, 1.0])])
def test_gradient_scale_rejects_a_nan_scale(point_model, z):
    with pytest.raises(ValueError, match=r"^error scale must be >= 0, got nan$"):
        gradient_scale(z, point_model)


# ---------------------------------------------------------------------------
# loss closed form


def test_expected_loss_against_quad_uniform():
    model = RegressionModel(
        np.array([1.0, 0.0]),
        Identity(2),
        1.3,
        OutlierDistribution(0.25, ((1.0, Uniform(1.0, 10.0)),)),
    )
    got = expected_loss_radial(0.8, model)
    assert abs(got - LOSS_U1_10_ETA025_S13_Z08) < 1e-10


def test_expected_loss_against_quad_point():
    model = RegressionModel(np.zeros(2), Identity(2), 1.0, point_outliers(0.3, 5.0))
    got = expected_loss_radial(2.0, model)
    assert abs(got - LOSS_PM5_ETA03_S1_Z2) < 1e-10


def test_expected_loss_clean_is_scaled_pseudo_huber(clean_model):
    for z in (0.0, 0.3, 1.0, 7.5):
        want = SQRT_2_OVER_PI * math.sqrt(1.0 + z * z)
        assert expected_loss_radial(z, clean_model) == pytest.approx(want, rel=1e-14)


def test_expected_loss_radial_consistency(mixture_model):
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = mixture_model.theta_star + rng.normal(size=2)
        z = pred_error_sigma(theta, mixture_model)
        assert expected_loss(theta, mixture_model) == pytest.approx(
            expected_loss_radial(z, mixture_model), rel=1e-14
        )


def test_expected_loss_increasing_in_error_scale(mixture_model):
    zs = np.linspace(0.0, 20.0, 50)
    vals = [expected_loss_radial(z, mixture_model) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expected_loss_asymptotes(point_model):
    # far away the corruption stops mattering and the loss grows linearly
    z = 1e8
    assert expected_loss_radial(z, point_model) == pytest.approx(SQRT_2_OVER_PI * z, rel=1e-6)
    # near the optimum the excess loss is the curvature times z^2 / 2
    et = effective_eta(point_model.outliers, point_model.sigma)
    z = 1e-4
    excess = expected_loss_radial(z, point_model) - expected_loss_radial(0.0, point_model)
    want = 0.5 * SQRT_2_OVER_PI * (1.0 - et) / point_model.sigma * z * z
    assert excess == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# gradient and curvature


def test_gradient_zero_at_optimum(mixture_model):
    g = gradient(mixture_model.theta_star, mixture_model)
    assert np.allclose(g, 0.0, atol=1e-15)


def test_gradient_is_scaled_h_delta(spectrum_model):
    rng = np.random.default_rng(11)
    h = spectrum_model.design.h
    for _ in range(5):
        theta = spectrum_model.theta_star + rng.normal(size=3)
        z = pred_error_sigma(theta, spectrum_model)
        want = gradient_scale(z, spectrum_model) * (h @ (theta - spectrum_model.theta_star))
        assert np.allclose(gradient(theta, spectrum_model), want, rtol=1e-14, atol=0.0)


def test_gradient_scale_at_zero(point_model):
    et = effective_eta(point_model.outliers, point_model.sigma)
    want = SQRT_2_OVER_PI * (1.0 - et) / point_model.sigma
    assert gradient_scale(0.0, point_model) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        gradient_scale(-0.1, point_model)


def test_gradient_dual_norm_capped(mixture_model):
    # || grad ||_{H^{-1}}^2 = (scale * z)^2 can never exceed 2/pi
    h_inv = np.linalg.inv(mixture_model.design.h)
    for z in np.logspace(-3, 8, 45):
        theta = mixture_model.theta_star.copy()
        theta[0] += z / math.sqrt(mixture_model.design.h[0, 0])
        g = gradient(theta, mixture_model)
        assert float(g @ h_inv @ g) <= 2.0 / math.pi + 1e-12


def test_hessian_at_optimum_formula(spectrum_model):
    et = effective_eta(spectrum_model.outliers, spectrum_model.sigma)
    want = SQRT_2_OVER_PI * (1.0 - et) / spectrum_model.sigma * spectrum_model.design.h
    assert np.allclose(hessian_at_optimum(spectrum_model), want, rtol=1e-14)


def test_dimension_mismatch_rejected(clean_model):
    with pytest.raises(ValueError):
        expected_loss(np.zeros(2), clean_model)
    with pytest.raises(ValueError):
        gradient(np.zeros(5), clean_model)


def test_a_theta_of_another_dimension_fails_before_broadcasting(clean_model):
    # a one-entry theta would broadcast against the three-entry theta*
    with pytest.raises(ValueError, match=r"theta of shape \(1,\) does not end in the model's dimension 3"):
        expected_loss(np.array([0.5]), clean_model)
    with pytest.raises(ValueError, match=r"theta of shape \(1,\) does not end in the model's dimension 3"):
        gradient(np.array([0.5]), clean_model)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_theta_is_named_before_any_arithmetic(clean_model, bad):
    theta = clean_model.theta_star.copy()
    theta[1] = bad
    for fn in (expected_loss, gradient, pred_error_sigma):
        with pytest.raises(ValueError, match=rf"^theta has a non-finite entry {bad} at index \(1,\)$"):
            fn(theta, clean_model)
    # in a stack, the first non-finite entry in row order is the one named
    stack = np.vstack([clean_model.theta_star, theta, -theta])
    with pytest.raises(ValueError, match=rf"^theta has a non-finite entry {bad} at index \(1, 1\)$"):
        expected_loss(stack, clean_model)
