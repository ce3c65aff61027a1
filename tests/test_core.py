import hashlib
import math

import numpy as np
import pytest
from numpy.random import Philox, SFC64

from streamrobust.core import (
    CONSTANT,
    Explicit,
    Huber,
    Identity,
    INV_SQRT,
    L1,
    NonFiniteError,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    RunRecord,
    Spectrum,
    StepSchedule,
    Uniform,
    derive_seed,
    loss_label,
    no_outliers,
    point_outliers,
    short_digest,
    substream,
)

from scalar_reference import schedule_gamma


# ---------------------------------------------------------------------------
# seeding


def test_substream_reproducible():
    a = substream(7, "noise").standard_normal(5)
    b = substream(7, "noise").standard_normal(5)
    assert np.array_equal(a, b)


def test_substream_paths_are_independent_addresses():
    a = substream(7, "noise").standard_normal(5)
    b = substream(7, "x").standard_normal(5)
    c = substream(8, "noise").standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_int_and_string_path_parts():
    a = substream(3, "rep", 0).random(4)
    b = substream(3, "rep", 1).random(4)
    assert not np.array_equal(a, b)


def test_substream_keeps_philox_by_default():
    # the data streams replay the pinned seeds' rows: these bytes were drawn from Philox
    rng = substream(7, "x")
    h = hashlib.sha256(rng.standard_normal(8).tobytes())
    h.update(rng.random(8).tobytes())
    assert h.hexdigest() == "ca4a0e761ce542341d3f3b781e0856dee3bde455ef86e7a6d3ab5d8f7b09fa6c"
    assert np.array_equal(substream(7, "x", bit_generator=Philox).random(8), substream(7, "x").random(8))


def test_substream_takes_another_bit_generator_at_the_same_address():
    a = substream(7, "mc", bit_generator=SFC64).random(8)
    assert isinstance(substream(7, "mc", bit_generator=SFC64).bit_generator, SFC64)
    assert np.array_equal(a, substream(7, "mc", bit_generator=SFC64).random(8))
    assert not np.array_equal(a, substream(7, "mc").random(8))


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, "cell", "identity", 0)
    s2 = derive_seed(42, "cell", "identity", 0)
    s3 = derive_seed(42, "cell", "identity", 1)
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2**64


# ---------------------------------------------------------------------------
# covariance specs


def test_identity_design():
    des = Identity(4).design
    assert np.array_equal(des.h, np.eye(4))
    assert des.r2 == 4.0


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_spectrum_design_recovers_eigenvalues(d):
    eigs = tuple(1.0 / k for k in range(1, d + 1))
    des = Spectrum(eigs, basis_seed=99).design
    got = np.sort(np.linalg.eigvalsh(des.h))
    assert np.allclose(got, sorted(eigs), atol=1e-12)
    assert math.isclose(des.r2, sum(eigs))
    # same seed, same matrix; the factorization must reproduce H
    des2 = Spectrum(eigs, basis_seed=99).design
    assert np.array_equal(des.h, des2.h)
    assert np.allclose(des.chol @ des.chol.T, des.h, atol=1e-12)


def test_spectrum_basis_seed_changes_basis():
    eigs = (1.0, 0.25)
    a = Spectrum(eigs, basis_seed=1).design.h
    b = Spectrum(eigs, basis_seed=2).design.h
    assert not np.allclose(a, b)


def test_spectrum_rejects_bad_eigenvalues():
    with pytest.raises(ValueError):
        Spectrum((), basis_seed=0)
    with pytest.raises(ValueError):
        Spectrum((1.0, 0.0), basis_seed=0)
    with pytest.raises(ValueError):
        Spectrum((1.0, -2.0), basis_seed=0)


def test_explicit_design_and_validation():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    des = Explicit(m).design
    assert np.array_equal(des.h, m)
    assert np.allclose(des.chol @ des.chol.T, m, atol=1e-12)
    assert math.isclose(des.r2, 3.0)

    # refused when made, not at the first use of the design
    with pytest.raises(ValueError, match="symmetric"):
        Explicit(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="smallest eigenvalue"):
        Explicit(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        Explicit(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        Explicit(np.zeros((0, 0)))


def test_explicit_matrix_is_frozen():
    spec = Explicit(np.eye(2))
    with pytest.raises(ValueError):
        spec.matrix[0, 0] = 5.0


def test_spec_dimension():
    assert Identity(3).d == 3
    assert Spectrum((1.0, 2.0), 0).d == 2
    assert Explicit(np.eye(5)).d == 5
    with pytest.raises(TypeError, match="not a covariance spec"):
        RegressionModel(np.zeros(1), "identity", 1.0, no_outliers())


# ---------------------------------------------------------------------------
# outlier distributions


def test_outlier_distribution_validation():
    with pytest.raises(ValueError, match="eta"):
        OutlierDistribution(1.0, ((1.0, PointMass(1.0)),))
    with pytest.raises(ValueError, match="eta"):
        OutlierDistribution(-0.1, ((1.0, PointMass(1.0)),))
    with pytest.raises(ValueError, match="sum to 1"):
        OutlierDistribution(0.5, ((0.5, PointMass(1.0)),))
    with pytest.raises(ValueError, match="non-empty"):
        OutlierDistribution(0.5, ())
    with pytest.raises(ValueError, match=">= 0"):
        OutlierDistribution(0.5, ((-0.5, PointMass(1.0)), (1.5, PointMass(2.0))))
    with pytest.raises(TypeError):
        OutlierDistribution(0.5, ((1.0, "huge"),))
    with pytest.raises(ValueError, match="lo < hi"):
        Uniform(3.0, 3.0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: RegressionModel([0.5, math.nan], Identity(2), 1.0, no_outliers()), "theta_star"),
        (lambda: RegressionModel([0.5, 0.5], Identity(2), math.inf, no_outliers()), "sigma"),
        (lambda: RegressionModel([0.5, 0.5], Identity(2), math.nan, no_outliers()), "sigma"),
        (lambda: PointMass(math.inf), "point mass value"),
        (lambda: PointMass(math.nan), "point mass value"),
        (lambda: Uniform(0.0, math.inf), "lo and hi"),
        (lambda: Uniform(math.nan, 1.0), "lo and hi"),
        (lambda: Explicit([[1.0, math.nan], [math.nan, 1.0]]), "explicit covariance matrix"),
        (lambda: OutlierDistribution(0.5, ((math.nan, PointMass(1.0)),)), "component weight"),
    ],
    ids=["theta_star_nan", "sigma_inf", "sigma_nan", "point_inf", "point_nan", "uniform_inf", "uniform_nan",
         "explicit_nan", "weight_nan"],
)
def test_a_non_finite_model_parameter_is_refused_by_name(make, field):
    # each used to pass and give a NaN or infinite expected loss, or a misleading error
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


def test_values_from_uniforms_component_selection():
    dist = OutlierDistribution(0.5, ((0.25, PointMass(-7.0)), (0.75, Uniform(0.0, 10.0))))
    u_comp = np.array([0.0, 0.2499, 0.25, 0.9, 1.0])
    u_pos = np.array([0.5, 0.5, 0.0, 0.5, 1.0])
    vals = dist.values_from_uniforms(u_comp, u_pos)
    assert vals[0] == -7.0
    assert vals[1] == -7.0
    assert vals[2] == 0.0  # first draw from the uniform component
    assert vals[3] == 5.0
    assert vals[4] == 10.0  # u = 1 clamps into the last component


def test_values_from_uniforms_matches_weights():
    dist = OutlierDistribution(0.9, ((0.3, PointMass(1.0)), (0.7, PointMass(2.0))))
    rng = substream(5, "check")
    vals = dist.values_from_uniforms(rng.random(200000), rng.random(200000))
    frac = float(np.mean(vals == 1.0))
    assert abs(frac - 0.3) < 0.01
    assert set(np.unique(vals)) == {1.0, 2.0}


def _values_by_component(dist, u_component, u_position):
    # the component-by-component mapping that table lookup replaced, kept as the reference
    cum = np.cumsum([w for w, _ in dist.components])
    idx = np.minimum(np.searchsorted(cum, u_component, side="right"), len(dist.components) - 1)
    out = np.empty(u_component.shape)
    for j, (_, comp) in enumerate(dist.components):
        mask = idx == j
        if isinstance(comp, PointMass):
            out[mask] = comp.value
        else:
            out[mask] = comp.lo + (comp.hi - comp.lo) * u_position[mask]
    return out


@pytest.mark.parametrize(
    "dist",
    [
        no_outliers(),
        point_outliers(0.3, -7.5),
        OutlierDistribution(0.2, ((1.0, Uniform(-3.0, 11.0)),)),
        OutlierDistribution(0.3, ((0.4, PointMass(5.0)), (0.6, Uniform(1.0, 10.0)))),
        OutlierDistribution(0.5, ((0.25, Uniform(0.0, 2.0)), (0.0, PointMass(9.0)), (0.75, PointMass(-1.0)))),
    ],
    ids=["none", "point", "uniform", "mixture", "zero_weight"],
)
def test_values_from_uniforms_equal_the_component_loop(dist):
    cum = np.cumsum([w for w, _ in dist.components])
    below_one = np.nextafter(1.0, 0.0)
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0, below_one]])
    u_comp = np.concatenate([substream(3, "comp").random(5000), edges, edges])
    u_pos = np.concatenate([substream(3, "pos").random(5000), np.zeros(edges.size), np.full(edges.size, below_one)])
    got = dist.values_from_uniforms(u_comp, u_pos)
    assert np.array_equal(got, _values_by_component(dist, u_comp, u_pos))
    assert np.array_equal(np.signbit(got), np.signbit(_values_by_component(dist, u_comp, u_pos)))


def test_outlier_helpers():
    clean = no_outliers()
    assert clean.eta == 0.0
    pm = point_outliers(0.2, 1000.0)
    assert pm.eta == 0.2
    assert pm.components[0][1].value == 1000.0


# ---------------------------------------------------------------------------
# regression model


def test_model_validation(clean_model):
    assert clean_model.d == 3
    with pytest.raises(ValueError, match="dimension"):
        RegressionModel(np.zeros(2), Identity(3), 1.0, no_outliers())
    with pytest.raises(ValueError, match="sigma"):
        RegressionModel(np.zeros(3), Identity(3), 0.0, no_outliers())


def test_model_theta_star_is_frozen(clean_model):
    with pytest.raises(ValueError):
        clean_model.theta_star[0] = 9.0


def test_model_fingerprint_distinguishes(clean_model):
    other_sigma = RegressionModel(clean_model.theta_star, Identity(3), 2.0, no_outliers())
    other_theta = RegressionModel(np.array([0.6, -0.2, 0.31]), Identity(3), 1.0, no_outliers())
    other_outliers = RegressionModel(
        clean_model.theta_star, Identity(3), 1.0, point_outliers(0.1, 5.0)
    )
    prints = {
        clean_model.fingerprint(),
        other_sigma.fingerprint(),
        other_theta.fingerprint(),
        other_outliers.fingerprint(),
    }
    assert len(prints) == 4
    assert clean_model.fingerprint() == clean_model.fingerprint()


def test_model_fingerprint_ignores_numpy_print_options(mixture_model):
    # an Explicit spec's repr prints its matrix through numpy's global print options
    before = mixture_model.fingerprint(), repr(mixture_model.covariance)
    saved = np.get_printoptions()
    try:
        np.set_printoptions(precision=3, formatter={"float": lambda v: f"{v:.1f}"})
        assert repr(mixture_model.covariance) != before[1]
        assert mixture_model.fingerprint() == before[0]
    finally:
        np.set_printoptions(**saved)
    assert mixture_model.fingerprint() == before[0]


def test_model_design_cached(mixture_model):
    assert mixture_model.design is mixture_model.design


# ---------------------------------------------------------------------------
# schedules and losses


def test_schedule_inv_sqrt():
    sched = StepSchedule(0.4)
    assert sched.kind == INV_SQRT
    for n in (1, 2, 9, 100):
        assert schedule_gamma(sched, n) == 0.4 / math.sqrt(n)


def test_schedule_constant():
    sched = StepSchedule(0.1, CONSTANT)
    assert schedule_gamma(sched, 1) == 0.1
    assert schedule_gamma(sched, 1000) == 0.1


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(0.0)
    with pytest.raises(ValueError):
        StepSchedule(0.1, "linear")
    with pytest.raises(ValueError):
        schedule_gamma(StepSchedule(0.1), 0)


def test_loss_labels():
    assert loss_label(L1()) == "l1"
    assert loss_label(Huber(0.5)) == "huber(0.5)"
    with pytest.raises(ValueError):
        Huber(0.0)


# ---------------------------------------------------------------------------
# run records


def _record(steps, errs):
    steps = np.asarray(steps)
    errs = np.asarray(errs, dtype=float)
    return RunRecord(
        steps=steps,
        err_h=errs,
        err_2=errs,
        err_last_h=errs,
        config_digest="cafe",
        theta_bar=np.zeros(2),
        theta_last=np.zeros(2),
        min_abs_residual=0.5,
    )


def test_run_record_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        _record([1, 5, 5], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="matching length"):
        _record([1, 5], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="negative"):
        _record([1, 5], [0.1, -0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_record_rejects_non_finite_errors(bad):
    with pytest.raises(NonFiniteError, match="err_h contains a non-finite value"):
        _record([1, 5], [0.1, bad])


def test_short_digest_stable():
    a = short_digest(["run", 1, np.arange(3.0)])
    b = short_digest(["run", 1, np.arange(3.0)])
    c = short_digest(["run", 2, np.arange(3.0)])
    assert a == b
    assert a != c
    assert len(a) == 16
