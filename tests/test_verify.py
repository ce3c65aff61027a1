import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrobust.analytic import expected_loss, gradient, hessian_at_optimum
from streamrobust.core import (
    CONSTANT,
    Explicit,
    Identity,
    L1,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    Spectrum,
    StepSchedule,
    Uniform,
    derive_seed,
    no_outliers,
    point_outliers,
    substream,
)
from streamrobust.datagen import CHUNK, sample_arrays
from streamrobust.optimizer import default_checkpoints
from streamrobust.verify import (
    CHECK_GROUPS,
    CheckResult,
    check_avg_iterate_bound,
    check_error_loss_link,
    check_moment_bounds,
    check_scalar_inequalities,
    check_scale_drift,
    default_models,
    fd_gradient,
    fd_hessian_at_optimum,
    margin_result,
    mc_expected_loss,
    random_iterate_sequences,
    report_lines,
    run_suite,
    suite_passed,
    z_result,
)
from conftest import sgd_run
from mc_reference import whole_piece_mc_expected_loss
import pointwise_reference

LINE_RE = re.compile(r"^[^,]+,(pass|warn|fail),[^,]+$")


# ---------------------------------------------------------------------------
# result plumbing


def test_margin_result_status():
    assert margin_result("m", 0.5).status == "pass"
    assert margin_result("m", 0.0).status == "pass"
    assert margin_result("m", -1e-11).status == "pass"  # inside rounding tolerance
    assert margin_result("m", -1e-9).status == "fail"


def test_z_result_status():
    assert z_result("z", 2.9).status == "pass"
    assert z_result("z", 3.5).status == "warn"
    assert z_result("z", 4.01).status == "fail"
    assert z_result("z", -7.0).status == "pass"


def test_report_lines_format():
    results = [margin_result("alpha_check", 1.0), z_result("beta[b]", 3.5)]
    lines = report_lines(results)
    assert lines[0] == "alpha_check,pass,1.0"
    assert lines[1] == "beta[b],warn,3.5"
    for line in lines:
        assert LINE_RE.match(line)


def test_suite_passed_ignores_warn():
    assert suite_passed([z_result("a", 3.5), margin_result("b", 0.0)])
    assert not suite_passed([z_result("a", 5.0)])
    assert not suite_passed([margin_result("b", -1.0)])


# ---------------------------------------------------------------------------
# brute-force oracles


def test_mc_expected_loss_agrees_with_closed_form(mixture_model):
    theta = mixture_model.theta_star + np.array([0.4, -0.2])
    closed = expected_loss(theta, mixture_model)
    mean, stderr = mc_expected_loss(theta, mixture_model, 400000, seed=17)
    assert stderr > 0.0
    assert abs(closed - mean) < 4.0 * stderr


def test_mc_expected_loss_repeats_on_a_seed_and_moves_with_it(mixture_model):
    theta = mixture_model.theta_star + np.array([0.4, -0.2])
    a = mc_expected_loss(theta, mixture_model, 5000, seed=17)
    assert a == mc_expected_loss(theta, mixture_model, 5000, seed=17)
    assert a != mc_expected_loss(theta, mixture_model, 5000, seed=18)


def test_mc_expected_loss_rejects_tiny_sample():
    model = RegressionModel(np.zeros(1), Identity(1), 1.0, no_outliers())
    with pytest.raises(ValueError, match="1000"):
        mc_expected_loss(np.zeros(1), model, 999, seed=0)


@pytest.mark.parametrize("n_samples", [1000, 5000, 200000, 262145])
def test_mc_expected_loss_keeps_the_bits_of_the_whole_piece_draws(n_samples):
    # 262145 ends on a piece of one sample
    for seed in (3, 20260816, 2**64 - 1):
        rng = np.random.default_rng(seed)
        for name, model in default_models():
            theta = model.theta_star + rng.standard_normal(model.d)
            expected = whole_piece_mc_expected_loss(theta, model, n_samples, seed)
            assert mc_expected_loss(theta, model, n_samples, seed) == expected, name


@pytest.mark.parametrize("n_samples", [1000.0, 2000.5])
def test_mc_expected_loss_names_a_sample_count_that_is_not_a_whole_number(n_samples):
    model = RegressionModel(np.zeros(1), Identity(1), 1.0, no_outliers())
    with pytest.raises(ValueError, match=rf"^need a whole number of samples, got {n_samples}$"):
        mc_expected_loss(np.zeros(1), model, n_samples, seed=0)
    assert mc_expected_loss([0.0], model, np.int64(1000), seed=0) == mc_expected_loss([0.0], model, 1000, seed=0)


def test_mc_expected_loss_sees_theta_only_through_its_error_scale():
    # the design term is one normal times ||theta - theta*||_H, so zero-padded
    # features change no draw: the estimates agree bit for bit
    outliers = point_outliers(0.3, 40.0)
    small = RegressionModel(np.array([0.7, -0.1]), Identity(2), 0.8, outliers)
    large = RegressionModel(np.array([0.7, -0.1, 0.0, 0.0]), Identity(4), 0.8, outliers)
    shift = np.array([0.9, -1.3])
    got = mc_expected_loss(small.theta_star + shift, small, 5000, seed=23)
    assert mc_expected_loss(large.theta_star + np.append(shift, [0.0, 0.0]), large, 5000, seed=23) == got


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_theta_is_named_by_the_monte_carlo(clean_model, bad):
    theta = clean_model.theta_star.copy()
    theta[1] = bad
    with pytest.raises(ValueError, match=rf"^theta has a non-finite entry {bad} at index \(1,\)$"):
        mc_expected_loss(theta, clean_model, 1000, seed=0)


def test_fd_gradient_matches_closed_form(spectrum_model):
    rng = np.random.default_rng(23)
    theta = spectrum_model.theta_star + rng.normal(size=3)
    g = gradient(theta, spectrum_model)
    g_fd = fd_gradient(theta, spectrum_model)
    assert np.linalg.norm(g - g_fd) < 1e-5 * np.linalg.norm(g)


def test_fd_hessian_matches_closed_form(mixture_model):
    closed = hessian_at_optimum(mixture_model)
    fd = fd_hessian_at_optimum(mixture_model)
    assert np.linalg.norm(fd - closed) < 1e-3 * np.linalg.norm(closed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fd_gradient_names_the_callers_non_finite_entry(clean_model, bad):
    theta = clean_model.theta_star.copy()
    theta[1] = bad
    with pytest.raises(ValueError, match=rf"^theta has a non-finite entry {bad} at index \(1,\)$"):
        fd_gradient(theta, clean_model)
    with pytest.raises(ValueError, match=rf"^theta has a non-finite entry {bad} at index \(1, 1\)$"):
        fd_gradient(np.vstack([clean_model.theta_star, theta]), clean_model)


def test_fd_gradient_names_the_callers_shape(point_model):
    with pytest.raises(ValueError, match=r"^theta of shape \(3,\) does not end in the model's dimension 4$"):
        fd_gradient(np.zeros(3), point_model)
    with pytest.raises(ValueError, match=r"^theta of shape \(2, 5\) does not end in the model's dimension 4$"):
        fd_gradient(np.zeros((2, 5)), point_model)


# ---------------------------------------------------------------------------
# stacked closed-form calls against the per-point reference


def _same_as_pointwise(model, thetas, walks):
    """Each stacked form equals its per-point reference bit for bit."""
    assert np.array_equal(gradient(thetas, model), [pointwise_reference.gradient(t, model) for t in thetas])
    assert np.array_equal(fd_gradient(thetas, model), [pointwise_reference.fd_gradient(t, model) for t in thetas])
    assert np.array_equal(gradient(thetas[0], model), pointwise_reference.gradient(thetas[0], model))
    assert np.array_equal(fd_gradient(thetas[0], model), pointwise_reference.fd_gradient(thetas[0], model))
    assert np.array_equal(fd_hessian_at_optimum(model), pointwise_reference.fd_hessian_at_optimum(model))
    assert check_avg_iterate_bound(walks, model).value == pointwise_reference.avg_iterate_bound(walks, model)
    for walk in walks:
        assert check_avg_iterate_bound(walk, model).value == pointwise_reference.avg_iterate_bound(walk[None], model)


@pytest.mark.parametrize("name, model", default_models(), ids=[name for name, _ in default_models()])
def test_the_stacked_forms_keep_the_bits_of_the_per_point_forms(name, model):
    for seed in (3, 20260816):
        thetas = model.theta_star + substream(seed, "fd_theta").uniform(-2.0, 2.0, (10, model.d))
        walks = np.stack(random_iterate_sequences(model, 20, seed))
        _same_as_pointwise(model, thetas, walks)


@st.composite
def stacked_cases(draw):
    """A Spectrum or Explicit model up to d = 6, iterates around its theta* and walks."""
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        eig = draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d))
        cov = Spectrum(tuple(eig), basis_seed=draw(st.integers(0, 2**32)))
    else:
        a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d))).reshape(d, d)
        cov = Explicit(a @ a.T + 0.1 * np.eye(d))
    outliers = draw(st.sampled_from([
        no_outliers(),
        point_outliers(0.3, 2.0),
        point_outliers(0.9, 1e4),
        OutlierDistribution(0.4, ((0.5, PointMass(-7.0)), (0.5, Uniform(0.5, 30.0)))),
    ]))
    model = RegressionModel(np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d))), cov,
                            draw(st.floats(0.05, 10.0)), outliers)
    seed = draw(st.integers(0, 2**32))
    rng = np.random.default_rng(seed)
    thetas = model.theta_star + 10.0 ** rng.uniform(-4.0, 3.0, (7, 1)) * rng.standard_normal((7, d))
    walks = np.stack(random_iterate_sequences(model, 6, seed, length=draw(st.integers(1, 12))))
    return model, thetas, walks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stacked_cases())
def test_the_stacked_forms_keep_the_bits_on_drawn_models(case):
    _same_as_pointwise(*case)


# ---------------------------------------------------------------------------
# inequality checks


def test_scale_drift_passes_on_default_grid(point_model):
    res = check_scale_drift(point_model)
    assert res.status == "pass"


def test_error_loss_link_margins(mixture_model):
    results = check_error_loss_link(mixture_model)
    names = [r.name for r in results]
    assert names == [
        "error_loss_link.above_noise",
        "error_loss_link.below_noise",
        "error_loss_link.combined",
    ]
    for r in results:
        assert r.status == "pass"
        assert r.value >= -1e-10


def test_avg_iterate_bound_on_walks(point_model):
    for seq in random_iterate_sequences(point_model, 10, seed=31):
        res = check_avg_iterate_bound(seq, point_model)
        assert res.value >= -1e-10


def test_avg_iterate_bound_constant_sequence_tight(clean_model):
    # a constant sequence at theta* + delta is the stress case; the bound
    # still holds but the margin shrinks with the error scale
    seq = np.tile(clean_model.theta_star + 1e-3, (10, 1))
    res = check_avg_iterate_bound(seq, clean_model)
    assert res.status == "pass"
    assert res.value < 1e-3


def test_avg_iterate_bound_validation(clean_model):
    with pytest.raises(ValueError, match="sequence"):
        check_avg_iterate_bound(np.zeros(3), clean_model)


@pytest.mark.parametrize("length", [1, 2, 30])
@pytest.mark.parametrize("name, model", default_models(), ids=[name for name, _ in default_models()])
def test_a_stack_of_sequences_reports_the_worst_single_margin(name, model, length):
    seqs = random_iterate_sequences(model, 20, seed=7, length=length)
    worst = min(check_avg_iterate_bound(seq, model).value for seq in seqs)
    assert check_avg_iterate_bound(np.stack(seqs), model).value == worst


def test_a_theta_of_another_dimension_is_rejected_by_the_checks(clean_model):
    # a one-entry theta would broadcast against the three-entry theta*
    with pytest.raises(ValueError, match=r"theta of shape \(1,\) does not end in the model's dimension 3"):
        mc_expected_loss([0.5], clean_model, 1000, 1)
    with pytest.raises(ValueError, match=r"theta of shape \(5, 1\) does not end in the model's dimension 3"):
        check_avg_iterate_bound(np.zeros((5, 1)), clean_model)


def test_scalar_inequalities_all_pass():
    results = check_scalar_inequalities()
    assert [r.name for r in results] == [
        "scalar.exp_ratio_bound",
        "scalar.erf_gap_bound",
        "scalar.smoothing_gap_bound",
        "scalar.riemann_sum_bound",
    ]
    for r in results:
        assert r.status == "pass", r


SCALAR_LINES = [
    "scalar.exp_ratio_bound,pass,5.870445183868066",
    "scalar.erf_gap_bound,pass,-4.506962941010734e-16",
    "scalar.smoothing_gap_bound,pass,-1.7943458097737658e-15",
    "scalar.riemann_sum_bound,pass,8.258162994492361",
]


def test_scalar_inequalities_keep_their_bytes():
    assert report_lines(check_scalar_inequalities()) == SCALAR_LINES


def test_scalar_inequalities_peak_below_a_megabyte():
    # the smoothing gap's 201 x 401 grid is evaluated 16 rows of t at a time
    tracemalloc.start()
    try:
        check_scalar_inequalities()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_moment_bounds_within_band():
    model = RegressionModel(np.array([0.8, -0.6]), Identity(2), 1.0, point_outliers(0.2, 50.0))
    results = check_moment_bounds(model, StepSchedule(0.5), 200, 100, seed=41)
    assert [r.name for r in results] == ["moment_bounds.second", "moment_bounds.fourth"]
    for r in results:
        assert r.value <= 3.0


@pytest.mark.parametrize(
    "n, replications, seed, lines",
    [
        # verify's own size, in one chunk
        (400, 120, 20260816, ["second,pass,-3.4096958129066413", "fourth,pass,-15.399619333797004"]),
        # across two chunks
        (CHUNK + 100, 100, 1, ["second,pass,-10.426153215132043", "fourth,pass,-34.620153190439254"]),
    ],
    ids=["verify-size", "two-chunks"],
)
def test_moment_bounds_keep_their_bytes(n, replications, seed, lines):
    model = RegressionModel(np.array([0.8, -0.6]), Identity(2), 1.0, point_outliers(0.2, 50.0))
    schedule = StepSchedule(1.0 / model.design.r2)
    results = check_moment_bounds(model, schedule, n, replications, derive_seed(seed, "moments"))
    assert [r.line() for r in results] == ["moment_bounds." + line for line in lines]


def _moment_lines_from_runs(model, schedule, n, replications, seed):
    """The two moment_bounds lines, from one `sgd_row` run per replication on its rows of `sample_arrays`."""
    x, y, b = sample_arrays(model, n * replications, seed)
    ks = default_checkpoints(n)
    theta_ks = []
    for r in range(replications):
        rows = slice(r * n, (r + 1) * n)
        rec = sgd_run((x[rows], y[rows], b[rows]), L1(), schedule, n, [n], seed, model=model, record_iterates=True)
        theta_ks.append(np.vstack([rec.iterates[ks[:-1]], rec.theta_last]))
    sq = np.sum((np.stack(theta_ks, axis=1) - model.theta_star) ** 2, axis=2)
    dist0sq, g, r2, ln_ek = float(np.sum(model.theta_star**2)), schedule.gamma0, model.design.r2, 1.0 + np.log(ks)
    c_k = dist0sq + g**2 * r2 * ln_ek
    d_k = dist0sq**2 + 8.0 * g**2 * ln_ek * r2 * dist0sq + g**4 * ln_ek * r2**2 * (8.0 * ln_ek + np.pi**2 / 3.0)
    moments, bounds = np.stack([sq, sq * sq]), np.stack([c_k, d_k])
    z = (moments.mean(axis=2) - bounds) / (moments.std(axis=2, ddof=1) / np.sqrt(replications))
    return [z_result(f"moment_bounds.{name}", float(zs.max())).line() for name, zs in zip(("second", "fourth"), z)]


@pytest.mark.parametrize(
    "model",
    [
        RegressionModel(np.array([0.8, -0.6]), Identity(2), 1.0, point_outliers(0.2, 50.0)),
        RegressionModel(np.array([0.5, -1.0, 0.2]), Spectrum((2.0, 1.0, 0.5), basis_seed=3), 0.7,
                        OutlierDistribution(0.3, ((0.5, PointMass(-4.0)), (0.5, Uniform(1.0, 9.0))))),
    ],
    ids=["verify-model", "spectrum-mixture"],
)
def test_replication_r_steps_on_its_own_rows_of_the_sampled_stream(model):
    # 100 segments of 50 rows: many straddle the stream's chunk boundaries
    schedule = StepSchedule(1.0 / model.design.r2)
    lines = [r.line() for r in check_moment_bounds(model, schedule, 50, 100, seed=29)]
    assert lines == _moment_lines_from_runs(model, schedule, 50, 100, seed=29)


def test_moment_bounds_validation():
    model = RegressionModel(np.zeros(2), Identity(2), 1.0, no_outliers())
    with pytest.raises(ValueError, match="100 replications"):
        check_moment_bounds(model, StepSchedule(0.5), 100, 50, seed=0)
    with pytest.raises(ValueError, match="schedule"):
        check_moment_bounds(model, StepSchedule(0.5, CONSTANT), 100, 100, seed=0)


# ---------------------------------------------------------------------------
# suite wiring


def test_default_models_cover_regimes():
    models = default_models()
    assert len(models) == 5
    etas = [m.outliers.eta for _, m in models]
    assert 0.0 in etas
    assert max(etas) >= 0.9
    names = [name for name, _ in models]
    assert len(set(names)) == len(names)


def test_run_suite_only_filters():
    res = run_suite(only="scalar_inequalities")
    assert len(res) == 4
    assert all(r.name.startswith("scalar.") for r in res)


def test_run_suite_unknown_group():
    with pytest.raises(KeyError):
        run_suite(only="nosuch")


def test_run_suite_group_names_have_no_commas():
    assert all("," not in g for g in CHECK_GROUPS)
    for r in run_suite(only="scale_drift"):
        assert isinstance(r, CheckResult)
        assert LINE_RE.match(r.line())


MC_LINES_AT_SEED_11 = [
    "mc_loss[clean],pass,0.16565272607894474",
    "mc_loss[far_point],pass,1.1725097929397976",
    "mc_loss[near_point],pass,1.1642358254667837",
    "mc_loss[tiny_point],pass,1.0053420517245462",
    "mc_loss[mixture],pass,0.5967304543237186",
]


@pytest.mark.parametrize("cpus", [None, 1, 2, 3, 8])
def test_the_monte_carlo_lines_are_the_same_on_any_number_of_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the workers hand the interpreter over as often as it allows
    try:
        lines = report_lines(run_suite(11, only="mc_loss"))
    finally:
        sys.setswitchinterval(interval)
    assert lines == MC_LINES_AT_SEED_11
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_failed_monte_carlo_is_raised_once_every_worker_has_ended(monkeypatch, cpus):
    def failing(theta, model, n_samples, seed):
        if seed == derive_seed(11, "mc", "near_point"):
            raise ValueError("boom")
        return mc_expected_loss(theta, model, n_samples, seed)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr("streamrobust.verify.mc_expected_loss", failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^boom$"):
        run_suite(11, only="mc_loss")
    assert threading.active_count() == threads
