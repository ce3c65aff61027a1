import math
import re

import numpy as np
import pytest

from streamrobust.analytic import expected_loss, gradient, hessian_at_optimum
from streamrobust.core import (
    CONSTANT,
    Identity,
    INV_SQRT,
    RegressionModel,
    StepSchedule,
    no_outliers,
    point_outliers,
)
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


def test_mc_expected_loss_rejects_tiny_sample():
    model = RegressionModel(np.zeros(1), Identity(1), 1.0, no_outliers())
    with pytest.raises(ValueError, match="1000"):
        mc_expected_loss(np.zeros(1), model, 999, seed=0)


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


def test_moment_bounds_within_band():
    model = RegressionModel(np.array([0.8, -0.6]), Identity(2), 1.0, point_outliers(0.2, 50.0))
    results = check_moment_bounds(model, StepSchedule(0.5), 200, 100, seed=41)
    assert [r.name for r in results] == ["moment_bounds.second", "moment_bounds.fourth"]
    for r in results:
        assert r.value <= 3.0


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
