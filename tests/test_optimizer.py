import math

import numpy as np
import pytest

from streamrobust.core import (
    CONSTANT,
    Huber,
    Identity,
    L1,
    L2,
    RegressionModel,
    StepSchedule,
    point_outliers,
)
from streamrobust.datagen import sample_arrays
from streamrobust.optimizer import Estimator, default_checkpoints, default_gamma0, oracle_row, sgd_row

from conftest import masked_oracle, sgd_run
from scalar_reference import SgdState, sgd_step


# ---------------------------------------------------------------------------
# single steps


def test_l1_step_moves_by_gamma_times_x():
    state = SgdState.start(np.zeros(2), L1())
    sgd_step(state, np.array([1.0, -2.0]), 5.0, StepSchedule(0.5))
    assert np.array_equal(state.theta, np.array([0.5, -1.0]))
    assert state.n == 1
    # negative residual flips the sign
    sgd_step(state, np.array([1.0, 0.0]), -100.0, StepSchedule(0.5))
    assert state.theta[0] == pytest.approx(0.5 - 0.5 / math.sqrt(2.0))


def test_l1_step_size_ignores_residual_magnitude():
    x = np.array([0.3, 1.4])
    small = SgdState.start(np.zeros(2), L1())
    sgd_step(small, x, 0.01, StepSchedule(0.2))
    huge = SgdState.start(np.zeros(2), L1())
    sgd_step(huge, x, 1e9, StepSchedule(0.2))
    assert np.array_equal(small.theta, huge.theta)


def test_l1_zero_residual_is_a_fixed_point():
    state = SgdState.start(np.array([1.0, 1.0]), L1())
    sgd_step(state, np.array([2.0, 3.0]), 5.0, StepSchedule(0.5))
    assert np.array_equal(state.theta, np.array([1.0, 1.0]))
    assert state.n == 1


def test_l2_step_scales_with_residual():
    state = SgdState.start(np.zeros(2), L2())
    sgd_step(state, np.array([1.0, 2.0]), 3.0, StepSchedule(0.1))
    assert np.allclose(state.theta, 0.1 * 3.0 * np.array([1.0, 2.0]))


def test_huber_step_switches_at_tau():
    x = np.array([1.0])
    inside = SgdState.start(np.zeros(1), Huber(2.0))
    sgd_step(inside, x, 1.5, StepSchedule(1.0))
    assert inside.theta[0] == pytest.approx(1.5)
    outside = SgdState.start(np.zeros(1), Huber(2.0))
    sgd_step(outside, x, 40.0, StepSchedule(1.0))
    assert outside.theta[0] == pytest.approx(2.0)
    below = SgdState.start(np.zeros(1), Huber(2.0))
    sgd_step(below, x, -40.0, StepSchedule(1.0))
    assert below.theta[0] == pytest.approx(-2.0)


def test_averaging_matches_batch_mean(clean_model):
    # theta_bar after n steps is the mean of theta_0 .. theta_{n-1}
    x, y, _ = sample_arrays(clean_model, 200, seed=13)
    state = SgdState.start(np.array([0.5, -0.5, 0.25]), L1())
    seen = []
    sched = StepSchedule(0.3)
    for x_i, y_i in zip(x, y):
        seen.append(state.theta.copy())
        sgd_step(state, x_i, y_i, sched)
    batch = np.mean(seen, axis=0)
    assert np.allclose(state.theta_bar, batch, rtol=0.0, atol=1e-12)


def test_initial_average_is_theta0():
    state = SgdState.start(np.array([2.0, 3.0]), L1())
    assert np.array_equal(state.theta_bar, state.theta)


# ---------------------------------------------------------------------------
# checkpoints


def test_default_checkpoints_shape():
    plan = default_checkpoints(1000)
    assert plan[0] == 1
    assert plan[-1] == 1000
    assert np.all(np.diff(plan) > 0)
    # geometric once integer rounding stops dominating
    tail = plan[plan >= 20]
    ratios = tail[1:] / tail[:-1].astype(float)
    assert ratios.max() <= 1.3
    assert abs(ratios[:-1].mean() - 1.25) < 0.02


def test_default_checkpoints_small_and_invalid():
    assert list(default_checkpoints(1)) == [1]
    with pytest.raises(ValueError):
        default_checkpoints(0)


def test_default_gamma0(spectrum_model):
    want = 1.0 / (1.0 + 0.5 + 1.0 / 3.0)
    assert default_gamma0(spectrum_model) == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# rows and their digests


@pytest.mark.parametrize(
    "model_name, l1, huber, oracle",
    [
        ("clean_model", "2bdec5c934c49d3f", "08a5035c5be99e2e", "d7c188a5bd35eb06"),
        ("spectrum_model", "2a60e4aadc63c05b", "df94ce8fc99dc917", "13cf894abdc29573"),
        ("mixture_model", "59c60858ca7d4df7", "ad97a6a5f202e5ca", "ff89144e0fdf62c8"),
    ],
)
def test_row_digests_keep_their_bytes(model_name, l1, huber, oracle, request):
    # the digests every table and manifest.csv carry; they still hash the zero start
    model = request.getfixturevalue(model_name)
    assert sgd_row(L1(), StepSchedule(0.3), 1000, 7, model).digest == l1
    assert sgd_row(Huber(0.5), StepSchedule(0.2, CONSTANT), 500, 3, model, [10, 100, 500]).digest == huber
    assert oracle_row(0.05, 800, 1000, model).digest == oracle
    assert sgd_run(model, L1(), StepSchedule(0.3), 1000, seed=7).config_digest == l1


# ---------------------------------------------------------------------------
# full runs


def test_run_is_deterministic(point_model):
    a = sgd_run(point_model, L1(), StepSchedule(0.25), 500, seed=3)
    b = sgd_run(point_model, L1(), StepSchedule(0.25), 500, seed=3)
    assert np.array_equal(a.theta_bar, b.theta_bar)
    assert np.array_equal(a.err_h, b.err_h)
    assert a.config_digest == b.config_digest


def test_run_from_arrays_matches_model_source(point_model):
    # the first n_steps rows of a longer triple: a stream's first rows do not depend on how many are drawn
    stream = sample_arrays(point_model, 600, seed=9)
    from_model = sgd_run(point_model, L1(), StepSchedule(0.25), 400, seed=9)
    from_arrays = sgd_run([a[:400] for a in stream], L1(), StepSchedule(0.25), 400, model=point_model, seed=9)
    assert np.array_equal(from_model.theta_bar, from_arrays.theta_bar)
    assert np.array_equal(from_model.err_h, from_arrays.err_h)


def test_run_custom_checkpoints_and_validation(clean_model):
    rec = sgd_run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[10, 50, 100], seed=1)
    assert list(rec.steps) == [10, 50, 100]
    with pytest.raises(ValueError, match="strictly increasing"):
        sgd_run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[10, 10], seed=1)
    with pytest.raises(ValueError, match=r"\[1, 100\]"):
        sgd_run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[10, 101], seed=1)
    with pytest.raises(ValueError, match="empty"):
        sgd_run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[], seed=1)


@pytest.mark.parametrize(
    ("n_steps", "plan", "message"),
    [
        # not truncated to [10, 50, 99]
        (100, [10.7, 50.2, 99.9], r"whole numbers, got \[10.7, 50.2, 99.9\]"),
        (100, [[10, 50], [60, 100]], r"1-D .* got \[\[10, 50\], \[60, 100\]\]"),
        (100.5, None, "whole number >= 1, got 100.5"),
    ],
    ids=["fractional_plan", "2d_plan", "fractional_n_steps"],
)
def test_run_names_a_plan_or_step_count_that_is_not_whole(clean_model, n_steps, plan, message):
    with pytest.raises(ValueError, match=message):
        sgd_run(clean_model, L1(), StepSchedule(0.3), n_steps, checkpoint_plan=plan, seed=1)


def test_run_exhausted_stream_raises(clean_model):
    stream = sample_arrays(clean_model, 10, seed=2)
    # the engine's refusal, the only check of a stream's length
    with pytest.raises(ValueError, match=r"^stream ended after 10 samples with l1 at 10 of 11 steps$"):
        sgd_run(stream, L1(), StepSchedule(0.3), 11, model=clean_model)


def test_an_estimator_keeps_its_checked_step_count_and_plan(clean_model):
    row = Estimator(L1(), StepSchedule(0.3), 100.0)
    assert type(row.n_steps) is int and row.n_steps == 100
    assert np.array_equal(row.plan, default_checkpoints(100)) and row.plan.dtype == np.int64
    # the row hashes what it checked: a whole float step count and plan digest as their ints
    row = sgd_row(L1(), StepSchedule(0.3), 100.0, 1, clean_model, [10.0, 100.0])
    assert type(row.n_steps) is int and row.plan.tolist() == [10, 100]
    assert row.digest == sgd_row(L1(), StepSchedule(0.3), 100, 1, clean_model, [10, 100]).digest


def test_an_estimator_refuses_what_is_not_a_loss():
    with pytest.raises(TypeError, match="not a loss"):
        Estimator(object(), StepSchedule(1.0), 3)


def test_run_theta0_and_iterates(clean_model):
    # every row starts at 0
    rec = sgd_run(clean_model, L1(), StepSchedule(0.3), 50, seed=4, record_iterates=True)
    assert rec.iterates.shape == (50, 3)
    assert np.array_equal(rec.iterates[0], np.zeros(3))


def test_run_converges_on_clean_stream(clean_model):
    rec = sgd_run(clean_model, L1(), StepSchedule(1.0 / 3.0), 20000, seed=7)
    assert rec.final_err_h < rec.err_h[0] / 50.0
    assert rec.final_err_h < 5e-3


def test_run_min_abs_residual_tracked(clean_model):
    rec = sgd_run(clean_model, L1(), StepSchedule(0.3), 1000, seed=5)
    assert 0.0 <= rec.min_abs_residual < 0.1


def test_huber_large_tau_equals_l2(clean_model):
    stream = sample_arrays(clean_model, 300, seed=8)
    hub = sgd_run(stream, Huber(1e12), StepSchedule(0.2), 300, model=clean_model)
    sq = sgd_run(stream, L2(), StepSchedule(0.2), 300, model=clean_model)
    assert np.array_equal(hub.theta_last, sq.theta_last)


def test_huber_small_tau_tracks_scaled_l1(clean_model):
    # Huber(tau, gamma_n) takes the same steps as the absolute loss with
    # step sizes tau * gamma_n, as long as no residual enters the quadratic zone
    tau = 1e-6
    stream = sample_arrays(clean_model, 500, seed=10)
    hub = sgd_run(stream, Huber(tau), StepSchedule(0.4), 500, model=clean_model)
    lad = sgd_run(stream, L1(), StepSchedule(0.4 * tau), 500, model=clean_model)
    assert hub.min_abs_residual > tau
    assert np.allclose(hub.theta_last, lad.theta_last, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# least squares oracle


def test_oracle_converges(point_model):
    stream = sample_arrays(point_model, 20000, seed=12)
    rec = masked_oracle(stream, 0.05, point_model)
    assert rec.final_err_h < rec.err_h[0] / 100.0


def test_oracle_error_cases():
    model = RegressionModel(np.zeros(2), Identity(2), 1.0, point_outliers(0.5, 10.0))
    with pytest.raises(ValueError, match="all 100 samples are corrupted"):
        oracle_row(0.05, 0, 100, model)


def test_oracle_vs_contaminated_l2(point_model):
    # the whole point of the oracle: squared loss on the full stream is wrecked
    stream = sample_arrays(point_model, 5000, seed=14)
    oracle = masked_oracle(stream, 0.05, point_model)
    naive = sgd_run(stream, L2(), StepSchedule(default_gamma0(point_model)), 5000, model=point_model)
    assert naive.final_err_h > 100.0 * oracle.final_err_h
