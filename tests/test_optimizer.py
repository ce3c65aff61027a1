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
    no_outliers,
    point_outliers,
)
from streamrobust.datagen import sample_arrays
from streamrobust.optimizer import default_checkpoints, default_gamma0, oracle_ls_run, run

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
    with pytest.raises(ValueError):
        default_checkpoints(10, ratio=1.0)


def test_default_gamma0(spectrum_model):
    want = 1.0 / (1.0 + 0.5 + 1.0 / 3.0)
    assert default_gamma0(spectrum_model) == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# full runs


def test_run_is_deterministic(point_model):
    a = run(point_model, L1(), StepSchedule(0.25), 500, seed=3)
    b = run(point_model, L1(), StepSchedule(0.25), 500, seed=3)
    assert np.array_equal(a.theta_bar, b.theta_bar)
    assert np.array_equal(a.err_h, b.err_h)
    assert a.config_digest == b.config_digest


def test_run_from_arrays_matches_model_source(point_model):
    # a longer triple: only its first n_steps rows are used
    stream = sample_arrays(point_model, 600, seed=9)
    from_model = run(point_model, L1(), StepSchedule(0.25), 400, seed=9)
    from_arrays = run(stream, L1(), StepSchedule(0.25), 400, model=point_model, seed=9)
    assert np.array_equal(from_model.theta_bar, from_arrays.theta_bar)
    assert np.array_equal(from_model.err_h, from_arrays.err_h)


def test_run_custom_checkpoints_and_validation(clean_model):
    rec = run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[10, 50, 100], seed=1)
    assert list(rec.steps) == [10, 50, 100]
    with pytest.raises(ValueError, match="strictly increasing"):
        run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[10, 10], seed=1)
    with pytest.raises(ValueError, match=r"\[1, 100\]"):
        run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[10, 101], seed=1)
    with pytest.raises(ValueError, match="empty"):
        run(clean_model, L1(), StepSchedule(0.3), 100, checkpoint_plan=[], seed=1)


def test_run_exhausted_stream_raises(clean_model):
    stream = sample_arrays(clean_model, 10, seed=2)
    with pytest.raises(ValueError, match="stream ended after 10 samples"):
        run(stream, L1(), StepSchedule(0.3), 11, model=clean_model)


def test_run_requires_model_for_raw_stream(clean_model):
    stream = sample_arrays(clean_model, 10, seed=2)
    with pytest.raises(ValueError, match="reference model"):
        run(stream, L1(), StepSchedule(0.3), 10)


def test_stream_arrays_must_agree_in_length(clean_model):
    x, y, b = sample_arrays(clean_model, 20, seed=2)
    with pytest.raises(ValueError, match="stream arrays disagree"):
        run((x[:10], y, b), L1(), StepSchedule(0.3), 10, model=clean_model)
    with pytest.raises(ValueError, match="stream arrays disagree"):
        oracle_ls_run((x, y, b[:5]), 0.05, model=clean_model)


def test_run_theta0_and_iterates(clean_model):
    theta0 = np.array([5.0, 5.0, 5.0])
    rec = run(
        clean_model, L1(), StepSchedule(0.3), 50, seed=4, theta0=theta0, record_iterates=True
    )
    assert rec.iterates.shape == (50, 3)
    assert np.array_equal(rec.iterates[0], theta0)
    with pytest.raises(ValueError, match="dimension"):
        run(clean_model, L1(), StepSchedule(0.3), 50, seed=4, theta0=np.zeros(2))


def test_run_converges_on_clean_stream(clean_model):
    rec = run(clean_model, L1(), StepSchedule(1.0 / 3.0), 20000, seed=7)
    assert rec.final_err_h < rec.err_h[0] / 50.0
    assert rec.final_err_h < 5e-3


def test_run_min_abs_residual_tracked(clean_model):
    rec = run(clean_model, L1(), StepSchedule(0.3), 1000, seed=5)
    assert 0.0 <= rec.min_abs_residual < 0.1


def test_huber_large_tau_equals_l2(clean_model):
    stream = sample_arrays(clean_model, 300, seed=8)
    hub = run(stream, Huber(1e12), StepSchedule(0.2), 300, model=clean_model)
    sq = run(stream, L2(), StepSchedule(0.2), 300, model=clean_model)
    assert np.array_equal(hub.theta_last, sq.theta_last)


def test_huber_small_tau_tracks_scaled_l1(clean_model):
    # Huber(tau, gamma_n) takes the same steps as the absolute loss with
    # step sizes tau * gamma_n, as long as no residual enters the quadratic zone
    tau = 1e-6
    stream = sample_arrays(clean_model, 500, seed=10)
    hub = run(stream, Huber(tau), StepSchedule(0.4), 500, model=clean_model)
    lad = run(stream, L1(), StepSchedule(0.4 * tau), 500, model=clean_model)
    assert hub.min_abs_residual > tau
    assert np.allclose(hub.theta_last, lad.theta_last, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# least squares oracle


def test_oracle_filters_corrupted(point_model):
    x, y, b = sample_arrays(point_model, 4000, seed=6)
    clean = b == 0.0
    n_clean = int(np.count_nonzero(clean))
    rec = oracle_ls_run((x, y, b != 0.0), 0.05, model=point_model)
    assert rec.steps[-1] == n_clean
    # unaffected by the corruption: same run on the clean subset directly
    direct = run(
        (x[clean], y[clean], b[clean]),
        L2(),
        StepSchedule(0.05, CONSTANT),
        n_clean,
        model=point_model,
    )
    assert np.array_equal(rec.theta_bar, direct.theta_bar)


def test_oracle_converges(point_model):
    stream = sample_arrays(point_model, 20000, seed=12)
    rec = oracle_ls_run(stream, 0.05, model=point_model)
    assert rec.final_err_h < rec.err_h[0] / 100.0


def test_oracle_error_cases():
    model = RegressionModel(np.zeros(2), Identity(2), 1.0, point_outliers(0.5, 10.0))
    x, y, b = sample_arrays(model, 100, seed=1)
    with pytest.raises(ValueError, match="all 100 samples are corrupted"):
        oracle_ls_run((x, y, np.ones(100, dtype=bool)), 0.05, model=model)
    with pytest.raises(ValueError, match="clean samples among"):
        oracle_ls_run((x, y, b), 0.05, n_steps=100, model=model)


def test_oracle_vs_contaminated_l2(point_model):
    # the whole point of the oracle: squared loss on the full stream is wrecked
    stream = sample_arrays(point_model, 5000, seed=14)
    oracle = oracle_ls_run(stream, 0.05, model=point_model)
    naive = run(stream, L2(), StepSchedule(default_gamma0(point_model)), 5000, model=point_model)
    assert naive.final_err_h > 100.0 * oracle.final_err_h
