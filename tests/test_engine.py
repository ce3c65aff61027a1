"""The batched engine against the one-sample reference, and its failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrobust.core import (
    CONSTANT,
    Huber,
    Identity,
    INV_SQRT,
    L1,
    L2,
    NonFiniteError,
    RegressionModel,
    SgdState,
    StepSchedule,
    no_outliers,
    point_outliers,
)
from streamrobust.datagen import CHUNK, array_chunks, sample_arrays
from streamrobust.optimizer import Estimator, oracle_ls_run, run, run_batch, sgd_step

LOSSES = [L1(), L2(), Huber(0.7)]


def _reference(stream, row, model, theta0):
    """One estimator stepped observation by observation with sgd_step."""
    state = SgdState.start(theta0, row.loss)
    plan = set(row.plan.tolist())
    errs, min_r = [], math.inf
    h, theta_star = model.design.h, model.theta_star
    for x, y, corrupted in zip(*stream):
        if state.n == row.n_steps:
            break
        if row.clean_only and corrupted:
            continue
        min_r = min(min_r, abs(y - float(x @ state.theta)))
        sgd_step(state, x, y, row.schedule)
        if state.n in plan:
            bar, last = state.theta_bar - theta_star, state.theta - theta_star
            errs.append((bar @ h @ bar, bar @ bar, last @ h @ last))
    return np.array(errs).T, state, min_r


def _close(a, b, rtol=1e-12):
    """Agreement relative to the size of the reference, entry by entry."""
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


def _same_distance(err, ref, scale, rtol=1e-12):
    """sqrt(err) agrees with sqrt(ref) within rtol of the iterate's size.

    The reference's running mean rounds at about 1e-16 of |theta_bar| per
    step, and theta_bar - theta* can cancel most of theta_bar's digits, so
    err_H relative to itself is not a property of either implementation:
    the distances are compared relative to |theta*| + |theta_bar - theta*|.
    """
    return bool(np.all(np.abs(np.sqrt(err) - np.sqrt(ref)) <= rtol * scale))


def _same_vector(a, b, rtol=1e-12):
    return bool(np.linalg.norm(a - b) <= rtol * np.linalg.norm(b))


@st.composite
def engine_configs(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(CHUNK - 40, 2 * CHUNK + 40))  # always crosses a chunk boundary
    data_seed = draw(st.integers(0, 2**32 - 1))
    corrupt_frac = draw(st.sampled_from([0.0, 0.1, 0.4]))
    rng = np.random.default_rng(data_seed)
    corrupted = rng.random(n) < corrupt_frac
    n_clean = int(np.count_nonzero(~corrupted))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        clean_only = n_clean > 0 and draw(st.booleans())
        limit = n_clean if clean_only else n
        n_steps = draw(st.integers(1, limit))
        kind = draw(st.sampled_from([INV_SQRT, CONSTANT]))
        gamma0 = draw(st.floats(0.005, 0.3)) / d
        plan = None
        if draw(st.booleans()):
            marks = draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=12, unique=True))
            plan = sorted(marks)
        rows.append(
            Estimator(draw(st.sampled_from(LOSSES)), StepSchedule(gamma0, kind), n_steps, plan, clean_only)
        )
    theta0 = rng.standard_normal(d)
    return d, n, data_seed, corrupted, rows, theta0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(engine_configs())
def test_engine_rows_match_separate_reference_loops(config):
    d, n, data_seed, corrupted, rows, theta0 = config
    model = RegressionModel(np.linspace(-1.0, 1.0, d), Identity(d), 1.0, no_outliers())
    x, y, _ = sample_arrays(model, n, data_seed)
    y = np.where(corrupted, y + 50.0, y)

    records = run_batch(rows, array_chunks(x, y, corrupted), model, theta0)
    for row, rec in zip(rows, records):
        errs, state, min_r = _reference((x, y, corrupted), row, model, theta0)
        scale = np.linalg.norm(model.theta_star) + np.sqrt(errs[1])
        assert np.array_equal(rec.steps, row.plan)
        assert _same_distance(rec.err_h, errs[0], scale)
        assert _same_distance(rec.err_2, errs[1], scale)
        assert _close(rec.err_last_h, errs[2])
        assert _same_vector(rec.theta_bar, state.theta_bar)
        # the trajectory itself is the same arithmetic, step for step
        assert np.array_equal(rec.theta_last, state.theta)
        assert rec.min_abs_residual == min_r


def test_masked_row_in_a_cell_matches_the_oracle_driver(point_model):
    x, y, b = sample_arrays(point_model, 3000, seed=21)
    corrupted = b != 0.0
    oracle = oracle_ls_run((x, y, corrupted), 0.05, model=point_model)
    rows = [
        Estimator(L1(), StepSchedule(0.2), 3000),
        Estimator(L2(), StepSchedule(0.05, CONSTANT), oracle.steps[-1], clean_only=True),
    ]
    _, masked = run_batch(rows, array_chunks(x, y, corrupted), point_model)
    assert np.array_equal(masked.steps, oracle.steps)
    assert np.array_equal(masked.theta_last, oracle.theta_last)
    assert masked.min_abs_residual == oracle.min_abs_residual
    assert _close(masked.err_last_h, oracle.err_last_h)
    scale = np.linalg.norm(point_model.theta_star) + np.sqrt(oracle.err_2)
    assert _same_distance(masked.err_h, oracle.err_h, scale)
    assert _same_vector(masked.theta_bar, oracle.theta_bar)


def test_record_iterates_replays_the_loop(clean_model):
    x, y, b = sample_arrays(clean_model, CHUNK + 100, seed=4)
    rec = run((x, y, b), Huber(0.5), StepSchedule(0.3), CHUNK + 100, model=clean_model, record_iterates=True)
    state = SgdState.start(np.zeros(3), Huber(0.5))
    for k, (x_k, y_k) in enumerate(zip(x, y)):
        assert np.array_equal(rec.iterates[k], state.theta)
        sgd_step(state, x_k, y_k, StepSchedule(0.3))


# ---------------------------------------------------------------------------
# failing loudly


def _with_nan_response(model, n, at, seed=3):
    x, y, b = sample_arrays(model, n, seed=seed)
    y[at] = math.nan
    return x, y, b


@pytest.mark.parametrize("loss", LOSSES, ids=["l1", "l2", "huber"])
def test_sgd_step_rejects_nan_response(loss):
    state = SgdState.start(np.array([0.5, -0.5]), loss)
    with pytest.raises(NonFiniteError, match="non-finite residual nan at step 1"):
        sgd_step(state, np.array([1.0, 2.0]), math.nan, StepSchedule(0.1))
    assert state.n == 0
    assert np.array_equal(state.theta, [0.5, -0.5])


@pytest.mark.parametrize("loss", LOSSES, ids=["l1", "l2", "huber"])
def test_run_names_the_nan_response(loss, clean_model):
    stream = _with_nan_response(clean_model, 2000, at=1500)
    with pytest.raises(NonFiniteError, match="non-finite response nan at stream index 1500"):
        run(stream, loss, StepSchedule(0.2), 2000, model=clean_model)


def test_oracle_names_a_nan_clean_response(clean_model):
    stream = _with_nan_response(clean_model, 500, at=7)
    with pytest.raises(NonFiniteError, match="stream index 7"):
        oracle_ls_run(stream, 0.05, model=clean_model)


def test_l2_divergence_fails_loudly():
    model = RegressionModel(np.ones(10) / math.sqrt(10.0), Identity(10), 1.0, point_outliers(0.2, 1000.0))
    with pytest.raises(NonFiniteError, match=r"l2 with gamma0=50.0 diverged: non-finite iterate by step \d+"):
        run(model, L2(), StepSchedule(50.0), 2000, seed=1)
