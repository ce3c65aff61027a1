"""The batched engine against the one-sample reference, and its failure modes."""

import math
import re

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
    Spectrum,
    StepSchedule,
    loss_label,
    no_outliers,
    point_outliers,
)
from streamrobust.datagen import CHUNK, _chunk_arrays, array_chunks, sample_arrays, stacked_chunks
from streamrobust.optimizer import Estimator, oracle_ls_run, run, run_batch

from scalar_reference import SgdState, sgd_step

LOSSES = [L1(), L2(), Huber(0.7)]


def _reference(stream, row, model, theta0):
    """One estimator stepped observation by observation with sgd_step."""
    state = SgdState.start(theta0, row.loss)
    plan = set(row.plan.tolist())
    errs, min_r = [], math.inf
    h, theta_star = model.design.h, model.theta_star
    for x, y, corrupted in zip(*stream):
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


def _estimators(draw, n, n_clean, d, count):
    """Rows that step on their whole stream: n rows, of which n_clean are clean."""
    rows = []
    for _ in range(count):
        clean_only = n_clean > 0 and draw(st.booleans())
        n_steps = n_clean if clean_only else n
        kind = draw(st.sampled_from([INV_SQRT, CONSTANT]))
        gamma0 = draw(st.floats(0.005, 0.3)) / d
        plan = None
        if draw(st.booleans()):
            marks = draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=12, unique=True))
            plan = sorted(marks)
        rows.append(
            Estimator(draw(st.sampled_from(LOSSES)), StepSchedule(gamma0, kind), n_steps, plan, clean_only)
        )
    return rows


def _model(d, theta_star, spectrum):
    cov = Spectrum(tuple(np.linspace(1.0, 0.2, d)), basis_seed=d) if spectrum else Identity(d)
    return RegressionModel(theta_star, cov, 1.0, no_outliers())


@st.composite
def engine_configs(draw):
    """S streams of their own data, models and flags, with R rows each."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(CHUNK - 40, 2 * CHUNK + 40))  # always crosses a chunk boundary
    r_count = draw(st.integers(1, 3))
    streams = []
    for _ in range(draw(st.integers(1, 3))):
        data_seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(data_seed)
        corrupted = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4]))
        model = _model(d, rng.standard_normal(d), draw(st.booleans()))
        x, y, _ = sample_arrays(model, n, data_seed)
        stream = (x, np.where(corrupted, y + 50.0, y), corrupted)
        n_clean = int(np.count_nonzero(~corrupted))
        streams.append((model, stream, _estimators(draw, n, n_clean, d, r_count)))
    theta0 = np.random.default_rng(n).standard_normal(d)
    return streams, theta0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(engine_configs())
def test_engine_rows_match_separate_reference_loops(config):
    streams, theta0 = config
    models, arrays, grid = zip(*streams)
    records = run_batch(grid, stacked_chunks([array_chunks(*a) for a in arrays], theta0.size), models, theta0)
    for model, stream, rows, recs in zip(models, arrays, grid, records):
        for row, rec in zip(rows, recs):
            errs, state, min_r = _reference(stream, row, model, theta0)
            scale = np.linalg.norm(model.theta_star) + np.sqrt(errs[1])
            assert np.array_equal(rec.steps, row.plan)
            assert _same_distance(rec.err_h, errs[0], scale)
            assert _same_distance(rec.err_2, errs[1], scale)
            assert _close(rec.err_last_h, errs[2])
            assert _same_vector(rec.theta_bar, state.theta_bar)
            # the trajectory itself is the same arithmetic, step for step
            assert np.array_equal(rec.theta_last, state.theta)
            assert rec.min_abs_residual == min_r


@pytest.mark.parametrize("d", [7, 10, 17, 33, 100])
def test_engine_trajectories_match_the_reference_at_wide_dimensions(d):
    # BLAS ddot changes its unrolling above the d of `engine_configs`; the benchmark runs at d = 10 and 100
    n, rng = CHUNK + 76, np.random.default_rng(d)
    models = [_model(d, rng.standard_normal(d), False), _model(d, rng.standard_normal(d), True)]
    wide = Spectrum(tuple(np.geomspace(1.0, 0.01, d)), basis_seed=d + 1)
    models.append(RegressionModel(rng.standard_normal(d), wide, 1.0, no_outliers()))
    schedules = [StepSchedule(0.2 / d), StepSchedule(0.1 / d, CONSTANT)]
    losses = [L1(), L2(), Huber(0.7), L1(), Huber(3.0)]
    rows = [Estimator(loss, schedules[k % 2], n) for k, loss in enumerate(losses)]
    arrays = []
    for s, model in enumerate(models):
        x, y, _ = sample_arrays(model, n, seed=10 * d + s)
        corrupted = rng.random(n) < 0.2
        arrays.append((x, np.where(corrupted, y + 50.0, y), corrupted))
    theta0 = rng.standard_normal(d)
    records = run_batch([rows] * 3, stacked_chunks([array_chunks(*a) for a in arrays], d), models, theta0)
    for model, stream, recs in zip(models, arrays, records):
        for row, rec in zip(rows, recs):
            _, state, min_r = _reference(stream, row, model, theta0)
            assert np.array_equal(rec.theta_last, state.theta), (d, loss_label(row.loss))
            assert rec.min_abs_residual == min_r


@st.composite
def stream_groups(draw):
    """Seeded model streams with R rows each, and an order to group them in."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(200, 2 * CHUNK + 40))
    r_count = draw(st.integers(1, 3))
    models, seeds, grid = [], [], []
    for k in range(draw(st.integers(2, 4))):
        rng = np.random.default_rng(k)
        eta = draw(st.sampled_from([0.0, 0.3]))
        models.append(RegressionModel(rng.standard_normal(d), Identity(d), 1.0, point_outliers(eta, 30.0)))
        seeds.append(draw(st.integers(0, 2**32 - 1)))
        n_clean = int(np.count_nonzero(sample_arrays(models[-1], n, seeds[-1])[2] == 0.0))
        grid.append(_estimators(draw, n, n_clean, d, r_count))
    order = draw(st.permutations(range(len(models))))
    return models, seeds, grid, order, n


@settings(max_examples=20, deadline=None, derandomize=True)
@given(stream_groups())
def test_a_stream_records_the_same_alone_and_in_a_group(config):
    models, seeds, grid, order, n = config

    def call(streams):
        return run_batch(
            [grid[s] for s in streams], stacked_chunks([_chunk_arrays(models[s], seeds[s], n) for s in streams], models[0].d),
            [models[s] for s in streams], record_iterates=True,
        )

    grouped = dict(zip(order, call(order)))
    for s in range(len(models)):
        (alone,) = call([s])
        for a, b in zip(alone, grouped[s]):
            for name in ("steps", "err_h", "err_2", "err_last_h", "theta_bar", "theta_last", "iterates"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (s, name)
            assert a.min_abs_residual == b.min_abs_residual


@pytest.mark.parametrize("d", [2, 100])
def test_a_checkpoint_errors_do_not_depend_on_its_call_mates(d):
    # the same checkpoint, alone in its chunk or among a thousand, and on a stream alone
    # or beside streams of other designs, has bit-equal errors; at d = 2 a reduction
    # whose rounding depends on how many rows it takes would fail this
    n, rng = 3 * CHUNK + 200, np.random.default_rng(d)
    models = [_model(d, rng.standard_normal(d), spectrum) for spectrum in (False, True, True)]
    sparse = np.arange(CHUNK // 2, n, CHUNK // 2)  # one or two checkpoints a chunk
    rows = [Estimator(L1(), StepSchedule(0.5 / d), n, plan) for plan in (sparse, np.arange(1, n + 1))]

    def call(streams):
        chunks = stacked_chunks([_chunk_arrays(models[s], s + 1, n) for s in streams], d)
        return run_batch([rows] * len(streams), chunks, [models[s] for s in streams])

    order = [2, 0, 1]
    grouped = dict(zip(order, call(order)))
    for s, (few, every) in grouped.items():
        assert np.array_equal(few.theta_last, every.theta_last)
        (alone,) = call([s])
        for name in ("err_h", "err_2", "err_last_h"):
            assert np.array_equal(getattr(few, name), getattr(every, name)[sparse - 1]), (s, name)
            for a, b in zip(alone, grouped[s]):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (s, name)


def test_the_engine_is_done_with_a_chunk_before_it_asks_for_the_next(point_model):
    # stacked_chunks writes each chunk over the one before: a chunk overwritten with
    # NaN as soon as the next is asked for must change no record
    n = 2 * CHUNK + 300
    x, y, b = sample_arrays(point_model, n, seed=5)
    rows = [
        Estimator(Huber(0.5), StepSchedule(0.2), n),
        Estimator(L2(), StepSchedule(0.05, CONSTANT), int(np.count_nonzero(b == 0.0)), clean_only=True),
    ]

    def copied():
        return [tuple(a.copy() for a in chunk) for chunk in stacked_chunks([array_chunks(x, y, b)], point_model.d)]

    def scribbled():
        for chunk in copied():
            yield chunk
            for a in chunk:
                a.fill(math.nan)

    (kept,) = run_batch([rows], copied(), [point_model], record_iterates=True)
    (overwritten,) = run_batch([rows], scribbled(), [point_model], record_iterates=True)
    for a, b in zip(kept, overwritten):
        for name in ("steps", "err_h", "err_2", "err_last_h", "theta_bar", "theta_last", "iterates"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.min_abs_residual == b.min_abs_residual


@pytest.mark.parametrize("clean_only", [False, True])
def test_a_stream_longer_than_a_row_is_refused_by_name(clean_only, point_model):
    # a row steps on every row of its stream that it may read: one with fewer
    # steps is refused at the first row it has no step for
    x, y, b = sample_arrays(point_model, 600, seed=2)
    if clean_only:
        clean = np.flatnonzero(b == 0.0)
        short, name, at = Estimator(L2(), StepSchedule(0.05, CONSTANT), clean.size - 1, clean_only=True), "l2", clean[-1]
    else:
        short, name, at = Estimator(Huber(0.5), StepSchedule(0.2), 100), "huber(0.5)", 100
    rows = [[Estimator(L1(), StepSchedule(0.2), 600), short]]
    chunks = stacked_chunks([array_chunks(x, y, b)], point_model.d)
    with pytest.raises(ValueError, match=rf"stream runs past the n_steps={short.n_steps} of {re.escape(name)} at stream index {at}$"):
        run_batch(rows, chunks, [point_model])


def test_a_grid_needs_one_model_and_equal_rows_per_stream(clean_model, point_model):
    row = Estimator(L1(), StepSchedule(0.2), 10)
    for grid, models in [([[row], [row, row]], [clean_model] * 2), ([[row]], [clean_model] * 2), ([], [])]:
        with pytest.raises(ValueError, match="same number of rows"):
            run_batch(grid, stacked_chunks([_chunk_arrays(m, s, 10) for s, m in enumerate(models)], clean_model.d), models)
    with pytest.raises(ValueError, match="same dimension"):
        chunks = stacked_chunks([_chunk_arrays(clean_model, 1, 10), _chunk_arrays(clean_model, 2, 10)], clean_model.d)
        run_batch([[row], [row]], chunks, [clean_model, point_model])


def test_masked_row_in_a_cell_matches_the_oracle_driver(point_model):
    x, y, b = sample_arrays(point_model, 3000, seed=21)
    corrupted = b != 0.0
    oracle = oracle_ls_run((x, y, corrupted), 0.05, model=point_model)
    rows = [
        Estimator(L1(), StepSchedule(0.2), 3000),
        Estimator(L2(), StepSchedule(0.05, CONSTANT), oracle.steps[-1], clean_only=True),
    ]
    ((_, masked),) = run_batch([rows], stacked_chunks([array_chunks(x, y, corrupted)], point_model.d), [point_model])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_theta0_is_refused_by_name(bad, clean_model):
    theta0 = [bad, 0.0, 0.0]
    with pytest.raises(ValueError, match="theta0 must be finite"):
        run(clean_model, L1(), StepSchedule(0.3), 50, theta0=theta0)
    chunks = stacked_chunks([_chunk_arrays(clean_model, 1, 50)], clean_model.d)
    with pytest.raises(ValueError, match="theta0 must be finite"):
        run_batch([[Estimator(L1(), StepSchedule(0.3), 50)]], chunks, [clean_model], theta0)


def test_l2_divergence_fails_loudly():
    model = RegressionModel(np.ones(10) / math.sqrt(10.0), Identity(10), 1.0, point_outliers(0.2, 1000.0))
    with pytest.raises(NonFiniteError, match=r"l2 with gamma0=50.0 diverged: non-finite iterate by step \d+"):
        run(model, L2(), StepSchedule(50.0), 2000, seed=1)


def test_an_error_past_the_largest_double_fails_loudly(clean_model):
    # L1 steps are gamma ||x|| long whatever the response, so the iterates stay
    # finite while their squared distance to theta* overflows
    rows = [[Estimator(L1(), StepSchedule(1e200), 50)], [Estimator(L1(), StepSchedule(0.2), 50)]]
    chunks = stacked_chunks([_chunk_arrays(clean_model, 1, 50), _chunk_arrays(clean_model, 2, 50)], clean_model.d)
    with pytest.raises(NonFiniteError, match="err_h contains a non-finite value"):
        run_batch(rows, chunks, [clean_model] * 2)
