"""The batched engine against the one-sample reference, and its failure modes."""

import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrobust.core import (
    CONSTANT,
    Explicit,
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
from streamrobust.datagen import CHUNK, _chunk_arrays, array_chunks, sample_arrays
from streamrobust.optimizer import Estimator, oracle_row, run_batch

from conftest import masked_oracle, sgd_run
from scalar_reference import SgdState, sgd_step

LOSSES = [L1(), L2(), Huber(0.7)]
LOSS_NAMES = dict(zip(("l1", "l2", "huber"), LOSSES))


def _reference(stream, row, model):
    """One estimator stepped observation by observation with sgd_step, from 0 as the engine."""
    state = SgdState.start(np.zeros(model.d), row.loss)
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
    """Seeds, sizes and names of S streams with R rows each, which `_engine_streams` builds.

    Only plain values are drawn, so a failing example prints in a few lines.
    """
    d = draw(st.integers(1, 6))
    n = draw(st.integers(CHUNK - 40, 2 * CHUNK + 40))  # always crosses a chunk boundary
    r_count = draw(st.integers(1, 3))
    # loss, schedule, gamma0 d, clean_only, checkpoint count (0 for the default plan)
    row = st.tuples(
        st.sampled_from(sorted(LOSS_NAMES)), st.sampled_from([INV_SQRT, CONSTANT]),
        st.floats(0.005, 0.3), st.booleans(), st.integers(0, 12),
    )
    # data seed, corruption rate, covariance, rows
    stream = st.tuples(
        st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.4]), st.sampled_from(["identity", "spectrum"]),
        st.lists(row, min_size=r_count, max_size=r_count),
    )
    return d, n, draw(st.lists(stream, min_size=1, max_size=3))


def _engine_streams(d, n, streams):
    """Each drawn stream's model, (X, y, corrupted) arrays and rows."""
    built = []
    for data_seed, rate, covariance, rows in streams:
        rng = np.random.default_rng(data_seed)
        corrupted = rng.random(n) < rate
        model = _model(d, rng.standard_normal(d), covariance == "spectrum")
        x, y, _ = sample_arrays(model, n, data_seed)
        n_clean = int(np.count_nonzero(~corrupted))
        estimators = []
        for j, (loss, kind, gamma0, clean_only, marks) in enumerate(rows):
            clean_only = clean_only and n_clean > 0
            n_steps = n_clean if clean_only else n
            plan = None
            if marks:
                picks = np.random.default_rng([data_seed, j]).choice(n_steps, min(marks, n_steps), replace=False)
                plan = np.sort(picks) + 1
            estimators.append(Estimator(LOSS_NAMES[loss], StepSchedule(gamma0 / d, kind), n_steps, plan, clean_only))
        built.append((model, (x, np.where(corrupted, y + 50.0, y), corrupted), estimators))
    return built


@settings(max_examples=25, deadline=None, derandomize=True)
@given(engine_configs())
def test_engine_rows_match_separate_reference_loops(config):
    models, arrays, grid = zip(*_engine_streams(*config))
    records = run_batch(grid, [array_chunks(*a) for a in arrays], models)
    for model, stream, rows, recs in zip(models, arrays, grid, records):
        for row, rec in zip(rows, recs):
            errs, state, min_r = _reference(stream, row, model)
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
    records = run_batch([rows] * 3, [array_chunks(*a) for a in arrays], models)
    for model, stream, recs in zip(models, arrays, records):
        for row, rec in zip(rows, recs):
            _, state, min_r = _reference(stream, row, model)
            assert np.array_equal(rec.theta_last, state.theta), (d, loss_label(row.loss))
            assert rec.min_abs_residual == min_r


def test_checkpoints_on_chunk_edges_match_the_reference():
    # the drawn plans of `engine_configs` rarely land on a chunk's first or last row
    d, n = 3, 2 * CHUNK + 100
    models = [_model(d, np.array([0.5, -1.0, 2.0]), spectrum) for spectrum in (False, True)]
    corrupted = np.zeros(n, dtype=bool)
    corrupted[CHUNK - 8 : CHUNK] = corrupted[2 * CHUNK - 3 : 2 * CHUNK] = True  # runs that end chunks 0 and 1
    n_clean = n - 11
    edges = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, n]
    # the clean_only row's step CHUNK - 8 is stream row CHUNK - 9, and 2 CHUNK - 11 is 2 CHUNK - 4:
    # each is read just before a run of corrupted rows that it skips to the end of its chunk
    skips = [CHUNK - 8, CHUNK - 7, 2 * CHUNK - 11, 2 * CHUNK - 10, n_clean]
    rows = [
        # the first two step on every row: each of their checkpoints is read for both, in both streams, on one row
        Estimator(L1(), StepSchedule(0.1), n, edges),
        Estimator(Huber(0.7), StepSchedule(0.05, CONSTANT), n, edges),
        Estimator(L2(), StepSchedule(0.05, CONSTANT), n_clean, skips, clean_only=True),
    ]
    arrays = []
    for s, model in enumerate(models):
        x, y, _ = sample_arrays(model, n, seed=s)
        arrays.append((x, np.where(corrupted, y + 50.0, y), corrupted))
    records = run_batch([rows] * 2, [array_chunks(*a) for a in arrays], models)
    for model, stream, recs in zip(models, arrays, records):
        for row, rec in zip(rows, recs):
            errs, state, min_r = _reference(stream, row, model)
            scale = np.linalg.norm(model.theta_star) + np.sqrt(errs[1])
            assert errs.shape[1] == row.plan.size
            assert _same_distance(rec.err_h, errs[0], scale)
            assert _same_distance(rec.err_2, errs[1], scale)
            assert _close(rec.err_last_h, errs[2])
            assert _same_vector(rec.theta_bar, state.theta_bar)
            assert np.array_equal(rec.theta_last, state.theta)
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
            [grid[s] for s in streams], [_chunk_arrays(models[s], seeds[s], n) for s in streams],
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
        drawn = [_chunk_arrays(models[s], s + 1, n) for s in streams]
        return run_batch([rows] * len(streams), drawn, [models[s] for s in streams])

    order = [2, 0, 1]
    grouped = dict(zip(order, call(order)))
    for s, (few, every) in grouped.items():
        assert np.array_equal(few.theta_last, every.theta_last)
        (alone,) = call([s])
        for name in ("err_h", "err_2", "err_last_h"):
            assert np.array_equal(getattr(few, name), getattr(every, name)[sparse - 1]), (s, name)
            for a, b in zip(alone, grouped[s]):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (s, name)


@pytest.mark.parametrize("d", [4, 100])
def test_an_identity_design_records_the_bits_of_an_explicit_identity(d):
    # every design's H forms take the product by H; against I, each sum adds only exact zeros,
    # so an identity design's err_H is its squared norm err_2 bit for bit
    n, rng = CHUNK + 300, np.random.default_rng(d)
    theta_star = rng.standard_normal(d)
    models = [RegressionModel(theta_star, cov, 1.0, no_outliers()) for cov in (Identity(d), Explicit(np.eye(d)))]
    x, y, _ = sample_arrays(models[0], n, seed=d)
    corrupted = rng.random(n) < 0.2
    stream = (x, np.where(corrupted, y + 50.0, y), corrupted)
    rows = [Estimator(L1(), StepSchedule(0.5 / d), n), Estimator(Huber(0.7), StepSchedule(0.2 / d, CONSTANT), n)]
    (same, explicit) = (run_batch([rows], [array_chunks(*stream)], [m])[0] for m in models)
    for a, b in zip(same, explicit):
        assert np.array_equal(a.err_h, a.err_2)
        for name in ("err_h", "err_2", "err_last_h", "theta_bar", "theta_last"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_a_checkpoint_at_every_step_adds_no_chunk_sized_array_to_the_peak():
    # a checkpoint is read where the chain pauses for it, so a plan that reads every step
    # of a chunk holds at most S R iterates at a time, not one per checkpoint
    d, n, rng = 100, CHUNK + 200, np.random.default_rng(3)
    models = [RegressionModel(rng.standard_normal(d), Identity(d), 1.0, point_outliers(0.2, 100.0)) for _ in range(3)]
    losses = [L1(), L2(), Huber(0.5), Huber(2.0), L1()]

    def traced_peak(plan):
        grid = [[Estimator(loss, StepSchedule(0.2 / d), n, plan) for loss in losses] for _ in models]
        streams = [_chunk_arrays(m, s, n) for s, m in enumerate(models)]
        tracemalloc.start()
        try:
            run_batch(grid, streams, models)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak([n])  # once first, so that the measured calls find numpy's caches warm
    one, every = traced_peak([n]), traced_peak(np.r_[np.arange(1, CHUNK + 1), n])
    assert every - one < CHUNK * d * 8


def _nan_first(write, x, y, b):
    """Fill the slice with NaN, then let `write` write its rows."""
    for a in (x, y, b):
        a.fill(math.nan)
    return write(x, y, b)


def test_the_engine_is_done_with_a_chunk_before_it_asks_for_the_next(point_model):
    # each chunk is written over the one before: writers that fill their whole slice
    # with NaN before writing their rows must change no record, the short last chunk's too
    n = 2 * CHUNK + 300
    x, y, b = sample_arrays(point_model, n, seed=5)
    rows = [
        Estimator(Huber(0.5), StepSchedule(0.2), n),
        Estimator(L2(), StepSchedule(0.05, CONSTANT), int(np.count_nonzero(b == 0.0)), clean_only=True),
    ]
    (kept,) = run_batch([rows], [array_chunks(x, y, b)], [point_model], record_iterates=True)
    scribbled = [partial(_nan_first, write) for write in array_chunks(x, y, b)]
    (overwritten,) = run_batch([rows], [scribbled], [point_model], record_iterates=True)
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
    with pytest.raises(ValueError, match=rf"stream runs past the n_steps={short.n_steps} of {re.escape(name)} at stream index {at}$"):
        run_batch(rows, [array_chunks(x, y, b)], [point_model])


def test_a_grid_needs_one_model_and_equal_rows_per_stream(clean_model, point_model):
    row = Estimator(L1(), StepSchedule(0.2), 10)
    for grid, models in [([[row], [row, row]], [clean_model] * 2), ([[row]], [clean_model] * 2), ([], [])]:
        with pytest.raises(ValueError, match="same number of rows"):
            run_batch(grid, [_chunk_arrays(m, s, 10) for s, m in enumerate(models)], models)
    with pytest.raises(ValueError, match="same dimension"):
        streams = [_chunk_arrays(clean_model, 1, 10), _chunk_arrays(clean_model, 2, 10)]
        run_batch([[row], [row]], streams, [clean_model, point_model])


def test_masked_row_in_a_cell_matches_least_squares_on_the_clean_rows(point_model):
    x, y, b = sample_arrays(point_model, 3000, seed=21)
    corrupted = b != 0.0
    clean = ~corrupted
    n_clean = int(np.count_nonzero(clean))
    oracle = sgd_run((x[clean], y[clean], b[clean]), L2(), StepSchedule(0.05, CONSTANT), n_clean, model=point_model)
    rows = [
        Estimator(L1(), StepSchedule(0.2), 3000),
        Estimator(L2(), StepSchedule(0.05, CONSTANT), n_clean, clean_only=True),
    ]
    ((_, masked),) = run_batch([rows], [array_chunks(x, y, corrupted)], [point_model])
    assert np.array_equal(masked.steps, oracle.steps)
    assert np.array_equal(masked.theta_last, oracle.theta_last)
    assert masked.min_abs_residual == oracle.min_abs_residual
    assert _close(masked.err_last_h, oracle.err_last_h)
    scale = np.linalg.norm(point_model.theta_star) + np.sqrt(oracle.err_2)
    assert _same_distance(masked.err_h, oracle.err_h, scale)
    assert _same_vector(masked.theta_bar, oracle.theta_bar)


def test_record_iterates_replays_the_loop(clean_model):
    x, y, b = sample_arrays(clean_model, CHUNK + 100, seed=4)
    rec = sgd_run((x, y, b), Huber(0.5), StepSchedule(0.3), CHUNK + 100, model=clean_model, record_iterates=True)
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
        sgd_run(stream, loss, StepSchedule(0.2), 2000, model=clean_model)


def test_oracle_names_a_nan_clean_response(clean_model):
    stream = _with_nan_response(clean_model, 500, at=7)
    with pytest.raises(NonFiniteError, match="stream index 7"):
        masked_oracle(stream, 0.05, clean_model)


@pytest.mark.parametrize("where", ["response", "feature"])
def test_the_oracle_names_a_non_finite_value_by_its_index_in_the_callers_stream(where, clean_model):
    model = RegressionModel(clean_model.theta_star, Identity(3), 1.0, point_outliers(0.25, 1000.0))
    x, y, b = sample_arrays(model, 2000, seed=3)
    assert b[1500] == 0.0 and np.count_nonzero(b[:1500]) == 360  # a clean row after 360 corrupted ones
    if where == "response":
        y[1500] = math.nan
    else:
        x[1500, 1] = math.inf
    with pytest.raises(NonFiniteError, match=rf"^non-finite {where} (nan|inf) at stream index 1500$"):
        masked_oracle((x, y, b), 0.05, model)


def test_the_earliest_poisoned_row_is_named_its_response_first(clean_model):
    x, y, b = sample_arrays(clean_model, 2000, seed=3)
    x[1200, 2], y[1300] = math.nan, math.inf
    with pytest.raises(NonFiniteError, match=r"^non-finite feature nan at stream index 1200$"):
        sgd_run((x, y, b), L1(), StepSchedule(0.3), 2000, model=clean_model)
    y[1200] = -math.inf
    with pytest.raises(NonFiniteError, match=r"^non-finite response -inf at stream index 1200$"):
        sgd_run((x, y, b), L1(), StepSchedule(0.3), 2000, model=clean_model)
    # across streams too: stream 1's row 800 comes before stream 0's row 1200
    other = x.copy()
    other[800, 0] = math.inf
    rows = [[Estimator(L2(), StepSchedule(0.05, CONSTANT), 2000)]] * 2
    with pytest.raises(NonFiniteError, match=r"^non-finite feature inf at stream index 800 of stream 1$"):
        run_batch(rows, [array_chunks(x, y, b), array_chunks(other, y, b)], [clean_model] * 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_feature_is_named_instead_of_a_divergence(value, clean_model):
    x, y, b = sample_arrays(clean_model, 2000, seed=3)
    x[1500, 1] = value
    named = rf"^non-finite feature {re.escape(repr(value))} at stream index 1500$"
    for loss in LOSSES:
        with pytest.raises(NonFiniteError, match=named):
            sgd_run((x, y, b), loss, StepSchedule(0.3), 2000, model=clean_model)
    with pytest.raises(NonFiniteError, match=named):
        masked_oracle((x, y, b), 0.05, clean_model)
    # a clean_only row skips a corrupted row's step, but its residual there is non-finite and r * 0 is NaN
    b[1500] = 1.0
    rows = [[oracle_row(0.05, 1999, 2000, clean_model)], [oracle_row(0.05, 2000, 2000, clean_model)]]
    clean = np.zeros(2000)
    with pytest.raises(NonFiniteError, match=named[:-1] + " of stream 0$"):
        run_batch(rows, [array_chunks(x, y, b), array_chunks(x, y, clean)], [clean_model] * 2)


def test_iterates_are_the_iterate_before_every_stream_row_for_a_clean_only_row(point_model):
    x, y, b = sample_arrays(point_model, 300, seed=5)
    n_clean = int(np.count_nonzero(b == 0.0))
    ((rec,),) = run_batch(
        [[oracle_row(0.05, n_clean, 300, point_model)]], [array_chunks(x, y, b)], [point_model],
        record_iterates=True,
    )
    assert rec.iterates.shape == (300, 4)
    state = SgdState.start(np.zeros(4), L2())
    for k, (x_k, y_k, b_k) in enumerate(zip(x, y, b)):
        assert np.array_equal(rec.iterates[k], state.theta)
        if b_k == 0.0:
            sgd_step(state, x_k, y_k, StepSchedule(0.05, CONSTANT))
    assert np.array_equal(rec.theta_last, state.theta)


def test_rows_of_another_dimension_than_the_model_are_refused_by_name(clean_model):
    flat = RegressionModel(np.array([0.5, -0.5]), Identity(2), 1.0, no_outliers())
    refused = r"^stream rows have dimension 3, but the models have dimension 2$"
    with pytest.raises(ValueError, match=refused):
        run_batch([[Estimator(L1(), StepSchedule(0.3), 50)]], [_chunk_arrays(clean_model, 1, 50)], [flat])
    stream = sample_arrays(clean_model, 50, seed=1)
    with pytest.raises(ValueError, match=refused):
        sgd_run(stream, L1(), StepSchedule(0.3), 50, model=flat)
    with pytest.raises(ValueError, match=refused):
        sgd_run(clean_model, L1(), StepSchedule(0.3), 50, model=flat)


@pytest.mark.parametrize("drawn, stepped", [(2, 1), (1, 2)])
def test_another_stream_count_than_the_grid_is_refused_by_name(drawn, stepped, clean_model):
    # zip would step the grid on the streams it has and leave the rest of the buffer unwritten
    streams = [_chunk_arrays(clean_model, s, 50) for s in range(drawn)]
    refused = rf"^need one stream for each of the {stepped} models, got {drawn} streams$"
    with pytest.raises(ValueError, match=refused):
        run_batch([[Estimator(L1(), StepSchedule(0.3), 50)]] * stepped, streams, [clean_model] * stepped)


@pytest.mark.parametrize("short", [1500, CHUNK], ids=["short-chunk", "fewer-chunks"])
def test_streams_must_write_chunks_of_one_length(short, clean_model):
    # a shorter chunk would leave the rows of an earlier one in its slice of the buffer,
    # and a stream that ends a chunk early would cut its call mates short
    x, y, b = sample_arrays(clean_model, 2 * CHUNK, seed=3)
    rows = [[Estimator(L1(), StepSchedule(0.3), 2 * CHUNK)], [Estimator(L1(), StepSchedule(0.3), short)]]
    streams = [array_chunks(x, y, b), array_chunks(x[:short], y[:short], b[:short])]
    with pytest.raises(ValueError, match=rf"^streams wrote chunks of unequal lengths \[{short - CHUNK}, {CHUNK}\]$"):
        run_batch(rows, streams, [clean_model] * 2)


def test_record_iterates_is_keyword_only(clean_model):
    # a start passed by position, as run_batch once took one, is not read as the flag
    streams = [_chunk_arrays(clean_model, 1, 50)]
    with pytest.raises(TypeError):
        run_batch([[Estimator(L1(), StepSchedule(0.3), 50)]], streams, [clean_model], np.zeros(3))


def test_l2_divergence_fails_loudly():
    model = RegressionModel(np.ones(10) / math.sqrt(10.0), Identity(10), 1.0, point_outliers(0.2, 1000.0))
    with pytest.raises(NonFiniteError, match=r"l2 with gamma0=50.0 diverged: non-finite iterate by step \d+"):
        sgd_run(model, L2(), StepSchedule(50.0), 2000, seed=1)
    # every residual is finite, but a chunk's last update overflows the iterate
    flat = RegressionModel(np.zeros(2), Identity(2), 1.0, no_outliers())
    for n, last in [(1, 0), (CHUNK, CHUNK - 1), (CHUNK + 5, CHUNK - 1)]:
        x, y = np.zeros((n, 2)), np.zeros(n)
        x[last], y[last] = 2.0, 1e308
        with pytest.raises(NonFiniteError, match=rf"^l2 with gamma0=1.0 diverged: non-finite iterate by step {last + 1}$"):
            sgd_run((x, y, np.zeros(n)), L2(), StepSchedule(1.0, CONSTANT), n, model=flat)


def test_an_error_past_the_largest_double_fails_loudly(clean_model):
    # L1 steps are gamma ||x|| long whatever the response, so the iterates stay
    # finite while their squared distance to theta* overflows
    rows = [[Estimator(L1(), StepSchedule(1e200), 50)], [Estimator(L1(), StepSchedule(0.2), 50)]]
    streams = [_chunk_arrays(clean_model, 1, 50), _chunk_arrays(clean_model, 2, 50)]
    with pytest.raises(NonFiniteError, match="err_h contains a non-finite value"):
        run_batch(rows, streams, [clean_model] * 2)
