import hashlib
import math

import numpy as np
import pytest

from streamrobust.core import (
    Explicit,
    Identity,
    L1,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    Spectrum,
    StepSchedule,
    Uniform,
    no_outliers,
    point_outliers,
    substream,
)
from streamrobust.datagen import CHUNK, _chunk_arrays, array_chunks, sample_arrays, tiered_contamination
from streamrobust.optimizer import oracle_row, run_batch, sgd_row

from conftest import sgd_run, stream_chunks


def test_stream_is_reproducible(point_model):
    a = sample_arrays(point_model, 50, seed=3)
    b = sample_arrays(point_model, 50, seed=3)
    for arr_a, arr_b in zip(a, b):
        assert np.array_equal(arr_a, arr_b)


def test_stream_draws_keep_their_bytes(point_model):
    # an identity design with point outliers: X and b are the Philox draws themselves
    x, _, b = sample_arrays(point_model, 8, seed=3)
    assert np.count_nonzero(b) == 1
    h = hashlib.sha256(x.tobytes())
    h.update(b.tobytes())
    assert h.hexdigest() == "a59787477acf2c14efaa12b85e6755a92f5b9e4bddf72d86b02df3a22dc1bbb8"


def test_stream_changes_with_seed(point_model):
    a = sample_arrays(point_model, 20, seed=3)
    b = sample_arrays(point_model, 20, seed=4)
    assert not np.array_equal(a[0][0], b[0][0])


def test_lazy_and_eager_paths_agree(mixture_model):
    # 2500 rows cross a chunk boundary: the engine drawing chunk by chunk from
    # the model and the materialized arrays give bit-identical records
    schedule = StepSchedule(0.1)
    lazy = sgd_run(mixture_model, L1(), schedule, 2500, seed=9, record_iterates=True)
    eager = sgd_run(
        sample_arrays(mixture_model, 2500, seed=9), L1(), schedule, 2500,
        seed=9, model=mixture_model, record_iterates=True,
    )
    for name in ("steps", "err_h", "err_2", "err_last_h", "theta_bar", "theta_last", "iterates"):
        assert np.array_equal(getattr(lazy, name), getattr(eager, name)), name
    assert lazy.min_abs_residual == eager.min_abs_residual
    assert lazy.config_digest == eager.config_digest


def test_corruption_rate_and_response_shift(point_model):
    n = 40000
    xs, ys, bs = sample_arrays(point_model, n, seed=5)
    frac = float(np.mean(bs != 0.0))
    assert abs(frac - point_model.outliers.eta) < 0.01
    # corrupted rows carry exactly the point mass
    assert np.all(bs[bs != 0.0] == 1000.0)
    # the clean part of the response has the advertised variance
    clean = ys[bs == 0.0] - xs[bs == 0.0] @ point_model.theta_star
    assert abs(float(np.std(clean)) - 1.0) < 0.02


def test_features_do_not_depend_on_corruption_law():
    theta = np.array([0.3, -0.7, 0.1])
    clean = RegressionModel(theta, Identity(3), 1.0, no_outliers())
    dirty = RegressionModel(theta, Identity(3), 1.0, point_outliers(0.4, 500.0))
    xc, yc, bc = sample_arrays(clean, 3000, seed=21)
    xd, yd, bd = sample_arrays(dirty, 3000, seed=21)
    # same seed: identical features and identical noise, outliers only added on top
    assert np.array_equal(xc, xd)
    hit = bd != 0.0
    assert np.array_equal(yc[~hit], yd[~hit])
    assert np.allclose(yc[hit], yd[hit] - bd[hit], rtol=1e-12, atol=1e-9)
    assert 0 < int(hit.sum()) < 3000
    assert np.all(bc == 0.0)


def test_sample_arrays_rejects_bad_n(clean_model):
    with pytest.raises(ValueError, match="sample count must be >= 1"):
        sample_arrays(clean_model, 0, seed=1)


# ---------------------------------------------------------------------------
# contamination preset


def test_tiered_contamination_high_eta_counts():
    n, eta = 10000, 0.6
    b = tiered_contamination(n, eta, seed=8)
    total = int(math.floor(eta * n))
    assert int(np.sum(b != 0.0)) == total
    assert int(np.sum(b == 1000.0)) == n // 4
    assert int(np.sum(b == math.sqrt(1000.0))) == n // 4
    loose = b[(b != 0.0) & (b != 1000.0) & (b != math.sqrt(1000.0))]
    assert loose.size == total - 2 * (n // 4)
    assert np.all((loose >= 1.0) & (loose <= 10.0))


@pytest.mark.parametrize("eta", [0.1, 0.3, 0.5])
def test_tiered_contamination_low_eta_counts(eta):
    n = 9000
    b = tiered_contamination(n, eta, seed=8)
    total = int(math.floor(eta * n))
    fixed = min(n // 4, int(math.floor(eta * n / 3.0)))
    assert int(np.sum(b != 0.0)) == total
    assert int(np.sum(b == 1000.0)) == fixed
    assert int(np.sum(b == math.sqrt(1000.0))) == fixed


def test_tiered_contamination_scatters_positions():
    b = tiered_contamination(4000, 0.5, seed=1)
    hit = np.flatnonzero(b)
    # corrupted rows spread over the stream instead of clustering at the front
    assert hit[0] < 200
    assert hit[-1] > 3800
    assert np.array_equal(b, tiered_contamination(4000, 0.5, seed=1))


def test_tiered_contamination_validation():
    with pytest.raises(ValueError):
        tiered_contamination(3, 0.5, seed=0)
    with pytest.raises(ValueError):
        tiered_contamination(100, 0.0, seed=0)
    with pytest.raises(ValueError):
        tiered_contamination(100, 1.0, seed=0)


def test_sample_arrays_fills_a_partial_last_chunk(point_model):
    # n is not a multiple of the chunk size: the arrays are exactly n long and
    # match the first n rows of a longer draw
    n = 2 * CHUNK + 5
    xs, ys, bs = sample_arrays(point_model, n, seed=17)
    assert xs.shape == (n, 4) and ys.shape == (n,) and bs.shape == (n,)
    xl, yl, bl = sample_arrays(point_model, 3 * CHUNK, seed=17)
    assert np.array_equal(xs, xl[:n])
    assert np.array_equal(ys, yl[:n])
    assert np.array_equal(bs, bl[:n])


DESIGNS = {
    "identity": Identity(3),
    "spectrum": Spectrum((1.0, 0.5, 0.25), basis_seed=11),
    "explicit": Explicit(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])),
}
LAWS = {
    "clean": no_outliers(),
    "point": point_outliers(0.4, 30.0),
    "mixture": OutlierDistribution(0.3, ((0.4, PointMass(5.0)), (0.6, Uniform(1.0, 10.0)))),
}


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("design", DESIGNS)
def test_a_stream_drawn_at_its_length_is_a_prefix_of_a_longer_one(design, law, n):
    model = RegressionModel(np.array([-0.4, 1.1, 0.2]), DESIGNS[design], 1.3, LAWS[law])
    assert sum(len(y) for _, y, _ in stream_chunks(_chunk_arrays(model, 19, n), 3)) == n
    short, long = sample_arrays(model, n, seed=19), sample_arrays(model, 2 * CHUNK + 7, seed=19)
    for a, b in zip(short, long):
        assert np.array_equal(a, b[:n])


def test_array_chunks_visit_rows_in_order(clean_model):
    x, y, b = sample_arrays(clean_model, 2500, seed=3)
    corrupted = b != 0.0
    order = np.arange(2500)[::-1]
    chunks = stream_chunks(array_chunks(x, y, corrupted, order), 3)
    assert [len(c[1]) for c in chunks] == [CHUNK, CHUNK, 2500 - 2 * CHUNK]
    assert np.array_equal(np.concatenate([c[0] for c in chunks]), x[order])
    assert np.array_equal(np.concatenate([c[1] for c in chunks]), y[order])
    plain = stream_chunks(array_chunks(x, y, corrupted), 3)
    assert np.array_equal(np.concatenate([c[1] for c in plain]), y)


@pytest.mark.parametrize(
    ("given", "refused"),
    [
        # unrefused, the gather's clip mode repeats the last row of a short X or flag of a short b
        (lambda x, y, b: (x[:10], y, b), r"stream arrays disagree: X \(10, 4\), y \(20,\), corrupted \(20,\)"),
        (lambda x, y, b: (x, y, b[:5]), r"stream arrays disagree: X \(20, 4\), y \(20,\), corrupted \(5,\)"),
        (lambda x, y, b: (x[:, 0], y, b), r"stream arrays disagree: X \(20,\), y \(20,\), corrupted \(20,\)"),
        # and clips an order's indices into the rows: 0, 50, -3 would visit rows 0, 19, 0
        (lambda x, y, b: (x, y, b, np.array([0, 50, -3])), r"order must index rows in \[0, 20\), got entries from -3 to 50"),
        (lambda x, y, b: (x, y, b, np.arange(20).reshape(4, 5)), r"order must be 1-D integer row indices, got int64 of shape \(4, 5\)"),
        (lambda x, y, b: (x, y, b, np.arange(20.0)), r"order must be 1-D integer row indices, got float64 of shape \(20,\)"),
        (lambda x, y, b: (x, y.astype(np.int64), b), None),
        (lambda x, y, b: (x, y, b.astype(np.int64)), None),
        (lambda x, y, b: (x.tolist(), y, b), None),
        (lambda x, y, b: (x, y, b, list(range(20))), None),
    ],
    ids=["short-x", "short-b", "1d-x", "order-out-of-range", "2d-order", "float-order", "int-y", "int-b", "list-x",
         "list-order"],
)
def test_stream_arrays_must_agree_in_length(given, refused, point_model):
    # whole-number responses and 0/1 flags, so that their int arrays hold the same values
    x, y, b = sample_arrays(point_model, 20, seed=2)
    y, b = np.rint(y), (b != 0.0) * 1.0
    rows = [[sgd_row(L1(), StepSchedule(0.3), 20, 2, point_model), oracle_row(0.05, 14, 20, point_model)]]

    def records(arrays):
        return run_batch(rows, [array_chunks(*arrays)], [point_model])[0]

    if refused:
        with pytest.raises(ValueError, match=rf"^{refused}$"):
            array_chunks(*given(x, y, b))  # the call refuses, before any chunk is written
        return
    for got, want in zip(records(given(x, y, b)), records((x, y, b))):
        for name in ("err_h", "err_2", "err_last_h", "theta_bar", "theta_last"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.min_abs_residual == want.min_abs_residual


def test_identity_design_draws_equal_the_product_with_eye(clean_model):
    # an identity design skips `@ chol.T`; the rows are those of the product
    n = CHUNK + 7
    x, _, _ = sample_arrays(clean_model, n, seed=8)
    rng = substream(8, "x")
    z = np.vstack([rng.standard_normal((CHUNK, 3)) for _ in range(2)])[:n]
    assert np.array_equal(x, z @ np.eye(3))


def test_a_law_whose_outliers_are_all_zero_draws_the_clean_stream():
    # the clean law draws no outlier uniforms, and must still write the same rows
    design = Spectrum((1.0, 0.5, 0.25), basis_seed=2)
    clean = RegressionModel(np.array([0.3, -1.0, 2.0]), design, 1.0, no_outliers())
    zero = RegressionModel(np.array([0.3, -1.0, 2.0]), design, 1.0, point_outliers(0.5, 0.0))
    for a, b in zip(sample_arrays(zero, 2 * CHUNK + 5, seed=31), sample_arrays(clean, 2 * CHUNK + 5, seed=31)):
        assert a.tobytes() == b.tobytes()
