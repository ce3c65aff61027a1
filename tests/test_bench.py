import concurrent.futures
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrobust import bench
from streamrobust.bench import (
    _contamination,
    _corrupted_stream,
    BREAKDOWN_ESTIMATORS,
    BreakdownConfig,
    CONVERGENCE_LOSSES,
    ConvergenceConfig,
    COVARIANCE_NAMES,
    Table,
    breakdown_experiment,
    config_from_mapping,
    convergence_experiment,
    convergence_table,
    fit_rate_slope,
    mean_run_record,
    render_loglog_svg,
    table_svg,
)
from streamrobust.core import (
    Explicit,
    Identity,
    RegressionModel,
    RunRecord,
    Spectrum,
    derive_seed,
    no_outliers,
    substream,
)
from streamrobust.datagen import CHUNK, sample_arrays

from conftest import stream_chunks

TINY = dict(n_samples="600", dim="4", passes="2", replications="2", seed="7")


def _synthetic_record(steps, errs):
    steps = np.asarray(steps)
    errs = np.asarray(errs, dtype=float)
    return RunRecord(
        steps=steps,
        err_h=errs,
        err_2=errs.copy(),
        err_last_h=errs.copy(),
        config_digest="feed",
        theta_bar=np.zeros(2),
        theta_last=np.zeros(2),
        min_abs_residual=1.0,
    )


# ---------------------------------------------------------------------------
# config parsing


def test_convergence_config_defaults():
    cfg, errors = config_from_mapping(ConvergenceConfig, {})
    assert errors == []
    assert cfg == ConvergenceConfig()
    assert cfg.losses == ("l1", "l2", "huber", "oracle")
    assert cfg.covariances == ("identity", "spectrum")


def test_convergence_config_parses_values():
    cfg, errors = config_from_mapping(
        ConvergenceConfig,
        dict(TINY, losses="l1, oracle", covariances="identity", eta="0.4", gamma0="0.05")
    )
    assert errors == []
    assert cfg.n_samples == 600
    assert cfg.losses == ("l1", "oracle")
    assert cfg.covariances == ("identity",)
    assert cfg.eta == 0.4
    assert cfg.gamma0 == 0.05


def test_convergence_config_lists_every_error():
    cfg, errors = config_from_mapping(
        ConvergenceConfig,
        {
            "n_samples": "three",
            "dim": "0",
            "sigma": "-1",
            "eta": "1.0",
            "losses": "l1, l7",
            "preset": "gauss",
            "bogus": "1",
        }
    )
    assert cfg is None
    assert len(errors) == 7
    joined = "\n".join(errors)
    for key in ("n_samples", "dim", "sigma", "eta", "losses", "preset", "bogus"):
        assert key in joined
    _, errors = config_from_mapping(ConvergenceConfig, {"sigma": "inf", "losses": "l1,l1"})
    assert errors == ["sigma: must be finite, got inf", "losses: duplicate entries in ('l1', 'l1')"]


def test_breakdown_config_defaults_and_grid():
    cfg, errors = config_from_mapping(BreakdownConfig, {})
    assert errors == []
    assert cfg == BreakdownConfig()
    cfg, errors = config_from_mapping(BreakdownConfig, {"eta_grid": "0.0, 0.25, 0.5"})
    assert errors == []
    assert cfg.eta_grid == (0.0, 0.25, 0.5)


@pytest.mark.parametrize("config_class", [ConvergenceConfig, BreakdownConfig])
def test_config_defaults_round_trip_through_the_parser(config_class):
    # every field is a known key with a rule that reads its default back
    default = config_class()
    mapping = {
        f.name: ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        for f in fields(config_class)
        if (value := getattr(default, f.name)) is not None
    }
    cfg, errors = config_from_mapping(config_class, mapping)
    assert errors == []
    assert cfg == default


def test_breakdown_config_lists_every_error():
    cfg, errors = config_from_mapping(
        BreakdownConfig,
        {"preset": "bogus", "covariance": "diag", "losses": "l1", "eta_grid": "0.2, 0.1", "seed": "-1", "estimators": ","}
    )
    assert cfg is None
    keys = sorted(e.split(":")[0] for e in errors)
    assert keys == ["covariance", "estimators", "eta_grid", "losses", "preset", "seed"]
    assert "losses: unknown key" in errors  # a convergence key
    assert "estimators: empty list" in errors


def test_breakdown_config_grid_errors():
    for bad, frag in [
        ("", "empty"),
        ("0.5, 0.2", "ascending"),
        ("0.2, 0.2", "duplicate"),
        ("0.2, nope", "number"),
        ("1.5", "[0, 1)"),
    ]:
        cfg, errors = config_from_mapping(BreakdownConfig, {"eta_grid": bad})
        assert cfg is None, bad
        assert any(frag in e for e in errors), (bad, errors)


# ---------------------------------------------------------------------------
# tables and aggregation


def test_table_lines():
    t = Table("demo", ("n", "err"), ((1, 0.5), (10, 0.25)), ("note a", "note b"))
    assert t.to_lines() == ["# note a", "# note b", "n,err", "1,0.5", "10,0.25"]


def test_table_rejects_ragged_rows():
    t = Table("demo", ("n", "err"), ((1, 0.5, 2.0),))
    with pytest.raises(ValueError, match="width"):
        t.to_lines()


def test_mean_run_record_averages():
    a = _synthetic_record([1, 10], [4.0, 2.0])
    b = _synthetic_record([1, 10], [2.0, 1.0])
    mean = mean_run_record([a, b])
    assert np.array_equal(mean.err_h, [3.0, 1.5])
    with pytest.raises(ValueError, match="disagree"):
        mean_run_record([a, _synthetic_record([1, 20], [1.0, 1.0])])
    with pytest.raises(ValueError, match="no records"):
        mean_run_record([])


def test_aggregation_is_a_pure_reduction():
    cfg, _ = config_from_mapping(
        ConvergenceConfig,
        dict(TINY, losses="l1", covariances="identity")
    )
    result = convergence_experiment(cfg)
    (table,) = result.tables
    again = convergence_table(table.name, result.records["l1@identity"], table.comments[:-2])
    assert again.to_lines() == table.to_lines()


# ---------------------------------------------------------------------------
# cell streams


def _stream_model():
    return RegressionModel(np.array([0.6, -0.2, 0.3]), Identity(3), 1.0, no_outliers())


def _stream(n, eta, preset, value, passes, seed):
    """The contamination and the chunks of a cell's stream."""
    b = _contamination(n, eta, preset, value, derive_seed(seed, "contam"))
    return b, stream_chunks(_corrupted_stream(_stream_model(), b, passes, seed), 3)


def test_corrupted_stream_passes_are_permutations():
    n, passes = CHUNK + 300, 3
    _, chunks = _stream(n, 0.3, "tiered", 1000.0, passes, 11)
    # chunks hold at most CHUNK rows and none spans two passes
    assert [len(c[1]) for c in chunks] == [CHUNK, 300] * passes
    x, y, b = (np.concatenate(parts) for parts in zip(*chunks))
    corrupted = b != 0.0
    assert x.shape == (passes * n, 3)
    row_of = {row.tobytes(): i for i, row in enumerate(x[:n])}
    orders = [np.array([row_of[row.tobytes()] for row in x[p * n : (p + 1) * n]]) for p in range(passes)]
    for p, order in enumerate(orders):
        # every pass visits each row once, with its response and flag
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.array_equal(y[:n][order], y[p * n : (p + 1) * n])
        assert np.array_equal(corrupted[:n][order], corrupted[p * n : (p + 1) * n])
    # pass 0 is in draw order; later passes are shuffled differently, and reproducibly
    assert np.array_equal(orders[0], np.arange(n))
    assert not np.array_equal(orders[1], orders[2])
    _, again = _stream(n, 0.3, "tiered", 1000.0, passes, 11)
    for a, b in zip(chunks, again):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


def test_multi_pass_streams_of_three_designs_keep_their_rows():
    # streams of three designs over two passes, the last chunk short: pass 0 holds each
    # stream's drawn rows, pass 1 its stored rows in its permutation
    n, passes = 2 * CHUNK + 300, 2
    explicit = Explicit(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]]))
    covariances = [Identity(3), Spectrum((1.0, 0.5, 0.25), basis_seed=4), explicit]
    models = [RegressionModel(np.array([0.6, -0.2, 0.3]), cov, 1.0, no_outliers()) for cov in covariances]
    for model, seed in zip(models, [21, 22, 23]):
        b = _contamination(n, 0.3, "tiered", 1000.0, derive_seed(seed, "contam"))
        chunks = stream_chunks(_corrupted_stream(model, b, passes, seed), 3)
        assert [len(y) for _, y, _ in chunks] == [CHUNK, CHUNK, 300] * passes
        x, y, flags = (np.concatenate(parts) for parts in zip(*chunks))
        x0, y0, _ = sample_arrays(model, n, derive_seed(seed, "data"))
        order = substream(derive_seed(seed, "order"), "pass", 1).permutation(n)
        for p, rows in enumerate([np.arange(n), order]):
            at = slice(p * n, (p + 1) * n)
            assert np.array_equal(x[at], x0[rows]), (seed, p)
            assert np.array_equal(y[at], (y0 + b)[rows]), (seed, p)
            assert np.array_equal(flags[at], b[rows]), (seed, p)


@pytest.mark.parametrize("preset", ["tiered", "point"])
def test_corrupted_stream_shifts_y_and_flags_exactly_where_b_is_nonzero(preset):
    n, seed = 1300, 5
    model = _stream_model()
    b, chunks = _stream(n, 0.3, preset, 77.0, 1, seed)
    x, y, b_rows = (np.concatenate(parts) for parts in zip(*chunks))
    corrupted = b_rows != 0.0
    x_clean, y_clean, _ = sample_arrays(model, n, derive_seed(seed, "data"))
    assert np.array_equal(x, x_clean)
    assert np.array_equal(b_rows, b)
    assert np.array_equal(corrupted, b != 0.0)
    assert 0 < int(corrupted.sum()) < n
    assert np.array_equal(y, y_clean + b)
    assert np.array_equal(y[~corrupted], y_clean[~corrupted])


# ---------------------------------------------------------------------------
# experiments


def test_convergence_experiment_counts_and_determinism():
    cfg, _ = config_from_mapping(ConvergenceConfig, dict(TINY, losses="l1, l2, huber, oracle"))
    result = convergence_experiment(cfg)
    assert len(result.tables) == 8  # 4 losses x 2 covariances
    assert len(result.cell_seeds) == 4  # 2 covariances x 2 replications
    again = convergence_experiment(cfg)
    for t1, t2 in zip(result.tables, again.tables):
        assert t1.to_lines() == t2.to_lines()


def test_convergence_parallel_matches_serial():
    cfg, _ = config_from_mapping(ConvergenceConfig, dict(TINY, losses="l1, oracle"))
    serial = convergence_experiment(cfg, jobs=1)
    parallel = convergence_experiment(cfg, jobs=4)
    for t1, t2 in zip(serial.tables, parallel.tables):
        assert t1.to_lines() == t2.to_lines()


def test_convergence_oracle_improves_from_start():
    cfg, _ = config_from_mapping(
        ConvergenceConfig,
        dict(
            n_samples="10000",
            dim="10",
            eta="0.0",
            passes="1",
            replications="2",
            losses="oracle",
            covariances="identity",
            seed="3",
        )
    )
    result = convergence_experiment(cfg)
    (table,) = result.tables
    first = table.rows[0][1]
    last = table.rows[-1][1]
    assert last < first / 10.0


def test_outlier_magnitude_invariance():
    # identical seeds, point corruption at 1e3 vs 1e6: the absolute loss
    # only reads residual signs, so the final errors agree to within noise
    base = dict(
        n_samples="4000", dim="5", eta="0.25", passes="1", replications="2",
        losses="l1", covariances="identity", preset="point", seed="11",
    )
    small, _ = config_from_mapping(ConvergenceConfig, dict(base, outlier_value="1000"))
    large, _ = config_from_mapping(ConvergenceConfig, dict(base, outlier_value="1000000"))
    err_small = convergence_experiment(small).tables[0].rows[-1][1]
    err_large = convergence_experiment(large).tables[0].rows[-1][1]
    assert 0.5 <= err_large / err_small <= 2.0


def test_small_outliers_at_high_eta_are_harmless():
    # corruption far below the noise floor barely moves the effective
    # outlier proportion, so eta = 0.9 behaves like eta = 0
    base = dict(
        n_samples="6000", dim="5", passes="1", replications="2",
        losses="l1", covariances="identity", preset="point", seed="13",
    )
    dirty, _ = config_from_mapping(
        ConvergenceConfig,
        dict(base, eta="0.9", outlier_value="0.01")
    )
    clean, _ = config_from_mapping(ConvergenceConfig, dict(base, eta="0.0"))
    err_dirty = convergence_experiment(dirty).tables[0].rows[-1][1]
    err_clean = convergence_experiment(clean).tables[0].rows[-1][1]
    assert err_dirty <= 3.0 * err_clean


def test_breakdown_experiment_shape_and_estimators():
    cfg, _ = config_from_mapping(
        BreakdownConfig,
        dict(
            n_samples="1200", dim="3", replications="2",
            eta_grid="0.2, 0.5", estimators="l1, l2, oracle", seed="5",
        )
    )
    result = breakdown_experiment(cfg)
    (table,) = result.tables
    assert table.columns == ("eta", "l1", "l2", "oracle")
    assert len(table.rows) == 2
    assert [row[0] for row in table.rows] == [0.2, 0.5]
    assert len(result.cell_seeds) == 4


def test_breakdown_no_corruption_everyone_matches_oracle():
    cfg, _ = config_from_mapping(
        BreakdownConfig,
        dict(
            n_samples="20000", dim="3", replications="2",
            eta_grid="0.0", estimators="l1, l2, huber, huber_x30, oracle", seed="9",
        )
    )
    (table,) = breakdown_experiment(cfg).tables
    row = table.rows[0]
    oracle_err = row[table.columns.index("oracle")]
    for col in range(1, len(row)):
        assert row[col] <= 10.0 * oracle_err, table.columns[col]


def test_breakdown_cell_without_clean_rows_names_the_cause():
    cfg, _ = config_from_mapping(
        BreakdownConfig,
        dict(n_samples="4", dim="2", replications="1", eta_grid="0.99",
             estimators="l1, oracle", preset="point", seed="0")
    )
    with pytest.raises(ValueError, match="all 4 samples are corrupted"):
        breakdown_experiment(cfg)


def test_breakdown_l2_wrecked_by_large_outliers():
    cfg, _ = config_from_mapping(
        BreakdownConfig,
        dict(
            n_samples="4000", dim="5", replications="2",
            eta_grid="0.5", estimators="l1, l2",
            preset="point", outlier_value="1000", seed="2",
        )
    )
    (table,) = breakdown_experiment(cfg).tables
    row = table.rows[0]
    assert row[2] >= 10.0 * row[1]  # l2 error at least 10x the l1 error


# ---------------------------------------------------------------------------
# invariance of the records to estimator order, grid order and --jobs


@st.composite
def small_experiments(draw):
    """A small convergence or breakdown config and a permutation of its name lists."""
    common = dict(
        n_samples=draw(st.integers(150, 1300)),
        dim=draw(st.integers(1, 4)),
        passes=draw(st.integers(1, 2)),
        replications=draw(st.integers(1, 2)),
        preset=draw(st.sampled_from(["tiered", "point"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    if draw(st.booleans()):
        losses = draw(st.lists(st.sampled_from(CONVERGENCE_LOSSES), min_size=1, unique=True))
        covs = draw(st.lists(st.sampled_from(COVARIANCE_NAMES), min_size=1, unique=True))
        cfg = ConvergenceConfig(
            losses=tuple(losses), covariances=tuple(covs), eta=draw(st.sampled_from([0.0, 0.2, 0.5])), **common
        )
        return cfg, replace(
            cfg, losses=tuple(draw(st.permutations(losses))), covariances=tuple(draw(st.permutations(covs)))
        )
    names = draw(st.lists(st.sampled_from(BREAKDOWN_ESTIMATORS), min_size=1, unique=True))
    etas = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.6]), min_size=1, max_size=2, unique=True))
    cfg = BreakdownConfig(estimators=tuple(names), eta_grid=tuple(sorted(etas)), **common)
    return cfg, replace(cfg, estimators=tuple(draw(st.permutations(names))))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_experiments())
def test_records_do_not_depend_on_name_order_or_jobs(configs):
    # each engine row's arithmetic is independent of the rows sharing its batch,
    # and each cell's stream depends only on its own seed
    cfg, permuted = configs
    experiment = convergence_experiment if isinstance(cfg, ConvergenceConfig) else breakdown_experiment
    base = experiment(cfg, jobs=1).records
    for other in (experiment(permuted, jobs=1).records, experiment(cfg, jobs=2).records):
        assert sorted(other) == sorted(base)
        for key, recs in base.items():
            assert len(other[key]) == len(recs)
            for a, b in zip(recs, other[key]):
                for field in ("err_h", "theta_bar", "theta_last"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (key, field)


class _SerialPool:
    """Stands in for ProcessPoolExecutor, so that a monkeypatched `_cell_records` is the one called."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_a_capped_experiment_runs_equal_calls_with_the_same_records(monkeypatch):
    cfg = BreakdownConfig(n_samples=600, dim=3, eta_grid=(0.1, 0.3, 0.5), replications=2, seed=4)
    whole = breakdown_experiment(cfg, jobs=1)
    cell_records = bench._cell_records
    monkeypatch.setattr(bench, "_cell_records", lambda args: sizes.append(len(args[2])) or cell_records(args))
    monkeypatch.setattr(bench, "_BYTES_PER_CALL", 4 * bench._stream_bytes(cfg, cfg.estimators))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    # six streams, at most four a call, and at least one call per worker; a worker takes whole calls
    for jobs, calls in ((1, [3, 3]), (2, [3, 3]), (4, [2, 2, 1, 1])):
        sizes = []
        split = breakdown_experiment(cfg, jobs=jobs)
        assert sizes == calls, jobs
        assert split.tables == whole.tables
        for key, recs in whole.records.items():
            for a, b in zip(recs, split.records[key]):
                for field in ("err_h", "theta_bar", "theta_last"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (key, field, jobs)


# ---------------------------------------------------------------------------
# slope fits


def test_fit_rate_slope_exact_power_laws():
    steps = np.unique(np.geomspace(10, 10000, 30).astype(int))
    slope, intercept, r2 = fit_rate_slope(_synthetic_record(steps, 3.0 / steps))
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

    slope, _, _ = fit_rate_slope(_synthetic_record(steps, 1.0 / np.sqrt(steps)))
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_slope_window_and_errors():
    steps = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
    # early junk outside the trailing window must not matter
    errs = 5.0 / steps.astype(float)
    errs[:3] = 100.0
    slope, _, _ = fit_rate_slope(_synthetic_record(steps, errs), window=0.5)
    assert slope == pytest.approx(-1.0, abs=1e-12)

    with pytest.raises(ValueError, match="at least 5"):
        fit_rate_slope(_synthetic_record([1, 10, 100, 1000], np.ones(4)))
    with pytest.raises(ValueError, match="window"):
        fit_rate_slope(_synthetic_record(steps, errs), window=0.0)
    with pytest.raises(ValueError, match="positive"):
        fit_rate_slope(_synthetic_record(steps, np.zeros(10)))


def test_fit_rate_slope_constant_error():
    steps = np.array([10, 20, 40, 80, 160])
    slope, intercept, r2 = fit_rate_slope(_synthetic_record(steps, np.full(5, 2.0)), window=1.0)
    assert slope == pytest.approx(0.0, abs=1e-14)
    assert r2 == 1.0


# ---------------------------------------------------------------------------
# SVG emitter


def test_render_loglog_svg_basics():
    svg = render_loglog_svg("demo", {"a": ([1, 10, 100], [1.0, 0.1, 0.01])})
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 1
    assert "1e0" in svg and "1e2" in svg
    with pytest.raises(ValueError, match="positive"):
        render_loglog_svg("demo", {"a": ([0, 1], [1.0, 1.0])})


def test_table_svg_uses_error_columns():
    t = Table(
        "curves",
        ("n", "err_H", "err_2"),
        ((1, 1.0, 2.0), (10, 0.1, 0.2), (100, 0.01, 0.02)),
    )
    svg = table_svg(t)
    assert svg.count("<polyline") == 2
    assert "err_H" in svg and "err_2" in svg
