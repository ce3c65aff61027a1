import numpy as np
import pytest

from streamrobust.core import (
    Explicit,
    Identity,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    Spectrum,
    Uniform,
    no_outliers,
    point_outliers,
)
from streamrobust.datagen import CHUNK, _chunk_arrays, array_chunks
from streamrobust.optimizer import oracle_row, run_batch, sgd_row


def stream_chunks(stream, d):
    """One stream's chunks as (X, y, b) arrays, each written into a fresh (CHUNK, d) slice."""
    chunks = []
    for write in stream:
        x, y, b = np.empty((CHUNK, d)), np.empty(CHUNK), np.empty(CHUNK)
        rows = write(x, y, b)
        chunks.append((x[:rows], y[:rows], b[:rows]))
    return chunks


def masked_oracle(stream, gamma0, model):
    """The experiments' oracle on stored (X, y, b) arrays: `oracle_row`, masked off where b != 0."""
    x, y, b = stream
    oracle = oracle_row(gamma0, int(np.count_nonzero(b == 0.0)), y.size, model)
    ((record,),) = run_batch([[oracle]], [array_chunks(x, y, b)], [model])
    return record


def sgd_run(source, loss, schedule, n_steps, checkpoint_plan=None, seed=0, *, model=None, record_iterates=False):
    """One `sgd_row` on its own stream: drawn from the model `source` on `seed`, or stored (X, y, b) arrays.

    The record is measured against `model`, by default the model `source`.
    """
    model = source if model is None else model
    row = sgd_row(loss, schedule, n_steps, seed, model, checkpoint_plan)
    drawn = isinstance(source, RegressionModel)
    stream = _chunk_arrays(source, seed, row.n_steps) if drawn else array_chunks(*source)
    ((record,),) = run_batch([[row]], [stream], [model], record_iterates=record_iterates)
    return record


@pytest.fixture
def clean_model():
    return RegressionModel(np.array([0.6, -0.2, 0.3]), Identity(3), 1.0, no_outliers())


@pytest.fixture
def point_model():
    return RegressionModel(
        np.array([0.5, 0.5, -0.5, 0.5]), Identity(4), 1.0, point_outliers(0.25, 1000.0)
    )


@pytest.fixture
def mixture_model():
    return RegressionModel(
        np.array([-0.4, 1.1]),
        Explicit(np.array([[2.0, 0.3], [0.3, 1.0]])),
        1.3,
        OutlierDistribution(0.3, ((0.4, PointMass(5.0)), (0.6, Uniform(1.0, 10.0)))),
    )


@pytest.fixture
def spectrum_model():
    return RegressionModel(
        np.array([1.0, 0.0, -1.0]),
        Spectrum((1.0, 0.5, 1.0 / 3.0), basis_seed=11),
        1.0,
        point_outliers(0.5, 2.0),
    )
