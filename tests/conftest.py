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
from streamrobust.datagen import CHUNK, array_chunks
from streamrobust.optimizer import oracle_row, run_batch


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
