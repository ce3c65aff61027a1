"""Shared domain types for the streaming robust regression toolkit.

Observation model used throughout the package: features x are centered
Gaussian with covariance H, and responses are

    y = <x, theta*> + eps + b

where eps is centered Gaussian dense noise with standard deviation sigma > 0
and b is a sparse response corruption. b equals zero with probability
1 - eta and is otherwise drawn from a mixture of point masses and uniform
intervals, independently of (x, eps). Because the corruption process never
looks at the realized features or noise, it is oblivious, which is what makes
consistent recovery possible at all.

All randomness in the package flows through explicit 64-bit seeds.
`substream(seed, *path)` hands out independent generators for named
purposes, and `derive_seed` produces child seeds for replications, so
parallel work is reproducible by construction. Every generator draws from
the counter-based Philox bit generator, except `verify`'s Monte Carlo
oracle, which draws from the faster SFC64: its draws feed only a z-score
against a closed form. The data streams stay on Philox, because the
acceptance criteria replay their pinned seeds' rows.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence  # every command draws: load with the package

SEED_MAX = (1 << 64) - 1  # seeds are 64-bit words: the command line rejects larger ones


# ---------------------------------------------------------------------------
# seeding


def _seed_sequence(seed: int, *path) -> SeedSequence:
    words = [int(seed) & SEED_MAX]
    for p in path:
        if isinstance(p, str):
            words.append(zlib.crc32(p.encode("utf-8")))
        else:
            words.append(int(p) & SEED_MAX)
    return SeedSequence(tuple(words))


def substream(seed: int, *path, bit_generator=Philox) -> Generator:
    """Independent generator addressed by (seed, path).

    Identical arguments always return a generator producing the identical
    stream. Path elements may be ints or short strings naming the purpose,
    e.g. ``substream(seed, "noise")`` or ``substream(seed, "rep", 3)``.
    `bit_generator` is the numpy bit generator class seeded from that
    address: Philox for every stream but `verify`'s Monte Carlo sample,
    which passes SFC64.
    """
    return Generator(bit_generator(_seed_sequence(seed, *path)))


def derive_seed(seed: int, *path) -> int:
    """Deterministic 64-bit child seed for a (seed, path) address."""
    return int(_seed_sequence(seed, *path).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# covariance specifications


class CovarianceDesign(NamedTuple):
    h: np.ndarray
    chol: np.ndarray  # lower Cholesky factor of h
    r2: float  # trace of h


@dataclass(frozen=True)
class Identity:
    """H = I_d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    @cached_property
    def design(self) -> CovarianceDesign:
        h = np.eye(self.d)
        return CovarianceDesign(h, h.copy(), float(self.d))


@dataclass(frozen=True)
class Spectrum:
    """H with prescribed eigenvalues and a seeded random orthogonal basis."""

    eigenvalues: tuple
    basis_seed: int

    def __post_init__(self):
        eig = tuple(float(v) for v in self.eigenvalues)
        if len(eig) == 0:
            raise ValueError("eigenvalue list must be non-empty")
        for v in eig:
            if not (v > 0) or not math.isfinite(v):
                raise ValueError(f"eigenvalues must be positive and finite, got {v}")
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def d(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def design(self) -> CovarianceDesign:
        """The basis is Q of a seeded Gaussian matrix, signs of diag(R) fixed: Haar distributed, one per basis_seed."""
        eig = np.asarray(self.eigenvalues, dtype=float)
        d = eig.size
        g = substream(self.basis_seed, "basis").standard_normal((d, d))
        q, r = np.linalg.qr(g)
        sign = np.sign(np.diag(r))
        sign[sign == 0] = 1.0
        q = q * sign
        h = (q * eig) @ q.T
        h = 0.5 * (h + h.T)
        return CovarianceDesign(h, np.linalg.cholesky(h), float(eig.sum()))


@dataclass(frozen=True, eq=False)
class Explicit:
    """H given as an explicit symmetric positive definite matrix, checked when it is made."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("explicit covariance matrix must be finite")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
            raise ValueError("explicit covariance must be symmetric")
        eig = np.linalg.eigvalsh(m)
        if eig[0] <= 0:
            raise ValueError(
                f"covariance is not positive definite: smallest eigenvalue {eig[0]:.6g} <= 0"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def design(self) -> CovarianceDesign:
        m = self.matrix
        return CovarianceDesign(m.copy(), np.linalg.cholesky(m), float(np.trace(m)))


# ---------------------------------------------------------------------------
# outlier distribution


@dataclass(frozen=True)
class PointMass:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"point mass value must be finite, got {self.value}")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"uniform interval ends lo and hi must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"uniform interval needs lo < hi, got [{self.lo}, {self.hi}]")


_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class OutlierDistribution:
    """Law of the response corruption b.

    b = 0 with probability 1 - eta; conditional on b != 0 it is drawn from
    the weighted mixture in `components`. Weights must sum to one.
    """

    eta: float
    components: tuple

    def __post_init__(self):
        eta = float(self.eta)
        if not (0.0 <= eta < 1.0):
            raise ValueError(f"eta must lie in [0, 1), got {eta}")
        comps = tuple((float(w), c) for (w, c) in self.components)
        if len(comps) == 0:
            raise ValueError("component list must be non-empty")
        for w, c in comps:
            if not (0 <= w < math.inf):
                raise ValueError(f"component weight must be finite and >= 0, got {w}")
            if not isinstance(c, (PointMass, Uniform)):
                raise TypeError(f"not an outlier component: {c!r}")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "components", comps)

    @cached_property
    def _table(self) -> tuple:
        """Cumulative weights and each component's lower end and width (0 for a point mass)."""
        ends = [(c.value, 0.0) if isinstance(c, PointMass) else (c.lo, c.hi - c.lo) for _, c in self.components]
        return (np.cumsum([w for w, _ in self.components]), *np.array(ends).T)

    def values_from_uniforms(self, u_component: np.ndarray, u_position: np.ndarray) -> np.ndarray:
        """Map uniform draws to conditional outlier values.

        u_component selects the mixture component through the cumulative
        weights, u_position locates the draw inside a uniform component and
        is ignored by point masses. Keeping this mapping fixed means any
        consumer burning the same two uniform arrays reproduces the same
        values, which keeps lazily and eagerly generated streams aligned.
        A value is lo + width * u_position: exact for a point mass, of width 0.
        """
        cum, lo, width = self._table
        u_position = np.asarray(u_position, dtype=float)
        if lo.size == 1:
            return lo[0] + width[0] * u_position
        idx = np.minimum(np.searchsorted(cum, u_component, side="right"), lo.size - 1)
        return lo[idx] + width[idx] * u_position


def no_outliers() -> OutlierDistribution:
    return OutlierDistribution(0.0, ((1.0, PointMass(0.0)),))


def point_outliers(eta: float, value: float) -> OutlierDistribution:
    return OutlierDistribution(eta, ((1.0, PointMass(value)),))


# ---------------------------------------------------------------------------
# regression model


@dataclass(frozen=True, eq=False)
class RegressionModel:
    """Ground truth theta*, feature covariance, noise scale and corruption law."""

    theta_star: np.ndarray
    covariance: Union[Identity, Spectrum, Explicit]
    sigma: float
    outliers: OutlierDistribution

    def __post_init__(self):
        theta = np.array(self.theta_star, dtype=float).reshape(-1)
        if not isinstance(self.covariance, (Identity, Spectrum, Explicit)):
            raise TypeError(f"not a covariance spec: {self.covariance!r}")
        d = self.covariance.d
        if theta.size != d:
            raise ValueError(
                f"theta_star has dimension {theta.size}, covariance has dimension {d}"
            )
        if not np.isfinite(theta).all():
            raise ValueError(f"theta_star must be finite, got {theta.tolist()}")
        if not (0 < float(self.sigma) < math.inf):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def d(self) -> int:
        return self.theta_star.size

    @property
    def design(self) -> CovarianceDesign:
        return self.covariance.design

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.theta_star.tobytes())
        h.update(self.sigma.hex().encode())
        # an Explicit spec prints its matrix: take the reprs under numpy's default print options
        with np.printoptions(
            precision=8, threshold=1000, edgeitems=3, linewidth=75, suppress=False,
            floatmode="maxprec", sign="-", legacy=False, formatter=None,
        ):
            h.update(repr(self.covariance).encode())
            h.update(getattr(self.covariance, "matrix", np.empty(0)).tobytes())  # a repr summarises a large matrix
            h.update(repr(self.outliers).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# schedules and losses

INV_SQRT = "inv_sqrt"
CONSTANT = "constant"


@dataclass(frozen=True)
class StepSchedule:
    """Step size gamma_n = gamma0 / sqrt(n) or a constant gamma0."""

    gamma0: float
    kind: str = INV_SQRT

    def __post_init__(self):
        if not (float(self.gamma0) > 0):
            raise ValueError(f"gamma0 must be > 0, got {self.gamma0}")
        if self.kind not in (INV_SQRT, CONSTANT):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "gamma0", float(self.gamma0))


@dataclass(frozen=True)
class L1:
    pass


@dataclass(frozen=True)
class L2:
    pass


@dataclass(frozen=True)
class Huber:
    tau: float

    def __post_init__(self):
        if not (float(self.tau) > 0):
            raise ValueError(f"huber tau must be > 0, got {self.tau}")
        object.__setattr__(self, "tau", float(self.tau))


Loss = Union[L1, L2, Huber]


def loss_label(loss: Loss) -> str:
    if isinstance(loss, L1):
        return "l1"
    if isinstance(loss, L2):
        return "l2"
    if isinstance(loss, Huber):
        return f"huber({loss.tau!r})"
    raise TypeError(f"not a loss: {loss!r}")


# ---------------------------------------------------------------------------
# run records


class NonFiniteError(ValueError):
    """A response, residual, iterate or error came out NaN or infinite."""


ERROR_FIELDS = ("err_h", "err_2", "err_last_h")


def check_errors(errors) -> None:
    """Raise unless every error is finite and >= 0; errors[i] holds the values of ERROR_FIELDS[i]."""
    for name, vals in zip(ERROR_FIELDS, errors):
        if not np.isfinite(vals).all():
            raise NonFiniteError(f"{name} contains a non-finite value")
        if (vals < 0).any():
            raise ValueError(f"{name} contains a negative value")


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Checkpointed error trajectory of one run.

    steps holds strictly increasing iteration counts; err_h, err_2 and
    err_last_h hold the squared H-norm error of the averaged iterate, its
    squared Euclidean error, and the squared H-norm error of the last
    iterate at those counts. iterates, when recorded, holds the iterate
    before each row of the stream, one (rows, d) array.
    """

    steps: np.ndarray
    err_h: np.ndarray
    err_2: np.ndarray
    err_last_h: np.ndarray
    config_digest: str
    theta_bar: np.ndarray
    theta_last: np.ndarray
    min_abs_residual: float
    iterates: Optional[np.ndarray] = None

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=np.int64)
        if (steps[1:] <= steps[:-1]).any():
            raise ValueError("checkpoint iterations must be strictly increasing")
        errors = [np.asarray(getattr(self, name), dtype=float) for name in ERROR_FIELDS]
        for name, vals in zip(ERROR_FIELDS, errors):
            if vals.shape != steps.shape:
                raise ValueError(f"{name} and steps must have matching length")
            object.__setattr__(self, name, vals)
        check_errors(errors)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def checked(cls, **fields) -> "RunRecord":
        """A record from every field, checked by the caller: the engine checks a grid's errors at once."""
        record = object.__new__(cls)
        record.__dict__.update(fields)
        return record

    @property
    def final_err_h(self) -> float:
        return float(self.err_h[-1])


def short_digest(parts: Sequence) -> str:
    """Stable short hash of a sequence of config fragments."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(p.tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]
