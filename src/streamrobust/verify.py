"""Independent numerical checks of every analytic claim the package relies on.

Two kinds of checks live here. Deterministic ones evaluate an inequality on a
grid and report the worst margin (right side minus left side); they must stay
above a small negative tolerance that only absorbs rounding. Statistical ones
compare a Monte Carlo estimate against a closed form or a proved bound and
report a z-score; those are allowed to fluctuate and only fail when they land
beyond four standard errors.

The finite-difference gradient agreement is the keystone: it ties the closed
forms of `analytic` to the brute-force sampling oracle with no shared code
path beyond the model definition itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    Explicit,
    Identity,
    INV_SQRT,
    L1,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    Spectrum,
    StepSchedule,
    Uniform,
    derive_seed,
    no_outliers,
    point_outliers,
    substream,
)
from .analytic import (
    SQRT_2_OVER_PI,
    effective_eta,
    erf,
    expected_loss,
    expected_loss_radial,
    gradient,
    gradient_scale,
    hessian_at_optimum,
    pred_error_sigma,
    theta_array,
)

MARGIN_TOL = -1e-10
SCALE_DRIFT_TOL = -1e-12

_MC_BLOCK = 131072


@dataclass(frozen=True)
class CheckResult:
    """One line of the verification report."""

    name: str
    value: float
    status: str  # "pass", "warn" or "fail"

    def line(self) -> str:
        return f"{self.name},{self.status},{self.value!r}"


def margin_result(name: str, margin: float, tol: float = MARGIN_TOL) -> CheckResult:
    status = "pass" if margin >= tol else "fail"
    return CheckResult(name, float(margin), status)


def z_result(name: str, z: float) -> CheckResult:
    if z <= 3.0:
        status = "pass"
    elif z <= 4.0:
        status = "warn"
    else:
        status = "fail"
    return CheckResult(name, float(z), status)


def suite_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)


def report_lines(results: Sequence[CheckResult]) -> List[str]:
    return [r.line() for r in results]


# ---------------------------------------------------------------------------
# brute-force oracles


def mc_expected_loss(theta, model: RegressionModel, n_samples: int, seed: int) -> tuple:
    """Monte Carlo estimate (mean, stderr) of E|y - <x, theta>| under the model."""
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    theta = theta_array(np.reshape(theta, -1), model)
    # x = g @ chol.T for standard normal rows g, so <x, shift> = g @ (chol.T @ shift)
    proj = model.design.chol.T @ (model.theta_star - theta)
    eta = model.outliers.eta
    rng = substream(seed, "mc")
    s1 = 0.0
    s2 = 0.0
    left = n_samples
    while left > 0:
        m = min(_MC_BLOCK, left)
        r = rng.standard_normal((m, model.d)) @ proj
        r += rng.standard_normal(m) * model.sigma
        u = rng.random(3 * m)  # the flag, component and position blocks
        if eta > 0.0:  # r + 0.0 == r up to the sign of a zero, which |r| and r * r drop
            r += np.where(u[:m] < eta, model.outliers.values_from_uniforms(u[m : 2 * m], u[2 * m :]), 0.0)
        s1 += float(np.abs(r).sum())
        # not r @ r: BLAS splits long dot products across threads, which would
        # tie the last digits to the thread count
        s2 += float((r * r).sum())
        left -= m
    mean = s1 / n_samples
    var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)


def fd_gradient(theta, model: RegressionModel) -> np.ndarray:
    """Central finite differences of the closed-form loss, one coordinate at a time, step 1e-5."""
    h = 1e-5
    theta = np.asarray(theta, dtype=float).reshape(-1)
    steps = h * np.eye(theta.size)
    return (expected_loss(theta + steps, model) - expected_loss(theta - steps, model)) / (2.0 * h)


def fd_hessian_at_optimum(model: RegressionModel) -> np.ndarray:
    """Central second differences of the closed-form loss at theta*, step 1e-4."""
    h = 1e-4
    theta = model.theta_star
    steps = h * np.eye(model.d)
    f0 = expected_loss(theta, model)
    out = np.diag((expected_loss(theta + steps, model) - 2.0 * f0 + expected_loss(theta - steps, model)) / (h * h))
    i, j = np.triu_indices(model.d, 1)
    ei, ej = steps[i], steps[j]
    fpp = expected_loss(theta + ei + ej, model)
    fpm = expected_loss(theta + ei - ej, model)
    fmp = expected_loss(theta - ei + ej, model)
    fmm = expected_loss(theta - ei - ej, model)
    out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return out


# ---------------------------------------------------------------------------
# inequality checkers


def check_scale_drift(model: RegressionModel) -> CheckResult:
    """Relative drift of the gradient multiplier.

    |scale(z) - scale(0)| <= 20 ln(2/(1-eta)) (z/sigma) scale(z) on a grid of
    z from 0 to 1e6 sigma. This is the self-concordance style control that
    makes the averaged iterate analysis work, so it gets its own tight tolerance.
    """
    sigma = model.sigma
    z_grid = np.concatenate([[0.0], np.logspace(-6.0, 6.0, 241) * sigma])
    eta = model.outliers.eta
    factor = 20.0 * math.log(2.0 / (1.0 - eta))
    a0 = gradient_scale(0.0, model)
    az = gradient_scale(z_grid, model)
    margins = factor * (z_grid / sigma) * az - np.abs(az - a0)
    return margin_result("scale_drift", np.min(margins), SCALE_DRIFT_TOL)


def check_error_loss_link(model: RegressionModel) -> List[CheckResult]:
    """Excess loss controls the error scale, in both regimes.

    With df = F(theta) - F(theta*) and et the effective corruption level:
    sigma_theta^2 <= 10 df^2 / (1-et)^2 whenever sigma_theta >= sigma, and
    sigma_theta^2 <= 4 sigma df / (1-et) whenever sigma_theta <= sigma. Their
    sum bounds sigma_theta^2 everywhere, which is also checked, on iterates
    from 1e-3 sigma to 1e3 sigma away from theta* along the first coordinate.
    """
    sigma = model.sigma
    v = np.zeros(model.d)  # unit H-norm direction along the first coordinate
    v[0] = 1.0 / math.sqrt(model.design.h[0, 0])
    theta_grid = model.theta_star + (np.logspace(-3.0, 3.0, 121) * sigma)[:, None] * v
    et = effective_eta(model.outliers, sigma)
    f_star = expected_loss_radial(0.0, model)
    z = pred_error_sigma(theta_grid, model)
    df = expected_loss_radial(z, model) - f_star
    quad_side = 10.0 * df * df / (1.0 - et) ** 2
    lin_side = 4.0 * sigma * df / (1.0 - et)
    zsq = z * z
    worst_above = np.min(quad_side - zsq, where=z >= sigma, initial=math.inf)
    worst_below = np.min(lin_side - zsq, where=z <= sigma, initial=math.inf)
    worst_joint = np.min(lin_side + quad_side - zsq, initial=math.inf)
    return [
        margin_result("error_loss_link.above_noise", worst_above),
        margin_result("error_loss_link.below_noise", worst_below),
        margin_result("error_loss_link.combined", worst_joint),
    ]


def check_avg_iterate_bound(theta_sequence, model: RegressionModel) -> CheckResult:
    """Pathwise bound on the averaged iterate for any finite sequence.

    ||mean(theta_i) - theta*||_H^2 is controlled by the H^{-1} norm of the
    averaged gradients plus the squared averaged alignment term
    mean(<grad F(theta_i), theta_i - theta*>), with constants
    2 sigma^2 / (1-et)^2 and 800 ln(2/(1-eta))^2 / (1-et)^2. A (k, n, d)
    stack of sequences reports the worst of their margins, each as it is alone.
    """
    seqs = theta_array(theta_sequence, model)
    if seqs.ndim not in (2, 3) or seqs.size == 0:
        raise ValueError(f"need a (n, d) sequence of iterates or a (k, n, d) stack, got shape {seqs.shape}")
    seqs = seqs.reshape((-1,) + seqs.shape[-2:])
    h = model.design.h
    deltas = seqs - model.theta_star
    hdeltas = deltas @ h  # one (n, d) @ (d, d) product per sequence
    zsq = np.einsum("id,id->i", deltas.reshape(-1, model.d), hdeltas.reshape(-1, model.d)).reshape(seqs.shape[:2])
    zs = np.sqrt(np.maximum(zsq, 0.0))
    scales = gradient_scale(zs, model)
    avg_grad = (scales[..., None] * hdeltas).mean(axis=1)
    align = np.mean(scales * zsq, axis=1)

    bar = deltas.mean(axis=1)
    lhs = np.array([b @ h @ b for b in bar])
    gnorm_hinv = np.array([g @ np.linalg.solve(h, g) for g in avg_grad])

    eta = model.outliers.eta
    et = effective_eta(model.outliers, model.sigma)
    sigma2 = model.sigma * model.sigma
    rhs = (
        2.0 * sigma2 / (1.0 - et) ** 2 * gnorm_hinv
        + 800.0 / (1.0 - et) ** 2 * math.log(2.0 / (1.0 - eta)) ** 2 * align * align
    )
    return margin_result("avg_iterate_bound", np.min(rhs - lhs))


def check_scalar_inequalities() -> List[CheckResult]:
    """Standalone scalar inequalities the analysis leans on, on dense grids."""
    results = []

    # ratio u / (eta + (1 - eta) e^u) stays below 9 ln(2 / (1 - eta))
    worst = math.inf
    us = np.concatenate([[0.0], np.logspace(-6.0, 2.0, 1201)])
    for eta in (0.0, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.99):
        lhs = us / (eta + (1.0 - eta) * np.exp(us))
        worst = min(worst, float(np.min(9.0 * math.log(2.0 / (1.0 - eta)) - lhs)))
    results.append(margin_result("scalar.exp_ratio_bound", worst))

    # x (erf(x/sqrt(2)) - erf(x)) + sqrt(2/pi) e^{-x^2/2} - e^{-x^2}/sqrt(pi)
    # dominates (sqrt(2)-1)/sqrt(pi) e^{-x^2}, which dominates e^{-x^2}/5
    x = np.linspace(0.0, 10.0, 4001)
    ex2 = np.exp(-x * x)
    mid = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi) * ex2
    rhs = x * (erf(x / math.sqrt(2.0)) - erf(x)) + SQRT_2_OVER_PI * np.exp(-x * x / 2.0) - ex2 / math.sqrt(math.pi)
    worst = min(float(np.min(mid - ex2 / 5.0)), float(np.min(rhs - mid)))
    results.append(margin_result("scalar.erf_gap_bound", worst))

    # widening the residual scale lifts the dimensionless profile
    # g(t) = b erf(b / sqrt(1 + t^2)) + sqrt(1 + t^2) e^{-b^2/(1+t^2)} / sqrt(pi)
    # by at least (sqrt(2)-1)/sqrt(pi) t^2 e^{-b^2} >= t^2 e^{-b^2} / 5 for t <= 1
    t = np.linspace(0.0, 1.0, 201)[:, None]
    b = np.linspace(0.0, 10.0, 401)[None, :]
    s2 = 1.0 + t * t
    prof = b * erf(b / np.sqrt(s2)) + np.sqrt(s2) * np.exp(-b * b / s2) / math.sqrt(math.pi)
    prof0 = b * erf(b) + np.exp(-b * b) / math.sqrt(math.pi)
    lift = prof - prof0
    mid = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi) * t * t * np.exp(-b * b)
    low = t * t * np.exp(-b * b) / 5.0
    worst = min(float(np.min(mid - low)), float(np.min(lift - mid)))
    results.append(margin_result("scalar.smoothing_gap_bound", worst))

    # (1/n) sum_{t=2}^{n-1} (n/t)^2 ((1 - t/n)^{-1/2} - 1) <= 3 ln(e n)
    worst = math.inf
    for n in (10, 100, 1000, 10000):
        t = np.arange(2, n, dtype=float)
        total = float(np.sum((n / t) ** 2 * ((1.0 - t / n) ** -0.5 - 1.0))) / n
        worst = min(worst, 3.0 * math.log(math.e * n) - total)
    results.append(margin_result("scalar.riemann_sum_bound", worst))

    return results


def check_moment_bounds(
    model: RegressionModel,
    schedule: StepSchedule,
    n: int,
    replications: int,
    seed: int,
) -> List[CheckResult]:
    """Monte Carlo check of the iterate moment bounds for the absolute loss.

    With gamma_t = gamma0 / sqrt(t) and R2 = trace(H), the squared distance
    to theta* after k steps from theta_0 = 0 is bounded in expectation by
    ||theta*||^2 + gamma0^2 R2 ln(e k), with a fourth-moment analogue. Replication r consumes the stream seeded by (seed, "rep", r).
    Reported values are the worst z-scores across checkpoints.
    """
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    if schedule.kind != INV_SQRT:
        raise ValueError("the moment bounds are stated for the inverse square root schedule")
    from .datagen import CHUNK, sample_arrays
    from .optimizer import Estimator, default_checkpoints, run_batch

    theta_star = model.theta_star
    # short streams, drawn one after another and stepped together; stream-major as
    # datagen.stacked_chunks lays chunks out, but held at their length, not a whole chunk's
    x, y = np.empty((replications, n, model.d)), np.empty((replications, n))
    for r in range(replications):
        x[r], y[r], _ = sample_arrays(model, n, derive_seed(seed, "rep", r))
    flags = np.zeros((n, replications), dtype=bool)  # an L1 row reads every row, corrupted or not
    chunks = [(x[:, a : a + CHUNK].transpose(1, 0, 2), y[:, a : a + CHUNK].T, flags[a : a + CHUNK])
              for a in range(0, n, CHUNK)]
    row = Estimator(L1(), schedule, n, checkpoint_plan=[n])
    records = run_batch([[row]] * replications, chunks, [model] * replications, record_iterates=True)
    iterates = np.stack([rec.iterates for (rec,) in records])
    last = np.stack([rec.theta_last for (rec,) in records])

    checkpoints = default_checkpoints(n)
    gamma0 = schedule.gamma0
    r2 = model.design.r2
    dist0sq = float(np.sum(theta_star**2))

    worst_z2 = -math.inf
    worst_z4 = -math.inf
    for k in checkpoints.tolist():
        theta_k = iterates[:, k] if k < n else last  # the iterates after k steps
        sq = np.sum((theta_k - theta_star) ** 2, axis=1)
        ln_ek = 1.0 + math.log(k)
        c_k = dist0sq + gamma0**2 * r2 * ln_ek
        d_k = (
            dist0sq**2
            + 8.0 * gamma0**2 * ln_ek * r2 * dist0sq
            + gamma0**4 * ln_ek * r2**2 * (8.0 * ln_ek + math.pi**2 / 3.0)
        )
        for moments, bound, which in ((sq, c_k, 2), (sq * sq, d_k, 4)):
            mean = float(moments.mean())
            se = float(moments.std(ddof=1)) / math.sqrt(replications)
            if se == 0.0:
                z = -math.inf if mean <= bound else math.inf
            else:
                z = (mean - bound) / se
            if which == 2:
                worst_z2 = max(worst_z2, z)
            else:
                worst_z4 = max(worst_z4, z)
    return [
        z_result("moment_bounds.second", worst_z2),
        z_result("moment_bounds.fourth", worst_z4),
    ]


# ---------------------------------------------------------------------------
# the default suite


def default_models() -> List[tuple]:
    """Small palette of models covering the corruption regimes."""
    return [
        (
            "clean",
            RegressionModel(np.array([0.6, -0.2, 0.3]), Identity(3), 1.0, no_outliers()),
        ),
        (
            "far_point",
            RegressionModel(
                np.array([0.5, 0.5, -0.5, 0.5]), Identity(4), 1.0, point_outliers(0.2, 1000.0)
            ),
        ),
        (
            "near_point",
            RegressionModel(
                np.array([1.0, 0.0, -1.0]),
                Spectrum((1.0, 0.5, 1.0 / 3.0), basis_seed=11),
                1.0,
                point_outliers(0.5, 2.0),
            ),
        ),
        (
            "tiny_point",
            RegressionModel(np.array([0.8, -0.6]), Identity(2), 0.5, point_outliers(0.9, 0.005)),
        ),
        (
            "mixture",
            RegressionModel(
                np.array([-0.4, 1.1]),
                Explicit(np.array([[2.0, 0.3], [0.3, 1.0]])),
                1.3,
                OutlierDistribution(0.3, ((0.4, PointMass(5.0)), (0.6, Uniform(1.0, 10.0)))),
            ),
        ),
    ]


def random_iterate_sequences(model: RegressionModel, count: int, seed: int, length: int = 30):
    """Seeded random walks around theta*, spanning tiny to huge error scales."""
    rng = substream(seed, "sequences")
    d = model.d
    sigma = model.sigma
    sequences = []
    for s in range(count):
        scale = 10.0 ** rng.uniform(-3.0, 3.0) * sigma
        start = model.theta_star + scale * rng.standard_normal(d)
        if s % 5 == 0:
            seq = np.tile(start, (length, 1))  # constant sequences stress the bound most
        else:
            steps = (scale / 5.0) * rng.standard_normal((length - 1, d))
            seq = np.vstack([start, start + np.cumsum(steps, axis=0)])
        sequences.append(seq)
    return sequences


CHECK_GROUPS = (
    "mc_loss",
    "gradient_fd",
    "hessian_fd",
    "scale_drift",
    "error_loss_link",
    "avg_iterate_bound",
    "scalar_inequalities",
    "moment_bounds",
)

DEFAULT_SUITE_SEED = 20260816


def run_suite(seed: int = DEFAULT_SUITE_SEED, only: Optional[str] = None) -> List[CheckResult]:
    """Run the verification suite, or one named group of it."""
    if only is not None and only not in CHECK_GROUPS:
        raise KeyError(only)

    models = default_models()
    results: List[CheckResult] = []

    def wanted(group: str) -> bool:
        return only is None or only == group

    if wanted("mc_loss"):
        rng = substream(seed, "mc_theta")
        for name, model in models:
            theta = model.theta_star + rng.standard_normal(model.d)
            closed = float(expected_loss(theta, model))
            mean, stderr = mc_expected_loss(theta, model, 200000, derive_seed(seed, "mc", name))
            z = abs(closed - mean) / stderr
            results.append(z_result(f"mc_loss[{name}]", z))

    if wanted("gradient_fd"):
        rng = substream(seed, "fd_theta")
        worst_rel = 0.0
        for name, model in models:
            for _ in range(10):
                theta = model.theta_star + rng.uniform(-2.0, 2.0, model.d)
                g = gradient(theta, model)
                g_fd = fd_gradient(theta, model)
                denom = max(float(np.linalg.norm(g)), 1e-12)
                worst_rel = max(worst_rel, float(np.linalg.norm(g - g_fd)) / denom)
        results.append(margin_result("gradient_fd", 1e-5 - worst_rel, 0.0))

    if wanted("hessian_fd"):
        for name, model in models:
            closed = hessian_at_optimum(model)
            fd = fd_hessian_at_optimum(model)
            rel = float(np.linalg.norm(fd - closed) / np.linalg.norm(closed))
            results.append(margin_result(f"hessian_fd[{name}]", 1e-3 - rel, 0.0))

    if wanted("scale_drift"):
        for name, model in models:
            results.append(replace(check_scale_drift(model), name=f"scale_drift[{name}]"))

    if wanted("error_loss_link"):
        for name, model in models:
            results.extend(replace(res, name=f"{res.name}[{name}]") for res in check_error_loss_link(model))

    if wanted("avg_iterate_bound"):
        for name, model in models:
            walks = np.stack(random_iterate_sequences(model, 20, derive_seed(seed, "walks", name)))
            results.append(margin_result(f"avg_iterate_bound[{name}]", check_avg_iterate_bound(walks, model).value))

    if wanted("scalar_inequalities"):
        results.extend(check_scalar_inequalities())

    if wanted("moment_bounds"):
        model = RegressionModel(np.array([0.8, -0.6]), Identity(2), 1.0, point_outliers(0.2, 50.0))
        schedule = StepSchedule(1.0 / model.design.r2, INV_SQRT)
        results.extend(check_moment_bounds(model, schedule, 400, 120, derive_seed(seed, "moments")))

    return results
