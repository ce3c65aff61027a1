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

The Monte Carlo group draws the design term as one normal times the H-norm
of theta - theta*, and runs its models side by side on up to one thread per
CPU, each on its own substream: no CPU count changes its report.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np
from numpy.random import SFC64

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

_MC_PIECE = 8192  # samples drawn and summed at a time: a piece's buffers stay in cache


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
    """Monte Carlo estimate (mean, stderr) of E|y - <x, theta>| under the model.

    Each sample draws the terms of y - <x, theta> = <x, theta* - theta> + eps + b
    from their laws: for x ~ N(0, H) the first is N(0, s^2), s the norm of
    chol.T (theta* - theta), so one normal times s; eps is one more times
    sigma (the closed form's sum of variances is checked, not shared), and b
    a flag and a position uniform, plus a component uniform under a mixture.
    SFC64 draws them, not Philox as the data streams: they feed only a
    z-score, and SFC64 is faster. The samples come in pieces of _MC_PIECE,
    drawn term by term into buffers allocated per call and summed per piece,
    so the working set does not grow with d or n_samples; the result depends
    only on model, theta and seed.
    """
    if not isinstance(n_samples, (int, np.integer)):
        raise ValueError(f"need a whole number of samples, got {n_samples!r}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    theta = theta_array(np.reshape(theta, -1), model)
    spread = float(np.linalg.norm(model.design.chol.T @ (model.theta_star - theta)))
    sigma, outliers = model.sigma, model.outliers
    mixture = len(outliers.components) > 1
    r_all, z_all, comp_all = np.empty((3, _MC_PIECE))
    flag_all = np.empty(_MC_PIECE, dtype=bool)
    rng = substream(seed, "mc", bit_generator=SFC64)
    s1 = 0.0
    s2 = 0.0
    for a in range(0, n_samples, _MC_PIECE):
        k = min(_MC_PIECE, n_samples - a)
        r, z, flag = r_all[:k], z_all[:k], flag_all[:k]
        rng.standard_normal(out=r)
        r *= spread
        rng.standard_normal(out=z)
        z *= sigma
        r += z
        if outliers.eta > 0.0:  # the flag, component and position uniforms, each a piece in turn
            np.less(rng.random(out=z), outliers.eta, out=flag)
            # a one-component law reads no component uniform, so none is drawn
            comp = rng.random(out=comp_all[:k]) if mixture else None
            # unflagged rows keep r, not r + 0.0: the two differ only in the sign of a zero, which |r| and r * r drop
            np.add(r, outliers.values_from_uniforms(comp, rng.random(out=z)), out=r, where=flag)
        s1 += float(np.abs(r, out=r).sum())
        # |r| * |r| == r * r bit for bit; and not r @ r: BLAS splits long dot
        # products across threads, which would tie the last digits to the thread count
        s2 += float(np.multiply(r, r, out=r).sum())
    mean = s1 / n_samples
    var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)


def _side_by_side(tasks: list) -> list:
    """`mc_expected_loss(*task)` for each task, on up to one thread per CPU, in task order.

    The calling thread is one of the workers. The workers take the tasks'
    indices, the costliest first, from one shared iterator, whose `next` is
    atomic under CPython's GIL. Every task draws from its own substream, so
    the estimates are the same whatever the number of workers and whichever
    takes which task. If a task raises, every worker is waited for, then
    the first error is raised.
    """
    workers = min(len(tasks), os.cpu_count() or 1)
    # a sample costs 2 normals, plus 2 uniforms under a one-component law or 3 under a mixture
    cost = [n * (2 + (m.outliers.eta > 0.0) * (2 + (len(m.outliers.components) > 1))) for _, m, n, _ in tasks]
    order = iter(sorted(range(len(tasks)), key=cost.__getitem__, reverse=True))
    estimates = [None] * len(tasks)
    errors = []

    def work() -> None:
        try:
            for i in order:
                estimates[i] = mc_expected_loss(*tasks[i])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return estimates


def fd_gradient(theta, model: RegressionModel) -> np.ndarray:
    """Central finite differences of the closed-form loss, one coordinate at a time, step 1e-5.

    theta is one iterate (d,) or a stack (..., d); the d steps ride on a new
    axis before the last, so a stack's differences are two closed-form calls.
    """
    h = 1e-5
    theta = theta_array(theta, model)[..., None, :]
    steps = h * np.eye(model.d)
    return (expected_loss(theta + steps, model) - expected_loss(theta - steps, model)) / (2.0 * h)


def fd_hessian_at_optimum(model: RegressionModel) -> np.ndarray:
    """Central second differences of the closed-form loss at theta*, step 1e-4, all stencil points in one call."""
    h = 1e-4
    steps = h * np.eye(model.d)
    i, j = np.triu_indices(model.d, 1)
    ei, ej = steps[i], steps[j]
    points = np.concatenate([np.zeros((1, model.d)), steps, -steps, ei + ej, ei - ej, -ei + ej, -ei - ej])
    f = expected_loss(model.theta_star + points, model)
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(f, np.cumsum([1, model.d, model.d] + [i.size] * 3))
    out = np.diag((fp - 2.0 * f0 + fm) / (h * h))
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
    # one (1, d) @ (d, d) product and one solve per sequence: a (k, d) @ (d, d) product moves last bits
    lhs = np.vecdot(np.matmul(bar[:, None, :], h)[:, 0], bar)
    gnorm_hinv = np.vecdot(avg_grad, np.linalg.solve(h, avg_grad[..., None])[..., 0])

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
    ts = np.linspace(0.0, 1.0, 201)[:, None]
    b = np.linspace(0.0, 10.0, 401)[None, :]
    eb2 = np.exp(-b * b)
    prof0 = b * erf(b) + eb2 / math.sqrt(math.pi)
    worst = math.inf
    for i in range(0, ts.shape[0], 16):  # 16 rows of t at a time: the (t, b) temporaries stay small
        t = ts[i : i + 16]
        s2 = 1.0 + t * t
        prof = b * erf(b / np.sqrt(s2)) + np.sqrt(s2) * np.exp(-b * b / s2) / math.sqrt(math.pi)
        mid = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi) * t * t * eb2
        low = t * t * eb2 / 5.0
        worst = min(worst, float(np.min(mid - low)), float(np.min(prof - prof0 - mid)))
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
    ||theta*||^2 + gamma0^2 R2 ln(e k), with a fourth-moment analogue.
    Replication r steps on rows [r n, (r+1) n) of the stream that
    `sample_arrays` draws from the model on the seed: disjoint segments of
    one i.i.d. row stream, so the replications are i.i.d. too. They step
    together, in one engine call. Reported values are the worst z-scores
    across checkpoints.
    """
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    if schedule.kind != INV_SQRT:
        raise ValueError("the moment bounds are stated for the inverse square root schedule")
    from .datagen import array_chunks, sample_arrays
    from .optimizer import default_checkpoints, run_batch, sgd_row

    theta_star = model.theta_star
    x, y, b = sample_arrays(model, n * replications, seed)
    segments = [slice(r * n, (r + 1) * n) for r in range(replications)]
    streams = [array_chunks(x[s], y[s], b[s]) for s in segments]
    row = sgd_row(L1(), schedule, n, seed, model, plan=[n])
    records = run_batch([[row]] * replications, streams, [model] * replications, record_iterates=True)
    checkpoints = default_checkpoints(n)
    # per checkpoint k, each replication's iterate after k steps: before row k, or the last one at k = n
    theta_ks = np.stack([np.vstack([rec.iterates[checkpoints[:-1]], rec.theta_last]) for (rec,) in records], axis=1)
    gamma0, r2 = schedule.gamma0, model.design.r2
    dist0sq = float(np.sum(theta_star**2))
    sq = np.sum((theta_ks - theta_star) ** 2, axis=2)  # (checkpoints, replications)
    ln_ek = 1.0 + np.log(checkpoints)
    c_k = dist0sq + gamma0**2 * r2 * ln_ek
    d_k = (
        dist0sq**2
        + 8.0 * gamma0**2 * ln_ek * r2 * dist0sq
        + gamma0**4 * ln_ek * r2**2 * (8.0 * ln_ek + math.pi**2 / 3.0)
    )
    moments, bounds = np.stack([sq, sq * sq]), np.stack([c_k, d_k])  # second and fourth, per checkpoint
    mean, se = moments.mean(axis=2), moments.std(axis=2, ddof=1) / math.sqrt(replications)
    z = np.where(mean <= bounds, -math.inf, math.inf)  # where se == 0
    np.divide(mean - bounds, se, out=z, where=se != 0.0)
    return [
        z_result("moment_bounds.second", float(z[0].max())),
        z_result("moment_bounds.fourth", float(z[1].max())),
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
        thetas = [model.theta_star + rng.standard_normal(model.d) for _, model in models]
        tasks = [(theta, model, 200000, derive_seed(seed, "mc", name)) for theta, (name, model) in zip(thetas, models)]
        estimates = _side_by_side(tasks)
        for (name, model), theta, (mean, stderr) in zip(models, thetas, estimates):
            z = abs(float(expected_loss(theta, model)) - mean) / stderr
            results.append(z_result(f"mc_loss[{name}]", z))

    if wanted("gradient_fd"):
        rng = substream(seed, "fd_theta")
        worst_rel = 0.0
        for name, model in models:
            thetas = model.theta_star + rng.uniform(-2.0, 2.0, (10, model.d))
            g = gradient(thetas, model)
            err = g - fd_gradient(thetas, model)
            denom = np.maximum(np.sqrt(np.vecdot(g, g)), 1e-12)
            worst_rel = max(worst_rel, float(np.max(np.sqrt(np.vecdot(err, err)) / denom)))
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
