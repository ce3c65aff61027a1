"""The one-observation scalar SGD the batched engine is tested against.

It keeps the textbook arithmetic (a running mean for the average, a branch
per loss) and shares no code with `optimizer.run_batch`, so the engine's
trajectories are checked against an independent implementation.
"""

import math
from dataclasses import dataclass

import numpy as np

from streamrobust.core import CONSTANT, Huber, L1, L2, Loss, NonFiniteError, StepSchedule


def schedule_gamma(schedule: StepSchedule, n: int) -> float:
    """Step size used for the n-th update, n >= 1."""
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    if schedule.kind == CONSTANT:
        return schedule.gamma0
    return schedule.gamma0 / math.sqrt(n)


@dataclass
class SgdState:
    """Mutable per-run state: iteration count, iterate and running average.

    theta_bar after n steps is the arithmetic mean of the iterates
    theta_0 .. theta_{n-1}; at n = 0 it is defined to be theta_0.
    """

    n: int
    theta: np.ndarray
    theta_bar: np.ndarray
    loss: Loss

    @classmethod
    def start(cls, theta0: np.ndarray, loss: Loss) -> "SgdState":
        theta0 = np.array(theta0, dtype=float).reshape(-1)
        return cls(0, theta0.copy(), theta0.copy(), loss)


def sgd_step(state: SgdState, x: np.ndarray, y: float, schedule: StepSchedule) -> SgdState:
    """Advance the state by one observation (x, y); mutates and returns `state`.

    The running average is refreshed from the pre-update iterate, matching
    the convention that theta_bar after n steps is the mean of
    theta_0 .. theta_{n-1}. sgn(0) is taken to be 0 so a zero residual
    leaves the iterate unchanged under the absolute loss.
    """
    k = state.n + 1
    theta = state.theta
    r = float(y) - float(x @ theta)
    if not math.isfinite(r):
        raise NonFiniteError(f"non-finite residual {r!r} at step {k}")
    gamma = schedule_gamma(schedule, k)
    state.theta_bar += (theta - state.theta_bar) / k
    loss = state.loss
    if isinstance(loss, L1):
        if r > 0.0:
            theta += gamma * x
        elif r < 0.0:
            theta -= gamma * x
    elif isinstance(loss, L2):
        theta += (gamma * r) * x
    elif isinstance(loss, Huber):
        if abs(r) <= loss.tau:
            theta += (gamma * r) * x
        elif r > 0.0:
            theta += (gamma * loss.tau) * x
        else:
            theta -= (gamma * loss.tau) * x
    else:
        raise TypeError(f"not a loss: {loss!r}")
    state.n = k
    return state
