"""Buffer overflow in a discrete time queue with deterministic service.

Workload follows the reflected recursion Q_k = max(Q_{k-1} + X_k - C, 0)
with iid nonnegative arrivals X_k and service rate C per slot. The
overflow event on horizon n is the scaled running maximum exceeding a
level b, and under a unit-rate Poisson nominal model its decay rate is

    c = ell(C + b)                          if t* >= 1,
    c = min_t t * ell(C + b/t) = b log x*   otherwise,

where ell is the Poisson relative entropy rate ell(x) = x log x - x + 1,
t* = b/(x* - C) is the unconstrained minimizer, and x* > C is the root
of C log x = x - 1. The two branches meet at t* = 1, so the rate is
continuous in (C, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bounds import BoundResult, event_bounds
from ..divergences import DivergenceBudget

__all__ = [
    "QueueModel",
    "RateResult",
    "poisson_rate_ell",
    "overflow_decay_rate",
    "scaled_event_sandwich",
]


@dataclass(frozen=True)
class QueueModel:
    """Service rate C > 1 (per-slot capacity) and overflow level b > 0."""

    C: float
    b: float

    def __post_init__(self) -> None:
        C, b = float(self.C), float(self.b)
        if not (math.isfinite(C) and C > 1.0):
            raise ValueError("service rate C must exceed the unit nominal arrival rate")
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError("overflow level b must be positive")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class RateResult:
    t_star: float
    m_star: float
    c: float
    branch: str

    def to_json_dict(self) -> dict:
        return {"t_star": self.t_star, "m_star": self.m_star, "c": self.c, "branch": self.branch}


def poisson_rate_ell(x):
    """ell(x) = x log x - x + 1 for x >= 0 (0 log 0 = 0), +inf below zero.

    Accepts scalars or arrays; scalar input returns a float.
    """
    arr = np.asarray(x, dtype=float)
    safe = np.where(arr > 0.0, arr, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = safe * np.log(safe) - safe + 1.0
    out = np.where(arr == 0.0, 1.0, out)
    # x log x - x + 1 is inf - inf at x = inf, where ell is inf
    out = np.where((arr < 0.0) | (arr == math.inf), math.inf, out)
    if np.any(np.isnan(arr)):
        raise ValueError("ell: nan argument")
    # x log x - x + 1 cancels to (x - 1)^2 / 2 near x = 1, while
    # ell(1 + y) = y log1p(y) - (y - log1p(y)) keeps its digits; x - 1 is
    # exact on [0.5, 2]
    near = (arr >= 0.5) & (arr <= 2.0)
    y = arr[near] - 1.0
    out[near] = y * np.log1p(y) - _log1p_gap(y)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _log1p_gap(y):
    """y - log1p(y) for y > -1, with full relative precision near 0.

    For |y| < 0.01 the difference would cancel to y^2/2 and keep only
    eps/|y| of its digits, so the series y^2 (1/2 - y/3 + y^2/4 - ...)
    is summed instead; ten terms leave a relative remainder under 1e-20.
    A float gives a float, through math.log1p; an array is taken
    elementwise, through numpy's log1p.
    """
    scalar = np.ndim(y) == 0
    if scalar and abs(y) >= 0.01:
        return y - math.log1p(y)
    s = 0.0
    for k in range(11, 1, -1):
        s = 1.0 / k - y * s
    if scalar:
        return y * y * s
    return np.where(np.abs(y) < 0.01, y * y * s, y - np.log1p(y))


def overflow_decay_rate(C: float, b: float) -> RateResult:
    """Decay rate of the scaled overflow probability under Poisson(1) arrivals.

    The t-derivative of t * ell(C + b/t) is C log x - x + 1 at
    x = C + b/t, so the minimizer has x* > C with C log x* = x* - 1,
    that is x* = -C W_{-1}(-exp(-1/C)/C) with W_{-1} the lower branch of
    the Lambert W function. x* depends on C alone, and then
    t* = b/(x* - C) and the minimum m* = t* ell(x*) = b log x*.
    branch is "edge" when t* >= 1 forces the rate to ell(C + b), and
    "interior" otherwise, where c = m*.

    The root is found in y = x - 1 by Newton's method on
    psi(y) = (C - 1) log1p(y) - (y - log1p(y)), which is C log x - x + 1
    written without cancellation for C close to 1. psi is concave and
    decreasing past C - 1 and negative at y = 2 C log C, since
    2 log C < C - 1/C for every C > 1, so the iterates fall
    monotonically onto the root from there, in at most ten steps. Against
    mpmath's W_{-1}, x* - C and log x* are within 4e-14 relative for C
    from 1 + 2^-52 to 1e305. Past C of about 1.2e305 the start leaves
    the double range, as ell(C + b) does a little later; t* then reads 0
    and m* and c read inf.
    """
    model = QueueModel(C, b)
    C, b = model.C, model.b
    e = C - 1.0
    y = 2.0 * C * math.log(C)
    for _ in range(64):
        nxt = y - (e * math.log1p(y) - _log1p_gap(y)) / ((e - y) / (1.0 + y))
        if not e < nxt < y:
            break
        y = nxt
    t_star = b / (y - e)
    m_star = b * math.log1p(y)
    if t_star >= 1.0:
        return RateResult(t_star=t_star, m_star=m_star,
                          c=float(poisson_rate_ell(C + b)), branch="edge")
    return RateResult(t_star=t_star, m_star=m_star, c=m_star, branch="interior")


def scaled_event_sandwich(
    p_nominal: float,
    n: int,
    alpha: float,
    d1_per_step: float,
    d2_per_step: float,
) -> BoundResult:
    """Probability-scale overflow sandwich with per-step budgets scaled by n.

    The horizon-n arrival vector is an n-fold product, so its divergence
    budgets are n times the per-step marginal values; the event bound is
    then evaluated with those totals.
    """
    if int(n) < 1:
        raise ValueError("horizon n must be at least 1")
    total = DivergenceBudget(d1=float(n) * float(d1_per_step), d2=float(n) * float(d2_per_step))
    return event_bounds(p_nominal, total, alpha, scale="probability")
