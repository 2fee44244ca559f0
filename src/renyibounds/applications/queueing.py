"""Buffer overflow in a discrete time queue with deterministic service.

Workload follows the reflected recursion Q_k = max(Q_{k-1} + X_k - C, 0)
with iid nonnegative arrivals X_k and service rate C per slot. The
overflow event on horizon n is the scaled running maximum exceeding a
level b, and under a unit-rate Poisson nominal model its decay rate is

    c = ell(C + b)                      if t* >= 1,
    c = min_t t * ell(C + b/t)          otherwise,

where ell is the Poisson relative entropy rate ell(x) = x log x - x + 1
and t* is the unconstrained minimizer. The two branches meet at t* = 1,
so the rate is continuous in (C, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bounds import BoundResult, event_bounds
from ..divergences import DivergenceBudget
from ..specfun import Bracket, minimize_scalar

__all__ = [
    "QueueModel",
    "RateResult",
    "poisson_rate_ell",
    "overflow_decay_rate",
    "lindley_path",
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
    with np.errstate(invalid="ignore"):
        out = safe * np.log(safe) - safe + 1.0
    out = np.where(arr == 0.0, 1.0, out)
    out = np.where(arr < 0.0, math.inf, out)
    if np.any(np.isnan(arr)):
        raise ValueError("ell: nan argument")
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def overflow_decay_rate(
    C: float,
    b: float,
    bracket: Bracket = Bracket(1e-6, 50.0),
    tol: float = 1e-8,
) -> RateResult:
    """Decay rate of the scaled overflow probability under Poisson(1) arrivals.

    Golden-section minimization of t * ell(C + b/t); the bracket expands
    automatically if the optimum sits beyond its right edge. branch is
    "edge" when the unconstrained minimizer t* >= 1 forces the rate to
    ell(C + b), and "interior" otherwise.
    """
    model = QueueModel(C, b)

    def objective(t: float) -> float:
        return t * poisson_rate_ell(model.C + model.b / t)

    t_star, m_star = minimize_scalar(objective, bracket, tol=tol)
    if t_star >= 1.0:
        return RateResult(t_star=t_star, m_star=m_star,
                          c=float(poisson_rate_ell(model.C + model.b)), branch="edge")
    return RateResult(t_star=t_star, m_star=m_star, c=m_star, branch="interior")


def lindley_path(arrivals, C: float) -> np.ndarray:
    """Workload Q_1..Q_n from Q_0 = 0 for an arrival vector."""
    x = np.asarray(arrivals, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("arrivals must be a nonempty vector")
    if np.any(np.isnan(x)) or np.any(x < 0.0):
        raise ValueError("arrivals must be nonnegative")
    out = np.empty_like(x)
    q = 0.0
    for k in range(x.size):
        q = max(q + x[k] - C, 0.0)
        out[k] = q
    return out


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
