"""Two-sided robust bounds built from nominal values and divergence budgets.

Given a nominal model nu, an alternative theta known only through the
budgets d1 >= R_alpha(theta || nu) and d2 >= R_{alpha-1}(nu || theta),
the risk-sensitive value of theta at order alpha - 1 is sandwiched by
nominal evaluations at the adjacent orders alpha - 2 and alpha:

    (1/(alpha-2)) log int exp((alpha-2) g) d nu  -  d2
        <=  (1/(alpha-1)) log int exp((alpha-1) g) d theta
        <=  (1/alpha) log int exp(alpha g) d nu  +  d1.

The upper side needs alpha > 1, the lower side alpha > 2. Specializing
g to an indicator recovers probability bounds for an event A:

    p^{(alpha-1)/(alpha-2)} exp(-(alpha-1) d2)
        <= theta(A)
        <= p^{(alpha-1)/alpha} exp((alpha-1) d1),      p = nu(A).

This module only assembles bounds; callers supply nominal values and
budgets (so closed forms, series, or simulations can all feed it). The
single extended-real convention lives here: an infinite nominal value
minus an infinite budget collapses the lower bound to -inf, never to
nan, and an infinite d1 makes the upper side +inf (vacuous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergences import DivergenceBudget, check_budget, check_upper_alpha

__all__ = [
    "BoundResult",
    "rs_upper",
    "rs_lower",
    "event_bounds",
]

SCALES = ("log", "probability")


@dataclass(frozen=True)
class BoundResult:
    """A lower/upper pair at a given order, in the stated scale.

    On the probability scale the upper bound is clamped to 1 and
    upper_clamped records that the raw bound was vacuous.
    """

    alpha: float
    lower: float
    upper: float
    scale: str
    budget: DivergenceBudget
    upper_clamped: bool = False


def rs_upper(nominal_alpha_value: float, d1: float, alpha: float) -> float:
    """Upper side: nominal order-alpha value plus the budget d1.

    nominal_alpha_value is (1/alpha) log int exp(alpha g) d nu, computed
    by the caller. Requires alpha > 1. An infinite budget yields +inf.
    """
    check_upper_alpha(alpha)
    d1 = check_budget("d1", d1)
    nominal = float(nominal_alpha_value)
    if math.isnan(nominal):
        raise ValueError("nominal value must not be nan")
    if math.isinf(d1):
        return math.inf
    return nominal + d1


def rs_lower(nominal_alpha_minus2_value: float, d2: float, alpha: float) -> float:
    """Lower side: nominal order-(alpha-2) value minus the budget d2.

    Requires alpha > 2. The convention +inf - +inf = -inf applies: when
    both the nominal value and the budget diverge the bound collapses to
    -inf rather than becoming undefined.
    """
    if not alpha > 2.0:
        raise ValueError("the lower bound needs alpha > 2")
    d2 = check_budget("d2", d2)
    nominal = float(nominal_alpha_minus2_value)
    if math.isnan(nominal):
        raise ValueError("nominal value must not be nan")
    if math.isinf(d2):
        return -math.inf
    return nominal - d2


def event_bounds(
    p_nominal: float,
    budget: DivergenceBudget,
    alpha: float,
    scale: str = "probability",
) -> BoundResult:
    """Sandwich theta(A) from the nominal probability p = nu(A).

    alpha > 1 is required; for alpha <= 2 the lower side is vacuous
    (-inf on the log scale, 0 on the probability scale) rather than an
    error, so upper-only sweeps over (1, 2] stay total. The log scale
    bounds the normalized value (1/(alpha-1)) log theta(A), and the
    probability scale is exp((alpha-1) * log scale), clamped to 1.
    """
    alpha = check_upper_alpha(alpha)
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    p = float(p_nominal)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError("p_nominal must lie in [0, 1]")
    logp = math.log(p) if p > 0.0 else -math.inf
    upper_log = rs_upper(logp / alpha, budget.d1, alpha)
    lower_log = rs_lower(logp / (alpha - 2.0), budget.d2, alpha) if alpha > 2.0 else -math.inf

    if scale == "log":
        return BoundResult(alpha=alpha, lower=lower_log, upper=upper_log,
                           scale=scale, budget=budget)
    # log p <= 0 and d2 >= 0, so lower_log <= 0; the raw upper bound
    # exceeds 1 exactly when upper_log > 0, which is tested before an exp
    # that could overflow
    lower_p = math.exp((alpha - 1.0) * lower_log) if lower_log > -math.inf else 0.0
    clamped = upper_log > 0.0
    upper_p = 1.0 if clamped else math.exp((alpha - 1.0) * upper_log)
    # theta = nu meets every budget, so lower_p <= p <= upper_p holds exactly;
    # the exp of a rounded exponent can land just past p, and only such a
    # side moves
    return BoundResult(alpha=alpha, lower=min(lower_p, p), upper=max(upper_p, p),
                       scale=scale, budget=budget, upper_clamped=clamped)
