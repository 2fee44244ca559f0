"""Risk-sensitive bound for a linear payoff under scalar Gaussians.

For g(x) = c x the exponential integrals are available in closed form,

    (1/beta) log E_{N(m, s^2)} e^{beta g} = c m + beta c^2 s^2 / 2,

so the adjacent-order upper bound

    (1/(alpha-1)) log E_alt e^{(alpha-1) g}
        <= (1/alpha) log E_nom e^{alpha g} + R_alpha(alt || nom)

can be checked exactly. With nominal N(0, 1) the bound holds with
equality precisely when the alternative is N(c, 1), the exponential
tilt of the nominal by g, and this is true for every order alpha > 1
and every slope c.
"""

from __future__ import annotations

import math

from ..divergences import GaussianParams, check_alpha, check_upper_alpha, renyi_gaussian

__all__ = ["gaussian_linear_risk", "gaussian_rs_sides", "tightness_witness"]

_STANDARD_NORMAL = GaussianParams(0.0, 1.0)


def gaussian_linear_risk(model: GaussianParams, slope: float, beta: float) -> float:
    """(1/beta) log E e^{beta c X} for X ~ N(mean, variance), beta != 0."""
    beta = float(beta)
    if beta == 0.0 or not math.isfinite(beta):
        raise ValueError("risk exponent must be finite and nonzero")
    c = float(slope)
    return c * model.mean + 0.5 * beta * c * c * model.variance


def gaussian_rs_sides(
    slope: float,
    alpha: float,
    alternative: GaussianParams,
    nominal: GaussianParams = _STANDARD_NORMAL,
) -> tuple[float, float]:
    """Both sides of the adjacent-order bound for the payoff g(x) = c x.

    Returns (lhs, rhs) where lhs is the order alpha - 1 risk-sensitive
    value under the alternative and rhs is the order alpha value under
    the nominal plus R_alpha(alternative || nominal). Requires
    alpha > 1 so the inequality lhs <= rhs is the upper-bound regime.
    """
    alpha = check_alpha(check_upper_alpha(alpha))
    lhs = gaussian_linear_risk(alternative, slope, alpha - 1.0)
    rhs = gaussian_linear_risk(nominal, slope, alpha) + renyi_gaussian(alternative, nominal, alpha)
    return lhs, rhs


def tightness_witness(alpha: float, budget: float) -> tuple[float, GaussianParams]:
    """Slope and alternative mean-shift family member for a given budget.

    Returns c = sqrt(2 budget) together with N(c, 1), the tilt of the
    standard normal by g(x) = c x. Since R_alpha(N(c, 1) || N(0, 1)) =
    c^2 / 2 at every order, the alternative sits exactly at the
    requested divergence budget, and the bound in gaussian_rs_sides
    holds with equality for this pair. So the budget-form bound
    (1/alpha) log E_nom e^{alpha g} + budget is attained at every
    order alpha > 1.
    """
    alpha = check_alpha(check_upper_alpha(alpha))
    budget = float(budget)
    if not (math.isfinite(budget) and budget > 0.0):
        raise ValueError("budget must be positive and finite")
    c = math.sqrt(2.0 * budget)
    return c, GaussianParams(c, 1.0)
