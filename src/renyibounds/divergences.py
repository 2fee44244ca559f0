"""Order-alpha divergences with the 1/(alpha (alpha - 1)) normalization.

For probability measures nu, theta and alpha outside {0, 1},

    R_alpha(nu || theta)
        = 1/(alpha (alpha - 1)) * log int_{nu' theta' > 0} (nu'/theta')^alpha d theta,

set to +inf when alpha > 1 and nu is not absolutely continuous with
respect to theta, and extended to alpha < 0 through the skew identity
R_alpha(nu || theta) = R_{1-alpha}(theta || nu). With this scaling the
divergence is nonnegative for every admissible alpha, tends to the
Kullback-Leibler divergence as alpha -> 1, and alpha * R_alpha is
nondecreasing in alpha.

The discrete evaluation works on the shared labelled support of two
FiniteMeasure objects and stays in the log domain, so orders in the
hundreds are fine. Gaussian and Poisson marginals get the closed
forms used by the application studies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import FiniteMeasure, _logsumexp

__all__ = [
    "GaussianParams",
    "PoissonParams",
    "DivergenceBudget",
    "renyi_discrete",
    "renyi_gaussian",
    "renyi_poisson",
    "renyi_bm_drift",
]

_ALPHA_EXCLUSION = 1e-8
_POISSON_SERIES_LIMIT = 1e-2
_POISSON_EXP_LIMIT = 700.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_alpha(alpha: float) -> float:
    """Reject orders within 1e-8 of the removable points 0 and 1."""
    a = float(alpha)
    if not math.isfinite(a):
        raise ValueError("alpha must be finite")
    if min(abs(a), abs(a - 1.0)) <= _ALPHA_EXCLUSION:
        raise ValueError("alpha must stay away from 0 and 1 (use the KL limit instead)")
    return a


def check_upper_alpha(alpha: float) -> float:
    """Reject orders that are not above 1, where the upper bound holds."""
    a = float(alpha)
    if not a > 1.0:
        raise ValueError("the upper bound needs alpha > 1")
    return a


def check_budget(name: str, d: float) -> float:
    """Reject nan and negative budgets; +inf is allowed and makes a bound vacuous."""
    d = float(d)
    if math.isnan(d) or d < 0.0:
        raise ValueError(f"budget {name} must be nonnegative (inf allowed)")
    return d


@dataclass(frozen=True)
class GaussianParams:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        m, v = float(self.mean), float(self.variance)
        if not (math.isfinite(m) and math.isfinite(v) and v > 0.0):
            raise ValueError("Gaussian needs a finite mean and a positive finite variance")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", v)


@dataclass(frozen=True)
class PoissonParams:
    rate: float

    def __post_init__(self) -> None:
        r = float(self.rate)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError("Poisson rate must be positive and finite")
        object.__setattr__(self, "rate", r)


@dataclass(frozen=True)
class DivergenceBudget:
    """Budgets d1 >= R_alpha(theta || nu) and d2 >= R_{alpha-1}(nu || theta)."""

    d1: float
    d2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", check_budget("d1", self.d1))
        object.__setattr__(self, "d2", check_budget("d2", self.d2))


def renyi_log_integral_rows(log_num: np.ndarray, log_den: np.ndarray, alpha: float) -> np.ndarray:
    """Column-wise log int (num'/den')^alpha d den on a shared finite support.

    log_num and log_den broadcast against each other; the first axis runs
    over atoms, so (dim, N) arrays give one value per column. Atoms with
    zero mass under both measures are dropped. The remaining -inf
    arithmetic encodes the support conventions on its own: a numerator
    atom outside the denominator support drives the sum to +inf when
    alpha > 1, the joint-support restriction happens automatically when
    0 < alpha < 1, and for alpha < 0 the roles of the two measures swap
    exactly as in the skew identity.

    The exponents take one array of the broadcast shape: the larger
    side's term, with the smaller side's term added in place, shifted in
    place by the log-sum-exp. The both-zero mask is formed only when the
    smaller side holds a -inf, since otherwise it cannot select an atom.
    """
    ln = np.asarray(log_num, dtype=float)
    lt = np.asarray(log_den, dtype=float)
    big, small = (ln, lt) if ln.size >= lt.size else (lt, ln)
    big_coef, small_coef = (alpha, 1.0 - alpha) if big is ln else (1.0 - alpha, alpha)
    w = np.empty(np.broadcast_shapes(ln.shape, lt.shape))
    with np.errstate(invalid="ignore"):
        np.multiply(big, big_coef, out=w)
        # the sum of the two terms is the same in either order
        w += small_coef * small
    if np.isneginf(small).any():
        w[np.isneginf(ln) & np.isneginf(lt)] = -math.inf
    return _logsumexp(w, 0, out=w)


def _shared_support(nu: FiniteMeasure, theta: FiniteMeasure) -> None:
    if nu.labels != theta.labels:
        raise ValueError("measures must live on the same labelled support")


def renyi_discrete(nu: FiniteMeasure, theta: FiniteMeasure, alpha: float) -> float:
    """R_alpha(nu || theta) on a shared finite support.

    Returns +inf when alpha > 1 and nu charges an atom theta does not,
    and when 0 < alpha < 1 and the measures are mutually singular.
    """
    alpha = check_alpha(alpha)
    _shared_support(nu, theta)
    if alpha < 0.0:
        return renyi_discrete(theta, nu, 1.0 - alpha)
    s = float(renyi_log_integral_rows(nu.log_weights, theta.log_weights, alpha))
    denom = alpha * (alpha - 1.0)
    if s == -math.inf:
        # only reachable for 0 < alpha < 1: empty joint support
        return math.inf
    return s / denom


def renyi_gaussian(theta1: GaussianParams, nu1: GaussianParams, alpha: float) -> float:
    """Closed form R_alpha(theta1 || nu1) for scalar Gaussians.

    With s1^2 the numerator variance, s2^2 the denominator variance and
    s_alpha^2 = alpha s2^2 + (1 - alpha) s1^2,

        R_alpha = (1/alpha) log(s2/s1)
                + 1/(2 alpha (alpha - 1)) log(s2^2 / s_alpha^2)
                + (m1 - m2)^2 / (2 s_alpha^2),

    valid while s_alpha^2 > 0 and +inf otherwise.
    """
    alpha = check_alpha(alpha)
    v1, v2 = theta1.variance, nu1.variance
    va = alpha * v2 + (1.0 - alpha) * v1
    if va <= 0.0:
        return math.inf
    dm = theta1.mean - nu1.mean
    return (
        0.5 * math.log(v2 / v1) / alpha
        + 0.5 * math.log(v2 / va) / (alpha * (alpha - 1.0))
        + dm * dm / (2.0 * va)
    )


def renyi_poisson(theta1: PoissonParams, nu1: PoissonParams, alpha: float) -> float:
    """Closed form R_alpha(theta1 || nu1) for Poisson marginals.

    Summing the tilted series gives
    (l1^alpha l2^(1 - alpha) - alpha l1 - (1 - alpha) l2) / (alpha (alpha - 1)).
    With r = log(l1 / l2), taken as log1p((l1 - l2) / l2) whenever the
    rates lie within a factor of 2, the numerator is evaluated as
    l2 (e^r expm1((alpha - 1) r) - (alpha - 1) expm1(r)), which stays
    accurate as alpha -> 1, where the plain form cancels. Orders below
    1/2 go through the skew identity, which keeps alpha -> 0 accurate too.
    For nearly equal rates (|alpha r| < 1e-2) that numerator still cancels
    to second order in r, so the divergence is summed as the series
    l2 * sum over k >= 2 of (1 + alpha + ... + alpha^(k-2)) r^k / k!,
    whose terms carry no cancellation. Once r or alpha r passes 700 the
    value is taken through its logarithm and is +inf beyond the float range.
    Orders up to 1e300 keep their digits: neither form cancels or overflows.
    """
    alpha = check_alpha(alpha)
    if alpha < 0.5:
        return renyi_poisson(nu1, theta1, 1.0 - alpha)
    l1, l2 = theta1.rate, nu1.rate
    ratio = l1 / l2
    if 0.5 * l2 <= l1 <= 2.0 * l2:
        # l1 - l2 is exact here (Sterbenz), so log1p keeps r to full precision,
        # where log(ratio) carries the rounding of the ratio, eps / |r| in r
        r = math.log1p((l1 - l2) / l2)
    elif 0.0 < ratio < math.inf:
        r = math.log(ratio)
    else:
        # rates whose ratio leaves the float range still have a finite log ratio
        r = math.log(l1) - math.log(l2)
    am1 = alpha - 1.0
    if abs(alpha * r) < _POISSON_SERIES_LIMIT:
        power = term = total = 0.5 * r * r
        for k in range(3, 11):
            # term k from term k-1: (1 + ... + alpha^(k-2)) = 1 + alpha (1 + ... + alpha^(k-3))
            term = r / k * (power + alpha * term)
            power *= r / k
            total += term
        return l2 * total
    if max(r, alpha * r) < _POISSON_EXP_LIMIT:
        inner = math.exp(r) * math.expm1(am1 * r) - am1 * math.expm1(r)
        numer, denom = l2 * inner, alpha * am1
        if math.isfinite(numer) and math.isfinite(denom):
            return numer / denom
        # alpha (alpha - 1) overflows past alpha of about 1.3e154
        return l2 * (inner / alpha / am1)
    # the numerator is l2 e^(alpha r) times 1/(alpha - 1) + e^(-alpha r) -
    # alpha e^(-x) / (alpha - 1), x = (alpha - 1) r. For x >= 1 the expm1 form
    # cancels 1 against alpha / (alpha - 1) (to 0 past alpha = 1e16), and
    # the first form's second term is at most x / (e^x - 1) of its first
    x = am1 * r
    if x >= 1.0:
        log_bracket = (math.log(-math.expm1(-x) + am1 * math.exp(-x) * math.expm1(-r))
                       - math.log(am1))
    else:
        log_bracket = math.log(math.expm1(-alpha * r) - alpha * math.expm1(-x) / am1)
    log_value = math.log(l2) + alpha * r - math.log(alpha) + log_bracket
    return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


def renyi_bm_drift(mu: float) -> float:
    """Path divergence budget mu^2/2 for unit-time Brownian drift mu.

    By the Girsanov likelihood ratio the divergence between the drifted
    and driftless Wiener measures on a unit horizon equals mu^2/2 at
    every admissible order and in both argument orders. For a state
    dependent drift bounded by |mu| the same value is an upper bound, so
    it doubles as a certified budget for bounded-drift diffusions.
    """
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("drift must be finite")
    return 0.5 * mu * mu
