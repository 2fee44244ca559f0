"""Brownian motion studies: level exceedance and the argmax-time transform.

Two rare-event style quantities for a Brownian path on [0, horizon]
drive the figure data. The first is the running-maximum exceedance
event {max_s B_s >= level}, whose probability is known in closed form
under both the driftless nominal model and a constant-drift
alternative, so two-sided bounds computed from the nominal probability
and a Girsanov divergence budget can be compared against exact values.
The second is the Laplace transform E exp(-gamma H) of the time H at
which the path attains its maximum; under the nominal model H follows
the arcsine law and the transform is a Bessel expression, while under
a drifted model Shepp's density of H, a product of two independent
max-split factors, is integrated by Gauss-Legendre quadrature in the
arcsine angle s = t sin^2(theta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..bounds import BoundResult, event_bounds, rs_lower, rs_upper
from ..divergences import DivergenceBudget, check_alpha, check_upper_alpha, renyi_bm_drift
from ..specfun import ConvergenceError, erfc, log_bessel_i0, log_bessel_i0e, log_erfc

__all__ = [
    "BrownianModel",
    "FigureRow",
    "bm_exceedance_nominal",
    "bm_exceedance_drift",
    "log_bm_exceedance_drift",
    "bm_bound_curves",
    "laplace_h_wiener",
    "laplace_h_drift",
    "laplace_h_bounds",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

# Gauss-Legendre nodes per panel of the first sum, the cap on doubling
# them, and the relative agreement of two sums that ends the doubling.
_GL_FIRST_NODES = 32
_GL_MAX_NODES = 1024
_GL_REL_TOL = 1e-12


def _require(message: str, positive: Sequence[float] = (), finite: Sequence[float] = ()) -> None:
    """Raise ValueError(message) unless every value in positive is > 0
    and every value in finite is finite; nan fails either check."""
    if not (all(v > 0.0 for v in positive) and all(math.isfinite(v) for v in finite)):
        raise ValueError(message)


@dataclass(frozen=True)
class BrownianModel:
    """Exceedance level, constant alternative drift and time horizon."""

    level: float
    drift: float
    horizon: float = 1.0

    def __post_init__(self) -> None:
        k, m, t = float(self.level), float(self.drift), float(self.horizon)
        _require("level must be positive and finite", positive=(k,), finite=(k,))
        _require("drift must be finite", finite=(m,))
        _require("horizon must be positive and finite", positive=(t,), finite=(t,))
        object.__setattr__(self, "level", k)
        object.__setattr__(self, "drift", m)
        object.__setattr__(self, "horizon", t)

    def divergence_budget(self) -> DivergenceBudget:
        """Pathwise budget mu^2 t / 2, valid at every order and in both
        argument orders by the Girsanov likelihood ratio."""
        d = renyi_bm_drift(self.drift) * self.horizon
        return DivergenceBudget(d1=d, d2=d)


@dataclass(frozen=True)
class FigureRow:
    alpha: float
    lower: float
    upper: float
    exact: float
    scale: str


_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def bm_exceedance_nominal(level: float, horizon: float = 1.0) -> float:
    """P(max_{s <= t} B_s >= level) = erfc(level / sqrt(2 t)) for a
    driftless Brownian motion, by the reflection principle."""
    k, t = float(level), float(horizon)
    _require("level and horizon must be positive", positive=(k, t))
    return erfc(k / math.sqrt(2.0 * t))


def _log_drift_terms(level: float, mu: float, horizon: float) -> tuple[float, float]:
    k, t = float(level), float(horizon)
    _require("level and horizon must be positive", positive=(k, t))
    if k == math.inf:
        # no path reaches an infinite level; there 2 mu K is nan at mu = 0
        # and +inf above, against the second erfc's -inf
        return -math.inf, -math.inf
    root = math.sqrt(2.0 * t)
    log_half = math.log(0.5)
    first = log_half + log_erfc((k - mu * t) / root)
    z = (k + mu * t) / root
    second = log_half + 2.0 * mu * k + log_erfc(z)
    if not math.isfinite(second) and z > 0.0:
        # 2 mu K and z^2 >= 2 mu K overflow together, to inf - inf at mu = inf.
        # Out there erfc(z) = e^{-z^2} / (z sqrt(pi)) to double precision,
        # and 2 mu K - z^2 is the combined exponent -(K - mu t)^2 / (2t).
        gap = k - mu * t
        second = log_half - 0.5 * (gap * gap / t) - math.log(z) - _LOG_SQRT_PI
    return first, second


def bm_exceedance_drift(level: float, mu: float, horizon: float = 1.0) -> float:
    """Exceedance probability under constant drift mu,

        (1/2) erfc((K - mu t)/sqrt(2t))
            + (1/2) e^{2 mu K} erfc((K + mu t)/sqrt(2t)),

    with the second term assembled in the log domain so the exponential
    prefactor cannot overflow against a tiny tail value.
    """
    first, second = _log_drift_terms(level, mu, horizon)
    return math.exp(first) + math.exp(second)


def log_bm_exceedance_drift(level: float, mu: float, horizon: float = 1.0) -> float:
    """Log of the constant-drift exceedance probability."""
    first, second = _log_drift_terms(level, mu, horizon)
    return float(np.logaddexp(first, second))


def bm_bound_curves(
    model: BrownianModel,
    alphas: Iterable[float],
    scale: str = "probability",
) -> list[FigureRow]:
    """Two-sided bound rows over a grid of orders, with the exact
    drifted probability alongside for comparison.

    Every order must exceed 1; below order 2 the lower side is vacuous
    (0 on the probability scale, -inf on the log scale). On the log
    scale the exact column is (1/(alpha-1)) log Q(A), the quantity the
    log-scale bounds sandwich.
    """
    p = bm_exceedance_nominal(model.level, model.horizon)
    log_q = log_bm_exceedance_drift(model.level, model.drift, model.horizon)
    budget = model.divergence_budget()
    rows = []
    for alpha in alphas:
        res = event_bounds(p, budget, float(alpha), scale=scale)
        if scale == "log":
            exact = log_q / (res.alpha - 1.0)
        else:
            exact = math.exp(log_q)
        rows.append(FigureRow(alpha=res.alpha, lower=res.lower, upper=res.upper,
                              exact=exact, scale=scale))
    return rows


def _log_laplace_h_wiener(gamma: float, horizon: float) -> float:
    # H is arcsine on [0, t]; E e^{-gamma H} = e^{-gamma t/2} I0(gamma t/2),
    # and evenness of I0 extends the expression to negative gamma.
    x = 0.5 * gamma * horizon
    if x >= 0.0:
        return log_bessel_i0e(x)
    return -x + log_bessel_i0(-x)


def laplace_h_wiener(gamma: float, horizon: float = 1.0) -> float:
    """E exp(-gamma H) for the argmax time H of a driftless Brownian
    motion on [0, horizon]; +inf past the float range."""
    g, t = float(gamma), float(horizon)
    _require("gamma must be finite and the horizon positive", positive=(t,), finite=(g, t))
    return _exp(_log_laplace_h_wiener(g, t))


def _exp(x: float) -> float:
    """e^x, with +inf instead of OverflowError past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Newton's iteration on the three-term recurrence of the Legendre
    polynomial P_n, from the guesses cos(pi (k - 1/4) / (n + 1/2)), finds
    the n/2 positive roots; the weight at a root x is
    2 / ((1 - x^2) P_n'(x)^2) and the rule is symmetric about 0.
    """
    x = np.cos(np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    for _ in range(20):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return tuple(np.concatenate([x, -x]).tolist()), tuple(np.concatenate([w, w]).tolist())


def _split_factor(mu: float, r: float) -> float:
    """A_mu(r) = e^{-mu^2 r^2 / 2} / sqrt(pi) + (mu / sqrt 2) r erfc(-mu r / sqrt 2).

    This is r a_mu(r^2), where a_mu(s) is Shepp's density factor of the
    path before its maximum at time s; the arguments are finite, so
    math.erfc is called directly.
    """
    x = mu * r / _SQRT2
    return math.exp(-x * x) / _SQRT_PI + x * math.erfc(-x)


def _angle_panel(gt: float, root_t: float, mu: float, lo: float, hi: float, n: int) -> float:
    """n-point Gauss-Legendre sum of e^{-gamma t sin^2} A_mu(sqrt(t) sin)
    A_{-mu}(sqrt(t) cos) over [lo, hi], with gt = gamma t."""
    nodes, weights = _gauss_legendre(n)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    total = 0.0
    for x, w in zip(nodes, weights):
        s = math.sin(mid + half * x)
        c = math.cos(mid + half * x)
        total += (w * math.exp(-gt * s * s)
                  * _split_factor(mu, root_t * s) * _split_factor(-mu, root_t * c))
    return half * total


def laplace_h_drift(gamma: float, horizon: float, mu: float) -> float:
    """E exp(-gamma H) for the argmax time of Brownian motion with
    constant drift mu, by Gauss-Legendre quadrature in the arcsine angle.

    The path before its maximum and the reversed path after it are
    independent (Shepp 1979), so H has the density a_mu(s) a_{-mu}(t - s)
    on [0, t], with a_mu(s) = e^{-mu^2 s/2} / sqrt(pi s)
    + (mu / sqrt 2) erfc(-mu sqrt(s) / sqrt 2). With s = t sin^2(theta),

        E e^{-gamma H} = 2 int_0^{pi/2} e^{-gamma t sin^2 theta}
                         A_mu(sqrt(t) sin theta) A_{-mu}(sqrt(t) cos theta) dtheta,

    A_mu(r) = r a_mu(r^2), an entire and bounded integrand. Negative gamma
    goes through time reversal, E_mu e^{-gamma H} = e^{-gamma t}
    E_{-mu} e^{gamma H}, so the weight never exceeds 1, and the result
    is +inf past the float range. The angle range is split at
    asin(min(1/sqrt 2, 8/sqrt(gamma t))), so the first panel holds the
    peak of the weight. Nodes per panel double from 32 until two sums
    agree to 1e-12 relative; ConvergenceError past 1024.

    Against mpmath it is within 1.0e-13 relative for gamma from -300 to
    1e15, |mu| <= 5 and t in [0.25, 4], and within 2.5e-14 where
    |mu| sqrt(t) <= 5. The worst digits are lost to the cancellation
    e^{-x^2}/sqrt(pi) - x erfc(x) in A_{-mu} at mu sqrt(t) = 10.
    At mu = 0 the value agrees with laplace_h_wiener; at gamma = 0 it is
    the total mass of the argmax density, 1.
    """
    g, t, m = float(gamma), float(horizon), float(mu)
    _require("gamma and mu must be finite and the horizon positive",
             positive=(t,), finite=(g, m, t))
    log_scale = 0.0
    if g < 0.0:
        log_scale, g, m = -g * t, -g, -m
    gt = g * t
    cut = math.asin(8.0 / math.sqrt(gt)) if gt > 128.0 else 0.25 * math.pi
    root_t = math.sqrt(t)
    n, prev = _GL_FIRST_NODES, None
    while n <= _GL_MAX_NODES:
        total = 2.0 * (_angle_panel(gt, root_t, m, 0.0, cut, n)
                       + _angle_panel(gt, root_t, m, cut, 0.5 * math.pi, n))
        if prev is not None and total != 0.0 and abs(total - prev) <= _GL_REL_TOL * abs(total):
            return _exp(log_scale + math.log(total)) if log_scale else total
        n, prev = 2 * n, total
    raise ConvergenceError("argmax transform quadrature did not reach its tolerance")


def laplace_h_bounds(
    gamma: float,
    horizon: float,
    alpha: float,
    mu: float,
) -> BoundResult:
    """Log-scale sandwich for the drifted argmax transform.

    Bounds (1/(alpha-1)) log E_drift exp(-(alpha-1) gamma H) from the
    nominal arcsine transform and the Girsanov budget mu^2 t / 2:

        upper = (1/alpha) log E_0 e^{-alpha gamma H} + mu^2 t / 2,
        lower = (1/(alpha-2)) log E_0 e^{-(alpha-2) gamma H} - mu^2 t / 2,

    the lower side requiring alpha > 2 and reported as -inf otherwise.
    """
    g, t, m = float(gamma), float(horizon), float(mu)
    alpha = check_alpha(check_upper_alpha(alpha))
    _require("gamma and mu must be finite and the horizon positive",
             positive=(t,), finite=(g, m, t))
    d = renyi_bm_drift(m) * t
    budget = DivergenceBudget(d1=d, d2=d)
    upper = rs_upper(_log_laplace_h_wiener(alpha * g, t) / alpha, d, alpha)
    if alpha > 2.0:
        lower = rs_lower(_log_laplace_h_wiener((alpha - 2.0) * g, t) / (alpha - 2.0), d, alpha)
    else:
        lower = -math.inf
    return BoundResult(alpha=alpha, lower=lower, upper=upper, scale="log", budget=budget)
