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
a drifted model it is evaluated by convolving the two independent
max-split kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..bounds import BoundResult, event_bounds, rs_lower, rs_upper
from ..divergences import DivergenceBudget, renyi_bm_drift
from ..specfun import convolve_at, erfc, log_bessel_i0, log_erfc

__all__ = [
    "BrownianModel",
    "FigureRow",
    "bm_exceedance_nominal",
    "log_bm_exceedance_nominal",
    "bm_exceedance_drift",
    "log_bm_exceedance_drift",
    "bm_bound_curves",
    "laplace_h_wiener",
    "laplace_h_drift",
    "laplace_h_bounds",
]


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


def bm_exceedance_nominal(level: float, horizon: float = 1.0) -> float:
    """P(max_{s <= t} B_s >= level) = erfc(level / sqrt(2 t)) for a
    driftless Brownian motion, by the reflection principle."""
    k, t = float(level), float(horizon)
    _require("level and horizon must be positive", positive=(k, t))
    return erfc(k / math.sqrt(2.0 * t))


def log_bm_exceedance_nominal(level: float, horizon: float = 1.0) -> float:
    """Log of the driftless exceedance probability; safe for levels far
    into the tail where the probability itself underflows."""
    k, t = float(level), float(horizon)
    _require("level and horizon must be positive", positive=(k, t))
    return log_erfc(k / math.sqrt(2.0 * t))


def _log_drift_terms(level: float, mu: float, horizon: float) -> tuple[float, float]:
    k, t = float(level), float(horizon)
    _require("level and horizon must be positive", positive=(k, t))
    root = math.sqrt(2.0 * t)
    log_half = math.log(0.5)
    first = log_half + log_erfc((k - mu * t) / root)
    second = log_half + 2.0 * mu * k + log_erfc((k + mu * t) / root)
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
    return -x + log_bessel_i0(abs(x))


def laplace_h_wiener(gamma: float, horizon: float = 1.0) -> float:
    """E exp(-gamma H) for the argmax time H of a driftless Brownian
    motion on [0, horizon]."""
    g, t = float(gamma), float(horizon)
    _require("gamma must be finite and the horizon positive", positive=(t,), finite=(g, t))
    return math.exp(_log_laplace_h_wiener(g, t))


def _max_split_kernel(mu: float) -> Callable[[float], float]:
    """Density factor for the argmax split at drift mu.

    The path before its maximum and the reversed path after it are
    independent, each contributing the factor

        a_mu(s) = e^{-mu^2 s / 2} / sqrt(pi s)
                + (mu / sqrt(2)) erfc(-mu sqrt(s) / sqrt(2)),

    so the argmax time density at drift mu is a_mu(s) a_{-mu}(t - s).
    The 1/sqrt(s) singularity at zero is integrable and is handled by
    the substitution inside convolve_at.
    """
    half_mu_sq = 0.5 * mu * mu
    scaled = mu / math.sqrt(2.0)

    def a(s: float) -> float:
        return math.exp(-half_mu_sq * s) / math.sqrt(math.pi * s) + scaled * erfc(
            -scaled * math.sqrt(s)
        )

    return a


def laplace_h_drift(
    gamma: float,
    horizon: float,
    mu: float,
    rel_tol: float = 1e-8,
    panels: int = 256,
) -> float:
    """E exp(-gamma H) for the argmax time of Brownian motion with
    constant drift mu, by numerical convolution of the split kernels.

    At mu = 0 both kernels collapse to the arcsine factors and the
    value agrees with laplace_h_wiener; at gamma = 0 the integral is
    the total mass of the argmax density, which is 1.
    """
    g, t, m = float(gamma), float(horizon), float(mu)
    _require("gamma and mu must be finite and the horizon positive",
             positive=(t,), finite=(g, m, t))
    before = _max_split_kernel(m)
    after = _max_split_kernel(-m)

    def f(s: float) -> float:
        return math.exp(-g * s) * before(s)

    res = convolve_at(f, after, t, panels=panels, rel_tol=rel_tol)
    return float(res.value)


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
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError("the upper bound needs alpha > 1")
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
