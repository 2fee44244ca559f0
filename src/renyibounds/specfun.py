"""Scalar special functions and small numerical routines.

Everything downstream that needs erfc, log I0 or a one dimensional
minimizer goes through this module; only the quadrature nodes of the
drifted argmax transform call math.erfc directly, on finite arguments.
erfc is the standard library's, and log_erfc keeps a continued fraction
only for the far tail where that value underflows. The rest is written
here: series plus asymptotic expansion for the Bessel term, and golden
section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Bracket",
    "ConvergenceError",
    "erfc",
    "log_erfc",
    "log_bessel_i0",
    "log_bessel_i0e",
    "minimize_scalar",
]

_SQRT_PI = 1.7724538509055160273
_EPS = 2.220446049250313e-16
_FPMIN = 1e-300

# Branch point of log_erfc between log(math.erfc(x)) and the continued
# fraction. erfc(26) = 5.7e-296 is still a normal double, so below it the
# log of the stdlib value is accurate to an ulp or so; at 27 erfc is
# subnormal and its log is already off by 6.5e-10 relative.
_LOG_ERFC_SPLIT = 26.0

# Largest x*x handed to the continued fraction. Near x*x = 1e308 its 1/b
# terms go subnormal and Lentz's method stops converging, and at inf it
# never can. Past this cut erfc(x) has long underflowed to 0, and
# log erfc(x) = -x*x - log(x sqrt(pi)) + O(1/x^2) rounds to -x*x, since
# the log term (about -346) is far below half an ulp of x*x.
_ERFC_CF_MAX = 1e300


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


@dataclass(frozen=True)
class Bracket:
    """Closed search interval [lo, hi] for scalar minimization."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bracket must satisfy lo < hi, got [{self.lo}, {self.hi}]")


def _erfc_cf_factor(x: float) -> float:
    # Modified Lentz evaluation of the continued fraction h with
    # Q(1/2, x^2) = x * exp(-x^2) * h / sqrt(pi). Needs x*x well above 1.5;
    # only called with x >= _LOG_ERFC_SPLIT.
    z = x * x
    a = 0.5
    b = z + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            return h
    raise ConvergenceError("erfc continued fraction did not converge")


def erfc(x: float) -> float:
    """Complementary error function, (2/sqrt(pi)) * int_x^inf exp(-v^2) dv.

    This is math.erfc with a nan check. Against mpmath on 4001 points in
    [-6, 26] its worst relative error is 3.0e-16. Past x = 26.54 the value
    is subnormal and loses relative precision, and past about 27.23 it
    is 0; use log_erfc there. Extended reals follow the limits:
    erfc(inf) = 0 and erfc(-inf) = 2.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("erfc: nan argument")
    return math.erfc(x)


def log_erfc(x: float) -> float:
    """log(erfc(x)) without underflow for large positive x.

    Below x = 26 this is log(math.erfc(x)). From there on the continued
    fraction gives the scaled value exp(x^2) * erfc(x) directly, so the
    logarithm stays finite out to arbitrarily large arguments; it is
    -inf only once x*x overflows, and log_erfc(-inf) is log 2. Below
    |x| = 0.5, where erfc is close to 1 and its log would magnify erfc's
    rounding, it is log1p(-erf(x)) instead. Against mpmath it is within
    an ulp or two on [-0.5, 40], on both sides of each split.
    Needed by the drifted level-crossing probability, where
    exp(2*mu*K) * erfc(...) must be formed in the log domain.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("log_erfc: nan argument")
    if abs(x) < 0.5:
        return math.log1p(-math.erf(x))
    if x < _LOG_ERFC_SPLIT:
        return math.log(math.erfc(x))
    if x * x > _ERFC_CF_MAX:
        return -x * x
    return -x * x + math.log(x * _erfc_cf_factor(x) / _SQRT_PI)


def _log_i0_parts(x: float) -> tuple[float, float]:
    """log I0(x) = lead + rest for x >= 0, in the log domain throughout.

    Up to x = 15 the power series gives rest = log I0(x) and lead = 0.
    Above it the asymptotic expansion
    I0(x) ~ exp(x)/sqrt(2 pi x) * sum_k u_k, u_0 = 1,
    u_{k+1} = u_k * (2k+1)^2 / (8 (k+1) x), truncated at the smallest
    term, gives lead = x and rest = log(e^{-x} I0(x)), which never has
    x added, so it keeps its relative precision however large x is.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("log_bessel_i0: nan argument")
    if x < 0.0:
        raise ValueError("log_bessel_i0: negative argument")
    total = 1.0
    term = 1.0
    if x <= 15.0:
        q = 0.25 * x * x
        for k in range(1, 200):
            term *= q / (k * k)
            total += term
            if term < total * _EPS:
                break
        return 0.0, math.log(total)
    for k in range(0, 40):
        nxt = term * (2 * k + 1) ** 2 / (8.0 * (k + 1) * x)
        if nxt >= term or nxt < total * _EPS:
            break
        term = nxt
        total += term
    return x, -0.5 * math.log(2.0 * math.pi * x) + math.log(total)


def log_bessel_i0(x: float) -> float:
    """log I0(x) for x >= 0, in the log domain throughout.

    Power series up to x = 15, asymptotic expansion above. At the
    crossover both branches are accurate to well under 1e-10 relative,
    and the asymptotic form never exponentiates x, so arguments in the
    hundreds (large order times large rate) are safe.
    """
    lead, rest = _log_i0_parts(x)
    return lead + rest


def log_bessel_i0e(x: float) -> float:
    """log(e^{-x} I0(x)) for x >= 0, the log of the scaled Bessel term.

    Past x = 15 it is the asymptotic expansion without the x that
    log_bessel_i0 adds, so x - x never cancels; it stays within a few
    ulp of the exact value however large x is. Up to 15 it is
    log_bessel_i0(x) - x.
    """
    lead, rest = _log_i0_parts(x)
    return (lead - float(x)) + rest


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(_INVPHI)))) if h > tol else 1
    for _ in range(min(n, 400)):
        if math.isnan(fc) or math.isnan(fd):
            raise ConvergenceError("objective returned nan")
        if fc < fd:
            b, d, fd = d, c, fc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h *= _INVPHI
            d = a + _INVPHI * h
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def minimize_scalar(
    f: Callable[[float], float],
    bracket: Bracket = Bracket(1e-6, 50.0),
    tol: float = 1e-8,
    max_expansions: int = 40,
    expand_right: bool = True,
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function.

    Returns (argmin, value). The objective may return +inf inside the
    bracket. By default, if the minimizer lands against the right edge
    the bracket is expanded (hi grows fourfold) and the search restarts,
    so rate optimizations whose natural scale exceeds the default
    interval are still found; ConvergenceError is raised if expansion
    never frees the minimizer from the edge. With expand_right=False the
    bracket is treated as a hard constraint and an edge minimum is a
    valid answer.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = bracket.lo, bracket.hi
    if not expand_right:
        return _golden(f, lo, hi, tol)
    for _ in range(max_expansions):
        xm, fm = _golden(f, lo, hi, tol)
        if xm < hi - 10.0 * tol:
            return xm, fm
        hi = lo + 4.0 * (hi - lo)
    raise ConvergenceError("minimizer pinned to the right bracket edge after expansion")
