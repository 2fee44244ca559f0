"""Variational identities linking risk-sensitive values across orders.

For nonzero orders beta < gamma, alpha = gamma/(gamma - beta), and a
bounded g on the support of nu,

    (1/beta) log int exp(beta g) d nu
        = inf over theta of
          (1/gamma) log int exp(gamma g) d theta
          + 1/(gamma - beta) * R_alpha(nu || theta),

with the infimum attained only at d theta* propto exp(-(gamma - beta) g) d nu,
and the mirrored supremum form

    (1/gamma) log int exp(gamma g) d nu
        = sup over theta of
          (1/beta) log int exp(beta g) d theta
          - 1/(gamma - beta) * R_alpha(theta || nu),

attained only at d theta* propto exp(+(gamma - beta) g) d nu. Both sides
are certified numerically: the tilted optimizer must reproduce the left
side to tolerance, and a simplex oracle (a regular grid in low
dimension, Dirichlet sampling otherwise) must never beat it by more
than a rounding allowance. The beta -> 0 and order -> 0 limits give the
classical Kullback-Leibler dualities and the support functional, and
small helpers check those limits directly.

The oracle depends only on (dim, grid_step, oracle_samples, seed), so
its candidates and their logs are built once, as read-only arrays, and
the last such block is kept: both forms of one instance scan the same
block. A new block replaces the old one, which is dropped first. The
scan takes the block's columns in contiguous pieces of ``_PIECE``
columns, so its temporaries stay small enough for the CPU caches, and
a zero-mass candidate sends only its own piece through the masked
branch of ``logsumexp``. The tilted optimizer and nu are scored as a
separate two-column block. Each column sums its atoms in the same
order in any piece, so every certificate is bitwise the same as with
one whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import kl_discrete, renyi_discrete, renyi_log_integral_rows
from .measures import (
    FiniteMeasure,
    FunctionLike,
    OrderParams,
    aligned_values,
    exp_tilt,
    expectation,
    logsumexp,
    risk_sensitive,
)

__all__ = [
    "IdentityReport",
    "inf_identity",
    "sup_identity",
    "kl_limit_identities",
    "alpha_zero_limit_check",
]

EQUALITY_TOL = 1e-9
DOMINANCE_SLACK = 1e-9
NEAR_OPTIMAL_WINDOW = 1e-6
NEAR_OPTIMAL_DISTANCE = 0.05
# candidate columns per piece of the oracle scan
_PIECE = 1 << 14

# the last oracle block built, under its (dim, grid_step, samples, seed)
_last_block: tuple[tuple, tuple[np.ndarray, np.ndarray, str, float]] | None = None


@dataclass(frozen=True)
class IdentityReport:
    """Certificate data for one direction of the variational identity."""

    direction: str
    lhs: float
    rhs_at_optimizer: float
    optimizer: FiniteMeasure
    oracle_kind: str
    oracle_points: int
    oracle_resolution: float
    oracle_min_or_max: float
    dominance_margin: float
    near_optimal_max_distance: float

    @property
    def equality_gap(self) -> float:
        return abs(self.lhs - self.rhs_at_optimizer)

    def passes(
        self,
        equality_tol: float = EQUALITY_TOL,
        dominance_slack: float = DOMINANCE_SLACK,
        distance_tol: float = NEAR_OPTIMAL_DISTANCE,
    ) -> bool:
        return (
            self.equality_gap <= equality_tol
            and self.dominance_margin >= -dominance_slack
            and self.near_optimal_max_distance <= distance_tol
        )

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "lhs": self.lhs,
            "rhs_at_optimizer": self.rhs_at_optimizer,
            "equality_gap": self.equality_gap,
            "optimizer": {
                "labels": list(self.optimizer.labels),
                "probs": [float(p) for p in self.optimizer.probs],
            },
            "oracle": {
                "kind": self.oracle_kind,
                "points": self.oracle_points,
                "resolution": self.oracle_resolution,
                "min_or_max": self.oracle_min_or_max,
                "dominance_margin": self.dominance_margin,
                "near_optimal_max_distance": self.near_optimal_max_distance,
            },
            "passes": self.passes(),
        }


def _grid_simplex(dim: int, step: float) -> np.ndarray:
    """Grid points of the simplex as the columns of a (dim, N) array."""
    m = int(round(1.0 / step))
    # compositions of each total n <= m into k parts, one per column, totals
    # descending and lexicographic within a total; the columns summing to at
    # most n are then a suffix, and stacking the head part n - sum on top of
    # it gives the total-n block
    cols = np.zeros((0, 1), dtype=np.int64)
    for k in range(1, dim + 1):
        totals = np.arange(m, -1, -1) if k < dim else np.array([m])
        sums = cols.sum(axis=0)
        start = np.searchsorted(-sums, -totals)
        lengths = cols.shape[1] - start
        ends = np.cumsum(lengths)
        idx = np.arange(ends[-1]) - np.repeat(ends - lengths - start, lengths)
        cols = np.vstack([np.repeat(totals, lengths) - sums[idx], cols[:, idx]])
    # fancy indexing leaves cols in column-major order; the oracle reduces
    # down axis 0 fastest on a row-major array
    return np.divide(cols, m, order="C")


def _candidates(
    dim: int, grid_step: float, samples: int, seed: int
) -> tuple[np.ndarray, str, float]:
    """Oracle points as the columns of a (dim, N) array."""
    if dim <= 3:
        return _grid_simplex(dim, grid_step), "grid", grid_step
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    pts = np.ascontiguousarray(rng.dirichlet(np.ones(dim), size=int(samples)).T)
    # nominal spacing of a uniform sample of the (dim-1)-simplex
    resolution = float(samples) ** (-1.0 / (dim - 1))
    return pts, "dirichlet", resolution


def _oracle_block(
    dim: int, grid_step: float, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, str, float]:
    """The candidates, their logs (both read-only), kind and resolution.

    The block depends on these four arguments alone, so the last one
    built is kept: the infimum and supremum forms of one instance scan
    the same block. The old block is dropped before a new one is built,
    so two never coexist.
    """
    global _last_block
    key = (dim, grid_step, samples, seed)
    last = _last_block
    if last is not None and last[0] == key:
        return last[1]
    _last_block = None
    pts, kind, resolution = _candidates(dim, grid_step, samples, seed)
    with np.errstate(divide="ignore"):
        log_pts = np.log(pts)
    pts.flags.writeable = log_pts.flags.writeable = False
    block = (pts, log_pts, kind, resolution)
    _last_block = (key, block)
    return block


def _rhs_values(
    direction: str,
    log_candidates: np.ndarray,
    nu: FiniteMeasure,
    values: np.ndarray,
    params: OrderParams,
) -> np.ndarray:
    alpha = params.alpha
    span = params.span
    if direction == "infimum":
        risk = logsumexp(log_candidates + params.gamma * values[:, None], axis=0) / params.gamma
        div = renyi_log_integral_rows(nu.log_weights[:, None], log_candidates, alpha)
    else:
        risk = logsumexp(log_candidates + params.beta * values[:, None], axis=0) / params.beta
        div = renyi_log_integral_rows(log_candidates, nu.log_weights[:, None], alpha)
    denom = alpha * (alpha - 1.0)
    with np.errstate(invalid="ignore"):
        div = np.where(np.isneginf(div), math.inf, div / denom)
    if direction == "infimum":
        return risk + div / span
    return risk - div / span


def _certify(
    direction: str,
    nu: FiniteMeasure,
    g: FunctionLike,
    params: OrderParams,
    grid_step: float,
    oracle_samples: int,
    seed: int,
) -> IdentityReport:
    values = aligned_values(nu, g)
    sign = -1.0 if direction == "infimum" else 1.0
    optimizer = exp_tilt(nu, values, sign * params.span)
    if direction == "infimum":
        lhs = risk_sensitive(nu, values, params.beta)
        rhs_opt = risk_sensitive(optimizer, values, params.gamma) + (
            renyi_discrete(nu, optimizer, params.alpha) / params.span
        )
    else:
        lhs = risk_sensitive(nu, values, params.gamma)
        rhs_opt = risk_sensitive(optimizer, values, params.beta) - (
            renyi_discrete(optimizer, nu, params.alpha) / params.span
        )

    # one column per candidate; the tilted optimizer and nu itself go last
    pts, log_pts, kind, resolution = _oracle_block(nu.dim, grid_step, oracle_samples, seed)
    extra = np.column_stack([optimizer.probs, nu.probs])
    with np.errstate(divide="ignore"):
        log_extra = np.log(extra)
    n = pts.shape[1]
    # each column sums its atoms in the same order whatever block or piece
    # holds it
    rhs = np.concatenate(
        [_rhs_values(direction, log_pts[:, lo:lo + _PIECE], nu, values, params)
         for lo in range(0, n, _PIECE)]
        + [_rhs_values(direction, log_extra, nu, values, params)])

    if direction == "infimum":
        best = float(np.min(rhs))
        margin = best - lhs
        near = rhs <= lhs + NEAR_OPTIMAL_WINDOW
    else:
        best = float(np.max(rhs))
        margin = lhs - best
        near = rhs >= lhs - NEAR_OPTIMAL_WINDOW

    if np.ptp(values) == 0.0:
        # constant g: every candidate with zero divergence is optimal, so
        # the localization certificate is trivially satisfied
        max_dist = 0.0
    elif np.any(near):
        diffs = np.abs(np.hstack([pts[:, near[:n]], extra[:, near[n:]]])
                       - optimizer.probs[:, None])
        max_dist = float(np.max(diffs))
    else:
        max_dist = 0.0

    return IdentityReport(
        direction=direction,
        lhs=lhs,
        rhs_at_optimizer=rhs_opt,
        optimizer=optimizer,
        oracle_kind=kind,
        oracle_points=n + 2,
        oracle_resolution=resolution,
        oracle_min_or_max=best,
        dominance_margin=float(margin),
        near_optimal_max_distance=max_dist,
    )


def inf_identity(
    nu: FiniteMeasure,
    g: FunctionLike,
    params: OrderParams,
    *,
    grid_step: float = 1e-2,
    oracle_samples: int = 100_000,
    seed: int = 0,
) -> IdentityReport:
    """Certify the infimum form at orders (beta, gamma).

    The report carries the left side, the right side at the tilted
    optimizer, and the oracle scan statistics; report.passes() states
    whether equality, dominance, and optimizer localization all hold.
    """
    return _certify("infimum", nu, g, params, grid_step, oracle_samples, seed)


def sup_identity(
    nu: FiniteMeasure,
    g: FunctionLike,
    params: OrderParams,
    *,
    grid_step: float = 1e-2,
    oracle_samples: int = 100_000,
    seed: int = 0,
) -> IdentityReport:
    """Certify the supremum form at orders (beta, gamma)."""
    return _certify("supremum", nu, g, params, grid_step, oracle_samples, seed)


def kl_limit_identities(nu: FiniteMeasure, g: FunctionLike) -> tuple[float, float]:
    """Gaps of the two Kullback-Leibler limit dualities at their optimizers.

    The infimum form degenerates to

        int g d nu = min over theta of log int exp(g) d theta + KL(nu || theta)

    at d theta* propto exp(-g) d nu, and the supremum form to the classical

        log int exp(g) d nu = max over theta of int g d theta - KL(theta || nu)

    at d theta* propto exp(+g) d nu. Returns the two absolute gaps.
    """
    values = aligned_values(nu, g)
    t_inf = exp_tilt(nu, values, -1.0)
    lhs_inf = expectation(nu, values)
    rhs_inf = risk_sensitive(t_inf, values, 1.0) + kl_discrete(nu, t_inf)
    t_sup = exp_tilt(nu, values, +1.0)
    lhs_sup = risk_sensitive(nu, values, 1.0)
    rhs_sup = expectation(t_sup, values) - kl_discrete(t_sup, nu)
    return abs(lhs_inf - rhs_inf), abs(lhs_sup - rhs_sup)


def alpha_zero_limit_check(
    nu: FiniteMeasure, theta: FiniteMeasure, alpha: float = 1e-4
) -> tuple[float, float]:
    """Pair (alpha * R_alpha(nu || theta), -log theta(support of nu)).

    As the order tends to zero the scaled divergence converges to the
    negative log mass theta assigns to the support of nu; evaluating at
    a small positive order exhibits the limit.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("the limit check needs a small order in (0, 1)")
    value = alpha * renyi_discrete(nu, theta, alpha)
    target = -math.log(theta.mass_of(nu.support_mask()))
    return value, target
