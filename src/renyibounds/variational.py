"""Variational identities linking risk-sensitive values across orders.

For nonzero orders beta < gamma, alpha = gamma/(gamma - beta), and a
bounded g on the support of nu,

    (1/beta) log int exp(beta g) d nu
        = inf over theta of
          (1/gamma) log int exp(gamma g) d theta
          + 1/(gamma - beta) * R_alpha(nu || theta),

with the infimum attained only at d theta* propto exp(-(gamma - beta) g) d nu.
The supremum form

    (1/gamma) log int exp(gamma g) d nu
        = sup over theta of
          (1/beta) log int exp(beta g) d theta
          - 1/(gamma - beta) * R_alpha(theta || nu)

is this infimum mirrored: at orders (-gamma, -beta) and payoff -g the
span is the same and the order is 1 - alpha, and under the
1/(alpha (alpha - 1)) normalization R_(1 - alpha)(nu || theta) =
R_alpha(theta || nu). So the supremum at (beta, gamma, g) is minus the
infimum at (-gamma, -beta, -g), attained at the same optimizer d theta*
propto exp(+(gamma - beta) g) d nu, and only the infimum is certified.
The certificate is numerical: the tilted optimizer must reproduce the
left side to tolerance, and a simplex oracle (a regular grid in low
dimension, Dirichlet sampling otherwise) must never beat it by more
than a rounding allowance. The beta -> 0 and order -> 0 limits give the
classical Kullback-Leibler dualities and the support functional.

The oracle depends only on (dim, grid_step, oracle_samples, seed), so
its candidates, their logs and their floor (-log of the smallest
positive coordinate: log m on the grid of step 1/m, looked up once on a
sample) are built once, as read-only arrays, and the last such block is
kept: both forms of one instance scan the same block. A new block is
written over the old one, in memory the module holds: one buffer for
the candidates, one for their logs and one draw piece, each grown only
when a block larger than any before it comes. So the process keeps the
memory of the largest block certified so far, as much as it held while
certifying that block, and a warm certificate faults in no fresh pages.
One lock covers building a block and scanning it, so no caller's block
is overwritten under its scan. Callers on threads take turns: separate
slots would hold one block per thread, for a scan that a second thread
speeds up little or not at all. The grid is built part by part, each
stage the size of its output, and written into its buffer row by row.
The sample is unit exponentials scaled by their sums, as numpy's
``dirichlet`` draws it, drawn ``_PIECE`` rows at a time from one stream
(consecutive draws concatenate bitwise); each piece is transposed,
scaled and logged while it is in cache.

The scan takes the block's columns in contiguous pieces of ``_PIECE``
columns, so its temporaries stay cache-sized. On a finite support both
integrals are weighted sums over the atoms, and the scan sums them as
such where a range check admits it. The risk term is s + log sum_i
theta_i exp(gamma g_i - s) and the divergence's log-integral t + log
sum_i c_i theta_i^(1 - alpha), with s = max gamma g_i, t = max alpha
log nu_i and c_i = exp(alpha log nu_i - t). The check is made once per
certificate: nu has no zero atom, and |gamma| ptp(g), |alpha| ptp(log
nu) and max(1, |1 - alpha|) times the floor of the block and of the
optimizer and nu are each at most ``_RANGE`` = 300.
Then every nonzero term lies in [e^-600, e^300], so each sum is a
normal double with relative error at most dim eps, and a zero
coordinate gives the 0 or inf of the log-sum-exp conventions. The atoms
are added one row at a time, in order, by numpy ufuncs and never by
BLAS, whose kernels and threads vary by machine. These objectives agree
with the log-sum-exp ones to a few ulps of their exponents.

Every other certificate (a zero atom in nu, a far atom, or a payoff
spread too wide for its order) takes the log-sum-exp scan: each
exponent array is made once and shifted in place, and a zero-mass
candidate sends only its own piece through the masked branch
of ``logsumexp``. On either scan the tilted optimizer and nu are scored
as a separate two-column block, and each column sums its atoms in the
same order in any piece, so every certificate is bitwise the same as
with one whole block.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .divergences import renyi_discrete, renyi_log_integral_rows
from .measures import (
    FiniteMeasure,
    FunctionLike,
    OrderParams,
    _logsumexp,
    aligned_values,
    exp_tilt,
    risk_sensitive,
)

__all__ = [
    "IdentityReport",
    "inf_identity",
    "sup_identity",
]

EQUALITY_TOL = 1e-9
DOMINANCE_SLACK = 1e-9
NEAR_OPTIMAL_WINDOW = 1e-6
NEAR_OPTIMAL_DISTANCE = 0.05
# candidate columns per piece of the oracle scan, and rows per Dirichlet draw
_PIECE = 1 << 14
# bound on each log-scale of the atom-weighted scan (see the module docstring)
_RANGE = 300.0

# the last oracle block built, under its (dim, grid_step, samples, seed)
_last_block: tuple[tuple, tuple[np.ndarray, np.ndarray, str, float, float]] | None = None
# the memory every block is written into
_held = {"points": np.empty(0), "logs": np.empty(0), "draws": np.empty(0)}
# held by each caller from building its block to the end of its scan
_block_lock = threading.Lock()


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


def _grid_simplex(
    dim: int, step: float, empty: Callable[[tuple[int, int]], np.ndarray] = np.empty
) -> np.ndarray:
    """Grid points of the simplex as the columns of a (dim, N) array.

    The points are written row by row into the array empty((dim, N)).
    """
    m = int(round(1.0 / step))
    # the first dim - 1 parts, one prefix per column in lexicographic order:
    # each stage extends every prefix by each next part that keeps its sum
    # <= m, and the last part is m - sum
    rows, sums = [], np.zeros(1, dtype=np.int64)
    for _ in range(dim - 1):
        lengths = m + 1 - sums
        ends = np.cumsum(lengths)
        nxt = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
        rows = [np.repeat(r, lengths) for r in rows] + [nxt]
        sums = np.repeat(sums, lengths) + nxt
    out = empty((dim, sums.size))
    for i, row in enumerate(rows + [np.subtract(m, sums, out=sums)]):
        np.divide(row, m, out=out[i])
    return out


def _held_array(name: str, shape: tuple[int, int]) -> np.ndarray:
    """A C-contiguous view of the named held buffer, grown only when too small."""
    size = shape[0] * shape[1]
    if _held[name].size < size:
        # the old buffer goes before the new one comes, so two never coexist
        _held[name] = np.empty(0)
        _held[name] = np.empty(size)
    return _held[name][:size].reshape(shape)


def _log_floor(pts: np.ndarray) -> float:
    """-log of the smallest positive coordinate."""
    low = float(np.min(pts))
    if low == 0.0:
        low = float(np.min(pts, where=pts > 0.0, initial=1.0))
    return -math.log(low)


def _candidates(
    dim: int, grid_step: float, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, str, float, float]:
    """The oracle points and their logs as (dim, N) arrays, kind, resolution
    and floor, written over the held memory.

    The kept block is dropped first, since its arrays are overwritten.
    From dim 4 on the points are a uniform (flat Dirichlet) sample: unit
    exponentials in numpy's ``dirichlet`` draw order, each row summed
    atom by atom and scaled by the reciprocal of its sum. That is how
    numpy's ``dirichlet`` normalizes the unit-parameter gammas it draws as
    exponentials, so the bits are those of ``rng.dirichlet(np.ones(dim))``
    for as long as numpy keeps that algorithm for parameters 1.
    """
    global _last_block
    _last_block = None
    if dim <= 3:
        pts = _grid_simplex(dim, grid_step, partial(_held_array, "points"))
        log_pts = _held_array("logs", pts.shape)
        with np.errstate(divide="ignore"):
            np.log(pts, out=log_pts)
        return pts, log_pts, "grid", grid_step, math.log(round(1.0 / grid_step))
    n = int(samples)
    pts, log_pts = _held_array("points", (dim, n)), _held_array("logs", (dim, n))
    draws = _held_array("draws", (min(_PIECE, n), dim))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    low = math.inf
    for lo in range(0, n, _PIECE):
        cols = pts[:, lo:lo + _PIECE]
        piece = draws[:cols.shape[1]]
        np.copyto(cols, rng.standard_exponential(out=piece).T)
        # the draws are copied out, so their memory takes the row sums
        scale = np.sum(cols, axis=0, out=piece.reshape(-1)[:cols.shape[1]])
        cols *= np.divide(1.0, scale, out=scale)
        with np.errstate(divide="ignore"):
            np.log(cols, out=log_pts[:, lo:lo + _PIECE])
        low = min(low, float(np.min(cols)))
    floor = -math.log(low) if low > 0.0 else _log_floor(pts)
    # nominal spacing of a uniform sample of the (dim-1)-simplex
    resolution = float(samples) ** (-1.0 / (dim - 1))
    return pts, log_pts, "dirichlet", resolution, floor


def _oracle_block(
    dim: int, grid_step: float, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, str, float, float]:
    """The candidates, their logs (both read-only), kind, resolution and floor.

    The floor is -log of the smallest positive coordinate: log m on the
    grid of step 1/m, looked up once on a sample. The block depends on
    these four arguments alone, so the last one built is kept: the
    infimum and supremum forms of one instance scan the same block. A new
    block is written over the old one, so two never coexist, and a
    caller holds _block_lock for as long as it reads the block.
    """
    global _last_block
    key = (dim, grid_step, samples, seed)
    last = _last_block
    if last is not None and last[0] == key:
        return last[1]
    pts, log_pts, kind, resolution, floor = _candidates(*key)
    pts.flags.writeable = log_pts.flags.writeable = False
    block = (pts, log_pts, kind, resolution, floor)
    _last_block = (key, block)
    return block


def _atom_sums(
    nu: FiniteMeasure, values: np.ndarray, params: OrderParams, floor: float
) -> tuple | None:
    """(gamma, s, exp(gamma g - s), 1 - alpha, t, exp(alpha log nu - t)) for
    the atom-weighted scan, or None where the range check of the module
    docstring fails."""
    gamma, alpha, log_nu = params.gamma, params.alpha, nu.log_weights
    if (np.isneginf(log_nu).any()
            or abs(gamma) * np.ptp(values) > _RANGE
            or abs(alpha) * np.ptp(log_nu) > _RANGE
            or max(1.0, abs(1.0 - alpha)) * floor > _RANGE):
        return None
    risk_exp, div_exp = gamma * values, alpha * log_nu
    s, t = float(np.max(risk_exp)), float(np.max(div_exp))
    return gamma, s, np.exp(risk_exp - s), 1.0 - alpha, t, np.exp(div_exp - t)


def _atom_weighted(
    candidates: np.ndarray, log_candidates: np.ndarray, sums: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The risk term and the divergence's log-integral as atom-weighted sums.

    The atoms are added one row at a time, in order. A zero coordinate
    adds 0 to the risk sum, and 0^e is 0 for e > 0 and inf for e < 0,
    the values the log-sum-exp conventions give.
    """
    order, s, risk_w, e, t, div_w = sums
    term = np.empty(candidates.shape[1])
    risk = np.multiply(candidates[0], risk_w[0])
    div = np.multiply(log_candidates[0], e)
    np.exp(div, out=div)
    div *= div_w[0]
    for i in range(1, candidates.shape[0]):
        risk += np.multiply(candidates[i], risk_w[i], out=term)
        np.multiply(log_candidates[i], e, out=term)
        np.exp(term, out=term)
        term *= div_w[i]
        div += term
    np.log(risk, out=risk)
    risk += s
    risk /= order
    np.log(div, out=div)
    div += t
    return risk, div


def _rhs_values(
    candidates: np.ndarray,
    log_candidates: np.ndarray,
    nu: FiniteMeasure,
    values: np.ndarray,
    params: OrderParams,
    sums: tuple | None = None,
) -> np.ndarray:
    """The infimum's objective at each column of candidates and of their logs.

    Without sums both log-integrals are log-sum-exps over the logs; with
    the weights of _atom_sums they are atom-weighted sums.
    """
    alpha = params.alpha
    if sums is None:
        div = renyi_log_integral_rows(nu.log_weights[:, None], log_candidates, alpha)
        # one exponent array at a time, each shifted in place by the log-sum-exp
        risk = log_candidates + params.gamma * values[:, None]
        risk = _logsumexp(risk, 0, out=risk) / params.gamma
        with np.errstate(invalid="ignore"):
            div = np.where(np.isneginf(div), math.inf, div / (alpha * (alpha - 1.0)))
    else:
        risk, div = _atom_weighted(candidates, log_candidates, sums)
        # each sum is at least exp(-2 _RANGE), so div is never -inf
        div /= alpha * (alpha - 1.0)
    return risk + div / params.span


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
    grid_step must be finite and positive with round(1/grid_step) >= 1,
    and oracle_samples an integer >= 1, whatever the dimension.
    """
    # nan, inf, zero, negative and too coarse steps all give round(1/step) < 1
    parts = 1.0 / grid_step if grid_step > 0.0 else 0.0
    if not (math.isfinite(parts) and round(parts) >= 1):
        raise ValueError(f"grid_step must be finite, positive and round(1/grid_step) >= 1: "
                         f"got {grid_step!r}")
    if not (isinstance(oracle_samples, numbers.Integral) and oracle_samples >= 1):
        raise ValueError(f"oracle_samples must be an integer >= 1: got {oracle_samples!r}")
    values = aligned_values(nu, g)
    optimizer = exp_tilt(nu, values, -params.span)
    lhs = risk_sensitive(nu, values, params.beta)
    rhs_opt = risk_sensitive(optimizer, values, params.gamma) + (
        renyi_discrete(nu, optimizer, params.alpha) / params.span
    )

    # one column per candidate; the tilted optimizer and nu itself go last
    extra = np.column_stack([optimizer.probs, nu.probs])
    with np.errstate(divide="ignore"):
        log_extra = np.log(extra)
    extra_floor = _log_floor(extra)
    with _block_lock:
        pts, log_pts, kind, resolution, floor = _oracle_block(
            nu.dim, grid_step, oracle_samples, seed)
        sums = _atom_sums(nu, values, params, max(floor, extra_floor))
        n = pts.shape[1]
        # each column sums its atoms in the same order whatever block or piece
        # holds it
        rhs = np.concatenate(
            [_rhs_values(pts[:, lo:lo + _PIECE], log_pts[:, lo:lo + _PIECE],
                         nu, values, params, sums)
             for lo in range(0, n, _PIECE)]
            + [_rhs_values(extra, log_extra, nu, values, params, sums)])
        best = float(np.min(rhs))
        near = rhs <= lhs + NEAR_OPTIMAL_WINDOW

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
        direction="infimum",
        lhs=lhs,
        rhs_at_optimizer=rhs_opt,
        optimizer=optimizer,
        oracle_kind=kind,
        oracle_points=n + 2,
        oracle_resolution=resolution,
        oracle_min_or_max=best,
        dominance_margin=float(best - lhs),
        near_optimal_max_distance=max_dist,
    )


def sup_identity(
    nu: FiniteMeasure,
    g: FunctionLike,
    params: OrderParams,
    *,
    grid_step: float = 1e-2,
    oracle_samples: int = 100_000,
    seed: int = 0,
) -> IdentityReport:
    """Certify the supremum form at orders (beta, gamma).

    The supremum at (beta, gamma, g) is minus the infimum at
    (-gamma, -beta, -g), attained at the same optimizer, so this is the
    certificate of that mirrored infimum with lhs, the right side at the
    optimizer and the oracle's extreme negated. Its dominance margin,
    near-optimal distance, optimizer and oracle statistics carry over
    unchanged.
    """
    mirror = inf_identity(nu, -aligned_values(nu, g), OrderParams(-params.gamma, -params.beta),
                          grid_step=grid_step, oracle_samples=oracle_samples, seed=seed)
    return replace(mirror, direction="supremum", lhs=-mirror.lhs,
                   rhs_at_optimizer=-mirror.rhs_at_optimizer,
                   oracle_min_or_max=-mirror.oracle_min_or_max)
