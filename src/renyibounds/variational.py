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
dimension, a randomly shifted lattice otherwise) must never beat it by
more than a rounding allowance. The beta -> 0 and order -> 0 limits
give the classical Kullback-Leibler dualities and the support functional.

The oracle depends only on (dim, grid_step, oracle_samples, seed), so
its candidates and their floor (-log of the smallest positive
coordinate: log m on the grid of step 1/m, looked up once on the
lattice) are built once, as a read-only array, and the last such block
is kept: both forms of one instance scan the same block. A block is the
points alone; the scan takes the logs it needs a piece at a time. A new
block is written over the old one, in memory the module holds: one
buffer for the candidates, grown only when a block larger than any
before it comes, and one piece of scratch. So the process keeps the
memory of the largest block certified so far, as much as it held while
certifying that block, and a warm certificate faults in no fresh pages.
One lock covers building a block and scanning it, so no caller's block
is overwritten under its scan. Callers on threads take turns: separate
slots would hold one block per thread, for a scan that a second thread
speeds up little or not at all. The grid is built part by part, and
its last stage is written into the buffer as exact-integer floats a
piece at a time and divided in place, so no temporary is longer than a
piece. From dim 4 on the candidates are a Kronecker lattice in the
unit cube under one random shift (Cranley & Patterson 1976), mapped
onto the simplex by exponential spacings: the seed picks the shift, and
no point takes a random draw. The lattice is built ``_PIECE`` points at
a time in uint64 fixed point, its uniforms staged in the scratch, and
each piece is scaled while it is in cache.

A certificate allocates nothing block-sized beyond the held points: the
scan takes the columns in contiguous pieces of ``_PIECE`` columns, so
its temporaries stay cache-sized, and reduces each piece as it goes to
two numbers, its least objective and the largest L-inf distance from
the optimizer of its columns within ``NEAR_OPTIMAL_WINDOW`` of lhs. Min
and max do not depend on the order of the pieces, and numpy's minimum
keeps a nan, so the report is that of one whole scan. The tilted optimizer
and nu go first, through the same path with nothing pruned. The block's
pieces are pruned. R_alpha >= 0 under the 1/(alpha (alpha - 1))
normalization and the span is positive, so a candidate's objective is
at least its risk term. Each piece takes the risk term of every column,
and the divergence term only at the columns whose risk term is at most
a bound: the larger of the least objective of the optimizer and nu and
lhs + ``NEAR_OPTIMAL_WINDOW``, plus a rounding allowance
(``_prune_bound``) that covers how far below 0 a computed divergence
term can fall. A dropped column's objective is above both, so it is
neither the minimum nor in the near set, and a bound that is nan or inf
keeps every column. A kept column goes through the same elementwise
arithmetic as in a full scan, so every certificate is bitwise the same
as an unpruned one.

On a finite support both integrals are weighted sums over the atoms,
and the scan sums them as such where a range check admits it. The risk
term is s + log sum_i theta_i exp(gamma g_i - s) and the divergence's
log-integral t + log sum_i c_i theta_i^(1 - alpha), with s = max gamma
g_i, t = max alpha log nu_i and c_i = exp(alpha log nu_i - t). The
check is made once per certificate: nu has no zero atom, and |gamma|
ptp(g), |alpha| ptp(log nu) and max(1, |1 - alpha|) times the floor of
the block and of the optimizer and nu are each at most ``_RANGE`` = 300.
Then every nonzero term lies in [e^-600, e^300], so each sum is a
normal double with relative error at most dim eps, and a zero
coordinate gives the 0 or inf of the log-sum-exp conventions. The atoms
are added one row at a time, in order, by numpy ufuncs and never by
BLAS, whose kernels and threads vary by machine. These objectives agree
with the log-sum-exp ones to a few ulps of their exponents. The risk
sum needs the points alone, so the prune compares it with exp of the
bound, widened for the rounding of the log (``_risk_sum_limit``), and
only the kept sums and points are logged.

Every other certificate (a zero atom in nu, a far atom, or a payoff
spread too wide for its order) takes the log-sum-exp scan: a piece is
logged whole, each exponent array is made once and shifted in place,
and a zero-mass candidate sends only its own piece through the masked
branch of ``logsumexp``. A zero coordinate adds nothing to the risk
term, whatever gamma g_i is. On either scan each column sums its atoms
in the same order in any piece, so every certificate is bitwise the
same as with one whole block.
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
# candidate columns per piece of the oracle build and scan
_PIECE = 1 << 14
# bound on each log-scale of the atom-weighted scan (see the module docstring)
_RANGE = 300.0
# 2^-40 = 4096 eps: the prune's allowance for rounding, per unit of the
# scale each rounding bound is stated in (see _prune_bound, _risk_sum_limit)
_ALLOWANCE = 2.0 ** -40

# the last oracle block built, under its (dim, grid_step, samples, seed)
_last_block: tuple[tuple, tuple[np.ndarray, str, float, float]] | None = None
# the memory every block is written into, and one piece of scratch
_held = {"points": np.empty(0), "scratch": np.empty(0)}
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
        """The report as JSON values; x + 0.0 prints a zero of either sign as
        0.0 and leaves every other value as it is."""
        return {
            "direction": self.direction,
            "lhs": self.lhs + 0.0,
            "rhs_at_optimizer": self.rhs_at_optimizer + 0.0,
            "equality_gap": self.equality_gap,
            "optimizer": {
                "labels": list(self.optimizer.labels),
                "probs": [float(p) for p in self.optimizer.probs],
            },
            "oracle": {
                "kind": self.oracle_kind,
                "points": self.oracle_points,
                "resolution": self.oracle_resolution,
                "min_or_max": self.oracle_min_or_max + 0.0,
                "dominance_margin": self.dominance_margin + 0.0,
                "near_optimal_max_distance": self.near_optimal_max_distance,
            },
            "passes": self.passes(),
        }


def _grid_simplex(
    dim: int, step: float, empty: Callable[[tuple[int, int]], np.ndarray] = np.empty
) -> np.ndarray:
    """Grid points of the simplex as the columns of a (dim, N) array.

    The points are written into the array empty((dim, N)) and divided
    by m = round(1/step) in place.
    """
    m = int(round(1.0 / step))
    # stage k holds the first k parts of every point, one prefix per column
    # in lexicographic order, and under them the room m - sum they leave;
    # each stage extends every prefix by each next part from 0 to its
    # room, and the last stage is the output. Its rows are exact-integer
    # floats, written a piece of _PIECE columns at a time from the blocks
    # of columns that share a prefix, so no temporary is longer than a piece
    stage = (empty if dim == 1 else np.empty)((1, 1))
    stage.fill(m)
    for k in range(1, dim):
        lengths = stage[-1] + 1.0
        ends = np.cumsum(lengths)
        starts = ends - lengths
        nxt = (empty if k == dim - 1 else np.empty)((k + 1, int(ends[-1])))
        for lo in range(0, nxt.shape[1], _PIECE):
            out = nxt[:, lo:lo + _PIECE]
            hi = lo + out.shape[1]
            # the blocks that meet the piece, and how many columns each has in it
            first = np.searchsorted(ends, lo, side="right")
            last = np.searchsorted(starts, hi)
            counts = (np.minimum(ends[first:last], hi)
                      - np.maximum(starts[first:last], lo)).astype(np.intp)
            for row, values in zip(out[:k - 1], stage[:-1]):
                row[:] = np.repeat(values[first:last], counts)
            # the new part counts up from 0 in each block and takes its room
            np.subtract(np.arange(lo, hi, dtype=float), np.repeat(starts[first:last], counts),
                        out=out[k - 1])
            np.subtract(np.repeat(stage[-1, first:last], counts), out[k - 1], out=out[k])
        stage = nxt
    stage /= m
    return stage


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


def _lattice_basis(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice's generators and its shift, as uint64 fixed point.

    Generator i is frac(sqrt(p_i)) for the i-th prime p_i, the same in
    every dimension; the shift is dim words of Philox(key=seed).
    """
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    gens = np.array([math.isqrt(p << 128) % (1 << 64) for p in primes], dtype=np.uint64)
    return gens, np.random.Philox(key=int(seed)).random_raw(dim)


def _candidates(
    dim: int, grid_step: float, samples: int, seed: int
) -> tuple[np.ndarray, str, float, float]:
    """The oracle points as a (dim, N) array, kind, resolution and floor,
    written over the held memory.

    The kept block is dropped first, since its arrays are overwritten.
    From dim 4 on the points are a randomly shifted Kronecker lattice
    mapped onto the simplex. Coordinate i of point j is the 53-bit
    fixed-point u = ((j G_i + shift_i) mod 2^64) >> 11 of _lattice_basis.
    Its spacing is -log((2^53 - u) 2^-53), the unit exponential of the
    uniform u, with the argument of the log in (0, 1] and exact, and the
    point is the spacings over their sum, added atom by atom. A point
    depends only on j and the seed, so a larger count appends points and
    keeps the earlier ones. Each piece of _PIECE points is built in the
    held points, its uniforms staged in the held scratch, and scaled
    while it is in cache. No logs are taken: the scan logs the columns
    it keeps.
    """
    global _last_block
    _last_block = None
    if dim <= 3:
        pts = _grid_simplex(dim, grid_step, partial(_held_array, "points"))
        return pts, "grid", grid_step, math.log(round(1.0 / grid_step))
    n = int(samples)
    pts = _held_array("points", (dim, n))
    scratch = _held_array("scratch", (dim, min(_PIECE, n)))
    gens, shift = _lattice_basis(dim, seed)
    steps = np.arange(min(_PIECE, n), dtype=np.uint64)
    low = math.inf
    for lo in range(0, n, _PIECE):
        cols = pts[:, lo:lo + _PIECE]
        uniforms = scratch[:, :cols.shape[1]]
        bits = cols.view(np.uint64)
        # uint64 arithmetic wraps, so each row is (j G_i + shift_i) mod 2^64
        np.multiply(steps[:cols.shape[1]], gens[:, None], out=bits)
        bits += (gens * np.uint64(lo) + shift)[:, None]
        bits >>= 11
        np.copyto(uniforms, np.subtract(1 << 53, bits, out=bits))
        uniforms *= 2.0 ** -53
        # minus the spacings: each log is <= 0, so the reciprocal of their
        # sum is negative and scales them onto the simplex
        np.log(uniforms, out=cols)
        scale = np.sum(cols, axis=0, out=uniforms[0])
        cols *= np.divide(1.0, scale, out=scale)
        piece_low = float(np.min(cols))
        if piece_low == 0.0:
            # a zero spacing times the negative reciprocal is -0.0
            np.abs(cols, out=cols)
        low = min(low, piece_low)
    floor = -math.log(low) if low > 0.0 else _log_floor(pts)
    # nominal spacing of N points spread evenly over the (dim-1)-simplex
    resolution = float(samples) ** (-1.0 / (dim - 1))
    return pts, "lattice", resolution, floor


def _oracle_block(
    dim: int, grid_step: float, samples: int, seed: int
) -> tuple[np.ndarray, str, float, float]:
    """The candidates (read-only), kind, resolution and floor.

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
    block = _candidates(*key)
    block[0].flags.writeable = False
    _last_block = (key, block)
    return block


def _atom_sums(
    nu: FiniteMeasure, values: np.ndarray, params: OrderParams, floor: float
) -> tuple | None:
    """(gamma, s, exp(gamma g - s), 1 - alpha, t, exp(alpha log nu - t)) for
    the atom-weighted scan, or None where the range check of the module
    docstring fails."""
    gamma, alpha, log_nu = params.gamma, params.alpha, nu.log_weights
    # in Python floats a spread past the float range rounds to inf, which
    # fails the check, with no overflow warning
    if (np.isneginf(log_nu).any()
            or abs(gamma) * (float(np.max(values)) - float(np.min(values))) > _RANGE
            or abs(alpha) * np.ptp(log_nu) > _RANGE
            or max(1.0, abs(1.0 - alpha)) * floor > _RANGE):
        return None
    with np.errstate(over="ignore"):
        risk_exp, div_exp = gamma * values, alpha * log_nu
    # a payoff with no spread may still lie past the float range once scaled
    if not (np.isfinite(risk_exp).all() and np.isfinite(div_exp).all()):
        return None
    s, t = float(np.max(risk_exp)), float(np.max(div_exp))
    return gamma, s, np.exp(risk_exp - s), 1.0 - alpha, t, np.exp(div_exp - t)


def _risk_terms(
    candidates: np.ndarray,
    log_candidates: np.ndarray | None,
    values: np.ndarray,
    params: OrderParams,
    sums: tuple | None,
) -> np.ndarray:
    """(1/gamma) log int exp(gamma g) d theta at each column.

    Without sums a log-sum-exp over the logs, in which a zero coordinate
    adds nothing whatever gamma g_i is; with the weights of _atom_sums an
    atom-weighted sum over the points, where a zero coordinate adds 0.
    """
    if sums is None:
        with np.errstate(over="ignore", invalid="ignore"):
            exps = params.gamma * values
            risk = log_candidates + exps[:, None]
        if np.isposinf(exps).any():
            risk[np.isneginf(log_candidates) & np.isposinf(exps)[:, None]] = -math.inf
        # one exponent array, shifted in place by the log-sum-exp
        return _logsumexp(risk, 0, out=risk) / params.gamma
    return _risk_logs(_risk_sums(candidates, sums), sums)


def _risk_sums(candidates: np.ndarray, sums: tuple) -> np.ndarray:
    """sum_i theta_i exp(gamma g_i - s) at each column, one atom row at a time."""
    risk_w = sums[2]
    risk = np.multiply(candidates[0], risk_w[0])
    term = np.empty_like(risk)
    for i in range(1, candidates.shape[0]):
        risk += np.multiply(candidates[i], risk_w[i], out=term)
    return risk


def _risk_logs(risk: np.ndarray, sums: tuple) -> np.ndarray:
    """The risk terms (log S + s) / gamma of the sums S, in place."""
    order, s = sums[:2]
    np.log(risk, out=risk)
    risk += s
    risk /= order
    return risk


def _divergence_terms(
    log_candidates: np.ndarray, nu: FiniteMeasure, params: OrderParams, sums: tuple | None
) -> np.ndarray:
    """R_alpha(nu || theta) at each column of the logs.

    Without sums the log-integral is a log-sum-exp; with the weights of
    _atom_sums it is an atom-weighted sum, in which 0^e is 0 for e > 0
    and inf for e < 0, the values the log-sum-exp conventions give.
    """
    alpha = params.alpha
    if sums is None:
        div = renyi_log_integral_rows(nu.log_weights[:, None], log_candidates, alpha)
        with np.errstate(invalid="ignore"):
            return np.where(np.isneginf(div), math.inf, div / (alpha * (alpha - 1.0)))
    e, t, div_w = sums[3:]
    div = np.multiply(log_candidates[0], e)
    np.exp(div, out=div)
    div *= div_w[0]
    term = np.empty_like(div)
    for i in range(1, log_candidates.shape[0]):
        np.multiply(log_candidates[i], e, out=term)
        np.exp(term, out=term)
        term *= div_w[i]
        div += term
    np.log(div, out=div)
    div += t
    # each sum is at least exp(-2 _RANGE), so div is never -inf
    div /= alpha * (alpha - 1.0)
    return div


def _prune_bound(nu: FiniteMeasure, params: OrderParams, floor: float, top: float) -> float:
    """The risk term above which a column's objective exceeds top.

    R_alpha >= 0, so the objective is at least the risk term, less what
    rounding takes off the divergence term. With L = max |log nu_i| over
    the support, the term's finite exponents are at most |alpha| L +
    |1 - alpha| floor in size, each log-integral sums dim of them, and nu
    and a candidate each sum to 1 only within about dim eps, which moves
    the log-integral by up to (|alpha| + |1 - alpha|) dim eps. So it is
    off by a few eps times size = |alpha| (L + dim) + |1 - alpha| (floor
    + dim) + dim, and the term by that over |alpha (alpha - 1)| span; on
    dims 2-7 with zero and far atoms, eleven order pairs and both scans
    no term fell below -0.14 eps size / scale. The allowance is
    _ALLOWANCE = 4096 eps times size / scale, plus _ALLOWANCE max(1, |top|)
    for the rounding of the objective's sum and of the bound. A top that
    is nan or inf, or an allowance that is not finite, gives a bound
    that keeps every column.
    """
    alpha, dim = params.alpha, float(nu.dim)
    scale = abs(alpha * (alpha - 1.0)) * params.span
    if not scale > 0.0:
        return math.inf
    log_nu = nu.log_weights[np.isfinite(nu.log_weights)]
    size = (abs(alpha) * (float(np.max(np.abs(log_nu))) + dim)
            + abs(1.0 - alpha) * (floor + dim) + dim)
    return top + _ALLOWANCE * (max(1.0, abs(top)) + size / scale)


def _risk_sum_limit(sums: tuple, bound: float) -> float:
    """The limit on the atom-weighted risk sum S past which a column's risk
    term (log S + s) / gamma is above bound.

    Where the range check passes, |log S| <= _RANGE, so np.log, the add
    of s and the division by gamma move the computed term by a few eps
    (|gamma bound| + |s| + _RANGE) at most; the margin is 2 _ALLOWANCE
    times that sum, plus 1. A column is past the limit where S > limit
    for gamma > 0 and S < limit for gamma < 0. exp is capped at e^700,
    above every sum, and a bound that is nan gives a nan limit, which no
    sum is past.
    """
    order, s = sums[:2]
    margin = 2.0 * _ALLOWANCE * (1.0 + abs(order * bound) + abs(s) + _RANGE)
    return math.exp(min(order * bound - s + math.copysign(margin, order), 700.0))


def _score_piece(
    cols: np.ndarray,
    nu: FiniteMeasure,
    values: np.ndarray,
    params: OrderParams,
    sums: tuple | None,
    bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the columns of a piece that it scores, and the
    objective at each of those.

    The scored columns include every column whose risk term is not above
    bound. The log-sum-exp scan logs the piece and takes its risk terms
    in full. The atom-weighted scan takes each column's risk sum and
    keeps those not past _risk_sum_limit; it logs the points and the sums
    of the kept columns alone. Either scan then takes the divergence
    terms at the kept columns, gathered in order, so each kept column's
    objective is bitwise the one a full scan computes.
    """
    # a nan compares false, so its column is kept
    if sums is None:
        logs = _held_array("scratch", cols.shape)
        with np.errstate(divide="ignore"):
            np.log(cols, out=logs)
        risk = _risk_terms(cols, logs, values, params, None)
        kept = np.flatnonzero(~(risk > bound))
    else:
        past = np.greater if sums[0] > 0.0 else np.less
        risk = _risk_sums(cols, sums)
        kept = np.flatnonzero(~past(risk, _risk_sum_limit(sums, bound)))
    if kept.size == 0:
        return kept, risk[:0]
    if kept.size == 1 < risk.size:
        # numpy sums the atoms of a lone column pairwise from 8 atoms on,
        # so the column keeps company
        kept = np.array([0, max(kept[0], 1)])
    whole = kept.size == risk.size
    if sums is None:
        logs = logs if whole else np.take(logs, kept, axis=1, mode="clip")
        risk = risk if whole else risk[kept]
    else:
        logs = _held_array("scratch", (cols.shape[0], kept.size))
        if not whole:
            # row by row, since np.take copies a strided piece whole first;
            # mode="clip" writes into out directly, and the indices are in range
            for row, out in zip(cols, logs):
                np.take(row, kept, out=out, mode="clip")
            cols = logs
        with np.errstate(divide="ignore"):
            np.log(cols, out=logs)
        risk = _risk_logs(risk if whole else risk[kept], sums)
    div = _divergence_terms(logs, nu, params, sums)
    div /= params.span
    risk += div
    return kept, risk


def _scan(
    pts: np.ndarray,
    nu: FiniteMeasure,
    values: np.ndarray,
    params: OrderParams,
    sums: tuple | None,
    bound: float,
    window: float,
    center: np.ndarray,
) -> tuple[float, float]:
    """The least objective over the scored columns of pts, and the largest
    L-inf distance from center of a column whose objective is at most
    window.

    Each piece of _PIECE columns is scored and reduced to those two
    numbers before the next, so its arrays go with it. np.min keeps a
    nan, so a nan objective reads nan, as the minimum of the whole row
    would; with no column scored the least is inf.
    """
    def extremes(lo: int) -> tuple[float, float]:
        kept, rhs = _score_piece(pts[:, lo:lo + _PIECE], nu, values, params, sums, bound)
        near = kept[rhs <= window]
        near += lo
        far = 0.0
        if near.size:
            for row, at in zip(pts, center):
                diff = row[near]
                diff -= at
                far = max(far, float(np.max(np.abs(diff, out=diff))))
        return np.min(rhs, initial=math.inf), far

    least, far = zip(*map(extremes, range(0, pts.shape[1], _PIECE)))
    return float(np.min(least)), max(far)


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
    window = lhs + NEAR_OPTIMAL_WINDOW

    # the tilted optimizer and nu itself are candidates too, scored first
    extra = np.column_stack([optimizer.probs, nu.probs])
    extra_floor = _log_floor(extra)
    with _block_lock:
        pts, kind, resolution, floor = _oracle_block(nu.dim, grid_step, oracle_samples, seed)
        floor = max(floor, extra_floor)
        sums = _atom_sums(nu, values, params, floor)
        scan = partial(_scan, nu=nu, values=values, params=params, sums=sums, window=window,
                       center=optimizer.probs)
        best_extra, far_extra = scan(extra, bound=math.inf)
        # the least objective so far is at least the minimum; np.maximum keeps a nan
        top = float(np.maximum(best_extra, window))
        best, far = scan(pts, bound=_prune_bound(nu, params, floor, top))
        best = float(np.minimum(best, best_extra))
        n = pts.shape[1]
    # constant g: every candidate with zero divergence is optimal, so the
    # localization certificate is trivially satisfied
    max_dist = 0.0 if np.ptp(values) == 0.0 else max(far, far_extra)

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
