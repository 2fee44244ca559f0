"""Deterministic Monte Carlo validation for the bound studies.

All randomness comes from counter-based Philox streams keyed by
(seed, stream index), so every estimate is a pure function of its
arguments. Work is processed in fixed-size chunks, one stream per
chunk. A chunk that keeps only its first rows draws just those rows
when nothing is drawn after them: generators fill an array in
row-major order, so the prefix holds the same bits. The crossing
kernel draws its bridge uniforms after the normals, and the ziggurat
normal sampler consumes a variable number of words, so that kernel
always draws the normals of a full chunk. Two consequences are
load-bearing for the tests:

* results are reproducible bit for bit across runs and platforms that
  share a numpy version, and growing the sample count only appends
  samples, it never changes the ones already drawn;
* estimators that share a seed and a grid see identical paths, so the
  bridge-corrected crossing indicator dominates the skeleton-only one
  pathwise, not just on average.

One engine, ``_stream``, runs a per-study kernel on each chunk: a
``*_samples`` function concatenates the chunks, and an estimate reduces
them one at a time, never holding the per-path arrays of a whole run.

The Brownian kernels walk their chunk in row blocks of about
``_PATH_BLOCK`` draws (``_block_rows`` rows, at least one) and do all
arithmetic in place inside a block, so their working set stays in cache
and nothing of chunk size is allocated apart from per-path vectors.
The blocks change no bit of any sample: consecutive draws from one
generator concatenate bitwise, ziggurat normals included, and every
row is scaled, summed and reduced in the same order as a whole chunk
would be. With the bridge on, the crossing kernel still draws the
normals of every row of its chunk before its uniforms; rows past take
are drawn block by block and thrown away. Without the bridge it draws
only the rows it keeps.

The kernels cover the three studies: queue overflow under iid
arrivals, Brownian level crossing with an exact bridge correction for
the parts of the path the grid does not see, and the argmax time of a
drifted path. Girsanov reweighting turns driftless path samples into
divergence estimates for state-dependent drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .divergences import check_alpha
from .measures import logsumexp

__all__ = [
    "EstimateWithCI",
    "PathGrid",
    "PoissonLaw",
    "simulate_queue_overflow_prob",
    "bm_crossing_samples",
    "bm_exceedance_estimate",
    "argmax_time_samples",
    "argmax_laplace_estimate",
    "girsanov_log_lr_samples",
    "girsanov_renyi_estimate",
]

_QUEUE_CHUNK = 1 << 16
_GUIDE_BUCKETS = 1 << 12
_PATH_DRAW_BUDGET = 1 << 21
_PATH_BLOCK = 1 << 15
_Z95 = 1.959963984540054

_Kernel = Callable[[np.random.Generator, int], np.ndarray]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


def _stream(kernel: _Kernel, n: int, chunk: int, seed: int) -> Iterator[np.ndarray]:
    """Yield kernel(generator, take) for consecutive chunks of n samples.

    Chunk i draws from stream i and keeps its first take samples, so
    the chunks of a longer run start with the chunks of a shorter one.
    """
    n, seed = int(n), int(seed)
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    for stream, done in enumerate(range(0, n, chunk)):
        # _rng is looked up per chunk so it can be swapped for a counting proxy
        yield kernel(_rng(seed, stream), min(chunk, n - done))


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    std_error: float
    ci95: tuple[float, float]
    n_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "se": self.std_error,
            "ci95": [self.ci95[0], self.ci95[1]],
            "n": self.n_samples,
            "seed": self.seed,
        }


def _estimate(mean: float, se: float, n: int, seed: int) -> EstimateWithCI:
    return EstimateWithCI(mean=mean, std_error=se,
                          ci95=(mean - _Z95 * se, mean + _Z95 * se),
                          n_samples=n, seed=int(seed))


def _at_least_two(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    return n


def _mean_ci(chunks: Iterable[np.ndarray], n: int, seed: int) -> EstimateWithCI:
    """Sample mean with a normal-approximation 95% CI, from per-chunk moments."""
    n = _at_least_two(n)
    total = total_sq = 0.0
    for x in chunks:
        total += float(np.sum(x))
        total_sq += float(np.sum(x * x))
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return _estimate(mean, math.sqrt(var / n), n, seed)


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid with n_steps steps on [0, horizon]."""

    n_steps: int
    horizon: float = 1.0

    def __post_init__(self) -> None:
        n = int(self.n_steps)
        t = float(self.horizon)
        if n < 1:
            raise ValueError("need at least one step")
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError("horizon must be positive and finite")
        object.__setattr__(self, "n_steps", n)
        object.__setattr__(self, "horizon", t)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def _path_chunk(grid: PathGrid) -> int:
    return max(1, _PATH_DRAW_BUDGET // grid.n_steps)


def _block_rows(grid: PathGrid) -> int:
    return max(1, _PATH_BLOCK // grid.n_steps)


class PoissonLaw:
    """Poisson arrival law sampled by inverting a cached CDF table.

    The table covers the support up to a far-tail cutoff; rates are
    capped at 30 so the cutoff stays modest and the table exact to
    double precision. Inversion maps a uniform u to the smallest k with
    u < P(X <= k), which makes arrival samples a deterministic function
    of the uniform layout shared by every law.

    Inversion is an indexed search (Chen & Asau 1974; Devroye 1986,
    III.2.4) that returns exactly what a binary search of the table
    returns. The table is sorted: cumulative sums may round above 1.0
    before the last entry, so they are clamped to 1.0, which moves no
    entry below 1 and keeps the quantile monotone for u >= 1 too. For u
    in [0, 1) the answer is therefore the count of entries <= u.
    [0, 1) is cut into _GUIDE_BUCKETS equal buckets; their number is a
    power of two, so u * _GUIDE_BUCKETS and each edge j / _GUIDE_BUCKETS
    are exact. The count is the same for every u in bucket j, and the
    guide stores it, unless an entry lies strictly inside the bucket.
    Such buckets are marked -1 and fall back to the binary search, as
    does every u outside [0, 1), nan included, through a last marked
    slot. For rate 1, 7 of the 4096 buckets are marked.
    """

    __slots__ = ("rate", "_cdf", "_guide")

    MAX_RATE = 30.0

    def __init__(self, rate: float) -> None:
        rate = float(rate)
        if not (math.isfinite(rate) and 0.0 < rate <= self.MAX_RATE):
            raise ValueError(f"rate must lie in (0, {self.MAX_RATE}]")
        self.rate = rate
        kmax = int(math.ceil(rate + 40.0 * math.sqrt(rate) + 60.0))
        pmf = np.empty(kmax + 1)
        pmf[0] = math.exp(-rate)
        for k in range(1, kmax + 1):
            pmf[k] = pmf[k - 1] * (rate / k)
        cdf = np.minimum(np.cumsum(pmf), 1.0)
        cdf[-1] = 1.0
        self._cdf = cdf
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        at_or_below = np.searchsorted(cdf, edges, side="right")
        below_next = np.searchsorted(cdf, edges[1:], side="left")
        guide = at_or_below.astype(float)
        guide[:-1][below_next > at_or_below[:-1]] = -1.0
        guide[-1] = -1.0
        self._guide = guide

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Smallest k with u < P(X <= k), as floats for workload math."""
        u = np.asarray(u, dtype=float)
        t = u * _GUIDE_BUCKETS
        inside = (t >= 0.0) & (t < _GUIDE_BUCKETS)
        k = self._guide[np.where(inside, t, _GUIDE_BUCKETS).astype(np.intp)]
        search = k < 0.0
        if search.any():
            idx = np.searchsorted(self._cdf, u[search], side="right")
            k[search] = np.minimum(idx, self._cdf.size - 1)
        return k

    def __repr__(self) -> str:
        return f"PoissonLaw(rate={self.rate!r})"


def _per_step_laws(arrival_law, n: int) -> list[PoissonLaw]:
    if isinstance(arrival_law, PoissonLaw):
        return [arrival_law] * n
    laws = list(arrival_law)
    if len(laws) != n:
        raise ValueError("need one arrival law per step")
    if not all(isinstance(law, PoissonLaw) for law in laws):
        raise TypeError("arrival laws must be PoissonLaw instances")
    return laws


def _queue_kernel(laws: list[PoissonLaw], C: float, level: float) -> _Kernel:
    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        u = gen.random((take, len(laws)))
        q = np.zeros(take)
        peak = np.zeros(take)
        for k, law in enumerate(laws):
            # Lindley step max(q + a - C, 0), rounded in that order
            q += law.quantile(u[:, k])
            q -= C
            np.maximum(q, 0.0, out=q)
            np.maximum(peak, q, out=peak)
        return peak > level

    return kernel


def simulate_queue_overflow_prob(
    arrival_law,
    C: float,
    b: float,
    n: int,
    reps: int,
    seed: int = 0,
) -> EstimateWithCI:
    """Probability that the scaled workload maximum exceeds b in n steps.

    arrival_law is a single PoissonLaw applied at every step or a
    sequence of n laws. Each replication draws its uniforms as one
    (paths, steps) block and maps them through the per-step quantile
    tables, so a constant law and the equivalent per-step list produce
    identical sample paths. Overflow is strict: max_k Q_k > n b.
    """
    n = int(n)
    if n < 1:
        raise ValueError("horizon n must be at least 1")
    kernel = _queue_kernel(_per_step_laws(arrival_law, n), float(C), n * float(b))
    return _mean_ci(_stream(kernel, reps, _QUEUE_CHUNK, seed), reps, seed)


def _crossing_kernel(level: float, mu: float, grid: PathGrid, bridge: bool) -> _Kernel:
    level, mu = float(level), float(mu)
    if not level > 0.0:
        raise ValueError("level must be positive")
    dt, chunk, rows = grid.dt, _path_chunk(grid), _block_rows(grid)

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        z = np.empty((rows, grid.n_steps))
        crossed = np.empty(take, dtype=bool)
        if bridge:
            bridge_terms, log_no_cross = np.empty_like(z), np.empty(take)
        # the bridge uniforms come after a full chunk of normals, so with the
        # bridge on the rows past take are drawn too, block by block, and
        # thrown away; without it only the kept rows are drawn
        drawn = chunk if bridge else take
        for lo in range(0, drawn, rows):
            block = z[:min(rows, drawn - lo)]
            gen.standard_normal(out=block)
            if lo >= take:
                continue
            path = block[:min(rows, take - lo)]
            hi = lo + len(path)
            path *= math.sqrt(dt)
            path += mu * dt
            np.cumsum(path, axis=1, out=path)
            np.greater_equal(np.max(path, axis=1), level, out=crossed[lo:hi])
            if not bridge:
                continue
            # Conditional on its endpoints a segment is a Brownian bridge
            # whatever the constant drift, and the bridge crosses the level
            # with probability exp(-2 (K - a)(K - b) / dt); exponents clamped
            # at 0 cover segments whose endpoints already reach the level.
            # K - a is K - b one column to the left, and K - 0.0 = K at the start.
            gap = np.subtract(level, path, out=path)
            terms = bridge_terms[:len(path)]
            terms[:, 0] = -2.0 * level
            np.multiply(gap[:, :-1], -2.0, out=terms[:, 1:])
            terms *= gap
            terms /= dt
            np.minimum(terms, 0.0, out=terms)
            np.exp(terms, out=terms)
            np.negative(terms, out=terms)
            with np.errstate(divide="ignore"):
                np.log1p(terms, out=terms)
            np.sum(terms, axis=1, out=log_no_cross[lo:hi])
        if not bridge:
            return crossed
        p_unseen = np.expm1(log_no_cross, out=log_no_cross)
        np.negative(p_unseen, out=p_unseen)
        crossed |= gen.random(chunk)[:take] < p_unseen
        return crossed

    return kernel


def bm_crossing_samples(
    level: float,
    mu: float,
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
    bridge: bool = True,
) -> np.ndarray:
    """Per-path crossing indicators for {max_{s <= t} X_s >= level}.

    With bridge=True a skeleton that stays below the level still counts
    as a crossing with the exact conditional bridge probability, decided
    by a uniform drawn after the path. The uniforms sit after the
    normals in each stream's layout, so bridge=False sees the same
    paths and its indicator is dominated pathwise.
    """
    kernel = _crossing_kernel(level, mu, grid, bridge)
    return np.concatenate(list(_stream(kernel, n_paths, _path_chunk(grid), seed)))


def bm_exceedance_estimate(
    level: float,
    mu: float,
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
    bridge: bool = True,
) -> EstimateWithCI:
    """Crossing probability estimate with a binomial standard error."""
    kernel = _crossing_kernel(level, mu, grid, bridge)
    return _mean_ci(_stream(kernel, n_paths, _path_chunk(grid), seed), n_paths, seed)


def _argmax_kernel(mu: float, grid: PathGrid) -> _Kernel:
    mu, dt, rows = float(mu), grid.dt, _block_rows(grid)

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        z = np.empty((rows, grid.n_steps))
        times = np.empty(take)
        for lo in range(0, take, rows):
            path = z[:min(rows, take - lo)]
            gen.standard_normal(out=path)
            path *= math.sqrt(dt)
            path += mu * dt
            np.cumsum(path, axis=1, out=path)
            # the start value 0 wins unless the path rises above it; argmax
            # takes the earliest of tied steps
            i = np.argmax(path, axis=1)
            peak = np.take_along_axis(path, i[:, None], axis=1)[:, 0]
            times[lo:lo + len(path)] = np.where(peak > 0.0, (i + 1) * dt, 0.0)
        return times

    return kernel


def argmax_time_samples(
    mu: float,
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
) -> np.ndarray:
    """Skeleton argmax times of drifted Brownian paths.

    The start value 0 at time 0 takes part, so a path that never goes
    positive has argmax time 0; ties resolve to the earliest grid time.
    """
    kernel = _argmax_kernel(mu, grid)
    return np.concatenate(list(_stream(kernel, n_paths, _path_chunk(grid), seed)))


def argmax_laplace_estimate(
    gamma: float,
    mu: float,
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
) -> EstimateWithCI:
    """Estimate of E exp(-gamma H) from skeleton argmax times.

    The skeleton argmax is biased early by the unseen excursions, which
    shrinks exp(-gamma H) upward by O(sqrt(dt)) factors; grids around
    2^12 steps push that bias well under the Monte Carlo noise at 1e5
    paths for the gammas used in the studies.
    """
    gamma = float(gamma)
    times = _stream(_argmax_kernel(mu, grid), n_paths, _path_chunk(grid), seed)
    return _mean_ci((np.exp(-gamma * h) for h in times), n_paths, seed)


def _girsanov_kernel(drift: Callable[[np.ndarray], np.ndarray], grid: PathGrid) -> _Kernel:
    """Euler log likelihood ratio sum(m(X_k) dB_k) - (dt/2) sum(m(X_k)^2).

    Paths are sampled under the driftless nominal model; the ratio
    reweights them to the law of dX = drift(X) dt + dB. drift sees one
    row block of pre-step values at a time.
    """
    dt, rows = grid.dt, _block_rows(grid)

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        z = np.empty((rows, grid.n_steps))
        x = np.empty_like(z)
        llr = np.empty(take)
        for lo in range(0, take, rows):
            db = z[:min(rows, take - lo)]
            pre = x[:len(db)]
            gen.standard_normal(out=db)
            db *= math.sqrt(dt)
            # the value before step k is the sum of the first k increments
            pre[:, 0] = 0.0
            np.cumsum(db[:, :-1], axis=1, out=pre[:, 1:])
            m = np.asarray(drift(pre), dtype=float)
            if m.shape != pre.shape:
                raise ValueError("drift must map a path array to an array of the same shape")
            # m may be pre itself, so db takes both products
            np.multiply(m, db, out=db)
            drift_term = np.sum(db, axis=1)
            np.multiply(m, m, out=db)
            llr[lo:lo + len(db)] = drift_term - 0.5 * dt * np.sum(db, axis=1)
        return llr

    return kernel


def girsanov_log_lr_samples(
    drift: Callable[[np.ndarray], np.ndarray],
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
) -> np.ndarray:
    """Log likelihood ratio samples under the driftless nominal model.

    drift maps an array of pre-step path values, one path per row, to the
    drift at each of them. It is applied to row blocks of a few paths at
    a time, so it must act on each row on its own.
    """
    kernel = _girsanov_kernel(drift, grid)
    return np.concatenate(list(_stream(kernel, n_paths, _path_chunk(grid), seed)))


def girsanov_renyi_estimate(
    drift: Callable[[np.ndarray], np.ndarray],
    grid: PathGrid,
    alpha: float,
    n_paths: int,
    seed: int = 0,
) -> EstimateWithCI:
    """Divergence estimate between the drifted and driftless path laws.

    Uses log E_nominal exp(alpha LLR) scaled by 1/(alpha (alpha - 1)),
    with a delta-method standard error from the second empirical moment
    of exp(alpha LLR). Orders very far from 1 need heavier tails than
    1e5 paths resolve; the studies stay at alpha <= 3 where the
    estimator is well behaved for the drifts considered. drift is
    applied to row blocks of paths, as in girsanov_log_lr_samples, so
    it must act on each path row on its own.
    """
    alpha = check_alpha(alpha)
    n = _at_least_two(n_paths)
    lse1 = lse2 = -math.inf
    for llr in _stream(_girsanov_kernel(drift, grid), n, _path_chunk(grid), seed):
        lse1 = float(np.logaddexp(lse1, logsumexp(alpha * llr)))
        lse2 = float(np.logaddexp(lse2, logsumexp(2.0 * alpha * llr)))
    log_n = math.log(n)
    l1 = lse1 - log_n
    l2 = lse2 - log_n
    denom = abs(alpha * (alpha - 1.0))
    mean = l1 / (alpha * (alpha - 1.0))
    rel_var = max(math.expm1(l2 - 2.0 * l1), 0.0)
    return _estimate(mean, math.sqrt(rel_var / n) / denom, n, seed)
