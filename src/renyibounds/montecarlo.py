"""Deterministic Monte Carlo validation for the bound studies.

All randomness comes from counter-based Philox streams keyed by
(seed, stream index), so every estimate is a pure function of its
arguments. Work is processed in fixed-size chunks, one stream per
chunk. A chunk that keeps only its first rows draws just those rows:
generators fill an array in row-major order and nothing is drawn after
a chunk's rows, so the prefix holds the same bits. Results are thus
reproducible bit for bit across runs and platforms that share a numpy
version, and growing the sample count only appends samples, it never
changes the ones already drawn; the tests lean on both.

One engine, ``_stream``, runs a per-study kernel on each chunk, and an
estimate reduces the chunks one at a time, never holding the per-path
arrays of a whole run.
Each chunk has its own stream, so chunks are independent and the engine
computes ``_WORKERS`` of them at once, one per usable CPU (the process's
CPU affinity where the platform reports it): the calling thread runs
the first, short-lived helper threads the others, and numpy's fills and
ufuncs release the interpreter lock while they work. Every chunk's
generator is made on the calling thread, and a kernel derives any
further stream from its chunk's generator alone (the queue kernel's
refinement stream, on whichever thread runs the chunk). The chunks are
yielded in stream order, so every sample and every reduction is
bitwise the same at any worker count. The count is derived, never
configured: no parameter or environment variable sets it, and the
threading variables of BLAS or OpenMP do not apply to these Python
threads. A kernel's exception is raised where its chunk would have
been yielded, after every helper has been joined.

The block budgets below are per thread, so that the threads together
hold about what one did. The skeleton crossing and Girsanov kernels
walk their chunk in row blocks of about ``_PATH_BLOCK`` draws
(``_block_rows`` paths, at least one) and do all arithmetic in place
inside a block, so their working set stays in cache and nothing of
chunk size is allocated apart from per-path vectors. The two exact
kernels need no path and take chunks of ``_EXACT_CHUNK`` samples: the
argmax kernel draws three uniforms per sample, in row blocks of about
``_PATH_BLOCK`` draws, and the bridge kernel one normal per sample, a
chunk at a time.
The blocks change no bit of any sample: consecutive draws from one
generator concatenate bitwise, ziggurat normals included, and every
row is scaled, summed and reduced in the same order as a whole chunk
would be.

The queue kernel walks its chunk the same way, in blocks of
``_QUEUE_BLOCK`` draws, and each draw is a 16-bit lane of a 64-bit
Philox word. Lane j of a word w is ``(w >> 16 j) & 0xffff`` on every
platform, whatever its byte order, and the lanes of a chunk's words
fill its rows in row-major order: a chunk of take rows draws
``ceil(take * n / 4)`` words and drops the lanes past its last row,
and a word whose lanes span two row blocks is drawn once and its lanes
carried. A lane's top 12 bits are the guide bucket of its arrival, so
the arrivals of a block come from one gather in a small integer table.
Only a lane in a marked bucket needs more bits: it takes the next word
r of the chunk's refinement stream, in row-major order of the marked
lanes, and is searched as the uniform
``((lane << 37) | (r >> 27)) * 2**-53``. Those are 53 uniform bits, on
the grid of ``gen.random()``'s ``(word >> 11) * 2**-53``, so every
arrival has the law of inversion from one whole uniform, from a
quarter of the words. The refinement stream is the chunk's generator
jumped ahead (``bit_generator.jumped()``) from its first state, far
past any word the chunk draws. Each column then takes the Lindley
step in the order of a whole chunk.

The kernels cover the three studies: queue overflow under iid
arrivals, Brownian level crossing (exactly, from the end value and the
bridge's crossing probability, or from a grid skeleton that misses the
crossings between its points), and the argmax time of a drifted path,
sampled exactly with no grid. Girsanov reweighting turns
driftless samples into the drifted argmax transform and into
divergence estimates for state-dependent drifts.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
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
    "bm_exceedance_estimate",
    "argmax_laplace_estimate",
    "girsanov_renyi_estimate",
]

_QUEUE_CHUNK = 1 << 16
_QUEUE_BLOCK = 1 << 17
_GUIDE_BITS = 12
_GUIDE_BUCKETS = 1 << _GUIDE_BITS
_LANE_BITS = 16
_LANES = 64 // _LANE_BITS
_PATH_DRAW_BUDGET = 1 << 21
_PATH_BLOCK = 1 << 14
_EXACT_CHUNK = 1 << 16
_Z95 = 1.959963984540054
# the chunks of a stream run this many at a time, one per usable CPU
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

_Kernel = Callable[[np.random.Generator, int], np.ndarray]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


class _Chunk(threading.Thread):
    """kernel(gen, take) on a helper thread, in a copy of the caller's context.

    The copy carries numpy's error state (a context variable since numpy
    2), so a chunk warns or stays silent as it would on the calling
    thread. result() joins the thread and returns the chunk, or raises
    the kernel's exception.
    """

    def __init__(self, kernel: _Kernel, gen: np.random.Generator, take: int) -> None:
        super().__init__()
        context = contextvars.copy_context()
        self._call = lambda: context.run(kernel, gen, take)
        self._out: np.ndarray | None = None
        self._error: BaseException | None = None

    def run(self) -> None:
        try:
            self._out = self._call()
        except BaseException as exc:  # re-raised on the calling thread by result()
            self._error = exc

    def result(self) -> np.ndarray:
        self.join()
        if self._error is not None:
            raise self._error
        return self._out


def _stream(kernel: _Kernel, n: int, chunk: int, seed: int) -> Iterator[np.ndarray]:
    """Yield kernel(generator, take) for consecutive chunks of n samples.

    Chunk i draws from stream i and keeps its first take samples, so
    the chunks of a longer run start with the chunks of a shorter one.
    Chunks run _WORKERS at a time: this thread runs the first of them
    and helper threads the others, and they are yielded in stream order.
    """
    n, seed = int(n), int(seed)
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    count, workers = -(-n // chunk), _WORKERS
    for first in range(0, count, workers):
        # _rng is looked up per chunk, on this thread, so it can be swapped
        # for a counting proxy
        jobs = [(_rng(seed, stream), min(chunk, n - stream * chunk))
                for stream in range(first, min(first + workers, count))]
        helpers: list[_Chunk] = []
        try:
            for gen, take in jobs[1:]:
                helpers.append(_Chunk(kernel, gen, take))
                helpers[-1].start()
            yield kernel(*jobs[0])
            for helper in helpers:
                yield helper.result()
        finally:
            for helper in helpers:
                helper.join()


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
    # an infinite standard error says nothing, whatever the mean, so its
    # interval is the whole line and never inf - inf = nan
    ci95 = (mean - _Z95 * se, mean + _Z95 * se) if se < math.inf else (-math.inf, math.inf)
    return EstimateWithCI(mean=mean, std_error=se, ci95=ci95, n_samples=n, seed=int(seed))


def _at_least_two(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    return n


def _mean_ci(chunks: Iterable[np.ndarray], n: int, seed: int) -> EstimateWithCI:
    """Sample mean with a normal-approximation 95% CI, from per-chunk moments.

    Samples or squares past the double range read inf, without a
    warning, and a sum of squares that reaches inf gives se inf: an
    infinite mean reads inf with se inf, never nan.
    """
    n = _at_least_two(n)
    total = total_sq = 0.0
    with np.errstate(over="ignore"):
        for x in chunks:
            total += float(np.sum(x))
            total_sq += float(np.sum(x * x))
    mean = total / n
    if total_sq == math.inf:
        return _estimate(mean, math.inf, n, seed)
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


def _rows(budget: int, width: int) -> int:
    """Rows of width draws that fit in a budget of draws, at least one."""
    return max(1, budget // width)


def _path_chunk(grid: PathGrid) -> int:
    return _rows(_PATH_DRAW_BUDGET, grid.n_steps)


def _block_rows(grid: PathGrid) -> int:
    return _rows(_PATH_BLOCK, grid.n_steps)


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
    are exact, and the bucket of a uniform whose top 16 bits are a
    16-bit lane, as the queue kernel forms it, is the lane's top 12
    bits. The count is the same for every u in bucket j, and the int16
    guide stores it, unless an entry lies strictly inside the bucket.
    Such buckets are marked -1 and fall back to the binary search, as
    does every u outside [0, 1), nan included, through a last marked
    slot; only there does the queue kernel need a lane's other bits.
    For rate 1, 7 of the 4096 buckets are marked.
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
        guide = at_or_below.astype(np.int16)
        guide[:-1][below_next > at_or_below[:-1]] = -1
        guide[-1] = -1
        self._guide = guide

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Smallest k with u < P(X <= k), as floats for workload math."""
        u = np.asarray(u, dtype=float)
        t = u * _GUIDE_BUCKETS
        inside = (t >= 0.0) & (t < _GUIDE_BUCKETS)
        k = self._guide[np.where(inside, t, _GUIDE_BUCKETS).astype(np.intp)].astype(float)
        search = k < 0.0
        if search.any():
            idx = np.searchsorted(self._cdf, u[search], side="right")
            k[search] = np.minimum(idx, self._cdf.size - 1)
        return k

    def __repr__(self) -> str:
        return f"PoissonLaw(rate={self.rate!r})"


def _lanes(words: np.ndarray) -> np.ndarray:
    """The 16-bit lanes of 64-bit words, four a word: lane j of w is (w >> 16 j) & 0xffff.

    Read through a little-endian view, so the lanes do not depend on the
    platform's byte order.
    """
    return words.astype("<u8", copy=False).view("<u2")


def _queue_kernel(law: PoissonLaw, n: int, C: float, level: float) -> _Kernel:
    rows = _rows(_QUEUE_BLOCK, n)
    # the guide entry of every lane: its bucket is the lane's top 12 bits
    lane_guide = law._guide[np.arange(1 << _LANE_BITS) >> (_LANE_BITS - _GUIDE_BITS)]

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        # the refinement stream starts from the chunk's first state, jumped
        refine = np.random.Generator(gen.bit_generator.jumped())
        block = min(rows, take)
        lane = np.empty(block * n + _LANES - 1, dtype=np.intp)
        arrivals = np.empty(block * n, dtype=np.int16)
        q, peak = np.empty(block), np.empty(block)
        over = np.empty(take, dtype=bool)
        held = 0  # lanes of the last word drawn that the next rows start with
        for lo in range(0, take, rows):
            m = min(rows, take - lo)
            size = m * n
            words = gen.integers(0, 1 << 64, size=-(-(size - held) // _LANES),
                                 dtype=np.uint64)
            end = held + _LANES * words.size
            lane[held:end] = _lanes(words)
            lanes, a = lane[:size], arrivals[:size]
            np.take(lane_guide, lanes, out=a)
            marked = np.flatnonzero(a < 0)
            if marked.size:
                # the lane's 16 bits, then 37 of a refinement word: a
                # 53-bit uniform on the grid of (word >> 11) 2^-53
                low = refine.integers(0, 1 << 64, size=marked.size, dtype=np.uint64)
                u = np.take(lanes, marked).astype(np.uint64) << (53 - _LANE_BITS)
                u |= low >> (11 + _LANE_BITS)
                np.put(a, marked, law.quantile(u * 2.0 ** -53))
            held = end - size
            lane[:held] = lane[size:end]
            a = a.reshape(m, n)
            qm, pm = q[:m], peak[:m]
            qm.fill(0.0)
            pm.fill(0.0)
            for k in range(n):
                # Lindley step max(q + a - C, 0), rounded in that order
                qm += a[:, k]
                qm -= C
                np.maximum(qm, 0.0, out=qm)
                np.maximum(pm, qm, out=pm)
            np.greater(pm, level, out=over[lo:lo + m])
        return over

    return kernel


def simulate_queue_overflow_prob(
    arrival_law: PoissonLaw,
    C: float,
    b: float,
    n: int,
    reps: int,
    seed: int = 0,
) -> EstimateWithCI:
    """Probability that the scaled workload maximum exceeds b in n steps.

    Arrivals are iid draws of arrival_law, one per step. Each
    replication takes one row of 16-bit lanes, four to a Philox word,
    and maps each lane through the law's guide table, refined to a
    53-bit uniform where its bucket is marked, so every arrival is the
    law's quantile of a uniform. Overflow is strict: max_k Q_k > n b.
    """
    if not isinstance(arrival_law, PoissonLaw):
        raise TypeError("arrival_law must be a PoissonLaw")
    n = int(n)
    if n < 1:
        raise ValueError("horizon n must be at least 1")
    kernel = _queue_kernel(arrival_law, n, float(C), n * float(b))
    return _mean_ci(_stream(kernel, reps, _QUEUE_CHUNK, seed), reps, seed)


def _crossing_kernel(level: float, mu: float, grid: PathGrid) -> _Kernel:
    """Indicator that the grid skeleton of X_s = mu s + B_s reaches level (biased low)."""
    level, mu = float(level), float(mu)
    dt, rows = grid.dt, _block_rows(grid)

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        z = np.empty((min(rows, take), grid.n_steps))
        crossed = np.empty(take, dtype=bool)
        for lo in range(0, take, rows):
            path = z[:min(rows, take - lo)]
            gen.standard_normal(out=path)
            path *= math.sqrt(dt)
            path += mu * dt
            np.cumsum(path, axis=1, out=path)
            np.greater_equal(np.max(path, axis=1), level, out=crossed[lo:lo + len(path)])
        return crossed

    return kernel


def _bridge_kernel(level: float, mu: float, horizon: float) -> _Kernel:
    """Exact crossing samples for X_s = mu s + B_s, one normal a path.

    Given its end value x the path is a Brownian bridge whatever the
    drift, and it reaches K with probability exp(-2 K max(K - x, 0) / t).
    In u = (x - mu t) / sqrt(t), that times the N(0, 1) density is a unit
    Gaussian on each side of d = (K - mu t) / sqrt(t), with its mode at
    c = min(max(d, 0), 2k), k = K / sqrt(t). So u = c + Z, and the sample,
    weighted by the likelihood ratio, is exp(-2k max(g - Z, 0) - c (c/2 + Z))
    with g = d - c: at most 1, even far in the tail. Its first term is
    formed as (max(g - Z, 0) K / sqrt(t)) (-2), so nothing gives nan:
    g is nan only where d and c overflow, and the fmax reads it as 0.
    """
    level, mu, t = float(level), float(mu), float(horizon)
    root_t = math.sqrt(t)
    d = (level - mu * t) / root_t
    c = min(max(d, 0.0), 2.0 * (level / root_t))
    g = d - c

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        z = gen.standard_normal(take)
        with np.errstate(over="ignore"):
            gap = np.subtract(g, z)
            np.fmax(gap, 0.0, out=gap)
            gap *= level
            gap /= root_t
            gap *= -2.0
            z += 0.5 * c
            z *= -c
            z += gap
            return np.exp(z, out=z)

    return kernel


def bm_exceedance_estimate(
    level: float,
    mu: float,
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
    bridge: bool = True,
) -> EstimateWithCI:
    """Estimate of P(max_{s <= t} X_s >= level) for X_s = mu s + B_s, t = grid.horizon.

    bridge=True averages the exact, weighted crossing probabilities of
    _bridge_kernel, with their sample standard error; the step count of
    grid plays no part. bridge=False averages the skeleton's crossing
    indicators, with their binomial standard error, and underestimates.
    """
    level, mu = float(level), float(mu)
    if not 0.0 < level < math.inf:
        raise ValueError("level must be positive and finite")
    if bridge:
        kernel, chunk = _bridge_kernel(level, mu, grid.horizon), _EXACT_CHUNK
    else:
        kernel, chunk = _crossing_kernel(level, mu, grid), _path_chunk(grid)
    return _mean_ci(_stream(kernel, n_paths, chunk, seed), n_paths, seed)


def _argmax_kernel(gamma: float, mu: float, horizon: float) -> _Kernel:
    """exp(-gamma H) times the Girsanov weight exp(mu B_t - mu^2 t / 2).

    Three uniforms a sample, drawn as (rows, 3) blocks, give the
    driftless argmax time H = t sin^2(pi U_1 / 2) (arcsine law) and the
    rises sqrt(H) R_1 and sqrt(t - H) R_2 to the maximum from either
    end, with R_i = sqrt(-2 log(1 - U_i)) Rayleigh (Shepp 1979; Denisov
    1984). t sin^2 <= t, so t - H >= 0. The exponent is nan only where
    mu (B_t - mu t / 2) is -inf and -gamma H is +inf, so |mu| > 1; there it
    is mu (B_t - t (gamma sin^2 / mu + mu / 2)), whose inner terms have
    opposite signs and cannot overflow.
    """
    gamma, mu, t = float(gamma), float(mu), float(horizon)
    rows = _rows(_PATH_BLOCK, 3)

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        out = np.empty(take)
        for lo in range(0, take, rows):
            u = gen.random((min(rows, take - lo), 3))
            sin2 = np.sin(u[:, 0] * (0.5 * math.pi)) ** 2
            h = sin2 * t
            r = np.sqrt(-2.0 * np.log1p(-u[:, 1:]))
            b = np.sqrt(h) * r[:, 0] - np.sqrt(t - h) * r[:, 1]
            with np.errstate(over="ignore", invalid="ignore"):
                e = mu * (b - 0.5 * mu * t) - gamma * h
                nan = np.isnan(e)
                if nan.any():
                    e[nan] = mu * (b[nan] - t * (gamma * sin2[nan] / mu + 0.5 * mu))
                out[lo:lo + len(u)] = np.exp(e)
        return out

    return kernel


def argmax_laplace_estimate(
    gamma: float,
    mu: float,
    grid: PathGrid,
    n_paths: int,
    seed: int = 0,
) -> EstimateWithCI:
    """Estimate of E exp(-gamma H), H the argmax time of a drifted Brownian path.

    Exact, with no discretization bias: H and the end value B_t are drawn
    under the driftless law on [0, grid.horizon], and a Girsanov weight
    carries the drift. The step count of grid plays no part.
    """
    kernel = _argmax_kernel(gamma, mu, grid.horizon)
    return _mean_ci(_stream(kernel, n_paths, _EXACT_CHUNK, seed), n_paths, seed)


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
            # a square past the double range reads inf, and its LLR -inf
            with np.errstate(over="ignore"):
                np.multiply(m, m, out=db)
            llr[lo:lo + len(db)] = drift_term - 0.5 * dt * np.sum(db, axis=1)
        return llr

    return kernel


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
    estimator is well behaved for the drifts considered. drift maps an
    array of pre-step path values, one path per row, to an array of the
    same shape holding the drift at each of them. It is applied to row
    blocks of a few paths at a time, and to the blocks of different
    chunks at once from helper threads, so it must act on each row of its
    argument alone. A moment that is infinite, as when every LLR is
    -inf, gives se inf and the interval [-inf, inf].
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
    mean = l1 / (alpha * (alpha - 1.0))
    if not (math.isfinite(l1) and math.isfinite(l2)):
        # l2 - 2 l1 would be inf - inf: an infinite moment gives se inf
        return _estimate(mean, math.inf, n, seed)
    denom = abs(alpha * (alpha - 1.0))
    rel_var = max(math.expm1(l2 - 2.0 * l1), 0.0)
    return _estimate(mean, math.sqrt(rel_var / n) / denom, n, seed)
