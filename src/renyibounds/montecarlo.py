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

The Girsanov kernel, the one grid kernel, walks a chunk of
``_PATH_CHUNK`` paths one time step at a time, on vectors of all its
rows, and never forms a rows x steps block. Step k draws its normals
from its own Philox window, counter ``k << 64`` of the chunk's key with
an empty buffer, 2^64 blocks from the next, so the ziggurat's variable
word use cannot reach the next step and a shorter take draws a prefix.
The argmax kernel draws three uniforms a sample in row blocks of
``_PATH_BLOCK // 3`` samples and the bridge kernel one normal a sample,
both in chunks of ``_EXACT_CHUNK``; consecutive draws from one
generator concatenate bitwise, so the blocks change no bit.

The queue kernel walks its chunk one time step at a time, each a Lindley
step on vectors of all the chunk's rows. Each arrival is a 16-bit lane
of a 64-bit Philox word, lane j of a word w being ``(w >> 16 j) & 0xffff``
whatever the byte order. Step k reads ``ceil(take / 4)`` words from
Philox counter ``k * _QUEUE_CHUNK / 16``, row r takes lane ``r % 4`` of
word ``r // 4``, and ``bit_generator.advance`` moves on to the next
step's window; so a row's lanes sit at fixed places, and a shorter take
draws a prefix. A lane's top 12 bits are its guide bucket, and one
gather in a table of all 2^16 lanes answers every lane of an unmarked
bucket. A lane in a marked bucket takes a raw word r of the refinement
stream, the chunk's bit generator jumped (``bit_generator.jumped()``)
from its first state, step k's marked lanes in row order from its
counter ``k * _QUEUE_CHUNK / 4``, and ``PoissonLaw.quantile``, a binary
search, inverts ``((lane << 37) | (r >> 27)) * 2**-53``: 53 uniform bits
on the grid of ``gen.random()``'s ``(word >> 11) * 2**-53``. So every
arrival has the law of inversion from one whole uniform, from a quarter
of the words. Overflow is a running flag, ``hit |= q > level``. A step's
few small calls hold the interpreter lock only briefly, so the chunks on
helper threads overlap.

The kernels cover the three studies: queue overflow under iid
arrivals, Brownian level crossing (exactly, from the end value and the
bridge's crossing probability), and the argmax time of a drifted path,
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
_GUIDE_BITS = 12
_GUIDE_BUCKETS = 1 << _GUIDE_BITS
_LANE_BITS = 16
_LANES = 64 // _LANE_BITS
_PATH_CHUNK = 1 << 14
_PATH_BLOCK = 1 << 14
_EXACT_CHUNK = 1 << 16
_Z95 = 1.959963984540054
_TINY = 2.0 ** -1022  # the smallest normal double
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
    infinite mean reads inf with se inf, never nan. Squares that sum
    below the normal range are taken of x 2^-e, exactly, max |x| in
    [2^(e-1), 2^e), and the moments at the largest such 2^e: that is 1
    if any chunk's squares are normal, so those estimates keep their bits.
    """
    n = _at_least_two(n)
    total, squares = 0.0, []
    with np.errstate(over="ignore"):
        for x in chunks:
            total += float(np.sum(x))
            sq, e = float(np.sum(x * x)), 0
            if sq < _TINY:
                e = math.frexp(float(np.max(np.abs(x))))[1]
                sq = float(np.sum(np.square(np.ldexp(x, -e))))
            squares.append((sq, e))
    mean, total_sq = total / n, 0.0
    lift = max((e for sq, e in squares if sq), default=0)
    for sq, e in squares:
        total_sq += math.ldexp(sq, 2 * (e - lift))
    if total_sq == math.inf:
        return _estimate(mean, math.inf, n, seed)
    scaled = math.ldexp(mean, -lift)
    var = max(total_sq - n * scaled * scaled, 0.0) / (n - 1)
    return _estimate(mean, math.ldexp(math.sqrt(var / n), lift), n, seed)


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


def _step_windows(gen: np.random.Generator, n_steps: int) -> Iterator[int]:
    """Yield k = 0 .. n_steps - 1, gen at the start of step k's window each time."""
    bits = gen.bit_generator
    state = bits.state
    state["buffer_pos"], state["has_uint32"] = 4, 0
    counter = state["state"]["counter"]
    counter[:] = 0
    for k in range(n_steps):
        counter[1] = k
        bits.state = state
        yield k


class PoissonLaw:
    """Poisson arrival law sampled by inverting a cached CDF table.

    The table covers the support up to a far-tail cutoff; rates are
    capped at 30 so the cutoff stays modest and the table exact to
    double precision. Inversion maps a uniform u to the smallest k with
    u < P(X <= k), so the arrivals are a deterministic function of the
    lanes the queue kernel draws, laid out the same for every law.

    quantile is a binary search of the table, for any double (nan and
    u >= 1 read the last index). Cumulative sums may round above 1.0
    before the last entry, so they are clamped to 1.0: the table stays
    sorted, no entry below 1 moves, and for u in [0, 1) the answer is
    the count of entries <= u.

    The int16 guide (Chen & Asau 1974; Devroye 1986, III.2.4) holds that
    count for each of _GUIDE_BUCKETS equal buckets of [0, 1), or -1
    (marked) where an entry lies strictly inside the bucket. Their
    number is a power of two, so each edge is exact, and a uniform whose
    top 16 bits are a lane (as the queue kernel forms it) falls in the
    bucket of the lane's top 12 bits. The guide is the source of the
    kernel's lane table; for rate 1, 7 of the 4096 buckets are marked.
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
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        guide = np.searchsorted(cdf, edges[:-1], side="right").astype(np.int16)
        guide[np.searchsorted(cdf, edges[1:], side="left") > guide] = -1
        self._cdf, self._guide = cdf, guide

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Smallest k with u < P(X <= k), as floats for workload math."""
        k = np.searchsorted(self._cdf, u, side="right")
        return np.minimum(k, self._cdf.size - 1).astype(float)

    def __repr__(self) -> str:
        return f"PoissonLaw(rate={self.rate!r})"


def _lanes(words: np.ndarray) -> np.ndarray:
    """The 16-bit lanes of 64-bit words, four a word: lane j of w is (w >> 16 j) & 0xffff.

    Read through a little-endian view, so the lanes do not depend on the
    platform's byte order.
    """
    return words.astype("<u8", copy=False).view("<u2")


def _queue_kernel(law: PoissonLaw, n: int, C: float, level: float) -> _Kernel:
    # a step's windows of Philox blocks, four words a block
    window, refine_window = _QUEUE_CHUNK // (_LANES * 4), _QUEUE_CHUNK // 4
    # the guide entry of every lane: its bucket is the lane's top 12 bits
    lane_guide = law._guide[np.arange(1 << _LANE_BITS) >> (_LANE_BITS - _GUIDE_BITS)]

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        # the refinement stream starts from the chunk's first state, jumped
        refine = gen.bit_generator.jumped()
        size = -(-take // _LANES)
        lane = np.empty(take, dtype=np.intp)
        a = np.empty(take, dtype=np.int16)
        q, over, hit = np.zeros(take), np.empty(take, dtype=bool), np.zeros(take, dtype=bool)
        for _ in range(n):
            lane[:] = _lanes(gen.integers(0, 1 << 64, size=size, dtype=np.uint64))[:take]
            gen.bit_generator.advance(window - -(-size // 4))
            np.take(lane_guide, lane, out=a)
            marked = np.flatnonzero(a < 0)
            if marked.size:
                # the lane's 16 bits, then 37 of a refinement word: a
                # 53-bit uniform on the grid of (word >> 11) 2^-53
                u = np.take(lane, marked).astype(np.uint64) << (53 - _LANE_BITS)
                u |= refine.random_raw(marked.size) >> (11 + _LANE_BITS)
                np.put(a, marked, law.quantile(u * 2.0 ** -53))
            refine.advance(refine_window - -(-marked.size // 4))
            # Lindley step max(q + a - C, 0), rounded in that order
            q += a
            q -= C
            np.maximum(q, 0.0, out=q)
            np.greater(q, level, out=over)
            hit |= over
        return hit

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
    replication is a row, and each step gives every row one 16-bit lane,
    four rows to a Philox word, from that step's window of its chunk's
    stream. A lane maps through the law's guide table, refined to a
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
) -> EstimateWithCI:
    """Estimate of P(max_{s <= t} X_s >= level) for X_s = mu s + B_s, t = grid.horizon.

    Averages the exact, weighted crossing probabilities of _bridge_kernel,
    with their sample standard error; the step count of grid plays no part.
    """
    level, mu = float(level), float(mu)
    if not 0.0 < level < math.inf:
        raise ValueError("level must be positive and finite")
    kernel = _bridge_kernel(level, mu, grid.horizon)
    return _mean_ci(_stream(kernel, n_paths, _EXACT_CHUNK, seed), n_paths, seed)


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
    rows = _PATH_BLOCK // 3

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
    """Euler log likelihood ratio sum_k m(X_k) (dB_k - m(X_k) dt / 2), m = drift.

    Driftless paths, reweighted to the law of dX = drift(X) dt + dB. A
    step's term past the double range reads -inf, never inf - inf.
    """
    dt, half_dt = grid.dt, 0.5 * grid.dt

    def kernel(gen: np.random.Generator, take: int) -> np.ndarray:
        # one 640 KiB block, freed on this thread, and a copy of the ratio
        # out: under glibc, later ops then reuse the heap's pages (separate
        # vectors, or a block freed by the caller, cost them 200-500 minor
        # faults an op as the heap was trimmed and grown again)
        x, llr, db, term, pre = np.zeros((5, take))
        pre = pre[:, None]
        for _ in _step_windows(gen, grid.n_steps):
            gen.standard_normal(out=db)
            db *= math.sqrt(dt)
            pre[:, 0] = x
            m = np.asarray(drift(pre), dtype=float)
            if m.shape != pre.shape:
                raise ValueError("drift must map a path array to an array of the same shape")
            m = m[:, 0]
            with np.errstate(over="ignore"):
                np.multiply(m, half_dt, out=term)
                np.subtract(db, term, out=term)
                term *= m
                llr += term
            x += db
        return llr.copy()

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
    of exp(alpha LLR). LLR is the Euler log likelihood ratio on grid,
    summed step by step over chunks of _PATH_CHUNK paths; step k's
    normals come from its own Philox window (see the module docstring),
    so a longer run only appends paths. Orders very far from 1 need
    heavier tails than 1e5 paths resolve; the studies stay at alpha <= 3
    where the estimator is well behaved for the drifts considered.

    drift must be elementwise: it maps a (take, 1) array of pre-step
    values, one path per row, to an array of the same shape holding the
    drift at each value. Each step passes a scratch copy, so a drift that
    writes into its argument changes no sample, and drift runs on the
    chunks of helper threads at once. A moment that is infinite, as when
    every LLR is -inf, gives se inf and the interval [-inf, inf].
    """
    alpha = check_alpha(alpha)
    n = _at_least_two(n_paths)
    lse1 = lse2 = -math.inf
    for llr in _stream(_girsanov_kernel(drift, grid), n, _PATH_CHUNK, seed):
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
