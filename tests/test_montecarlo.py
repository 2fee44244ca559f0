"""Reproducible Monte Carlo estimators: layout, bias, and agreement."""

from __future__ import annotations

import copy
import itertools
import math
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from renyibounds import montecarlo as mc
from renyibounds.applications.brownian import (
    bm_exceedance_drift,
    bm_exceedance_nominal,
    laplace_h_drift,
    laplace_h_wiener,
)
from renyibounds.measures import logsumexp
from renyibounds.montecarlo import (
    EstimateWithCI,
    PathGrid,
    PoissonLaw,
    argmax_laplace_estimate,
    bm_exceedance_estimate,
    girsanov_renyi_estimate,
    simulate_queue_overflow_prob,
)

from conftest import (
    lane_uniforms,
    reference_crossing_kernel,
    reference_girsanov_kernel,
    step_normals,
)

_GRID64 = PathGrid(n_steps=64)
_DBL_MAX = 1.7976931348623157e308


def _const_drift(mu):
    return lambda x: np.full_like(x, mu)


def _tanh_drift(mu):
    return lambda x: mu * np.tanh(x)


def _searchsorted_quantile(law, u):
    """The binary-search inversion that the guide table must reproduce."""
    idx = np.searchsorted(law._cdf, np.asarray(u), side="right")
    return np.minimum(idx, law._cdf.size - 1).astype(float)


def _reference_queue_kernel(law, n, C, level):
    """Queue kernel that draws a full chunk's lanes and searches the table per step."""
    def kernel(gen, take):
        u = lane_uniforms(law, gen, mc._QUEUE_CHUNK, n)[:take]
        q = np.zeros(take)
        peak = np.zeros(take)
        for k in range(n):
            q = np.maximum(q + _searchsorted_quantile(law, u[:, k]) - C, 0.0)
            np.maximum(peak, q, out=peak)
        return peak > level

    return kernel


def _exact_overflow(rate, n, C, b):
    """P(max_k Q_k > n b) for Poisson(rate) arrivals, by convolving the pmf.

    64 C and 64 n b must be integers, so 64 Q_k lives on the integers
    0..64 n b until it overflows, and each step convolves the state with
    the pmf spread onto multiples of 64 and shifts it down by 64 C: mass
    below 0 is reflected to 0, and mass past 64 n b is absorbed.
    """
    c, top = 64 * C, 64 * n * b
    assert c == int(c) and top == int(top)
    c, top = int(c), int(top)
    kmax = int(rate + 40.0 * math.sqrt(rate) + 60.0)
    step = np.zeros(64 * kmax + 1)
    p = math.exp(-rate)
    for k in range(kmax + 1):
        step[64 * k] = p
        p *= rate / (k + 1)
    state = np.zeros(top + 1)
    state[0] = 1.0
    over = 0.0
    for _ in range(n):
        moved = np.convolve(state, step)
        over += moved[c + top + 1:].sum()
        state = moved[c:c + top + 1].copy()
        state[0] += moved[:c].sum()
    return over


class _CountingGenerator:
    """A chunk generator that records each draw's size and each jumped stream."""

    def __init__(self, gen):
        self._gen, self.sizes, self.jumps = gen, [], []
        self.bit_generator = self

    def jumped(self):
        self.jumps.append(self._gen.bit_generator.jumped())
        return self.jumps[-1]

    def advance(self, delta):
        self._gen.bit_generator.advance(delta)

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        return self._gen.integers(low, high, size=size, dtype=dtype)


def _reference_bridge_kernel(level, mu, horizon):
    """The exact crossing kernel in terms of the end value x ~ N(mu t + c sqrt(t), t).

    The bridge's crossing probability exp(-2 K max(K - x, 0) / t) times the
    density ratio of N(mu t, t) against N(mu t + c sqrt(t), t) at x.
    """
    t = horizon
    mean = mu * t
    d = (level - mean) / math.sqrt(t)
    shift = min(max(d, 0.0), 2.0 * level / math.sqrt(t)) * math.sqrt(t)

    def kernel(gen, take):
        x = mean + shift + math.sqrt(t) * gen.standard_normal(take)
        crossing = np.exp(-2.0 * level * np.maximum(level - x, 0.0) / t)
        return crossing * np.exp(((x - mean - shift) ** 2 - (x - mean) ** 2) / (2.0 * t))

    return kernel


def _crossing_samples(level, mu, grid, n, seed, bridge=True):
    """The per-path samples that bm_exceedance_estimate averages."""
    if bridge:
        kernel, chunk = mc._bridge_kernel(level, mu, grid.horizon), mc._EXACT_CHUNK
    else:
        kernel, chunk = mc._crossing_kernel(level, mu, grid), mc._PATH_CHUNK
    return np.concatenate(list(mc._stream(kernel, n, chunk, seed)))


def _reference_argmax_kernel(gamma, mu, horizon):
    """Whole-chunk exact argmax kernel that the row-block kernel must reproduce."""
    t = horizon

    def kernel(gen, take):
        u = gen.random((take, 3))
        h = np.sin(u[:, 0] * (0.5 * math.pi)) ** 2 * t
        r = np.sqrt(-2.0 * np.log1p(-u[:, 1:]))
        b = np.sqrt(h) * r[:, 0] - np.sqrt(t - h) * r[:, 1]
        with np.errstate(over="ignore"):
            return np.exp(mu * (b - 0.5 * mu * t) - gamma * h)

    return kernel


def _argmax_samples(gamma, mu, horizon, n, chunk, seed):
    kernel = mc._argmax_kernel(gamma, mu, horizon)
    return np.concatenate(list(mc._stream(kernel, n, chunk, seed)))


def _girsanov_samples(drift, grid, n, seed=0):
    """The per-path log likelihood ratios that girsanov_renyi_estimate reduces."""
    kernel = mc._girsanov_kernel(drift, grid)
    return np.concatenate(list(mc._stream(kernel, n, mc._PATH_CHUNK, seed)))


def _row_blocks_and_reference(monkeypatch, factory, reference, call):
    """call() as it runs, then again with the reference kernel."""
    got = call()
    with monkeypatch.context() as m:
        m.setattr(mc, factory, reference)
        want = call()
    return got, want


# (rate, n, C, b, reps): the arrival rate, the steps, C, b and the replications
_QUEUE_TAKE_CASES = [
    # a whole chunk, then a take of 1000 rows; at rate log 2, P(0) = 1/2
    # lies on a bucket edge
    pytest.param(math.log(2.0), 50, 1.0, 0.05, mc._QUEUE_CHUNK + 1000, id="remainder-log2"),
    # one step: one window of words
    pytest.param(1.0, 1, 1.5, 0.25, 5000, id="one-step"),
    # a whole chunk, then a take of one row: one lane of one word a step
    pytest.param(1.0, 50, 1.5, 0.1, mc._QUEUE_CHUNK + 1, id="one-row"),
    # the largest rate and its long table; each step's 1234 rows end inside
    # a word and inside a four-word Philox block
    pytest.param(30.0, 50, 30.5, 0.4, 1234, id="rate30-blocks"),
]


class _RecordingPhilox(np.random.Philox):
    """Philox that logs (counter, buffer position, delta) before each advance.

    jumped() makes its stream through advance(2**128), which is not logged.
    """

    log: list = []

    def advance(self, delta):
        if delta < 1 << 64:
            state = self.state
            counter = sum(int(c) << 64 * i for i, c in enumerate(state["state"]["counter"]))
            self.log.append((counter, state["buffer_pos"], delta))
        return super().advance(delta)


class TestDeterminism:
    def test_same_seed_same_samples(self):
        for bridge in (True, False):
            a = _crossing_samples(1.0, 0.1, _GRID64, 2000, seed=3, bridge=bridge)
            b = _crossing_samples(1.0, 0.1, _GRID64, 2000, seed=3, bridge=bridge)
            assert np.array_equal(a, b)
            c = _crossing_samples(1.0, 0.1, _GRID64, 2000, seed=4, bridge=bridge)
            assert not np.array_equal(a, c)

    def test_estimates_are_reproducible(self):
        e1 = girsanov_renyi_estimate(_const_drift(0.3), _GRID64, 2.0, 5000, seed=9)
        e2 = girsanov_renyi_estimate(_const_drift(0.3), _GRID64, 2.0, 5000, seed=9)
        assert e1.mean == e2.mean
        assert e1.std_error == e2.std_error

    def test_seed_validation(self):
        for bridge in (True, False):
            for bad in (-1, 1 << 64):
                with pytest.raises(ValueError):
                    bm_exceedance_estimate(1.0, 0.0, _GRID64, 10, seed=bad, bridge=bridge)


class TestPrefixProperty:
    def test_within_one_chunk(self):
        short = _girsanov_samples(_tanh_drift(0.2), _GRID64, 500, seed=1)
        long = _girsanov_samples(_tanh_drift(0.2), _GRID64, 900, seed=1)
        assert np.array_equal(long[:500], short)

    def test_across_chunk_boundary(self):
        # chunks of 2^14 paths: growing the sample count must only append,
        # even through the boundaries
        short = _girsanov_samples(_tanh_drift(0.2), _GRID64, 33000, seed=1)
        long = _girsanov_samples(_tanh_drift(0.2), _GRID64, 40000, seed=1)
        assert np.array_equal(long[:33000], short)

    def test_argmax_samples_prefix(self, monkeypatch):
        # chunks of 100 samples in row blocks of 7: growing the count only
        # appends, and the blocks change no bit
        whole = _argmax_samples(1.5, 0.3, 1.5, 413, 100, seed=2)
        monkeypatch.setattr(mc, "_PATH_BLOCK", 21)
        short = _argmax_samples(1.5, 0.3, 1.5, 250, 100, seed=2)
        long = _argmax_samples(1.5, 0.3, 1.5, 413, 100, seed=2)
        assert np.array_equal(long[:250], short)
        _assert_same_bits(long, whole)

    def test_crossing_samples_prefix(self):
        grid = PathGrid(n_steps=16)
        for bridge in (True, False):
            short = _crossing_samples(1.0, 0.0, grid, 700, seed=2, bridge=bridge)
            long = _crossing_samples(1.0, 0.0, grid, 1200, seed=2, bridge=bridge)
            assert np.array_equal(long[:700], short)

    def test_bridge_samples_prefix(self):
        # chunks of 100 samples: growing the count only appends, through
        # chunk boundaries and within the short last chunk
        kernel = mc._bridge_kernel(1.0, 0.2, 1.5)
        short = np.concatenate(list(mc._stream(kernel, 250, 100, seed=2)))
        long = np.concatenate(list(mc._stream(kernel, 413, 100, seed=2)))
        assert np.array_equal(long[:250], short)
        assert 0.0 < long.min() and long.max() <= 1.0


class TestMcMeanCi:
    # one step at C = 1.5, b = 0.25 overflows iff the Poisson(1) arrival
    # exceeds 1.75, so the overflow indicator is Bernoulli(1 - 2/e)
    P_EXACT = 1.0 - 2.0 / math.e

    @staticmethod
    def _bernoulli(reps, seed):
        return simulate_queue_overflow_prob(PoissonLaw(1.0), 1.5, 0.25, 1, reps, seed)

    def test_bernoulli_mean(self):
        est = self._bernoulli(4000, seed=0)
        assert abs(est.mean - self.P_EXACT) <= 3.0 * est.std_error
        assert est.std_error == pytest.approx(
            math.sqrt(est.mean * (1.0 - est.mean) / 4000), rel=0.02)

    def test_ci_calibration(self):
        # the 95% interval must cover the truth in at least 90% of 200
        # independent replications
        covered = 0
        for seed in range(200):
            est = self._bernoulli(200, seed=seed)
            if est.ci95[0] <= self.P_EXACT <= est.ci95[1]:
                covered += 1
        assert covered >= 180

    def test_json_dict(self):
        d = self._bernoulli(10, seed=1).to_json_dict()
        assert set(d) == {"mean", "se", "ci95", "n", "seed"}
        assert d["n"] == 10

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            self._bernoulli(1, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_extended_reals(self):
        # an infinite sample gives mean inf and se inf; squares past the
        # double range give se inf around a finite mean; never nan
        est = mc._mean_ci(iter([np.array([1.0, 2.0]), np.array([math.inf])]), 3, 0)
        assert (est.mean, est.std_error, est.ci95) == (math.inf, math.inf, (-math.inf, math.inf))
        est = mc._mean_ci(iter([np.array([1e200, 3e200])]), 2, 0)
        assert (est.mean, est.std_error, est.ci95) == (2e200, math.inf, (-math.inf, math.inf))
        est = argmax_laplace_estimate(-800.0, 0.0, PathGrid(4), 10)
        assert (est.mean, est.std_error) == (math.inf, math.inf)

    def test_finite_moments_unchanged(self):
        # the sum and the sum of squares, chunk by chunk, in that order
        chunks = [np.array([0.1, 0.7, 0.2]), np.array([0.3, 1.9])]
        total = float(np.sum(chunks[0])) + float(np.sum(chunks[1]))
        total_sq = float(np.sum(chunks[0] ** 2)) + float(np.sum(chunks[1] ** 2))
        mean = total / 5
        se = math.sqrt(max(total_sq - 5 * mean * mean, 0.0) / 4 / 5)
        est = mc._mean_ci(iter(chunks), 5, 0)
        assert (est.mean, est.std_error) == (mean, se)
        assert est.ci95 == (mean - mc._Z95 * se, mean + mc._Z95 * se)


class TestFarTailReduction:
    """Squares that underflow are taken at a power-of-two scale, exactly."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", [28.0, 30.0])
    def test_crossing_se_survives_underflowing_squares(self, level):
        # mc bm-max --K 28 (and 30) --paths 2000: every sample is below
        # 1e-154, so its square underflows; se once read 0 and the CI was
        # a point that missed the exact value
        est = bm_exceedance_estimate(level, 0.0, _GRID64, 2000)
        exact = bm_exceedance_nominal(level)
        assert est.mean < 1e-170 and est.std_error > 0.0
        assert est.ci95[0] <= exact <= est.ci95[1]
        probs = _crossing_samples(level, 0.0, _GRID64, 2000, seed=0)
        scale = 2.0 ** -math.frexp(probs.max())[1]
        scaled = probs * scale
        want = scaled.std(ddof=1) / math.sqrt(2000) / scale
        assert est.std_error == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_mean_is_the_sample_mean_rounded_once(self):
        # mc bm-max --K 38 --paths 2000: the mean, 5.54e-316, is subnormal
        # and holds only about 27 bits, but sums of subnormals are exact, so
        # it is the exact sample mean rounded once; its gap from the exact
        # 5.77e-316 is sampling error (under half an se)
        est = bm_exceedance_estimate(38.0, 0.0, _GRID64, 2000)
        probs = _crossing_samples(38.0, 0.0, _GRID64, 2000, seed=0)
        assert est.mean == float(sum(map(Fraction, probs.tolist())) / 2000)
        # the moments of the samples taken at a normal scale, scaled back
        e = math.frexp(probs.max())[1]
        scaled = np.ldexp(probs, -e)
        assert est.mean == pytest.approx(math.ldexp(scaled.mean(), e), rel=1e-7, abs=0.0)
        want = math.ldexp(scaled.std(ddof=1) / math.sqrt(2000), e)
        assert est.std_error == pytest.approx(want, rel=1e-6, abs=0.0)
        assert est.ci95[0] <= bm_exceedance_nominal(38.0) <= est.ci95[1]

    def test_scaling_is_exact(self):
        # x 2^-e is exact, so the moments of samples whose squares
        # underflow, subnormal ones included, are those of the samples
        # times 2^600 (whose squares are normal), scaled back
        x = np.array([3e-170, 1e-171, 7e-169, 5e-324, 2e-310])
        est = mc._mean_ci(iter([x[:2], x[2:]]), 5, 0)
        big = mc._mean_ci(iter([x[:2] * 2.0**600, x[2:] * 2.0**600]), 5, 0)
        assert est.mean == big.mean * 2.0**-600
        assert est.std_error == pytest.approx(big.std_error * 2.0**-600, rel=1e-15, abs=0.0)

    def test_all_zero_and_normal_chunks(self):
        # an all-zero run keeps se 0, as the queue's zero-hit side needs; a
        # chunk whose squares are normal keeps the plain moments, and an
        # underflowing chunk next to it adds what it adds unscaled
        zeros = [np.zeros(5, dtype=bool), np.zeros(3, dtype=bool)]
        assert mc._mean_ci(iter(zeros), 8, 0).std_error == 0.0
        normal, tiny = np.array([0.1, 0.7, 0.2]), np.array([1e-200, 3e-200])
        est = mc._mean_ci(iter([tiny, normal]), 5, 0)
        total = float(np.sum(tiny)) + float(np.sum(normal))
        mean = total / 5
        se = math.sqrt(max(float(np.sum(normal ** 2)) - 5 * mean * mean, 0.0) / 4 / 5)
        assert (est.mean, est.std_error) == (mean, se)


class TestEstimatesReduceSamples:
    # 33000 paths of 64 steps span two chunks of 32768
    N = 33000

    def test_crossing(self):
        # the skeleton's indicators, with their binomial standard error
        hits = _crossing_samples(1.0, 0.1, _GRID64, self.N, seed=4, bridge=False)
        est = bm_exceedance_estimate(1.0, 0.1, _GRID64, self.N, seed=4, bridge=False)
        assert est.mean * self.N == hits.sum()
        assert est.std_error == pytest.approx(
            math.sqrt(est.mean * (1.0 - est.mean) / (self.N - 1)), rel=1e-12)
        # the exact kernel's probabilities, over two chunks of 2^16
        n = mc._EXACT_CHUNK + 1000
        probs = _crossing_samples(1.0, 0.1, _GRID64, n, seed=4)
        est = bm_exceedance_estimate(1.0, 0.1, _GRID64, n, seed=4)
        assert est.mean == pytest.approx(probs.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(probs.std(ddof=1) / math.sqrt(n), rel=1e-9)

    def test_argmax_laplace(self):
        # the exact sampler's chunks hold 2^16 samples, so this is two of them
        n = mc._EXACT_CHUNK + 1000
        vals = _argmax_samples(1.5, 0.1, 1.0, n, mc._EXACT_CHUNK, seed=4)
        est = argmax_laplace_estimate(1.5, 0.1, _GRID64, n, seed=4)
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(n), rel=1e-9)

    def test_girsanov(self):
        alpha = 2.5
        llr = _girsanov_samples(_tanh_drift(0.3), _GRID64, self.N, seed=4)
        est = girsanov_renyi_estimate(_tanh_drift(0.3), _GRID64, alpha, self.N, seed=4)
        scale = alpha * (alpha - 1.0)
        want = (logsumexp(alpha * llr) - math.log(self.N)) / scale
        assert est.mean == pytest.approx(want, rel=1e-12)
        w = np.exp(alpha * (llr - llr.max()))
        rel_var = np.mean(w * w) / np.mean(w) ** 2 - 1.0
        assert est.std_error == pytest.approx(math.sqrt(rel_var / self.N) / scale, rel=1e-9)
        assert est.n_samples == self.N and est.seed == 4


class TestPoissonLaw:
    def test_cdf_is_proper(self):
        law = PoissonLaw(1.0)
        assert law.quantile(np.array([0.0]))[0] == 0.0
        assert law.quantile(np.array([1.0 - 1e-12]))[0] < law._cdf.size

    def test_quantile_matches_pmf(self):
        law = PoissonLaw(1.0)
        # u just below/above P(X <= 0) = e^{-1} flips the sample from 0 to 1
        p0 = math.exp(-1.0)
        assert law.quantile(np.array([p0 - 1e-12]))[0] == 0.0
        assert law.quantile(np.array([p0 + 1e-12]))[0] == 1.0

    def test_sample_mean(self):
        law = PoissonLaw(2.5)
        rng = np.random.default_rng(0)
        sample = law.quantile(rng.random(200_000))
        assert sample.mean() == pytest.approx(2.5, abs=3.0 * math.sqrt(2.5 / 200_000))
        assert sample.var() == pytest.approx(2.5, rel=0.05)

    def test_rate_validation(self):
        for bad in (0.0, -1.0, 30.5, math.inf):
            with pytest.raises(ValueError):
                PoissonLaw(bad)
        PoissonLaw(30.0)

    # at rate log 2, P(X = 0) is 1/2 exactly: a table entry on a bucket edge
    @pytest.mark.parametrize("rate", [1e-3, math.log(2.0), 1.0, 1.1, 7.5, 30.0])
    def test_quantile_matches_searchsorted(self, rate):
        law = PoissonLaw(rate)
        cdf = law._cdf
        edges = np.arange(mc._GUIDE_BUCKETS + 1) / mc._GUIDE_BUCKETS
        special = np.array([0.0, 1.0 - 2.0 ** -53, 1.0, -0.5, 2.0, math.nan])
        u = np.concatenate([
            special,
            cdf, np.nextafter(cdf, -math.inf), np.nextafter(cdf, math.inf),
            edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf),
            np.random.default_rng(5).random(100_000),
        ])
        got = law.quantile(u)
        assert np.array_equal(got, _searchsorted_quantile(law, u))
        assert got.dtype == np.float64

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [1e-3, math.log(2.0), 1.0, 30.0])
    def test_quantile_is_total(self, rate):
        # every double, nan and the infinities included, reads the binary
        # search's answer, with no warning
        law = PoissonLaw(rate)
        edge = np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324,
                         -1e-300, -2.0 ** -53, 5e-324, 1.0, np.nextafter(1.0, 2.0),
                         np.nextafter(1.0, 0.0), _DBL_MAX, -_DBL_MAX])
        got = law.quantile(edge)
        assert np.array_equal(got, _searchsorted_quantile(law, edge))
        assert got.dtype == np.float64
        assert got[0] == got[1] == got[2] == law._cdf.size - 1
        assert got[3] == got[4] == got[5] == got[6] == 0.0

    @given(rate=st.sampled_from([1e-3, math.log(2.0), 1.0, 7.5, 30.0]),
           u=arrays(np.float64, st.integers(0, 50), elements=st.floats(width=64)))
    def test_quantile_is_total_over_all_doubles(self, rate, u):
        # the warnings filter sits inside the test, so a failing example is
        # reported by hypothesis rather than stopped by its own warnings
        law = PoissonLaw(rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = law.quantile(u)
        assert np.array_equal(got, _searchsorted_quantile(law, u))
        assert got.dtype == np.float64 and got.shape == u.shape


    def test_cdf_table_is_sorted(self):
        # cumulative sums can round above 1.0 before the last entry; the
        # clamp keeps the table sorted at every rate (7.5 first passes 1 at k = 38)
        rates = np.append(np.linspace(30.0 / 2000, 30.0, 2000), 7.5)
        for rate in rates:
            law = PoissonLaw(rate)
            assert np.all(np.diff(law._cdf) >= 0.0), rate
            assert law._cdf[-1] == 1.0
        law = PoissonLaw(7.5)
        k = law.quantile(np.array([1.0, np.nextafter(1.0, 2.0), 2.0]))
        assert np.all(np.diff(k) >= 0.0)

    def test_clamp_leaves_queue_estimate_unchanged(self):
        # a copy of the law with the table as summed, before the clamp,
        # gives the same samples bit for bit: no uniform in [0, 1) moves
        for rate, C, b in ((7.5, 8.0, 0.2), (1.1, 2.0, 0.1)):
            law = PoissonLaw(rate)
            pmf = np.empty(law._cdf.size)
            pmf[0] = math.exp(-rate)
            for k in range(1, pmf.size):
                pmf[k] = pmf[k - 1] * (rate / k)
            unclamped = copy.copy(law)
            unclamped._cdf = np.cumsum(pmf)
            unclamped._cdf[-1] = 1.0
            # the sums pass 1.0 at rate 7.5 (first at k = 38), never at 1.1
            assert np.any(unclamped._cdf > 1.0) == (rate == 7.5)
            assert not np.shares_memory(unclamped._cdf, law._cdf)
            want = _queue_outputs(unclamped, 50, C, b, 20_000, seed=0)
            assert _queue_outputs(law, 50, C, b, 20_000, seed=0) == want


class TestQueueSimulation:
    def test_against_exact_enumeration(self):
        # n = 2, C = 2, b = 0.5: overflow means the integer workload peak
        # exceeds 1, which enumerates over the first two Poisson arrivals
        p = [math.exp(-1.0) / math.factorial(k) for k in range(4)]
        p_ge4 = 1.0 - sum(p)
        p_ge3 = p_ge4 + p[3]
        exact = p_ge4 + (p[0] + p[1] + p[2]) * p_ge4 + p[3] * p_ge3
        est = simulate_queue_overflow_prob(PoissonLaw(1.0), 2.0, 0.5, 2, 200_000,
                                           seed=0)
        assert abs(est.mean - exact) <= 4.0 * est.std_error
        assert est.std_error > 0.0

    @pytest.mark.parametrize("rate, C, b", [
        (1.0, 2.25, 0.05),
        (30.0, 30.5, 0.4),
    ], ids=["constant", "rate30"])
    def test_matches_reference_kernel(self, rate, C, b):
        # two chunks, the second a 1000-row prefix of its stream
        reps, seed, n = mc._QUEUE_CHUNK + 1000, 11, 50
        law, level = PoissonLaw(rate), n * b
        kernel = mc._queue_kernel(law, n, C, level)
        reference = _reference_queue_kernel(law, n, C, level)
        got = list(mc._stream(kernel, reps, mc._QUEUE_CHUNK, seed))
        want = list(mc._stream(reference, reps, mc._QUEUE_CHUNK, seed))
        assert [g.size for g in got] == [mc._QUEUE_CHUNK, 1000]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        est = simulate_queue_overflow_prob(law, C, b, n, reps, seed=seed)
        assert 0.0 < est.mean < 1.0
        assert est == mc._mean_ci(iter(want), reps, seed)

    def test_lanes_are_the_words_in_order(self):
        # lane j of a word w is (w >> 16 j) & 0xffff on either byte order, a
        # word's four lanes are consecutive rows, and step k's rows read the
        # words from counter 4096 k, word 16384 k of the stream: 333 rows
        # take 84 words a step and drop the last word's last three lanes
        words = mc._rng(7, 3).integers(0, 2**64, size=11 * 16384, dtype=np.uint64)
        lanes = mc._lanes(words)
        assert lanes.shape == (4 * 11 * 16384,)
        for j in range(4):
            assert np.array_equal(lanes[j::4], (words >> np.uint64(16 * j)) & np.uint64(0xffff))
        assert np.array_equal(mc._lanes(words.astype(">u8")), lanes)
        u = lane_uniforms(PoissonLaw(1.0), mc._rng(7, 3), 333, 11)
        step_lanes = lanes.reshape(11, 4 * 16384)[:, :333].T
        assert np.array_equal(np.floor(u * 2.0**16), step_lanes)
        # so the guide bucket floor(u * 4096) is the top 12 bits of the lane
        assert np.array_equal(np.floor(u * 4096.0), step_lanes >> 4)

    @pytest.mark.parametrize("rate, n, C, b, reps", _QUEUE_TAKE_CASES)
    def test_takes_match_reference(self, rate, n, C, b, reps):
        law, seed, level = PoissonLaw(rate), 5, n * b
        got = list(mc._stream(mc._queue_kernel(law, n, C, level), reps, mc._QUEUE_CHUNK, seed))
        want = list(mc._stream(_reference_queue_kernel(law, n, C, level), reps,
                               mc._QUEUE_CHUNK, seed))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        assert 0 < sum(int(w.sum()) for w in want) < reps

    def test_steps_search_marked_buckets(self, monkeypatch):
        # lanes in marked buckets take the binary search, and only those,
        # one search a step that has any
        law, take, n = PoissonLaw(math.log(2.0)), 2600, 50
        searched = []
        quantile = PoissonLaw.quantile
        monkeypatch.setattr(PoissonLaw, "quantile",
                            lambda self, u: searched.append(u.size) or quantile(self, u))
        mc._queue_kernel(law, n, 1.0, 2.5)(mc._rng(2, 0), take)
        u = lane_uniforms(law, mc._rng(2, 0), take, n)
        marked = np.sum(law._guide[np.floor(u * 4096.0).astype(np.intp)] < 0, axis=0)
        assert searched == [int(m) for m in marked if m]
        assert 0 < sum(searched) < take * n / 100

    def test_convolution_matches_the_hand_count(self):
        # the case test_against_exact_enumeration counts by hand
        p = [math.exp(-1.0) / math.factorial(k) for k in range(4)]
        p_ge4 = 1.0 - sum(p)
        exact = p_ge4 + (p[0] + p[1] + p[2]) * p_ge4 + p[3] * (p_ge4 + p[3])
        assert _exact_overflow(1.0, 2, 2.0, 0.5) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rate, C, b", [
        (math.log(2.0), 1.0, 0.5), (1.0, 1.5, 0.5), (1.1, 1.25, 1.0), (7.5, 8.0, 1.0),
        (30.0, 31.0, 1.0)])
    def test_z_scores_against_exact_enumeration(self, rate, C, b, n):
        # seeds 0-19 at 20,000 replications each. If z ~ N(0, 1), the mean of
        # 20 z-scores lies within 3 sigma = 3/sqrt(20) of 0, and 19 times
        # their sample variance between the 0.1% and 99.9% quantiles of
        # chi^2_19. The overflow probabilities run from 0.04 to 0.56.
        exact = _exact_overflow(rate, n, C, b)
        z = np.array([(est.mean - exact) / est.std_error for est in (
            simulate_queue_overflow_prob(PoissonLaw(rate), C, b, n, 20_000, seed=seed)
            for seed in range(20))])
        assert abs(z.mean()) <= 3.0 / math.sqrt(20)
        assert 5.4068 <= 19.0 * z.var(ddof=1) <= 43.8202

    @pytest.mark.parametrize("rate, exact", [(1.0, 7.0621e-3), (1.1, 1.7176e-2)])
    def test_z_scores_at_the_benchmark_parameters(self, rate, exact):
        # the README queue sandwich and the queue benchmark: C = 2, b = 0.1,
        # n = 50, nominal rate 1 and alternative 1.1, with the gate above
        p = _exact_overflow(rate, 50, 2.0, 0.1)
        assert p == pytest.approx(exact, rel=1e-4)
        z = np.array([(est.mean - p) / est.std_error for est in (
            simulate_queue_overflow_prob(PoissonLaw(rate), 2.0, 0.1, 50, 20_000, seed=seed)
            for seed in range(20))])
        assert abs(z.mean()) <= 3.0 / math.sqrt(20)
        assert 5.4068 <= 19.0 * z.var(ddof=1) <= 43.8202

    @pytest.mark.parametrize("rate", [math.log(2.0), 1.0, 1.1, 7.5, 30.0])
    def test_refined_lanes_stay_in_their_interval(self, monkeypatch, rate):
        # one step at C = 0: the peak is the arrival, so the levels k + 1/2
        # read every arrival of the kernel back
        law, take = PoissonLaw(rate), 40_000
        searched = []
        quantile = PoissonLaw.quantile
        monkeypatch.setattr(PoissonLaw, "quantile",
                            lambda self, u: searched.append(u.copy()) or quantile(self, u))
        over = mc._queue_kernel(law, 1, 0.0, 0.5)(mc._rng(3, 0), take)
        refined = np.concatenate(searched)
        u = lane_uniforms(law, mc._rng(3, 0), take, 1)[:, 0]
        want = _searchsorted_quantile(law, u)
        levels = range(1, int(want.max()) + 1)
        got = sum((mc._queue_kernel(law, 1, 0.0, k + 0.5)(mc._rng(3, 0), take)
                   for k in levels), over.astype(float))
        assert np.array_equal(got, want)
        # the kernel searched the marked lanes, in order, each with a uniform
        # inside its lane's interval, and got the binary search's answer
        lanes = np.floor(u * 2.0**16)
        marked = law._guide[(lanes // 16).astype(np.intp)] < 0
        assert 0 < refined.size == marked.sum()
        assert np.array_equal(refined, u[marked])
        scaled = refined * 2.0**16
        assert np.all((lanes[marked] <= scaled) & (scaled < lanes[marked] + 1))
        assert np.array_equal(quantile(law, refined), _searchsorted_quantile(law, refined))

    @pytest.mark.parametrize("n, take", [
        (50, 3000), (48, 3000), (3, 1001), (1, 5000), (50, 41), (1, 9), (2, mc._QUEUE_CHUNK)])
    def test_counting_generator_sees_a_quarter_of_the_lanes(self, n, take):
        # each step draws the ceil(take / 4) words that hold its lanes, so a
        # chunk draws n ceil(take / 4); the refinement stream, jumped from
        # the chunk's first state, ends n windows of 16384 counters on
        law = PoissonLaw(math.log(2.0))
        gen = _CountingGenerator(mc._rng(4, 0))
        mc._queue_kernel(law, n, 1.5, 1.0)(gen, take)
        assert gen.sizes == [-(-take // 4)] * n
        assert sum(gen.sizes) == n * -(-take // 4)
        fresh = mc._rng(4, 0).bit_generator.jumped().advance(16384 * n)
        assert len(gen.jumps) == 1
        np.testing.assert_equal(gen.jumps[0].state, fresh.state)

    @pytest.mark.parametrize("take", [1, 41, 1234, mc._QUEUE_CHUNK])
    def test_each_step_reads_its_own_windows(self, take):
        # step k draws ceil(take / 4) words from counter 4096 k and its
        # refinement words from counter 16384 k of the jumped stream, also
        # at a step with no marked lane, where it draws none
        law, n, key = PoissonLaw(1.0), 12, 8 + (3 << 64)
        _RecordingPhilox.log = log = []
        gen = np.random.Generator(_RecordingPhilox(key=key))
        over = mc._queue_kernel(law, n, 1.5, 0.4)(gen, take)
        assert np.array_equal(over, mc._queue_kernel(law, n, 1.5, 0.4)(mc._rng(8, 3), take))
        jumped = 1 << 128
        main = [entry for entry in log if entry[0] < jumped]
        refine = [entry for entry in log if entry[0] >= jumped]
        words = -(-take // 4)
        assert main == [(4096 * k + -(-words // 4), words % 4 or 4, 4096 - -(-words // 4))
                        for k in range(n)]
        u = lane_uniforms(law, mc._rng(8, 3), take, n)
        marked = np.sum(law._guide[np.floor(u * 4096.0).astype(np.intp)] < 0, axis=0)
        assert [(c - jumped - 16384 * k, d) for k, (c, _, d) in enumerate(refine)] == [
            (-(-m // 4), 16384 - -(-m // 4)) for m in marked]
        if take < 1000:
            assert 0 in marked

    def test_validation(self):
        law = PoissonLaw(1.0)
        for bad in ([law] * 2, object(), 1.0):
            with pytest.raises(TypeError):
                simulate_queue_overflow_prob(bad, 2.0, 0.5, 2, 100)
        with pytest.raises(ValueError):
            simulate_queue_overflow_prob(law, 2.0, 0.5, 2, 1)
        with pytest.raises(ValueError):
            simulate_queue_overflow_prob(law, 2.0, 0.5, 0, 100)


class TestBridgeCrossing:
    def test_unbiased_even_on_a_crude_grid(self):
        # the exact kernel reads no step count, so four steps match the
        # closed form
        grid = PathGrid(n_steps=4)
        est = bm_exceedance_estimate(1.0, 0.0, grid, 200_000, seed=0)
        exact = bm_exceedance_nominal(1.0)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_unbiased_with_drift(self):
        grid = PathGrid(n_steps=64)
        est = bm_exceedance_estimate(2.0, 0.1, grid, 200_000, seed=0)
        exact = bm_exceedance_drift(2.0, 0.1, 1.0)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_raw_skeleton_underestimates(self):
        grid = PathGrid(n_steps=16)
        est = bm_exceedance_estimate(1.0, 0.0, grid, 100_000, seed=0, bridge=False)
        exact = bm_exceedance_nominal(1.0)
        assert est.mean < exact - 3.0 * est.std_error

    @pytest.mark.parametrize("level, mu, t", [
        (1.0, 0.1, 1.0), (2.0, 0.1, 1.0), (4.0, 0.0, 1.0), (1.0, -1.0, 2.5), (0.5, 2.0, 0.3)])
    def test_z_scores_are_standard_normal(self, level, mu, t):
        # seeds 0-19 at 20,000 paths each. If z ~ N(0, 1), the mean of 20
        # z-scores lies within 3 sigma = 3/sqrt(20) of 0, and 19 times their
        # sample variance between the 0.1% and 99.9% quantiles of chi^2_19.
        exact = bm_exceedance_drift(level, mu, t)
        z = np.array([(est.mean - exact) / est.std_error for est in (
            bm_exceedance_estimate(level, mu, PathGrid(1, horizon=t), 20_000, seed=seed)
            for seed in range(20))])
        assert abs(z.mean()) <= 3.0 / math.sqrt(20)
        assert 5.4068 <= 19.0 * z.var(ddof=1) <= 43.8202

    def test_step_count_plays_no_part(self):
        a = bm_exceedance_estimate(1.0, 0.1, PathGrid(1, horizon=1.5), 3000, seed=3)
        b = bm_exceedance_estimate(1.0, 0.1, PathGrid(64, horizon=1.5), 3000, seed=3)
        assert a == b

    @pytest.mark.parametrize("level, mu, t", [
        # no tilt (mu t past K), a tilt to K, and a tilt capped at 2K / sqrt(t)
        (0.5, 2.0, 0.3), (1.0, 0.1, 1.0), (4.0, 0.0, 1.0), (1.0, -1.0, 2.5), (0.5, -2.0, 1.5)])
    def test_bridge_kernel_draws_one_normal_a_path(self, level, mu, t):
        # the samples are the end-value reference's, they lie in [0, 1], and
        # the generator ends where take normals leave a fresh one
        take, gen = 5000, mc._rng(8, 0)
        got = mc._bridge_kernel(level, mu, t)(gen, take)
        want = _reference_bridge_kernel(level, mu, t)(mc._rng(8, 0), take)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        assert 0.0 < got.min() and got.max() <= 1.0
        fresh = mc._rng(8, 0)
        fresh.standard_normal(take)
        np.testing.assert_equal(gen.bit_generator.state, fresh.bit_generator.state)

    @pytest.mark.filterwarnings("error")
    def test_no_nan_at_extreme_inputs(self):
        for level, t, mu in itertools.product(
                [1e-300, 1.0, 1e300, _DBL_MAX], [5e-324, 1e-300, 1.0, 1e300, _DBL_MAX],
                [-1e300, -10.0, 0.0, 10.0, 1e300]):
            grid = PathGrid(1, horizon=t)
            probs = _crossing_samples(level, mu, grid, 2000, seed=0)
            assert np.all((probs >= 0.0) & (probs <= 1.0)), (level, t, mu)
            est = bm_exceedance_estimate(level, mu, grid, 2000, seed=0)
            assert not any(map(math.isnan, (est.mean, est.std_error, *est.ci95)))

    def test_extremes_read_zero_or_one(self):
        # a level far past every end value is never reached, a level at the
        # start is always reached, and so is a level far below a huge drift
        assert np.all(_crossing_samples(1e300, 0.0, _GRID64, 100, seed=0) == 0.0)
        assert np.all(_crossing_samples(1e-300, 10.0, _GRID64, 100, seed=0) == 1.0)
        assert np.all(_crossing_samples(1.0, 1e300, _GRID64, 100, seed=0) == 1.0)
        assert np.all(_crossing_samples(1.0, 0.0, PathGrid(1, horizon=5e-324), 100, seed=0) == 0.0)

    def test_validation(self):
        for bridge in (True, False):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    bm_exceedance_estimate(bad, 0.0, _GRID64, 10, bridge=bridge)
            with pytest.raises(ValueError):
                bm_exceedance_estimate(1.0, 0.0, _GRID64, 1, bridge=bridge)


class TestArgmax:
    def test_validation(self):
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError):
                argmax_laplace_estimate(1.0, 0.0, _GRID64, 10, seed=bad)

    def test_laplace_estimate_matches_arcsine(self):
        # the sampler is exact, so no discretization bias rides on the noise
        est = argmax_laplace_estimate(2.0, 0.0, PathGrid(n_steps=1024), 50_000, seed=0)
        assert abs(est.mean - laplace_h_wiener(2.0)) <= 3.0 * est.std_error

    @pytest.mark.parametrize("gamma, mu", [
        (1.0, 0.1), (2.0, 0.5), (10.0, 0.3), (1.0, -1.0), (1.0, 2.0)])
    def test_z_scores_are_standard_normal(self, gamma, mu):
        # seeds 0-19 at 20,000 samples each. If z ~ N(0, 1), the mean of 20
        # z-scores lies within 3 sigma = 3/sqrt(20) of 0, and 19 times their
        # sample variance between the 0.1% and 99.9% quantiles of chi^2_19.
        # At mu = 2 the Girsanov weights have variance e^4 - 1.
        exact = laplace_h_drift(gamma, 1.0, mu)
        z = np.array([(est.mean - exact) / est.std_error for est in (
            argmax_laplace_estimate(gamma, mu, PathGrid(1), 20_000, seed=seed)
            for seed in range(20))])
        assert abs(z.mean()) <= 3.0 / math.sqrt(20)
        assert 5.4068 <= 19.0 * z.var(ddof=1) <= 43.8202

    def test_horizon(self):
        grid = PathGrid(n_steps=1, horizon=2.5)
        est = argmax_laplace_estimate(1.0, 0.3, grid, 50_000, seed=1)
        assert abs(est.mean - laplace_h_drift(1.0, 2.5, 0.3)) <= 3.0 * est.std_error

    def test_step_count_plays_no_part(self):
        a = argmax_laplace_estimate(1.0, 0.1, PathGrid(1, horizon=1.5), 3000, seed=3)
        b = argmax_laplace_estimate(1.0, 0.1, PathGrid(4096, horizon=1.5), 3000, seed=3)
        assert a == b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [-800.0, 800.0])
    @pytest.mark.parametrize("mu", [-50.0, 50.0])
    def test_no_nan_at_extreme_inputs(self, gamma, mu):
        samples = _argmax_samples(gamma, mu, 1.0, 20_000, mc._EXACT_CHUNK, seed=0)
        assert not np.isnan(samples).any()
        est = argmax_laplace_estimate(gamma, mu, _GRID64, 20_000, seed=0)
        assert not any(map(math.isnan, (est.mean, est.std_error, *est.ci95)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_terms_meet_without_nan(self):
        # at t = 1e308 both gamma H and mu^2 t / 2 overflow, and their
        # infinities of opposite sign met as nan; the exponent is -inf there,
        # and every other sample keeps its bits
        got = _argmax_samples(-10.0, 10.0, 1e308, 20_000, mc._EXACT_CHUNK, seed=0)
        with np.errstate(invalid="ignore"):
            want = _reference_argmax_kernel(-10.0, 10.0, 1e308)(mc._rng(0, 0), 20_000)
        nan = np.isnan(want)
        assert 0 < nan.sum() < nan.size
        assert np.all(got[nan] == 0.0)
        _assert_same_bits(got[~nan], want[~nan])

    @pytest.mark.filterwarnings("error")
    def test_no_nan_at_any_scale(self):
        for gamma, mu, t in itertools.product(
                [-_DBL_MAX, -1e200, -10.0, 10.0], [-_DBL_MAX, -1e200, -10.0, 10.0, 1e200],
                [5e-324, 1.0, 1e308, _DBL_MAX]):
            samples = _argmax_samples(gamma, mu, t, 2000, mc._EXACT_CHUNK, seed=0)
            assert not np.isnan(samples).any(), (gamma, mu, t)

    def test_validation_paths(self):
        with pytest.raises(ValueError):
            argmax_laplace_estimate(1.0, 0.0, _GRID64, 1)


def _tanh_divergence_feynman_kac(mu, alpha, t, n_x=2001, n_t=1000, half_width=8.0):
    """D_alpha between dX = mu tanh(X) dt + dB and Brownian motion on [0, t].

    With A = mu log cosh, b = A' and psi = (b^2 + b') / 2, Ito's formula
    gives alpha LLR = alpha A(B_t) - alpha int_0^t psi(B_s) ds, so by
    Feynman-Kac E exp(alpha LLR) = u(t, 0) for u_tau = u_xx / 2 - alpha psi u,
    u(0, x) = cosh(x)^(alpha mu). Crank-Nicolson on [-8, 8] with u = 0 at
    the ends, which paths from 0 reach by t = 1 with probability < 1e-14.
    """
    from scipy.linalg import solve_banded

    x = np.linspace(-half_width, half_width, n_x)
    tau, h = t / n_t, x[1] - x[0]
    psi = 0.5 * (mu * mu * np.tanh(x[1:-1]) ** 2 + mu / np.cosh(x[1:-1]) ** 2)
    r, damp = tau / (4.0 * h * h), 0.5 * tau * alpha * psi
    implicit = np.zeros((3, n_x - 2))
    implicit[0, 1:] = implicit[2, :-1] = -r
    implicit[1] = 1.0 + 2.0 * r + damp
    u = np.cosh(x) ** (alpha * mu)
    u[0] = u[-1] = 0.0
    for _ in range(n_t):
        explicit = (1.0 - 2.0 * r - damp) * u[1:-1] + r * (u[:-2] + u[2:])
        u[1:-1] = solve_banded((1, 1), implicit, explicit)
    return math.log(u[n_x // 2]) / (alpha * (alpha - 1.0))


class TestGirsanov:
    def test_single_path_constant_drift_llr(self):
        # a constant drift m gives LLR = m B_1 - m^2/2 on every path, so
        # two drifts at one seed must recover the same endpoint B_1
        grid = PathGrid(n_steps=128)
        a = _girsanov_samples(_const_drift(0.4), grid, 500, seed=5)
        b = _girsanov_samples(_const_drift(-1.3), grid, 500, seed=5)
        assert a / 0.4 + 0.2 == pytest.approx(b / -1.3 - 0.65, rel=1e-12)

    def test_likelihood_ratio_is_martingale(self):
        llr = _girsanov_samples(_tanh_drift(0.5), _GRID64, 100_000, seed=0)
        w = np.exp(llr)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 3.0 * se

    def test_constant_drift_divergence(self):
        for mu in (0.1, 0.3):
            for alpha in (2.0, 3.0):
                est = girsanov_renyi_estimate(_const_drift(mu), _GRID64, alpha,
                                              100_000, seed=0)
                assert abs(est.mean - 0.5 * mu * mu) <= 3.0 * est.std_error, (
                    mu, alpha)

    def test_bounded_drift_stays_under_budget(self):
        # |mu tanh| <= mu, so the path divergence cannot exceed mu^2/2
        est = girsanov_renyi_estimate(_tanh_drift(0.1), _GRID64, 2.0,
                                      100_000, seed=0)
        assert est.mean <= 0.005 + 3.0 * est.std_error

    def test_bounded_drift_matches_feynman_kac(self):
        # two-sided, where the workload's mu^2/2 cap is one-sided: at
        # mu = 0.1, alpha = 2, t = 1 the divergence is 1.32504e-3, a quarter
        # of the cap, and a factor-3 error in either direction is over 5 se
        exact = _tanh_divergence_feynman_kac(0.1, 2.0, 1.0)
        assert exact == pytest.approx(_tanh_divergence_feynman_kac(
            0.1, 2.0, 1.0, n_x=1001, n_t=500), abs=1e-6)
        assert exact == pytest.approx(1.32504e-3, rel=1e-4)
        est = girsanov_renyi_estimate(_tanh_drift(0.1), PathGrid(256), 2.0,
                                      100_000, seed=0)
        assert abs(est.mean - exact) <= 3.0 * est.std_error
        # exact / 3 and 3 exact both lie more than 3 se from exact
        assert 3.0 * est.std_error < exact - exact / 3.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            girsanov_renyi_estimate(_const_drift(0.1), _GRID64, 1.0, 100)
        with pytest.raises(ValueError):
            girsanov_renyi_estimate(_const_drift(0.1), _GRID64, 0.0, 100)

    def test_drift_shape_check(self):
        with pytest.raises(ValueError):
            _girsanov_samples(lambda x: np.zeros(3), _GRID64, 10)


# Grids run to t = 1.5, so dt is not a power of two and any change in the
# rounding order shows. (n_steps, n_paths): one step and one short chunk;
# one short chunk (64 steps); four whole chunks of 2^14 paths and a short
# fifth (64 steps); a short chunk at 4096 steps; and 55 paths at 40000
# steps, so 40000 windows. The exact argmax kernel reads only the path
# counts: within one block of 5461 rows, or two chunks of 2^16 with a
# short last block.
_BLOCK_CASES = [
    (1, 5000),
    (64, 300),
    (64, 4 * 16384 + 777),
    (4096, 512 + 13),
    (40000, 52 + 3),
]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestRowBlocksMatchWholeChunks:
    """The step-major and row-block kernels keep every sample of the matrix-form references."""

    def test_cases_cover_the_layouts(self):
        chunks = [-(-n // mc._PATH_CHUNK) for _, n in _BLOCK_CASES]
        assert mc._PATH_CHUNK == 1 << 14
        assert chunks == [1, 1, 5, 1, 1]
        assert [n % mc._PATH_CHUNK for _, n in _BLOCK_CASES] == [5000, 300, 777, 525, 55]

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    @pytest.mark.parametrize("mu", [-2.0, 0.0, 0.3])
    def test_crossing(self, monkeypatch, n_steps, n_paths, mu):
        # the skeleton kernel behind bridge=False
        grid = PathGrid(n_steps, horizon=1.5)
        seed = 1000 + n_steps

        def call():
            return (_crossing_samples(0.5, mu, grid, n_paths, seed=seed, bridge=False),
                    bm_exceedance_estimate(0.5, mu, grid, n_paths, seed=seed, bridge=False))
        got, want = _row_blocks_and_reference(
            monkeypatch, "_crossing_kernel", reference_crossing_kernel, call)
        _assert_same_bits(got[0], want[0])
        assert repr(got[1].to_json_dict()) == repr(want[1].to_json_dict())

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    def test_crossing_without_bridge_draws_only_kept_rows(self, n_steps, n_paths):
        # each step draws take normals from its own window and nothing
        # more, so the generator ends take normals into the last window
        grid = PathGrid(n_steps, horizon=1.5)
        take = min(n_paths, mc._PATH_CHUNK)
        seed = 4000 + n_steps
        gen = mc._rng(seed, 0)
        got = mc._crossing_kernel(0.5, 0.3, grid)(gen, take)
        want = reference_crossing_kernel(0.5, 0.3, grid)(mc._rng(seed, 0), take)
        _assert_same_bits(got, want)
        last = np.random.Philox(key=seed, counter=(n_steps - 1) << 64)
        np.random.Generator(last).standard_normal(take)
        np.testing.assert_equal(gen.bit_generator.state, last.state)

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    @pytest.mark.parametrize("mu", [-2.0, 0.0, 0.3])
    def test_argmax(self, monkeypatch, n_steps, n_paths, mu):
        grid = PathGrid(n_steps, horizon=1.5)
        seed = 2000 + n_steps

        def call():
            return (_argmax_samples(1.5, mu, 1.5, n_paths, mc._EXACT_CHUNK, seed),
                    argmax_laplace_estimate(1.5, mu, grid, n_paths, seed=seed))
        got, want = _row_blocks_and_reference(
            monkeypatch, "_argmax_kernel", _reference_argmax_kernel, call)
        _assert_same_bits(got[0], want[0])
        assert repr(got[1].to_json_dict()) == repr(want[1].to_json_dict())

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    @pytest.mark.parametrize("drift", [_const_drift(0.3), _tanh_drift(-2.0)],
                             ids=["const", "tanh"])
    def test_girsanov(self, monkeypatch, n_steps, n_paths, drift):
        grid = PathGrid(n_steps, horizon=1.5)
        seed = 3000 + n_steps

        def call():
            return (_girsanov_samples(drift, grid, n_paths, seed=seed),
                    girsanov_renyi_estimate(drift, grid, 2.5, n_paths, seed=seed))
        got, want = _row_blocks_and_reference(
            monkeypatch, "_girsanov_kernel", reference_girsanov_kernel, call)
        _assert_same_bits(got[0], want[0])
        assert repr(got[1].to_json_dict()) == repr(want[1].to_json_dict())

    def test_drift_mutating_its_input(self, monkeypatch):
        # each step hands drift a scratch copy of the pre-step values, so
        # a drift that overwrites its argument changes no sample
        def clobber(x):
            m = np.tanh(x)
            x[:] = 5.0
            return m

        got, want = _row_blocks_and_reference(
            monkeypatch, "_girsanov_kernel", reference_girsanov_kernel,
            lambda: _girsanov_samples(clobber, PathGrid(256), 700, seed=4))
        _assert_same_bits(got, want)
        _assert_same_bits(got, _girsanov_samples(np.tanh, PathGrid(256), 700, seed=4))


def _path_outputs(grid, n_paths, seed):
    """Every path kernel's samples and estimate at one layout, as bytes and reprs."""
    out = []
    for bridge in (True, False):
        out += [_crossing_samples(0.5, 0.3, grid, n_paths, seed, bridge=bridge).tobytes(),
                repr(bm_exceedance_estimate(0.5, 0.3, grid, n_paths, seed=seed,
                                            bridge=bridge).to_json_dict())]
    drift = _tanh_drift(-2.0)
    return out + [
        repr(argmax_laplace_estimate(1.5, 0.3, grid, n_paths, seed=seed).to_json_dict()),
        _girsanov_samples(drift, grid, n_paths, seed=seed).tobytes(),
        repr(girsanov_renyi_estimate(drift, grid, 2.5, n_paths, seed=seed).to_json_dict()),
    ]


def _queue_outputs(law, n, C, b, reps, seed):
    kernel = mc._queue_kernel(law, n, C, n * b)
    chunks = [c.tobytes() for c in mc._stream(kernel, reps, mc._QUEUE_CHUNK, seed)]
    est = simulate_queue_overflow_prob(law, C, b, n, reps, seed=seed)
    return chunks + [repr(est.to_json_dict())]


def _stream_index(gen) -> int:
    # _rng keys stream i's Philox with seed + (i << 64)
    return int(gen.bit_generator.state["state"]["key"][1])


class TestChunksOnThreads:
    """Chunks run _WORKERS at a time and come back in stream order, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    def test_path_kernels_match_serial(self, monkeypatch, workers, n_steps, n_paths):
        grid, seed = PathGrid(n_steps, horizon=1.5), 5000 + n_steps
        monkeypatch.setattr(mc, "_WORKERS", 1)
        want = _path_outputs(grid, n_paths, seed)
        monkeypatch.setattr(mc, "_WORKERS", workers)
        assert _path_outputs(grid, n_paths, seed) == want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rate, n, C, b, reps", _QUEUE_TAKE_CASES)
    def test_queue_kernel_matches_serial(self, monkeypatch, workers, rate, n, C, b, reps):
        law = PoissonLaw(rate)
        monkeypatch.setattr(mc, "_WORKERS", 1)
        want = _queue_outputs(law, n, C, b, reps, seed=6)
        monkeypatch.setattr(mc, "_WORKERS", workers)
        assert _queue_outputs(law, n, C, b, reps, seed=6) == want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_generators_are_made_on_the_calling_thread(self, monkeypatch, workers):
        # so a proxy swapped in for _rng sees every chunk, in stream order
        made = []
        rng = mc._rng
        monkeypatch.setattr(mc, "_rng", lambda seed, stream: made.append(
            (threading.get_ident(), stream)) or rng(seed, stream))
        monkeypatch.setattr(mc, "_WORKERS", workers)
        chunks = list(mc._stream(lambda gen, take: np.full(take, _stream_index(gen)),
                                 35, 10, seed=1))
        assert made == [(threading.get_ident(), i) for i in range(4)]
        assert [c.tolist() for c in chunks] == [[i] * t for i, t in enumerate([10, 10, 10, 5])]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 1, 3])
    def test_kernel_error_joins_every_helper(self, monkeypatch, workers, bad):
        # the chunks before the failing one come out, then its error; the
        # others take long enough that a helper left unjoined is still alive
        def kernel(gen, take):
            if _stream_index(gen) == bad:
                raise RuntimeError("bad chunk")
            time.sleep(0.02)
            return np.full(take, _stream_index(gen))

        monkeypatch.setattr(mc, "_WORKERS", workers)
        before, got = threading.active_count(), []
        with pytest.raises(RuntimeError, match="bad chunk"):
            for c in mc._stream(kernel, 35, 10, seed=1):
                got.append(int(c[0]))
        assert got == list(range(bad))
        assert threading.active_count() == before

    def test_closing_the_stream_joins_the_helpers(self, monkeypatch):
        monkeypatch.setattr(mc, "_WORKERS", 3)
        before = threading.active_count()
        def kernel(gen, take):
            # the helpers are still at work when the first chunk comes out
            time.sleep(0.05 if _stream_index(gen) else 0.0)
            return np.zeros(take)

        chunks = mc._stream(kernel, 35, 10, seed=1)
        assert next(chunks).size == 10
        chunks.close()
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("error")
    def test_helpers_keep_the_callers_error_state(self, monkeypatch):
        # a helper's overflow is as silent as it would be on this thread
        monkeypatch.setattr(mc, "_WORKERS", 2)
        with np.errstate(over="ignore"):
            chunks = list(mc._stream(lambda gen, take: np.full(take, 1e200) * 1e200,
                                     20, 10, seed=0))
        assert all(np.all(c == math.inf) for c in chunks)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_drift_error_on_the_second_chunk(self, monkeypatch, workers):
        # only the second chunk is short, and only there does drift return
        # the wrong shape
        def drift(x):
            return np.tanh(x) if len(x) == mc._PATH_CHUNK else np.zeros(3)

        monkeypatch.setattr(mc, "_WORKERS", workers)
        n_paths = mc._PATH_CHUNK + 100
        before = threading.active_count()
        for call in (lambda: _girsanov_samples(drift, _GRID64, n_paths),
                     lambda: girsanov_renyi_estimate(drift, _GRID64, 2.0, n_paths)):
            with pytest.raises(ValueError, match="^drift must map a path array"):
                call()
            assert threading.active_count() == before


def _traced_peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestQueueMemory:
    """The queue kernel holds a few vectors of its chunk's rows, not a chunk of uniforms."""

    def test_queue_estimate(self, monkeypatch):
        # the whole-chunk kernel peaked at 27.7 MiB here, the step-major one
        # at 3.7 MiB: two threads hold a chunk's q, peak, lanes and arrivals each
        monkeypatch.setattr(mc, "_WORKERS", 2)
        peak = _traced_peak_mib(lambda: simulate_queue_overflow_prob(
            PoissonLaw(1.0), 2.0, 0.1, 50, 200_000))
        assert peak < 16.0


class TestPathMemory:
    """Path kernels hold vectors of a chunk's rows or row blocks, never rows x steps.

    numpy reports its arrays to tracemalloc.
    """

    # whole-chunk kernels peaked at 80, 80 and 16 MiB on these runs
    LIMIT_MIB = 8.0

    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        # every run spans two or more chunks, so two threads hold a chunk's
        # vectors or a row block each
        monkeypatch.setattr(mc, "_WORKERS", 2)

    def test_crossing_estimate(self):
        # the skeleton's step vectors, and the exact kernel's 2^16-sample chunks
        for bridge in (True, False):
            peak = _traced_peak_mib(lambda: bm_exceedance_estimate(
                1.0, 0.1, _GRID64, 140_000, seed=1, bridge=bridge))
            assert peak < self.LIMIT_MIB, bridge

    def test_girsanov_estimate(self):
        peak = _traced_peak_mib(lambda: girsanov_renyi_estimate(
            _tanh_drift(0.1), PathGrid(256), 2.0, 20_000, seed=1))
        assert peak < self.LIMIT_MIB

    def test_argmax_estimate(self):
        peak = _traced_peak_mib(lambda: argmax_laplace_estimate(
            1.0, 0.1, PathGrid(4096), 1000, seed=1))
        assert peak < self.LIMIT_MIB


class TestPathGrid:
    def test_dt(self):
        assert PathGrid(n_steps=4, horizon=2.0).dt == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PathGrid(n_steps=0)
        with pytest.raises(ValueError):
            PathGrid(n_steps=4, horizon=0.0)


def test_estimate_is_frozen():
    est = EstimateWithCI(mean=0.5, std_error=0.1, ci95=(0.3, 0.7),
                         n_samples=10, seed=0)
    with pytest.raises(AttributeError):
        est.mean = 1.0
