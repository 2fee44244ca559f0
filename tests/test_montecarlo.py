"""Reproducible Monte Carlo estimators: layout, bias, and agreement."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from renyibounds import montecarlo as mc
from renyibounds.applications.brownian import (
    bm_exceedance_drift,
    bm_exceedance_nominal,
    laplace_h_wiener,
)
from renyibounds.measures import logsumexp
from renyibounds.montecarlo import (
    EstimateWithCI,
    PathGrid,
    PoissonLaw,
    argmax_laplace_estimate,
    argmax_time_samples,
    bm_crossing_samples,
    bm_exceedance_estimate,
    girsanov_log_lr_samples,
    girsanov_renyi_estimate,
    simulate_queue_overflow_prob,
)

_GRID64 = PathGrid(n_steps=64)


def _const_drift(mu):
    return lambda x: np.full_like(x, mu)


def _tanh_drift(mu):
    return lambda x: mu * np.tanh(x)


def _searchsorted_quantile(law, u):
    """The binary-search inversion that the guide table must reproduce."""
    idx = np.searchsorted(law._cdf, np.asarray(u), side="right")
    return np.minimum(idx, law._cdf.size - 1).astype(float)


def _reference_queue_kernel(laws, C, level):
    """Queue kernel that draws a full chunk and searches the table per step."""
    def kernel(gen, take):
        u = gen.random((mc._QUEUE_CHUNK, len(laws)))[:take]
        q = np.zeros(take)
        peak = np.zeros(take)
        for k, law in enumerate(laws):
            q = np.maximum(q + _searchsorted_quantile(law, u[:, k]) - C, 0.0)
            np.maximum(peak, q, out=peak)
        return peak > level

    return kernel


def _reference_crossing_kernel(level, mu, grid, bridge):
    """Whole-chunk crossing kernel that the row-block kernel must reproduce."""
    dt = grid.dt

    def kernel(gen, take):
        normals = (mc._path_chunk(grid), grid.n_steps)
        path = np.cumsum(math.sqrt(dt) * gen.standard_normal(normals)[:take] + mu * dt, axis=1)
        crossed = np.max(path, axis=1) >= level
        if not bridge:
            return crossed
        u = gen.random(mc._path_chunk(grid))[:take]
        left = np.concatenate([np.zeros((take, 1)), path[:, :-1]], axis=1)
        log_cross = np.minimum(-2.0 * (level - left) * (level - path) / dt, 0.0)
        with np.errstate(divide="ignore"):
            log_no_cross = np.log1p(-np.exp(log_cross))
        p_unseen = -np.expm1(np.sum(log_no_cross, axis=1))
        return crossed | (u < p_unseen)

    return kernel


def _reference_argmax_kernel(mu, grid):
    """Whole-chunk argmax kernel that the row-block kernel must reproduce."""
    dt = grid.dt

    def kernel(gen, take):
        path = gen.standard_normal((take, grid.n_steps))
        path *= math.sqrt(dt)
        path += mu * dt
        np.cumsum(path, axis=1, out=path)
        i = np.argmax(path, axis=1)
        peak = np.take_along_axis(path, i[:, None], axis=1)[:, 0]
        return np.where(peak > 0.0, (i + 1) * dt, 0.0)

    return kernel


def _reference_girsanov_kernel(drift, grid):
    """Whole-chunk Girsanov kernel that the row-block kernel must reproduce."""
    dt = grid.dt

    def kernel(gen, take):
        db = gen.standard_normal((take, grid.n_steps))
        db *= math.sqrt(dt)
        path = np.cumsum(db, axis=1)
        pre = np.concatenate([np.zeros((take, 1)), path[:, :-1]], axis=1)
        m = np.asarray(drift(pre), dtype=float)
        return np.sum(m * db, axis=1) - 0.5 * dt * np.sum(m * m, axis=1)

    return kernel


def _row_blocks_and_reference(monkeypatch, factory, reference, call):
    """call() as it runs, then again with the whole-chunk reference kernel."""
    got = call()
    with monkeypatch.context() as m:
        m.setattr(mc, factory, reference)
        want = call()
    return got, want


class TestDeterminism:
    def test_same_seed_same_samples(self):
        a = bm_crossing_samples(1.0, 0.1, _GRID64, 2000, seed=3)
        b = bm_crossing_samples(1.0, 0.1, _GRID64, 2000, seed=3)
        assert np.array_equal(a, b)
        c = bm_crossing_samples(1.0, 0.1, _GRID64, 2000, seed=4)
        assert not np.array_equal(a, c)

    def test_estimates_are_reproducible(self):
        e1 = girsanov_renyi_estimate(_const_drift(0.3), _GRID64, 2.0, 5000, seed=9)
        e2 = girsanov_renyi_estimate(_const_drift(0.3), _GRID64, 2.0, 5000, seed=9)
        assert e1.mean == e2.mean
        assert e1.std_error == e2.std_error

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            bm_crossing_samples(1.0, 0.0, _GRID64, 10, seed=-1)
        with pytest.raises(ValueError):
            bm_crossing_samples(1.0, 0.0, _GRID64, 10, seed=1 << 64)


class TestPrefixProperty:
    def test_within_one_chunk(self):
        short = girsanov_log_lr_samples(_tanh_drift(0.2), _GRID64, 500, seed=1)
        long = girsanov_log_lr_samples(_tanh_drift(0.2), _GRID64, 900, seed=1)
        assert np.array_equal(long[:500], short)

    def test_across_chunk_boundary(self):
        # chunk size for 64-step paths is 2^21 / 64 = 32768; growing the
        # sample count must only append, even through the boundary
        short = girsanov_log_lr_samples(_tanh_drift(0.2), _GRID64, 33000, seed=1)
        long = girsanov_log_lr_samples(_tanh_drift(0.2), _GRID64, 40000, seed=1)
        assert np.array_equal(long[:33000], short)

    def test_argmax_samples_prefix(self):
        grid = PathGrid(n_steps=16)
        short = argmax_time_samples(0.1, grid, 800, seed=2)
        long = argmax_time_samples(0.1, grid, 1300, seed=2)
        assert np.array_equal(long[:800], short)

    def test_crossing_samples_prefix(self):
        grid = PathGrid(n_steps=16)
        short = bm_crossing_samples(1.0, 0.0, grid, 700, seed=2)
        long = bm_crossing_samples(1.0, 0.0, grid, 1200, seed=2)
        assert np.array_equal(long[:700], short)


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


class TestEstimatesReduceSamples:
    # 33000 paths of 64 steps span two chunks of 32768
    N = 33000

    def test_crossing(self):
        for bridge in (True, False):
            hits = bm_crossing_samples(1.0, 0.1, _GRID64, self.N, seed=4, bridge=bridge)
            est = bm_exceedance_estimate(1.0, 0.1, _GRID64, self.N, seed=4, bridge=bridge)
            assert est.mean * self.N == hits.sum()
            assert est.std_error == pytest.approx(
                math.sqrt(est.mean * (1.0 - est.mean) / (self.N - 1)), rel=1e-12)

    def test_argmax_laplace(self):
        vals = np.exp(-1.5 * argmax_time_samples(0.1, _GRID64, self.N, seed=4))
        est = argmax_laplace_estimate(1.5, 0.1, _GRID64, self.N, seed=4)
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(self.N), rel=1e-9)

    def test_girsanov(self):
        alpha = 2.5
        llr = girsanov_log_lr_samples(_tanh_drift(0.3), _GRID64, self.N, seed=4)
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
        # the values the unclamped table gave: no uniform in [0, 1) moves
        est = simulate_queue_overflow_prob(PoissonLaw(7.5), 8.0, 0.2, 50, 20_000, seed=0)
        assert est.mean == 0.64765
        assert est.std_error == 0.0033779497335247777
        est = simulate_queue_overflow_prob(PoissonLaw(1.1), 2.0, 0.1, 50, 20_000, seed=0)
        assert est.mean == 0.0183
        assert est.std_error == 0.0009477871148210189


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

    def test_single_law_equals_per_step_list(self):
        law = PoissonLaw(1.2)
        a = simulate_queue_overflow_prob(law, 2.0, 0.3, 5, 20_000, seed=3)
        b = simulate_queue_overflow_prob([law] * 5, 2.0, 0.3, 5, 20_000, seed=3)
        assert a.mean == b.mean

    @pytest.mark.parametrize("laws, C, b", [
        ([PoissonLaw(1.0)] * 50, 2.25, 0.05),
        ([PoissonLaw(r) for r in np.linspace(0.05, 30.0, 50)], 24.5, 0.4),
    ], ids=["constant", "per-step"])
    def test_matches_reference_kernel(self, laws, C, b):
        # two chunks, the second a 1000-row prefix of its stream
        reps, seed = mc._QUEUE_CHUNK + 1000, 11
        level = len(laws) * b
        kernel = mc._queue_kernel(laws, C, level)
        reference = _reference_queue_kernel(laws, C, level)
        got = list(mc._stream(kernel, reps, mc._QUEUE_CHUNK, seed))
        want = list(mc._stream(reference, reps, mc._QUEUE_CHUNK, seed))
        assert [g.size for g in got] == [mc._QUEUE_CHUNK, 1000]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        est = simulate_queue_overflow_prob(laws, C, b, len(laws), reps, seed=seed)
        assert 0.0 < est.mean < 1.0
        assert est == mc._mean_ci(iter(want), reps, seed)

    def test_validation(self):
        law = PoissonLaw(1.0)
        with pytest.raises(ValueError):
            simulate_queue_overflow_prob([law] * 3, 2.0, 0.5, 2, 100)
        with pytest.raises(TypeError):
            simulate_queue_overflow_prob([law, object()], 2.0, 0.5, 2, 100)
        with pytest.raises(ValueError):
            simulate_queue_overflow_prob(law, 2.0, 0.5, 2, 1)
        with pytest.raises(ValueError):
            simulate_queue_overflow_prob(law, 2.0, 0.5, 0, 100)


class TestBridgeCrossing:
    def test_bridge_dominates_raw_skeleton(self):
        grid = PathGrid(n_steps=32)
        raw = bm_crossing_samples(1.0, 0.0, grid, 50_000, seed=7, bridge=False)
        fixed = bm_crossing_samples(1.0, 0.0, grid, 50_000, seed=7, bridge=True)
        assert np.all(fixed >= raw)
        assert fixed.sum() > raw.sum()

    def test_unbiased_even_on_a_crude_grid(self):
        # with constant drift the bridge correction is exact at any step
        # count; four steps must already match the closed form
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

    def test_validation(self):
        with pytest.raises(ValueError):
            bm_crossing_samples(0.0, 0.0, _GRID64, 10)
        with pytest.raises(ValueError):
            bm_exceedance_estimate(1.0, 0.0, _GRID64, 1)


class TestArgmax:
    def test_path_that_stays_negative(self):
        # the start point takes part, so paths that fall at once peak at 0
        h = argmax_time_samples(-50.0, PathGrid(n_steps=8), 2000, seed=1)
        assert np.all(h == 0.0)

    def test_interior_maximum(self):
        # argmax times are grid times, and every one of them occurs
        grid = PathGrid(n_steps=8, horizon=2.0)
        h = argmax_time_samples(0.0, grid, 5000, seed=1)
        assert set(np.unique(h)) == set(0.25 * np.arange(9))

    def test_validation(self):
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError):
                argmax_time_samples(0.0, _GRID64, 10, seed=bad)
            with pytest.raises(ValueError):
                argmax_laplace_estimate(1.0, 0.0, _GRID64, 10, seed=bad)

    def test_driftless_mean_is_half(self):
        # path reversal swaps the argmax index k with n - k, so the
        # skeleton argmax time has mean t/2 exactly at any step count
        grid = PathGrid(n_steps=256)
        h = argmax_time_samples(0.0, grid, 50_000, seed=0)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - 0.5) <= 3.0 * se

    def test_laplace_estimate_matches_arcsine(self):
        grid = PathGrid(n_steps=1024)
        est = argmax_laplace_estimate(2.0, 0.0, grid, 50_000, seed=0)
        exact = laplace_h_wiener(2.0)
        # skeleton argmax carries an O(sqrt(dt)) early bias on top of the
        # Monte Carlo noise
        assert abs(est.mean - exact) <= 3.0 * est.std_error + 0.02

    def test_validation_paths(self):
        with pytest.raises(ValueError):
            argmax_time_samples(0.0, _GRID64, 0)
        with pytest.raises(ValueError):
            argmax_laplace_estimate(1.0, 0.0, _GRID64, 1)


class TestGirsanov:
    def test_single_path_constant_drift_llr(self):
        # a constant drift m gives LLR = m B_1 - m^2/2 on every path, so
        # two drifts at one seed must recover the same endpoint B_1
        grid = PathGrid(n_steps=128)
        a = girsanov_log_lr_samples(_const_drift(0.4), grid, 500, seed=5)
        b = girsanov_log_lr_samples(_const_drift(-1.3), grid, 500, seed=5)
        assert a / 0.4 + 0.2 == pytest.approx(b / -1.3 - 0.65, rel=1e-12)

    def test_likelihood_ratio_is_martingale(self):
        llr = girsanov_log_lr_samples(_tanh_drift(0.5), _GRID64, 100_000, seed=0)
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

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            girsanov_renyi_estimate(_const_drift(0.1), _GRID64, 1.0, 100)
        with pytest.raises(ValueError):
            girsanov_renyi_estimate(_const_drift(0.1), _GRID64, 0.0, 100)

    def test_drift_shape_check(self):
        with pytest.raises(ValueError):
            girsanov_log_lr_samples(lambda x: np.zeros(3), _GRID64, 10)


# Grids run to t = 1.5, so dt is not a power of two and any change in the
# rounding order shows. (n_steps, n_paths): fewer paths than one block's rows (1 and 64 steps);
# two chunks plus a remainder that is not a multiple of the block rows
# (64 steps); a chunk plus 13 paths at 8 rows per block (4096 steps); and
# more steps than a block holds, one row per block
_BLOCK_CASES = [
    (1, 5000),
    (64, 300),
    (64, 2 * 32768 + 777),
    (4096, 512 + 13),
    (mc._PATH_BLOCK + 7232, 52 + 3),
]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestRowBlocksMatchWholeChunks:
    """The row-block kernels keep every sample of the whole-chunk kernels."""

    def test_cases_cover_the_layouts(self):
        rows = [mc._block_rows(PathGrid(n_steps)) for n_steps, _ in _BLOCK_CASES]
        chunks = [mc._path_chunk(PathGrid(n_steps)) for n_steps, _ in _BLOCK_CASES]
        assert rows == [32768, 512, 512, 8, 1]
        assert chunks == [1 << 21, 32768, 32768, 512, 52]
        assert [n % r for (_, n), r in zip(_BLOCK_CASES, rows)] == [5000, 300, 265, 5, 0]

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    @pytest.mark.parametrize("mu", [-2.0, 0.0, 0.3])
    def test_crossing(self, monkeypatch, n_steps, n_paths, mu):
        grid = PathGrid(n_steps, horizon=1.5)
        seed = 1000 + n_steps
        for bridge in (True, False):
            def call():
                return (bm_crossing_samples(0.5, mu, grid, n_paths, seed=seed, bridge=bridge),
                        bm_exceedance_estimate(0.5, mu, grid, n_paths, seed=seed, bridge=bridge))
            got, want = _row_blocks_and_reference(
                monkeypatch, "_crossing_kernel", _reference_crossing_kernel, call)
            _assert_same_bits(got[0], want[0])
            assert repr(got[1].to_json_dict()) == repr(want[1].to_json_dict())

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    def test_crossing_without_bridge_draws_only_kept_rows(self, n_steps, n_paths):
        # no uniform follows the normals, so the rows past take are never
        # drawn: the samples match the whole-chunk reference, and the
        # generator ends where take * n_steps normals leave a fresh one
        grid = PathGrid(n_steps, horizon=1.5)
        take = min(n_paths, mc._path_chunk(grid))
        seed = 4000 + n_steps
        gen = mc._rng(seed, 0)
        got = mc._crossing_kernel(0.5, 0.3, grid, bridge=False)(gen, take)
        want = _reference_crossing_kernel(0.5, 0.3, grid, False)(mc._rng(seed, 0), take)
        _assert_same_bits(got, want)
        fresh = mc._rng(seed, 0)
        fresh.standard_normal(take * n_steps)
        np.testing.assert_equal(gen.bit_generator.state, fresh.bit_generator.state)

    @pytest.mark.parametrize("n_steps, n_paths", _BLOCK_CASES)
    @pytest.mark.parametrize("mu", [-2.0, 0.0, 0.3])
    def test_argmax(self, monkeypatch, n_steps, n_paths, mu):
        grid = PathGrid(n_steps, horizon=1.5)
        seed = 2000 + n_steps

        def call():
            return (argmax_time_samples(mu, grid, n_paths, seed=seed),
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
            return (girsanov_log_lr_samples(drift, grid, n_paths, seed=seed),
                    girsanov_renyi_estimate(drift, grid, 2.5, n_paths, seed=seed))
        got, want = _row_blocks_and_reference(
            monkeypatch, "_girsanov_kernel", _reference_girsanov_kernel, call)
        _assert_same_bits(got[0], want[0])
        assert repr(got[1].to_json_dict()) == repr(want[1].to_json_dict())

    def test_drift_mutating_its_input(self, monkeypatch):
        # each block hands drift a fresh start column, as whole chunks did
        def clobber(x):
            m = np.tanh(x)
            x[:] = 5.0
            return m

        got, want = _row_blocks_and_reference(
            monkeypatch, "_girsanov_kernel", _reference_girsanov_kernel,
            lambda: girsanov_log_lr_samples(clobber, PathGrid(256), 700, seed=4))
        _assert_same_bits(got, want)


def _traced_peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPathMemory:
    """Path kernels hold row blocks, not whole chunks (numpy reports to tracemalloc)."""

    # whole-chunk kernels peaked at 80, 80 and 16 MiB on these runs
    LIMIT_MIB = 8.0

    def test_crossing_estimate(self):
        peak = _traced_peak_mib(lambda: bm_exceedance_estimate(1.0, 0.1, _GRID64, 70_000, seed=1))
        assert peak < self.LIMIT_MIB

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
