"""Queue overflow decay rates and the reflected workload recursion."""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from renyibounds import montecarlo as mc
from renyibounds.applications.queueing import (
    QueueModel,
    overflow_decay_rate,
    poisson_rate_ell,
    scaled_event_sandwich,
)
from renyibounds.bounds import event_bounds
from renyibounds.divergences import DivergenceBudget, PoissonParams, renyi_poisson
from renyibounds.montecarlo import PoissonLaw, simulate_queue_overflow_prob

from conftest import workload_peaks


def _grid_rate(C: float, b: float, step: float = 1e-5, t_max: float = 60.0) -> float:
    # brute-force oracle: vectorized scan of t * ell(C + b/t) on a fine
    # grid, constrained to t <= 1 when the unconstrained optimum is beyond
    t = np.arange(step, t_max, step)
    obj = t * poisson_rate_ell(C + b / t)
    k = int(np.argmin(obj))
    if t[k] >= 1.0:
        return float(poisson_rate_ell(C + b))
    return float(obj[k])


def _lambert_root(C: float) -> mpmath.mpf:
    # x* = -C W_{-1}(-exp(-1/C)/C), the root x* > C of C log x = x - 1,
    # at the exact double C
    with mpmath.workdps(50):
        c = mpmath.mpf(C)
        return -c * mpmath.lambertw(-mpmath.exp(-1 / c) / c, -1).real


def _rel(value: float, exact: mpmath.mpf) -> float:
    return float(abs((mpmath.mpf(value) - exact) / exact))


def _ell_slack(x: float) -> float:
    # 1e-12 relative, plus the rounding of x = C + b to a double, which
    # moves ell by up to half an ulp of x times ell'(x) = log x; ell's own
    # formula keeps its relative precision near x = 1
    return 1e-12 * poisson_rate_ell(x) + sys.float_info.epsilon * x * abs(math.log(x))


class TestEll:
    def test_anchor_values(self):
        assert poisson_rate_ell(1.0) == 0.0
        assert poisson_rate_ell(0.0) == 1.0
        assert poisson_rate_ell(-0.5) == math.inf
        assert poisson_rate_ell(math.e) == pytest.approx(1.0, rel=1e-15)

    def test_array_input(self):
        out = poisson_rate_ell(np.array([0.0, 1.0, 2.0, -1.0]))
        assert out[0] == 1.0
        assert out[1] == 0.0
        assert out[2] == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)
        assert out[3] == math.inf

    @pytest.mark.filterwarnings("error")
    def test_infinity(self):
        # x log x - x + 1 is inf - inf there; ell itself is inf
        assert poisson_rate_ell(math.inf) == math.inf
        out = poisson_rate_ell(np.array([math.inf, 1e308, 2.0]))
        assert out[0] == math.inf and out[1] == math.inf
        assert out[2] == poisson_rate_ell(2.0)

    def test_scalar_in_float_out(self):
        assert isinstance(poisson_rate_ell(2.0), float)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            poisson_rate_ell(math.nan)

    def test_near_one_against_mpmath(self):
        # x log x - x + 1 cancels to y^2/2 at x = 1 + y; y log1p(y) minus
        # y - log1p(y) keeps every digit, for scalars and arrays alike
        xs = [1.0 + s * 10.0 ** -k for k in range(3, 14) for s in (1.0, -1.0)]
        with mpmath.workdps(50):
            exact = [mpmath.mpf(x) * mpmath.log(x) - x + 1 for x in xs]
        for x, value, want in zip(xs, poisson_rate_ell(np.array(xs)), exact):
            assert _rel(poisson_rate_ell(x), want) <= 1e-14, x
            assert _rel(value, want) <= 1e-14, x

    @given(st.floats(0.01, 50.0))
    def test_nonnegative_and_zero_only_at_one(self, x):
        v = poisson_rate_ell(x)
        assert v >= 0.0
        if abs(x - 1.0) > 1e-3:
            assert v > 0.0


class TestDecayRate:
    def test_interior_branch_study_pair(self):
        # C = 2, b = 1: the unconstrained optimizer sits inside (0, 1)
        res = overflow_decay_rate(2.0, 1.0)
        assert res.branch == "interior"
        assert res.t_star == pytest.approx(0.6609986, abs=1e-4)
        assert res.c == pytest.approx(1.2564312086261695, abs=1e-8)
        assert res.c == res.m_star

    def test_edge_branch_pair(self):
        # C = 1.5, b = 5: t* >= 1, so the rate is ell(C + b) exactly
        res = overflow_decay_rate(1.5, 5.0)
        assert res.branch == "edge"
        assert res.c == poisson_rate_ell(6.5)
        assert res.c == pytest.approx(6.6667141498603435, rel=1e-12)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            C = float(rng.uniform(1.05, 4.0))
            b = float(rng.uniform(0.1, 6.0))
            res = overflow_decay_rate(C, b)
            assert res.c == pytest.approx(_grid_rate(C, b), abs=1e-4), (C, b)

    def test_branches_meet_continuously(self):
        # scan b upward at fixed C: the rate is continuous through the
        # branch switch
        C = 2.0
        bs = np.linspace(0.5, 6.0, 45)
        rates = [overflow_decay_rate(C, float(b)).c for b in bs]
        diffs = np.abs(np.diff(rates))
        assert np.max(diffs) < 0.5
        branches = {overflow_decay_rate(C, float(b)).branch for b in bs}
        assert branches == {"interior", "edge"}

    def test_rate_increases_with_level(self):
        rates = [overflow_decay_rate(2.0, b).c for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(r1 < r2 for r1, r2 in zip(rates, rates[1:]))

    def test_json_dict(self):
        d = overflow_decay_rate(2.0, 1.0).to_json_dict()
        assert set(d) == {"t_star", "m_star", "c", "branch"}

    @pytest.mark.parametrize("C", [1.0 + d for d in np.geomspace(2.0 ** -52, 1.0, 27)]
                             + list(np.geomspace(2.0, 1e300, 31)))
    def test_root_against_lambert_w(self, C):
        # with b = 1, x* - C = 1/t* and log x* = m*; both are checked, which
        # is stronger than x* itself when C is close to 1
        x = _lambert_root(C)
        res = overflow_decay_rate(C, 1.0)
        assert _rel(C + 1.0 / res.t_star, x) <= 1e-12
        assert _rel(1.0 / res.t_star, x - mpmath.mpf(C)) <= 1e-12
        assert _rel(res.m_star, mpmath.log(x)) <= 1e-12

    @pytest.mark.parametrize("C", [2.0, 2.5, 30.0])
    def test_small_level_rate(self, C):
        # c / b = log x* on the whole interior branch, however small the
        # level
        log_x = mpmath.log(_lambert_root(C))
        for b in np.geomspace(1e-12, 1.0, 13):
            res = overflow_decay_rate(C, float(b))
            assert res.branch == "interior"
            assert res.c == res.m_star
            assert _rel(res.c / float(b), log_x) <= 1e-14, b

    @pytest.mark.parametrize("C, b", [(1.0001, 0.01), (2.0, 1e30), (1.5, 5.0)])
    def test_edge_branch_reports_unconstrained_minimizer(self, C, b):
        x = _lambert_root(C)
        res = overflow_decay_rate(C, b)
        assert res.branch == "edge"
        assert _rel(res.t_star, b / (x - mpmath.mpf(C))) <= 1e-13
        assert _rel(res.m_star, b * mpmath.log(x)) <= 1e-13
        assert res.c == poisson_rate_ell(C + b)

    @given(st.floats(1.0, 1e6, exclude_min=True), st.floats(1e-300, 1e300))
    def test_rate_is_sandwiched(self, C, b):
        # 0 < m* <= c <= ell(C + b): the minimum over t > 0 is below the
        # rate over t <= 1, which is below its value at t = 1
        res = overflow_decay_rate(C, b)
        assert not any(math.isnan(v) for v in (res.t_star, res.m_star, res.c))
        ell = poisson_rate_ell(C + b)
        assert 0.0 < res.m_star <= res.c + _ell_slack(C + b)
        assert res.c <= ell + _ell_slack(C + b)
        assert (res.branch == "edge") == (res.t_star >= 1.0)
        if res.branch == "interior":
            assert res.c == res.m_star
        else:
            assert res.c == ell

    def test_model_validation(self):
        with pytest.raises(ValueError):
            QueueModel(1.0, 1.0)
        with pytest.raises(ValueError):
            QueueModel(2.0, 0.0)
        with pytest.raises(ValueError):
            QueueModel(math.inf, 1.0)


class TestLindley:
    @given(st.integers(1, 40), st.integers(65, 192), st.integers(0, 2**32 - 1),
           st.sampled_from([math.log(2.0), 1.0, 7.5]))
    def test_recursion_matches_max_formula(self, n, c64, seed, rate):
        # the queue kernel's Lindley recursion against the max formula: the
        # arrivals are integers and C is dyadic, so both are exact float
        # arithmetic and every overflow indicator must match bit for bit,
        # also where a peak ties the level
        law, C, take = PoissonLaw(rate), c64 / 64.0, 300
        peak = workload_peaks(law.quantile(mc._rng(seed, 0).random((take, n))), C)
        for level in (0.0, *np.quantile(peak, [0.5, 1.0], method="lower")):
            over = mc._queue_kernel(law, n, C, float(level))(mc._rng(seed, 0), take)
            assert np.array_equal(over, peak > level), level


class TestOverflowEvent:
    def test_threshold_is_strict(self):
        # one step at C = 1, b = 1: an arrival of 2 drives the workload
        # exactly to n*b and must not overflow, so only arrivals >= 3 count
        strict = 1.0 - 2.5 / math.e
        est = simulate_queue_overflow_prob(PoissonLaw(1.0), 1.0, 1.0, 1, 20_000, seed=0)
        assert abs(est.mean - strict) <= 4.0 * est.std_error
        assert est.mean < (1.0 - 2.0 / math.e) - 20.0 * est.std_error

    def test_length_check(self):
        # the horizon holds at least one step, and every step draws from the
        # one law: a sequence of laws is refused
        with pytest.raises(ValueError):
            simulate_queue_overflow_prob(PoissonLaw(1.0), 2.0, 1.0, 0, 100)
        with pytest.raises(TypeError):
            simulate_queue_overflow_prob([PoissonLaw(1.0)] * 3, 2.0, 1.0, 3, 100)


class TestScaledSandwich:
    def test_budgets_scale_with_horizon(self):
        res = scaled_event_sandwich(1e-4, 50, 3.0, 0.002, 0.001)
        direct = event_bounds(1e-4, DivergenceBudget(0.1, 0.05), 3.0)
        assert res.lower == direct.lower
        assert res.upper == direct.upper
        assert res.budget.d1 == pytest.approx(0.1, rel=1e-15)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            scaled_event_sandwich(1e-4, 0, 3.0, 0.1, 0.1)

    def test_infinite_per_step_budget(self):
        # R_200(P(30) || P(1/100)) exceeds the float range
        d1 = renyi_poisson(PoissonParams(30.0), PoissonParams(0.01), 200.0)
        d2 = renyi_poisson(PoissonParams(0.01), PoissonParams(30.0), 199.0)
        assert d1 == math.inf
        assert math.isfinite(d2)
        res = scaled_event_sandwich(0.3, 50, 200.0, d1, d2)
        assert res.budget.d1 == math.inf
        assert not math.isnan(res.lower)
        assert not math.isnan(res.upper)
        assert res.upper == 1.0
        assert 0.0 <= res.lower <= 1.0
