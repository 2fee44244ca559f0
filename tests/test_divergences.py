"""Renyi divergence computations against closed forms and quadrature."""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from renyibounds.divergences import (
    DivergenceBudget,
    GaussianParams,
    PoissonParams,
    check_alpha,
    check_budget,
    kl_discrete,
    renyi_bm_drift,
    renyi_discrete,
    renyi_gaussian,
    renyi_log_integral_rows,
    renyi_poisson,
)
from renyibounds.measures import FiniteMeasure, logsumexp

from conftest import measure_from_weights

_STD = GaussianParams(0.0, 1.0)


@st.composite
def measure_pairs(draw, min_dim=2, max_dim=6, full_support=True):
    dim = draw(st.integers(min_dim, max_dim))
    lo = 1 if full_support else 0
    w1 = draw(st.lists(st.integers(lo, 1000), min_size=dim, max_size=dim)
              .filter(lambda w: sum(w) > 0))
    w2 = draw(st.lists(st.integers(lo, 1000), min_size=dim, max_size=dim)
              .filter(lambda w: sum(w) > 0))
    return measure_from_weights(w1), measure_from_weights(w2)


_ALPHAS = [-3.0, -1.0, -0.5, 0.3, 0.7, 1.5, 2.0, 3.0, 7.0]


class TestDiscrete:
    def test_order_two_closed_form(self):
        nu = measure_from_weights([1, 1])
        theta = measure_from_weights([1, 3])
        # sum nu^2 / theta = 1 + 1/3, normalized by 1/(2*1)
        want = 0.5 * math.log(4.0 / 3.0)
        assert renyi_discrete(nu, theta, 2.0) == pytest.approx(want, rel=1e-14)

    def test_kl_closed_form(self):
        nu = measure_from_weights([1, 1])
        theta = measure_from_weights([1, 3])
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_discrete(nu, theta) == pytest.approx(want, rel=1e-14)

    def test_self_divergence_zero(self):
        nu = measure_from_weights([2, 3, 5])
        for a in _ALPHAS:
            assert renyi_discrete(nu, nu, a) == pytest.approx(0.0, abs=1e-13)
        assert kl_discrete(nu, nu) == pytest.approx(0.0, abs=1e-14)

    @given(measure_pairs(), st.sampled_from(_ALPHAS))
    def test_nonnegative(self, pair, alpha):
        nu, theta = pair
        assert renyi_discrete(nu, theta, alpha) >= -1e-12

    @given(measure_pairs(), st.sampled_from([-2.5, -0.5, 0.4, 1.7, 3.0]))
    def test_skew_symmetry(self, pair, alpha):
        # with the 1/(alpha(alpha-1)) normalization the divergence is
        # invariant under (alpha, nu, theta) -> (1 - alpha, theta, nu)
        nu, theta = pair
        a = renyi_discrete(nu, theta, alpha)
        b = renyi_discrete(theta, nu, 1.0 - alpha)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_negative_order_direct_sum(self):
        nu = measure_from_weights([1, 4])
        theta = measure_from_weights([3, 2])
        alpha = -0.5
        direct = math.log(float(np.sum(nu.probs ** alpha * theta.probs ** (1.0 - alpha))))
        want = direct / (alpha * (alpha - 1.0))
        assert renyi_discrete(nu, theta, alpha) == pytest.approx(want, rel=1e-13)

    def test_support_conventions(self):
        nu = measure_from_weights([1, 1, 0])
        theta = measure_from_weights([1, 0, 1])
        # alpha > 1 and nu charges an atom theta misses: +inf
        assert renyi_discrete(nu, theta, 2.0) == math.inf
        # 0 < alpha < 1 restricts to the joint support: finite
        assert math.isfinite(renyi_discrete(nu, theta, 0.5))
        # mutually singular measures diverge at every admissible order
        left = measure_from_weights([1, 0])
        right = measure_from_weights([0, 1])
        assert renyi_discrete(left, right, 0.5) == math.inf
        assert renyi_discrete(left, right, 2.0) == math.inf
        assert kl_discrete(left, right) == math.inf

    def test_extra_denominator_atom_is_fine(self):
        nu = measure_from_weights([1, 1, 0])
        theta = measure_from_weights([1, 1, 2])
        for a in (0.5, 2.0, 3.0):
            assert math.isfinite(renyi_discrete(nu, theta, a))

    @given(measure_pairs(full_support=True))
    def test_kl_limit(self, pair):
        nu, theta = pair
        kl = kl_discrete(nu, theta)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert renyi_discrete(nu, theta, a) == pytest.approx(kl, abs=1e-3)

    @given(measure_pairs(full_support=True))
    def test_alpha_times_divergence_monotone(self, pair):
        nu, theta = pair
        grid = [-3.0, -1.5, -0.4, 0.3, 0.8, 1.2, 2.0, 4.0, 9.0]
        vals = [a * renyi_discrete(nu, theta, a) for a in grid]
        assert all(x <= y + 1e-10 for x, y in zip(vals, vals[1:]))

    def test_alpha_to_zero_gives_support_mass(self):
        nu = measure_from_weights([1, 0])
        theta = measure_from_weights([1, 1])
        v = 1e-4 * renyi_discrete(nu, theta, 1e-4)
        assert v == pytest.approx(-math.log(theta.mass_of(nu.support_mask())), rel=1e-10)

    def test_mismatched_labels_rejected(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        theta = FiniteMeasure.from_probs(["x", "y"], [0.5, 0.5])
        with pytest.raises(ValueError):
            renyi_discrete(nu, theta, 2.0)

    def test_product_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pa = rng.dirichlet(np.ones(2))
            qa = rng.dirichlet(np.ones(2))
            pb = rng.dirichlet(np.ones(3))
            qb = rng.dirichlet(np.ones(3))
            mu_a = FiniteMeasure.from_probs(["a0", "a1"], pa)
            th_a = FiniteMeasure.from_probs(["a0", "a1"], qa)
            mu_b = FiniteMeasure.from_probs(["b0", "b1", "b2"], pb)
            th_b = FiniteMeasure.from_probs(["b0", "b1", "b2"], qb)
            labels = [f"{i}|{j}" for i in range(2) for j in range(3)]
            mu_prod = FiniteMeasure.from_probs(labels, np.outer(pa, pb).ravel())
            th_prod = FiniteMeasure.from_probs(labels, np.outer(qa, qb).ravel())
            for alpha in (0.5, 2.0, 3.5):
                total = renyi_discrete(mu_prod, th_prod, alpha)
                parts = (renyi_discrete(mu_a, th_a, alpha)
                         + renyi_discrete(mu_b, th_b, alpha))
                assert total == pytest.approx(parts, abs=1e-10)


class TestRowsKernel:
    def test_broadcasting_rows(self):
        # atoms run down the first axis: one candidate theta per column
        nu = measure_from_weights([1, 3])
        thetas = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]).T)
        out = renyi_log_integral_rows(nu.log_weights[:, None], thetas, 2.0)
        assert out.shape == (2,)
        for row, t in zip(out, [[0.5, 0.5], [0.25, 0.75]]):
            want = math.log(float(np.sum(nu.probs ** 2 / np.array(t))))
            assert row == pytest.approx(want, rel=1e-13)

    def test_both_zero_atom_dropped(self):
        ln = np.array([math.log(0.5), math.log(0.5), -math.inf])
        lt = np.array([math.log(0.5), math.log(0.5), -math.inf])
        out = renyi_log_integral_rows(ln, lt, 2.0)
        assert float(out) == pytest.approx(0.0, abs=1e-14)


def reference_log_integral_rows(log_num, log_den, alpha):
    """The rows kernel as first written: both terms, then the mask, always."""
    ln = np.asarray(log_num, dtype=float)
    lt = np.asarray(log_den, dtype=float)
    with np.errstate(invalid="ignore"):
        w = alpha * ln + (1.0 - alpha) * lt
    w[np.isneginf(ln) & np.isneginf(lt)] = -math.inf
    return logsumexp(w, axis=0)


@st.composite
def row_operands(draw):
    """(log_num, log_den) in the shapes the oracle and renyi_discrete pass,
    with -inf on neither side, on one side or on both."""
    dim, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    shapes = draw(st.sampled_from([((dim, 1), (dim, n)), ((dim, n), (dim, 1)),
                                   ((dim, n), (dim, n)), ((3, 1), (1, 3))]))
    zeros = draw(st.sampled_from([(False, False), (True, False), (False, True),
                                  (True, True)]))
    sides = []
    for shape, zero in zip(shapes, zeros):
        side = draw(arrays(np.float64, shape, elements=st.floats(-40.0, 5.0)))
        if zero:
            mask = draw(arrays(np.bool_, shape, elements=st.booleans()))
            side[mask] = -math.inf
            side.flat[draw(st.integers(0, side.size - 1))] = -math.inf
        sides.append(side)
    return sides


_ROW_ORDERS = st.one_of(st.floats(-30.0, 30.0).filter(lambda a: a not in (0.0, 1.0)),
                        st.sampled_from([-3.0, -0.5, 0.5, 2.0, 1e-6, 1.0 + 1e-6]))


class TestRowsKernelBitwise:
    """One broadcast-shape array and a conditional mask give the old bits."""

    @given(row_operands(), _ROW_ORDERS)
    def test_bitwise_equal_to_unconditional_mask(self, operands, alpha):
        ln, lt = operands
        got = renyi_log_integral_rows(ln, lt, alpha)
        want = reference_log_integral_rows(ln, lt, alpha)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [-2.0, 0.5, 3.0])
    def test_zero_atoms_on_one_side(self, alpha):
        # a zero numerator atom's term is +inf at a negative order, a zero
        # denominator atom's past order 1; otherwise the atom drops out
        finite = np.log(np.array([[0.5, 0.25], [0.5, 0.75]]))
        holed = np.array([[math.log(0.5)], [-math.inf]])
        for ln, lt, inf in ((holed, finite, alpha < 0.0), (finite, holed, alpha > 1.0)):
            got = renyi_log_integral_rows(ln, lt, alpha)
            want = reference_log_integral_rows(ln, lt, alpha)
            assert got.tobytes() == want.tobytes()
            assert np.all(got == math.inf) == inf
            assert np.all(np.isfinite(got)) == (not inf)

    def test_inputs_are_not_written(self):
        # a both-zero atom, so the mask is formed too
        ln = np.array([[math.log(0.5), -math.inf], [math.log(0.5), 0.0]])
        lt = np.array([[-math.inf], [0.0]])
        for side in (ln, lt):
            side.flags.writeable = False
        renyi_log_integral_rows(ln, lt, 2.0)
        renyi_log_integral_rows(lt, ln, -1.5)


class TestGaussian:
    def test_unit_variance_mean_shift(self):
        # equal variances make the divergence alpha-free: dm^2 / 2
        for c in (0.1, 1.0, 2.5):
            for a in (1.5, 2.0, 5.0, 43.0):
                got = renyi_gaussian(GaussianParams(c, 1.0), _STD, a)
                assert got == pytest.approx(0.5 * c * c, rel=1e-13)

    def test_variance_blowup(self):
        # numerator variance 4 against 1 at alpha = 2: the mixture
        # variance alpha*v2 + (1-alpha)*v1 is negative, so +inf
        assert renyi_gaussian(GaussianParams(0.0, 4.0), _STD, 2.0) == math.inf

    def test_against_quadrature(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            m1, m2 = rng.normal(0.0, 1.5, size=2)
            v1, v2 = rng.uniform(0.3, 3.0, size=2)
            alpha = float(rng.uniform(-2.0, 4.0))
            if min(abs(alpha), abs(alpha - 1.0)) < 0.05:
                continue
            va = alpha * v2 + (1.0 - alpha) * v1
            if va < 0.1:
                continue

            def integrand(x, m1=m1, v1=v1, m2=m2, v2=v2, alpha=alpha):
                l1 = -0.5 * math.log(2.0 * math.pi * v1) - (x - m1) ** 2 / (2.0 * v1)
                l2 = -0.5 * math.log(2.0 * math.pi * v2) - (x - m2) ** 2 / (2.0 * v2)
                return math.exp(alpha * l1 + (1.0 - alpha) * l2)

            val, _ = integrate.quad(integrand, -np.inf, np.inf)
            want = math.log(val) / (alpha * (alpha - 1.0))
            got = renyi_gaussian(GaussianParams(m1, v1), GaussianParams(m2, v2), alpha)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
            checked += 1

    def test_skew_symmetry(self):
        p = GaussianParams(0.3, 1.7)
        q = GaussianParams(-0.8, 0.6)
        for a in (-1.0, 0.4, 2.0, 3.0):
            left = renyi_gaussian(p, q, a)
            right = renyi_gaussian(q, p, 1.0 - a)
            assert left == pytest.approx(right, rel=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianParams(math.nan, 1.0)


# at 300, rates 1e-4 apart reach the closed form, where r = log(l1 / l2)
# would carry the rounding of the ratio: 1.5e-12 relative at l2 = 0.3
_NEAR_ORDERS = (0.5, 0.9, 2.0, 5.0, 50.0, 300.0)


def _mp_poisson(l1, l2, a):
    """R_a(P(l1) || P(l2)) at 120 digits from the uncancelled closed form."""
    with mpmath.workdps(120):
        m1, m2, ma = mpmath.mpf(l1), mpmath.mpf(l2), mpmath.mpf(a)
        return (m1 ** ma * m2 ** (1 - ma) - ma * m1 - (1 - ma) * m2) / (ma * (ma - 1))


class TestPoisson:
    def test_against_closed_form(self):
        # sum_k e^{-(a l1 + (1-a) l2)} (l1^a l2^{1-a})^k / k! gives
        # (l1^a l2^{1-a} - a l1 - (1-a) l2) / (a (a-1))
        for l1, l2 in ((1.1, 1.0), (2.0, 5.0), (0.3, 0.7)):
            for a in (-1.0, 0.5, 2.0, 3.0, 6.0):
                tilted = l1 ** a * l2 ** (1.0 - a)
                want = (tilted - a * l1 - (1.0 - a) * l2) / (a * (a - 1.0))
                got = renyi_poisson(PoissonParams(l1), PoissonParams(l2), a)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (l1, l2, a)

    def test_against_mpmath(self):
        # orders next to 1, below 1/2 and far out, and nearly equal rates
        rates = ((1.1, 1.0), (1.0, 1.1), (1.0, 1.0001), (3.0, 0.5), (30.0, 0.01), (1e-3, 2.0))
        orders = (-30.0, -1.0, 1e-6, 0.25, 1.0 - 1e-6, 1.0 + 1e-6, 2.0, 6.0, 50.0)
        for l1, l2 in rates:
            for a in orders:
                with mpmath.workdps(50):
                    m1, m2, ma = mpmath.mpf(l1), mpmath.mpf(l2), mpmath.mpf(a)
                    want = (m1 ** ma * m2 ** (1 - ma) - ma * m1 - (1 - ma) * m2) / (ma * (ma - 1))
                got = renyi_poisson(PoissonParams(l1), PoissonParams(l2), a)
                assert got == pytest.approx(float(want), rel=1e-10), (l1, l2, a)

    def test_large_order_is_finite(self):
        # the tilted rate 3^50 0.5^-49 is about 4e36: far too many terms
        # for any summation over the support
        got = renyi_poisson(PoissonParams(3.0), PoissonParams(0.5), 50.0)
        want = (3.0 ** 50 * 0.5 ** -49 - 150.0 + 24.5) / 2450.0
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    def test_beyond_float_range_is_inf(self):
        # alpha r = 200 log 3000 is about 1601: e^(alpha r) overflows
        assert renyi_poisson(PoissonParams(30.0), PoissonParams(0.01), 200.0) == math.inf
        # the skew mirror R_-199(P(0.01) || P(30)) is the same divergence
        assert renyi_poisson(PoissonParams(0.01), PoissonParams(30.0), -199.0) == math.inf

    def test_large_finite_values_against_mpmath(self):
        # r or alpha r above 700 with the value still inside the float range
        cases = ((30.0, 0.01, 88.0), (30.0, 0.01, 90.0), (3.0, 0.5, 400.0),
                 (1e3, 1.0, 102.0), (5e3, 1e-300, 1.2), (1e300, 1e-5, 0.6),
                 # l1 / l2 itself overflows or underflows
                 (1e300, 1e-10, 0.7), (1e300, 1e-10, 1.0 + 1e-6), (1e-200, 1e200, 2.0),
                 (1e-200, 1e200, 0.7), (1e-200, 1e200, -0.2))
        for l1, l2, a in cases:
            got = renyi_poisson(PoissonParams(l1), PoissonParams(l2), a)
            assert math.isfinite(got), (l1, l2, a)
            assert got == pytest.approx(float(_mp_poisson(l1, l2, a)), rel=1e-12), (l1, l2, a)

    @pytest.mark.filterwarnings("error")
    def test_large_orders_against_mpmath(self):
        # orders from 1e4 to 1e300, both rate orders: past the double range
        # the value is inf, and inside it within 1e-13 of mpmath (of the
        # smallest normal where the value is subnormal), with no error or
        # warning. (1 + 2^-52 || 1) is finite for alpha in [3.15e18, 3.58e18]
        orders = [*np.geomspace(1e4, 1e300, 100), 3.2e18, 3.4e18]
        for l1, l2 in ((1.1, 1.0), (30.0, 1.0), (1.0 + 2.0**-52, 1.0)):
            for p, q in ((l1, l2), (l2, l1)):
                for a in orders:
                    got = renyi_poisson(PoissonParams(p), PoissonParams(q), float(a))
                    want = _mp_poisson(p, q, float(a))
                    if want > sys.float_info.max:
                        assert got == math.inf, (p, q, a)
                    else:
                        assert got == pytest.approx(float(want), rel=1e-13,
                                                    abs=1e-13 * sys.float_info.min), (p, q, a)
        got = renyi_poisson(PoissonParams(1.0 + 2.0**-52), PoissonParams(1.0), 3.2e18)
        assert got == pytest.approx(3.754e271, rel=1e-4)

    @pytest.mark.filterwarnings("error")
    def test_large_orders_near_the_top_of_the_range(self):
        # the value is e^(alpha r) / alpha^2 to leading order, with
        # alpha r = 700 to 795 here, so a half ulp of alpha r alone is
        # 5.7e-14 of the value; the log form stays within a few of those
        for l1, l2, lo, hi in ((1.0 + 2.0**-52, 1.0, 3.1e18, 3.6e18),
                               (1.0, 1.0 - 2.0**-53, 6.2e18, 7.2e18)):
            for a in np.linspace(lo, hi, 100):
                got = renyi_poisson(PoissonParams(l1), PoissonParams(l2), float(a))
                want = _mp_poisson(l1, l2, float(a))
                if want > sys.float_info.max:
                    assert got == math.inf
                else:
                    assert got == pytest.approx(float(want), rel=3e-13), (l1, l2, a)

    @pytest.mark.parametrize("l2", [1.0, 0.3, 2.5])
    def test_nearly_equal_rates_against_mpmath(self, l2):
        for e in range(4, 13):
            for sign in (1.0, -1.0):
                l1 = l2 * (1.0 + sign * 10.0 ** -e)
                for a in _NEAR_ORDERS:
                    got = renyi_poisson(PoissonParams(l1), PoissonParams(l2), a)
                    want = float(_mp_poisson(l1, l2, a))
                    assert abs(got - want) <= 1e-13 * want, (l1, l2, a)

    @pytest.mark.parametrize("a", _NEAR_ORDERS)
    def test_continuous_at_series_switch(self, a):
        # the series takes over below |alpha r| = 1e-2; the floats around
        # that point straddle it, and each side must match mpmath
        for sign in (1.0, -1.0):
            centre = math.exp(sign * 1e-2 / a)
            l1s = [centre * (1.0 + k * 2.0 ** -52) for k in range(-6, 7)]
            sides = {abs(a * math.log(l1)) < 1e-2 for l1 in l1s}
            assert sides == {True, False}
            errs = []
            for l1 in l1s:
                got = renyi_poisson(PoissonParams(l1), PoissonParams(1.0), a)
                want = float(_mp_poisson(l1, 1.0, a))
                errs.append((got - want) / want)
            assert max(abs(e) for e in errs) <= 1e-13, (a, sign, errs)

    def test_self_zero(self):
        p = PoissonParams(2.5)
        assert renyi_poisson(p, p, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonParams(0.0)
        with pytest.raises(ValueError):
            PoissonParams(-1.0)


class TestHelpers:
    def test_bm_drift_budget(self):
        assert renyi_bm_drift(0.1) == pytest.approx(0.005, rel=1e-15)
        assert renyi_bm_drift(-2.0) == pytest.approx(2.0, rel=1e-15)
        assert renyi_bm_drift(0.0) == 0.0
        with pytest.raises(ValueError):
            renyi_bm_drift(math.inf)

    def test_check_alpha(self):
        assert check_alpha(2.0) == 2.0
        assert check_alpha(-3.5) == -3.5
        for bad in (0.0, 1.0, 1e-9, 1.0 - 1e-9, 1.0 + 1e-9, math.inf, math.nan):
            with pytest.raises(ValueError):
                check_alpha(bad)

    def test_budget_validation(self):
        b = DivergenceBudget(0.0, math.inf)
        assert b.d1 == 0.0 and b.d2 == math.inf
        assert check_budget("d1", 2) == 2.0
        for bad in (-0.1, math.nan, -math.inf):
            with pytest.raises(ValueError):
                check_budget("d1", bad)
        with pytest.raises(ValueError):
            DivergenceBudget(-0.1, 1.0)
        with pytest.raises(ValueError):
            DivergenceBudget(math.nan, 1.0)
