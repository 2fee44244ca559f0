"""Special function and scalar numerics tests against mpmath oracles."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from renyibounds.specfun import (
    Bracket,
    ConvergenceError,
    erfc,
    log_bessel_i0,
    log_bessel_i0e,
    log_erfc,
    minimize_scalar,
)

mpmath.mp.dps = 50


class TestErfc:
    def test_against_mpmath_grid(self):
        xs = np.concatenate([
            -np.geomspace(1e-3, 10.0, 40)[::-1],
            [0.0],
            np.geomspace(1e-3, 10.0, 40),
        ])
        for x in xs:
            want = float(mpmath.erfc(x))
            got = erfc(float(x))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), x

    def test_known_values(self):
        # oracle: mpmath.erfc at 50 digits, frozen
        assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13, abs=0.0)
        assert erfc(1.0 / math.sqrt(2.0)) == pytest.approx(0.31731050786291415, rel=1e-13, abs=0.0)
        assert erfc(math.sqrt(2.0)) == pytest.approx(0.045500263896358417, rel=1e-13, abs=0.0)
        assert erfc(2.0 * math.sqrt(2.0)) == pytest.approx(6.3342483666239937e-05, rel=1e-13, abs=0.0)

    def test_edges(self):
        assert erfc(0.0) == 1.0
        with pytest.raises(ValueError):
            erfc(math.nan)

    def test_monotone_decreasing(self):
        # strictly decreasing where the double grid can resolve it
        xs = np.linspace(-5.0, 8.0, 200)
        vals = [erfc(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(st.floats(0.0, 12.0))
    def test_reflection(self, x):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-14)

    def test_extended_reals(self):
        # the continued fraction cannot run once x*x overflows
        assert erfc(math.inf) == 0.0
        assert erfc(-math.inf) == 2.0
        assert erfc(1e308) == 0.0
        assert erfc(-1e308) == 2.0
        assert log_erfc(math.inf) == -math.inf
        assert log_erfc(-math.inf) == math.log(2.0)
        assert log_erfc(1.4e154) == -math.inf
        assert log_erfc(1.3e154) == -1.3e154 * 1.3e154

    @given(st.floats(allow_nan=False))
    def test_total_on_non_nan_doubles(self, x):
        value = erfc(x)
        assert 0.0 <= value <= 2.0
        log_value = log_erfc(x)
        assert not math.isnan(log_value)
        assert log_value <= math.log(2.0)

    def test_branch_continuity(self):
        lo = erfc(1.25 - 1e-12)
        hi = erfc(1.25 + 1e-12)
        assert abs(lo - hi) < 1e-10

    def test_dense_mpmath_sweep(self):
        # erfc is still a normal double at 26 (5.7e-296)
        for x in np.linspace(-6.0, 26.0, 4001):
            want = mpmath.erfc(mpmath.mpf(float(x)))
            assert erfc(float(x)) == pytest.approx(float(want), rel=1e-15, abs=0.0), x


class TestLogErfc:
    @given(st.floats(-5.0, 20.0))
    def test_matches_direct_log(self, x):
        assert log_erfc(x) == pytest.approx(math.log(erfc(x)), rel=1e-11, abs=1e-11)

    def test_far_tail(self):
        for x in (30.0, 100.0, 500.0):
            want = float(mpmath.log(mpmath.erfc(x)))
            assert log_erfc(x) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_near_zero_mpmath_sweep(self):
        # below |x| = 0.5 erfc is close to 1, so log1p(-erf) keeps the
        # digits that log(erfc) would lose
        for x in np.linspace(-0.5, 0.5, 4001):
            want = float(mpmath.log(mpmath.erfc(mpmath.mpf(float(x)))))
            assert log_erfc(float(x)) == pytest.approx(want, rel=1e-15, abs=0.0), x

    def test_no_underflow_where_erfc_dies(self):
        assert erfc(40.0) == 0.0
        assert math.isfinite(log_erfc(40.0))

    def test_continuous_and_monotone_across_split(self):
        # below 26 the log of the stdlib erfc, from 26 on the continued
        # fraction: eight doubles on each side stay within two ulp of
        # mpmath and never increase
        xs = [26.0]
        for _ in range(8):
            xs.insert(0, math.nextafter(xs[0], -math.inf))
            xs.append(math.nextafter(xs[-1], math.inf))
        vals = [log_erfc(x) for x in xs]
        for x, got in zip(xs, vals):
            want = float(mpmath.log(mpmath.erfc(mpmath.mpf(x))))
            assert abs(got - want) <= 2.0 * math.ulp(want), x
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[7] > vals[8] > vals[9]


class TestLogBesselI0:
    def test_against_mpmath(self):
        for x in [0.0, 1e-8, 0.3, 1.0, 5.0, 14.9, 15.1, 30.0, 100.0, 700.0]:
            want = float(mpmath.log(mpmath.besseli(0, x)))
            assert log_bessel_i0(x) == pytest.approx(want, rel=1e-12, abs=1e-13), x

    def test_series_value_at_one(self):
        # oracle: mpmath.log(mpmath.besseli(0, 1)) at 40 digits, frozen
        assert log_bessel_i0(1.0) == pytest.approx(0.23591435850717865, rel=1e-13)

    def test_asymptotic_regime_shape(self):
        # leading behavior log I0(x) ~ x - log(2 pi x)/2 for large x
        x = 100.0
        lead = x - 0.5 * math.log(2.0 * math.pi * x)
        assert log_bessel_i0(x) == pytest.approx(lead, rel=1e-3)

    def test_both_branches_agree_with_oracle_at_crossover(self):
        for x in (15.0 - 1e-9, 15.0, 15.0 + 1e-9):
            want = float(mpmath.log(mpmath.besseli(0, x)))
            assert log_bessel_i0(x) == pytest.approx(want, abs=5e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-0.5)


class TestLogBesselI0e:
    def test_against_mpmath(self):
        for x in [0.0, 1e-8, 0.3, 5.0, 15.0, 15.1, 30.0, 700.0, 5e3, 5e7, 1e12]:
            xm = mpmath.mpf(x)
            want = float(mpmath.log(mpmath.e ** (-xm) * mpmath.besseli(0, xm)))
            assert log_bessel_i0e(x) == pytest.approx(want, rel=1e-14, abs=1e-15), x

    def test_series_branch_is_log_i0_minus_x(self):
        for x in (0.0, 0.3, 1.0, 7.5, 15.0):
            assert log_bessel_i0e(x) == log_bessel_i0(x) - x

    def test_domain(self):
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError):
                log_bessel_i0e(bad)


class TestMinimizeScalar:
    def test_quadratic(self):
        xm, fm = minimize_scalar(lambda t: (t - 1.7) ** 2, Bracket(0.0, 10.0), tol=1e-10)
        assert xm == pytest.approx(1.7, abs=1e-7)
        assert fm == pytest.approx(0.0, abs=1e-12)

    def test_monotone_increasing_returns_left_edge(self):
        xm, _ = minimize_scalar(lambda t: 3.0 + t, Bracket(0.5, 2.0), tol=1e-9,
                                expand_right=False)
        assert xm == pytest.approx(0.5, abs=1e-6)

    def test_right_edge_expansion(self):
        xm, fm = minimize_scalar(lambda t: (t - 80.0) ** 2, Bracket(0.0, 1.0), tol=1e-8)
        assert xm == pytest.approx(80.0, abs=1e-5)
        assert fm == pytest.approx(0.0, abs=1e-9)

    def test_hard_bracket_stops_at_edge(self):
        xm, _ = minimize_scalar(lambda t: (t - 80.0) ** 2, Bracket(0.0, 1.0), tol=1e-8,
                                expand_right=False)
        assert xm == pytest.approx(1.0, abs=1e-6)

    def test_shift_invariance(self):
        # adding a constant cannot move the argmin beyond float resolution
        # of the comparisons (sqrt(10 * eps) here, so 1e-6 is generous)
        f = lambda t: (t - 2.3) ** 2  # noqa: E731
        x0, f0 = minimize_scalar(f, Bracket(0.0, 5.0), tol=1e-10)
        x1, f1 = minimize_scalar(lambda t: f(t) + 10.0, Bracket(0.0, 5.0), tol=1e-10)
        assert x1 == pytest.approx(x0, abs=1e-6)
        assert f1 == pytest.approx(f0 + 10.0, abs=1e-10)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 1.0)
