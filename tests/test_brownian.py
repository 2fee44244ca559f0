"""Brownian level crossing and argmax-time transforms."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from renyibounds.applications.brownian import (
    _gauss_legendre,
    _log_drift_terms,
    BrownianModel,
    bm_bound_curves,
    bm_exceedance_drift,
    bm_exceedance_nominal,
    laplace_h_bounds,
    laplace_h_drift,
    laplace_h_wiener,
    log_bm_exceedance_drift,
)

mpmath.mp.dps = 40


def _drift_prob_oracle(level: float, mu: float, horizon: float) -> float:
    # half erfc((K - mu t)/sqrt(2t)) + half e^{2 mu K} erfc((K + mu t)/sqrt(2t))
    # in extended precision
    root = mpmath.sqrt(2.0 * horizon)
    val = 0.5 * mpmath.erfc((level - mu * horizon) / root) + 0.5 * mpmath.e ** (
        2.0 * mu * level
    ) * mpmath.erfc((level + mu * horizon) / root)
    return float(val)


class TestNominalExceedance:
    def test_study_level(self):
        # reflection principle at K = 4, unit horizon
        assert bm_exceedance_nominal(4.0) == pytest.approx(
            6.3342483666239937e-05, rel=1e-12)

    def test_matches_mpmath(self):
        for k, t in ((1.0, 1.0), (4.0, 1.0), (2.0, 0.5), (4.0, 4.0)):
            want = float(mpmath.erfc(k / mpmath.sqrt(2.0 * t)))
            assert bm_exceedance_nominal(k, t) == pytest.approx(want, rel=1e-12)

    def test_horizon_scaling(self):
        # doubling time is the same as shrinking the level by sqrt(2)
        assert bm_exceedance_nominal(4.0, 2.0) == pytest.approx(
            bm_exceedance_nominal(4.0 / math.sqrt(2.0), 1.0), rel=1e-13)

    def test_log_variant_far_tail(self):
        # the log of the drifted probability at zero drift is the log of this one
        k = 40.0
        assert bm_exceedance_nominal(k) == 0.0  # underflows as a probability
        want = float(mpmath.log(mpmath.erfc(k / mpmath.sqrt(2))))
        assert log_bm_exceedance_drift(k, 0.0) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            bm_exceedance_nominal(0.0)
        with pytest.raises(ValueError):
            bm_exceedance_nominal(1.0, 0.0)


class TestDriftExceedance:
    def test_study_point(self):
        got = bm_exceedance_drift(4.0, 0.1, 1.0)
        assert got == pytest.approx(_drift_prob_oracle(4.0, 0.1, 1.0), rel=1e-11)
        assert got == pytest.approx(9.4070471132108e-05, rel=1e-9)

    def test_against_oracle_grid(self):
        for k in (1.0, 2.0, 4.0):
            for mu in (-0.5, -0.1, 0.1, 0.5, 2.0):
                for t in (0.5, 1.0, 3.0):
                    want = _drift_prob_oracle(k, mu, t)
                    assert bm_exceedance_drift(k, mu, t) == pytest.approx(
                        want, rel=1e-10), (k, mu, t)

    def test_zero_drift_collapses(self):
        for k, t in ((1.0, 1.0), (4.0, 2.0)):
            assert bm_exceedance_drift(k, 0.0, t) == pytest.approx(
                bm_exceedance_nominal(k, t), rel=1e-14)

    def test_monotone_in_drift(self):
        probs = [bm_exceedance_drift(4.0, mu, 1.0)
                 for mu in (-1.0, -0.3, 0.0, 0.3, 1.0)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    @pytest.mark.filterwarnings("error")
    def test_log_variant(self):
        # an infinite level is never reached, whatever the drift
        for mu in (-1e300, -0.1, 0.0, 0.1, 1e300):
            assert bm_exceedance_drift(math.inf, mu) == 0.0, mu
            assert log_bm_exceedance_drift(math.inf, mu) == -math.inf, mu
        lg = log_bm_exceedance_drift(4.0, 0.1, 1.0)
        assert lg == pytest.approx(math.log(bm_exceedance_drift(4.0, 0.1, 1.0)),
                                   rel=1e-13)
        # far tail with a large positive prefactor exponent still finite
        deep = log_bm_exceedance_drift(40.0, 0.1, 1.0)
        want = float(mpmath.log(
            0.5 * mpmath.erfc((40.0 - 0.1) / mpmath.sqrt(2))
            + 0.5 * mpmath.e ** 8.0 * mpmath.erfc((40.0 + 0.1) / mpmath.sqrt(2))))
        assert deep == pytest.approx(want, rel=1e-11)


class TestDriftPastTheDoubleRange:
    """2 mu K and log erfc((K + mu t)/sqrt(2t)) overflow together, to inf - inf at mu = inf."""

    @pytest.mark.filterwarnings("error")
    def test_infinite_drift(self):
        assert bm_exceedance_drift(1.0, math.inf) == 1.0
        assert bm_exceedance_drift(1.0, -math.inf) == 0.0
        assert log_bm_exceedance_drift(1.0, math.inf) == 0.0
        assert log_bm_exceedance_drift(1.0, -math.inf) == -math.inf
        for mu in (1e200, 1.7976931348623157e308):
            assert bm_exceedance_drift(1.0, mu) == 1.0
            assert bm_exceedance_drift(1.0, -mu) == 0.0

    @pytest.mark.parametrize("level, mu, horizon", [
        (1e154, 1e154, 1.0), (1e200, 1e200, 1.0), (1e154, 1.0000001e154, 1.0),
        (1e160, 2e160, 0.5)])
    def test_second_term_against_the_exact_exponent(self, level, mu, horizon):
        # there erfc(z) = e^{-z^2} / (z sqrt(pi)) to double precision; mpmath
        # forms 2 mu K - z^2 exactly, where the doubles overflow
        with mpmath.workdps(1000):
            k, m, t = mpmath.mpf(level), mpmath.mpf(mu), mpmath.mpf(horizon)
            z = (k + m * t) / mpmath.sqrt(2 * t)
            want = float(mpmath.log(0.5) + 2 * m * k - z * z
                         - mpmath.log(z * mpmath.sqrt(mpmath.pi)))
        assert _log_drift_terms(level, mu, horizon)[1] == pytest.approx(want, rel=1e-14)

    def test_level_at_the_drift_line(self):
        # at K = mu t the exponent is 0 and only erfc's 1/(z sqrt(pi)) keeps
        # the second term near 1e-155: P = 1/2, not 1
        assert bm_exceedance_drift(1e154, 1e154) == 0.5
        assert bm_exceedance_drift(1e200, 1e200) == 0.5


class TestBoundCurves:
    model = BrownianModel(level=4.0, drift=0.1)

    def test_budget(self):
        budget = self.model.divergence_budget()
        assert budget.d1 == pytest.approx(0.005, rel=1e-15)
        assert budget.d2 == pytest.approx(0.005, rel=1e-15)
        longer = BrownianModel(level=4.0, drift=0.1, horizon=3.0)
        assert longer.divergence_budget().d1 == pytest.approx(0.015, rel=1e-15)

    def test_probability_rows_sandwich(self):
        alphas = [1.5, 2.0, 3.0, 10.0, 43.97, 100.0]
        rows = bm_bound_curves(self.model, alphas)
        q = bm_exceedance_drift(4.0, 0.1, 1.0)
        for row in rows:
            assert row.scale == "probability"
            assert row.exact == pytest.approx(q, rel=1e-12)
            assert row.lower <= row.exact <= row.upper
            if row.alpha <= 2.0:
                assert row.lower == 0.0

    def test_log_rows_sandwich(self):
        alphas = [3.0, 5.0, 20.0]
        rows = bm_bound_curves(self.model, alphas, scale="log")
        for row in rows:
            assert row.lower <= row.exact <= row.upper

    def test_scales_are_consistent(self):
        alphas = [3.0, 7.0]
        log_rows = bm_bound_curves(self.model, alphas, scale="log")
        prob_rows = bm_bound_curves(self.model, alphas)
        for lr, pr in zip(log_rows, prob_rows):
            s = lr.alpha - 1.0
            assert pr.lower == pytest.approx(math.exp(s * lr.lower), rel=1e-12)
            assert pr.upper == pytest.approx(math.exp(s * lr.upper), rel=1e-12)
            assert pr.exact == pytest.approx(math.exp(s * lr.exact), rel=1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            BrownianModel(level=-1.0, drift=0.0)
        with pytest.raises(ValueError):
            BrownianModel(level=1.0, drift=math.inf)
        with pytest.raises(ValueError):
            BrownianModel(level=1.0, drift=0.0, horizon=0.0)


class TestLaplaceWiener:
    def test_against_mpmath(self):
        # E e^{-gamma H} = e^{-gamma t/2} I0(gamma t/2), H the argmax time
        for gamma in (-4.0, -1.0, 0.5, 1.0, 2.0, 10.0, 200.0):
            x = 0.5 * gamma
            want = float(mpmath.e ** (-x) * mpmath.besseli(0, x))
            assert laplace_h_wiener(gamma) == pytest.approx(want, rel=1e-12), gamma

    def test_large_gamma_against_mpmath(self):
        # e^{-x} I0(x) is formed without adding x, so no digits cancel
        for gamma in (40.0, 1e2, 1e4, 1e8):
            x = mpmath.mpf(gamma) / 2
            want = float(mpmath.e ** (-x) * mpmath.besseli(0, x))
            assert laplace_h_wiener(gamma) == pytest.approx(want, rel=1e-14, abs=0.0), gamma

    def test_frozen_study_values(self):
        # oracle: e^{-g/2} I0(g/2) via mpmath, frozen
        assert laplace_h_wiener(1.0) == pytest.approx(0.6450352704491501, rel=1e-12)
        assert laplace_h_wiener(2.0) == pytest.approx(0.4657596075936404, rel=1e-12)
        assert laplace_h_wiener(10.0) == pytest.approx(0.18354081260932834, rel=1e-12)

    def test_zero_exponent_is_mass(self):
        assert laplace_h_wiener(0.0) == 1.0

    def test_horizon_rescaling(self):
        # H scales linearly with the horizon, so (gamma, t) only enters
        # through the product
        assert laplace_h_wiener(2.0, 3.0) == pytest.approx(
            laplace_h_wiener(6.0, 1.0), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            laplace_h_wiener(math.inf)
        with pytest.raises(ValueError):
            laplace_h_wiener(1.0, -1.0)


def _argmax_transform_oracle(gamma: float, horizon: float, mu: float) -> mpmath.mpf:
    # int_0^t e^{-gamma s} a_mu(s) a_{-mu}(t - s) ds by tanh-sinh in the time
    # variable: s = u^2 on [0, t/2] and t - s = v^2 on [t/2, t] remove the
    # 1/sqrt endpoint singularities, with breakpoints at the e^{-gamma s} peak.
    # mpmath.quad stops on an absolute error, so the integrand is divided by
    # e^{max(0, -gamma t)} and then by a rough first value of the integral.
    g, t, m = mpmath.mpf(gamma), mpmath.mpf(horizon), mpmath.mpf(mu)
    r2 = mpmath.sqrt(2)

    def a(mu, s):
        return (mpmath.exp(-mu * mu * s / 2) / mpmath.sqrt(mpmath.pi * s)
                + mu / r2 * mpmath.erfc(-mu * mpmath.sqrt(s) / r2))

    def ua(mu, u):  # u a_mu(u^2)
        return (mpmath.exp(-mu * mu * u * u / 2) / mpmath.sqrt(mpmath.pi)
                + mu / r2 * u * mpmath.erfc(-mu * u / r2))

    shift = max(0, -g * t)

    def left(u):
        return 2 * mpmath.exp(-g * u * u - shift) * ua(m, u) * a(-m, t - u * u)

    def right(v):
        return 2 * mpmath.exp(-g * (t - v * v) - shift) * a(m, t - v * v) * ua(-m, v)

    h = mpmath.sqrt(t / 2)
    w = 1 / mpmath.sqrt(abs(g)) if g else h
    peak = [0] + [w * k for k in (1, 3, 9) if w * k < h] + [h]
    lp, rp = (peak, [0, h]) if g > 0 else ([0, h], peak)
    with mpmath.workdps(20):
        with mpmath.workdps(10):
            scale = mpmath.quad(left, lp) + mpmath.quad(right, rp)
        rest = (mpmath.quad(lambda u: left(u) / scale, lp)
                + mpmath.quad(lambda v: right(v) / scale, rp))
        return mpmath.exp(shift) * scale * rest


class TestLaplaceDrift:
    def test_against_mpmath_sweep(self):
        # worst measured error 1.0e-13, at mu sqrt(t) = 10 and gamma = 1e15, from
        # the cancellation e^{-x^2}/sqrt(pi) - x erfc(x) in A_{-mu}; up to
        # |mu| sqrt(t) = 5 it is 2.4e-14
        for gamma in (-300.0, -3.0, 0.0, 0.5, 2.0, 20.0, 1e3, 1e6, 1e9, 1e12, 1e15):
            for mu in (-5.0, -1.0, 0.0, 0.1, 1.0, 5.0):
                for t in (0.25, 1.0, 4.0):
                    want = float(_argmax_transform_oracle(gamma, t, mu))  # inf past the range
                    got = laplace_h_drift(gamma, t, mu)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (gamma, mu, t)

    def test_zero_drift_collapses_to_arcsine(self):
        for gamma in (-40.0, 0.5, 1.0, 2.0, 20.0):
            got = laplace_h_drift(gamma, 1.0, 0.0)
            assert got == pytest.approx(laplace_h_wiener(gamma), rel=1e-13, abs=0.0)

    def test_zero_exponent_mass_one(self):
        # at mu = 0 the factors are the arcsine density 1/sqrt(pi s), singular
        # at both ends of [0, t] in the time variable
        for mu in (0.0, 0.1, -0.4, 1.0):
            for t in (0.5, 1.0, 4.0):
                assert laplace_h_drift(0.0, t, mu) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_study_value(self):
        # mpmath at 40 digits, by the time-domain oracle above
        assert laplace_h_drift(2.0, 1.0, 0.1) == pytest.approx(
            0.4437550185417453182, rel=1e-14, abs=0.0)

    def test_time_reversal_identity(self):
        # reversing the path swaps the drift sign and maps H to t - H:
        # E_mu e^{-g H} = e^{-g t} E_{-mu} e^{+g H}
        for gamma, mu in ((1.5, 0.2), (2.0, -0.5), (0.7, 1.0)):
            left = laplace_h_drift(gamma, 1.0, mu)
            right = math.exp(-gamma) * laplace_h_drift(-gamma, 1.0, -mu)
            assert left == pytest.approx(right, rel=1e-14, abs=0.0), (gamma, mu)

    def test_positive_drift_pushes_argmax_late(self):
        # drift up makes late argmax times more likely, lowering E e^{-gH}
        vals = [laplace_h_drift(2.0, 1.0, mu) for mu in (-0.5, 0.0, 0.5)]
        assert vals[0] > vals[1] > vals[2]

    def test_past_float_range_is_inf(self):
        assert laplace_h_drift(-800.0, 1.0, 0.1) == math.inf
        assert laplace_h_drift(-800.0, 1.0, 0.0) == math.inf
        assert laplace_h_wiener(-800.0) == math.inf
        # just inside the range the value is finite, not rounded to inf
        want = float(mpmath.e ** 705 * mpmath.besseli(0, 705))
        assert laplace_h_wiener(-1410.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_large_exponent_is_never_zero(self):
        # a single panel misses the e^{-gamma t sin^2} peak and sums to 0.0
        for gamma in (1e12, 1e15):
            got = laplace_h_drift(gamma, 1.0, 0.1)
            assert 0.0 < got == pytest.approx(
                float(_argmax_transform_oracle(gamma, 1.0, 0.1)), rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            laplace_h_drift(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            laplace_h_drift(1.0, 0.0, 0.0)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
    def test_rule_integrates_cosines(self, n):
        # an n-point rule is exact to degree 2n - 1, so cos(k x) with k up to
        # n/2 is integrated to rounding; numpy's leggauss reaches 2.9e-14 at n = 1024
        nodes, weights = _gauss_legendre(n)
        assert len(nodes) == len(weights) == n
        for k in np.linspace(0.1, n / 2, 40):
            got = math.fsum(w * math.cos(k * x) for x, w in zip(nodes, weights))
            assert got == pytest.approx(2.0 * math.sin(k) / k, abs=5e-15), k


class TestLaplaceBounds:
    def test_study_sandwich(self):
        res = laplace_h_bounds(1.0, 1.0, 3.0, 0.1)
        middle = 0.5 * math.log(laplace_h_drift(2.0, 1.0, 0.1))
        assert res.scale == "log"
        assert res.lower == pytest.approx(-0.44345028081451865, rel=1e-9)
        assert res.upper == pytest.approx(-0.32873754409479466, rel=1e-9)
        assert middle == pytest.approx(-0.40624131443330678159, rel=1e-14, abs=0.0)
        assert res.lower <= middle <= res.upper

    def test_bounds_assemble_from_nominal_values(self):
        res = laplace_h_bounds(1.0, 1.0, 3.0, 0.1)
        d = 0.005
        want_upper = math.log(laplace_h_wiener(3.0)) / 3.0 + d
        want_lower = math.log(laplace_h_wiener(1.0)) / 1.0 - d
        assert res.upper == pytest.approx(want_upper, rel=1e-12)
        assert res.lower == pytest.approx(want_lower, rel=1e-12)

    def test_low_order_lower_is_vacuous(self):
        res = laplace_h_bounds(1.0, 1.0, 1.5, 0.1)
        assert res.lower == -math.inf
        assert math.isfinite(res.upper)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            laplace_h_bounds(1.0, 1.0, 1.0, 0.1)

    def test_sandwich_across_orders_and_drifts(self):
        for mu in (0.05, 0.1, 0.3):
            for alpha in (2.5, 3.0, 5.0):
                for gamma in (0.5, 1.0, 2.0):
                    res = laplace_h_bounds(gamma, 1.0, alpha, mu)
                    mid = math.log(
                        laplace_h_drift((alpha - 1.0) * gamma, 1.0, mu)
                    ) / (alpha - 1.0)
                    assert res.lower - 1e-9 <= mid <= res.upper + 1e-9, (
                        mu, alpha, gamma)
