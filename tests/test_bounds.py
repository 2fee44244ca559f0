"""Assembly of two-sided robust bounds from nominal values and budgets."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from renyibounds.bounds import (
    BoundResult,
    event_bounds,
    rs_lower,
    rs_upper,
)
from renyibounds.divergences import DivergenceBudget

# nominal level-crossing probability of the driftless study, and the
# per-unit budget mu^2/2 at drift 0.1 (values rechecked in test_brownian)
_P_STUDY = 6.3342483666239937e-05
_D_STUDY = 0.005


class TestRsSides:
    def test_plain_arithmetic(self):
        assert rs_upper(0.3, 0.05, 3.0) == pytest.approx(0.35, rel=1e-15)
        assert rs_lower(0.3, 0.05, 3.0) == pytest.approx(0.25, rel=1e-15)

    def test_order_requirements(self):
        with pytest.raises(ValueError):
            rs_upper(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            rs_lower(0.0, 0.0, 2.0)
        rs_upper(0.0, 0.0, 1.0 + 1e-12)
        rs_lower(0.0, 0.0, 2.0 + 1e-12)

    def test_infinite_budgets_are_vacuous(self):
        assert rs_upper(0.3, math.inf, 3.0) == math.inf
        assert rs_lower(0.3, math.inf, 3.0) == -math.inf

    def test_budget_validation(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError):
                rs_upper(0.3, bad, 3.0)
            with pytest.raises(ValueError):
                rs_lower(0.3, bad, 3.0)

    def test_inf_minus_inf_collapses_down(self):
        # a diverging nominal value with a diverging budget must give the
        # vacuous lower bound, not nan
        assert rs_lower(math.inf, math.inf, 3.0) == -math.inf
        assert rs_upper(math.inf, math.inf, 3.0) == math.inf

    def test_infinite_nominal_passes_through(self):
        assert rs_upper(math.inf, 0.1, 3.0) == math.inf
        assert rs_lower(-math.inf, 0.1, 3.0) == -math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rs_upper(math.nan, 0.1, 3.0)
        with pytest.raises(ValueError):
            rs_lower(0.1, math.nan, 3.0)
        with pytest.raises(ValueError):
            rs_upper(0.1, -0.1, 3.0)


class TestEventBounds:
    def test_study_values_order_three(self):
        # oracle: direct evaluation of p^{(a-1)/a} e^{(a-1) d1} and
        # p^{(a-1)/(a-2)} e^{-(a-1) d2} at a = 3, p and d as above
        res = event_bounds(_P_STUDY, DivergenceBudget(_D_STUDY, _D_STUDY), 3.0)
        want_upper = _P_STUDY ** (2.0 / 3.0) * math.exp(2.0 * _D_STUDY)
        want_lower = _P_STUDY ** 2.0 * math.exp(-2.0 * _D_STUDY)
        assert res.upper == pytest.approx(want_upper, rel=1e-12)
        assert res.lower == pytest.approx(want_lower, rel=1e-12)
        assert res.upper == pytest.approx(1.6049924860847826e-03, rel=1e-10)
        assert res.lower == pytest.approx(3.9723474811063710e-09, rel=1e-10)
        assert not res.upper_clamped

    def test_scale_consistency(self):
        budget = DivergenceBudget(0.02, 0.01)
        for alpha in (1.5, 2.0, 3.0, 10.0):
            log_res = event_bounds(0.01, budget, alpha, scale="log")
            prob_res = event_bounds(0.01, budget, alpha, scale="probability")
            s = alpha - 1.0
            if log_res.lower == -math.inf:
                assert prob_res.lower == 0.0
            else:
                assert prob_res.lower == pytest.approx(
                    math.exp(s * log_res.lower), rel=1e-12)
            assert prob_res.upper == pytest.approx(
                math.exp(s * log_res.upper), rel=1e-12)

    def test_large_order_limit(self):
        # as the order grows the upper bound tends to p e^{alpha d1}; with
        # d1 = 0 it converges to p itself
        res = event_bounds(0.37, DivergenceBudget(0.0, 0.0), 1e6)
        assert res.upper == pytest.approx(0.37, rel=1e-4)

    def test_zero_budget_recovers_nominal_upper(self):
        # with no divergence allowance the upper bound is p^{(a-1)/a},
        # still above p, and the lower bound is p^{a-1 over a-2}
        res = event_bounds(0.25, DivergenceBudget(0.0, 0.0), 3.0)
        assert res.upper == pytest.approx(0.25 ** (2.0 / 3.0), rel=1e-14)
        assert res.lower == pytest.approx(0.25 ** 2.0, rel=1e-14)
        assert res.lower <= 0.25 <= res.upper

    def test_low_order_has_vacuous_lower(self):
        res = event_bounds(0.1, DivergenceBudget(0.1, 0.1), 1.5)
        assert res.lower == 0.0
        assert math.isfinite(res.upper)
        log_res = event_bounds(0.1, DivergenceBudget(0.1, 0.1), 1.5, scale="log")
        assert log_res.lower == -math.inf

    def test_infinite_budgets(self):
        res = event_bounds(0.1, DivergenceBudget(math.inf, math.inf), 3.0)
        assert res.upper == 1.0 and res.upper_clamped
        assert res.lower == 0.0
        log_res = event_bounds(0.1, DivergenceBudget(math.inf, math.inf), 3.0,
                               scale="log")
        assert log_res.upper == math.inf
        assert log_res.lower == -math.inf

    def test_zero_probability_event(self):
        res = event_bounds(0.0, DivergenceBudget(0.1, 0.1), 3.0)
        assert res.lower == 0.0
        assert res.upper == 0.0
        log_res = event_bounds(0.0, DivergenceBudget(0.1, 0.1), 3.0, scale="log")
        assert log_res.upper == -math.inf

    def test_clamping_flag(self):
        res = event_bounds(0.9, DivergenceBudget(5.0, 0.0), 3.0)
        assert res.upper == 1.0
        assert res.upper_clamped

    def test_budget_past_exp_range_clamps(self):
        # (alpha - 1) upper_log = log(0.5) / 2 + 800 is past exp's range;
        # d1 = 710 is not, and both clamp to 1
        for d1 in (710.0, 800.0, 1e300):
            res = event_bounds(0.5, DivergenceBudget(d1=d1, d2=1.0), 2.0)
            assert (res.lower, res.upper, res.upper_clamped) == (0.0, 1.0, True)
        res = event_bounds(0.5, DivergenceBudget(d1=800.0, d2=1e300), 3.0)
        assert (res.lower, res.upper, res.upper_clamped) == (0.0, 1.0, True)

    def test_validation(self):
        budget = DivergenceBudget(0.1, 0.1)
        with pytest.raises(ValueError):
            event_bounds(0.1, budget, 1.0)
        with pytest.raises(ValueError):
            event_bounds(-0.1, budget, 3.0)
        with pytest.raises(ValueError):
            event_bounds(1.1, budget, 3.0)
        with pytest.raises(ValueError):
            event_bounds(0.1, budget, 3.0, scale="percent")

    @pytest.mark.filterwarnings("error")
    @given(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0])),
        st.one_of(st.floats(0.0, math.inf), st.sampled_from([0.0, 1e300, math.inf])),
        st.one_of(st.floats(0.0, math.inf), st.sampled_from([0.0, 1e300, math.inf])),
        st.one_of(st.floats(1.0, 1e300, exclude_min=True),
                  st.sampled_from([1.0 + 2.0 ** -52, 2.0, 2.5, 60.0, 1e6, 1e300])),
        st.sampled_from(["log", "probability"]),
    )
    # at zero budgets and alpha = 1e300 the rounded exps land past p: the
    # lower side above it in the first case, the upper side below it in the second
    @example(1e-300, 0.0, 0.0, 1e300, "probability")
    @example(6.70923777185644e-27, 0.0, 0.0, 1e300, "probability")
    def test_sandwich_orders_correctly(self, p, d1, d2, alpha, scale):
        res = event_bounds(p, DivergenceBudget(d1, d2), alpha, scale=scale)
        assert not (math.isnan(res.lower) or math.isnan(res.upper))
        assert res.lower <= res.upper
        if scale == "probability":
            # the truth theta = nu satisfies both budgets, so p itself must
            # always lie inside the sandwich
            assert 0.0 <= res.lower <= p <= res.upper <= 1.0


def test_bound_result_is_frozen():
    res = event_bounds(0.1, DivergenceBudget(0.1, 0.1), 3.0)
    assert isinstance(res, BoundResult)
    with pytest.raises(AttributeError):
        res.upper = 2.0
