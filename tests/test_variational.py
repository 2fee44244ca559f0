"""Certified variational identities for risk-sensitive values."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from renyibounds.divergences import renyi_discrete
from renyibounds.measures import FiniteMeasure, OrderParams, risk_sensitive
from renyibounds.variational import (
    _grid_simplex,
    alpha_zero_limit_check,
    inf_identity,
    kl_limit_identities,
    sup_identity,
)

from conftest import finite_measures, measure_from_weights

_PARAM_SET = [
    OrderParams(-2.0, -1.0),
    OrderParams(-1.0, 1.0),
    OrderParams(1.0, 2.0),
    OrderParams(2.0, 3.0),
    OrderParams(0.5, 1.5),
]


@st.composite
def identity_instances(draw, min_spread=0.0):
    dim = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 1000), min_size=dim, max_size=dim))
    vals = draw(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, width=32),
            min_size=dim, max_size=dim,
        ).filter(lambda v: max(v) - min(v) >= min_spread)
    )
    params = draw(st.sampled_from(_PARAM_SET))
    return measure_from_weights(weights), np.asarray(vals, dtype=float), params


class TestWorkedTwoPoint:
    nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
    g = np.array([0.0, 1.0])
    params = OrderParams(1.0, 2.0)

    def test_inf_form(self):
        rep = inf_identity(self.nu, self.g, self.params)
        assert rep.lhs == pytest.approx(math.log((1.0 + math.e) / 2.0), rel=1e-14)
        assert rep.equality_gap <= 1e-12
        assert rep.dominance_margin >= -1e-9
        assert rep.passes()
        assert rep.oracle_kind == "grid"
        assert rep.direction == "infimum"

    def test_sup_form(self):
        rep = sup_identity(self.nu, self.g, self.params)
        assert rep.lhs == pytest.approx(0.5 * math.log((1.0 + math.exp(2.0)) / 2.0),
                                        rel=1e-14)
        assert rep.equality_gap <= 1e-12
        assert rep.dominance_margin >= -1e-9
        assert rep.passes()
        assert rep.direction == "supremum"

    def test_inf_optimizer_is_downward_tilt(self):
        # theta* propto nu exp(-(gamma - beta) g), here span 1 on g = (0, 1)
        rep = inf_identity(self.nu, self.g, self.params)
        z = 1.0 + math.exp(-1.0)
        assert rep.optimizer.probs == pytest.approx(
            [1.0 / z, math.exp(-1.0) / z], rel=1e-13)

    def test_sup_optimizer_is_upward_tilt(self):
        rep = sup_identity(self.nu, self.g, self.params)
        z = 1.0 + math.e
        assert rep.optimizer.probs == pytest.approx(
            [1.0 / z, math.e / z], rel=1e-13)

    def test_suboptimal_point_is_strictly_worse(self):
        # evaluating the infimum objective at theta = nu itself must sit
        # strictly above the left side when g is not constant
        rep = inf_identity(self.nu, self.g, self.params)
        at_nu = risk_sensitive(self.nu, self.g, self.params.gamma) + (
            renyi_discrete(self.nu, self.nu, self.params.alpha) / self.params.span)
        assert at_nu > rep.lhs + 1e-3

    def test_report_json_shape(self):
        rep = inf_identity(self.nu, self.g, self.params)
        d = rep.to_json_dict()
        assert d["passes"] is True
        assert d["direction"] == "infimum"
        assert set(d["oracle"]) == {
            "kind", "points", "resolution", "min_or_max",
            "dominance_margin", "near_optimal_max_distance",
        }
        assert d["optimizer"]["labels"] == ["a", "b"]


def stars_and_bars_grid(dim, step):
    """Reference grid: compositions of m = round(1/step) into dim parts
    read off the bar positions, in itertools.combinations order."""
    m = int(round(1.0 / step))
    if dim == 1:
        return np.ones((1, 1))
    rows = []
    for cuts in combinations(range(m + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(m + dim - 2 - prev)
        rows.append(parts)
    return np.asarray(rows, dtype=float) / m


_GRID_CASES = [(dim, step) for dim in (1, 2, 3, 4) for step in (1e-2, 0.3, 0.7)]
# 2.2e-3 at dim 4 would be 1.6e7 rows, too many for the loop reference
_GRID_CASES += [(1, 2.2e-3), (2, 2.2e-3), (3, 2.2e-3), (2, 1e-5)]


class TestGridSimplex:
    @pytest.mark.parametrize("dim,step", _GRID_CASES)
    def test_matches_stars_and_bars_bitwise(self, dim, step):
        got = _grid_simplex(dim, step)
        want = stars_and_bars_grid(dim, step)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        # same bits in the same row order
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("dim,step", [(2, 1e-5), (2, 1e-2), (3, 2.2e-3), (3, 1e-2)])
    def test_oracle_points_count_the_grid(self, dim, step):
        nu = measure_from_weights(range(1, dim + 1))
        g = np.linspace(-1.0, 1.0, dim)
        rep = inf_identity(nu, g, OrderParams(1.0, 2.0), grid_step=step)
        m = int(round(1.0 / step))
        # the grid plus the optimizer and nu themselves
        assert rep.oracle_kind == "grid"
        assert rep.oracle_points == math.comb(m + dim - 1, dim - 1) + 2


class TestScalingInvariance:
    def test_order_and_payoff_rescaling(self):
        # scaling g by c and both orders by 1/c leaves alpha unchanged and
        # multiplies both sides of the identity by c
        nu = measure_from_weights([2, 3, 5])
        g = np.array([0.3, -1.1, 0.7])
        base = OrderParams(1.0, 2.0)
        for c in (0.5, 2.0, 4.0):
            scaled = OrderParams(base.beta / c, base.gamma / c)
            assert scaled.alpha == pytest.approx(base.alpha, rel=1e-15)
            for form in (inf_identity, sup_identity):
                r0 = form(nu, g, base)
                r1 = form(nu, c * g, scaled)
                assert r1.lhs == pytest.approx(c * r0.lhs, rel=1e-12)
                assert r1.rhs_at_optimizer == pytest.approx(
                    c * r0.rhs_at_optimizer, rel=1e-12)
                assert r1.optimizer.probs == pytest.approx(
                    r0.optimizer.probs, abs=1e-13)


class TestRandomInstances:
    @given(identity_instances(min_spread=0.5))
    def test_full_certificate(self, instance):
        nu, g, params = instance
        for form in (inf_identity, sup_identity):
            rep = form(nu, g, params, oracle_samples=20_000)
            assert rep.equality_gap <= 1e-9
            assert rep.dominance_margin >= -1e-9
            assert rep.passes()

    @given(identity_instances())
    def test_equality_and_dominance_any_payoff(self, instance):
        # near-constant payoffs flatten the objective, which voids the
        # localization certificate but never equality or dominance
        nu, g, params = instance
        for form in (inf_identity, sup_identity):
            rep = form(nu, g, params, oracle_samples=5_000)
            assert rep.equality_gap <= 1e-9
            assert rep.dominance_margin >= -1e-9

    def test_zero_atom_support(self):
        nu = measure_from_weights([1, 1, 0])
        g = np.array([0.0, 1.0, -2.0])
        for form in (inf_identity, sup_identity):
            rep = form(nu, g, OrderParams(1.0, 2.0))
            assert rep.passes()
            assert rep.optimizer.probs[2] == 0.0

    def test_dirichlet_oracle_in_higher_dimension(self):
        nu = measure_from_weights([1, 2, 3, 4, 5])
        g = np.linspace(-1.0, 1.0, 5)
        rep = inf_identity(nu, g, OrderParams(1.0, 2.0), oracle_samples=50_000)
        assert rep.oracle_kind == "dirichlet"
        assert rep.passes()

    def test_constant_payoff_degenerates_gracefully(self):
        nu = measure_from_weights([1, 3])
        rep = inf_identity(nu, np.array([0.7, 0.7]), OrderParams(1.0, 2.0))
        assert rep.equality_gap <= 1e-12
        assert rep.near_optimal_max_distance == 0.0
        assert rep.passes()


class TestLimits:
    def test_kl_limit_worked(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        gaps = kl_limit_identities(nu, np.array([0.0, 1.0]))
        assert gaps[0] <= 1e-12
        assert gaps[1] <= 1e-12

    @given(finite_measures())
    def test_kl_limit_random(self, nu):
        g = np.linspace(-2.0, 1.0, nu.dim)
        gi, gs = kl_limit_identities(nu, g)
        assert gi <= 1e-10
        assert gs <= 1e-10

    def test_alpha_zero_limit(self):
        nu = measure_from_weights([1, 0])
        theta = measure_from_weights([1, 1])
        value, target = alpha_zero_limit_check(nu, theta)
        assert target == pytest.approx(math.log(2.0), rel=1e-15)
        assert value == pytest.approx(target, abs=1e-3)

    def test_alpha_zero_limit_partial_overlap(self):
        nu = measure_from_weights([2, 3, 0, 0])
        theta = measure_from_weights([1, 1, 1, 1])
        value, target = alpha_zero_limit_check(nu, theta)
        assert target == pytest.approx(math.log(2.0), rel=1e-15)
        assert value == pytest.approx(target, abs=1e-3)

    def test_alpha_zero_limit_validation(self):
        nu = measure_from_weights([1, 1])
        with pytest.raises(ValueError):
            alpha_zero_limit_check(nu, nu, alpha=0.0)
        with pytest.raises(ValueError):
            alpha_zero_limit_check(nu, nu, alpha=1.5)
