"""Certified variational identities for risk-sensitive values."""

from __future__ import annotations

import json
import math
import sys
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from renyibounds import variational
from renyibounds.divergences import renyi_discrete
from renyibounds.measures import (
    FiniteMeasure,
    OrderParams,
    aligned_values,
    exp_tilt,
    logsumexp,
    normalize,
    risk_sensitive,
)
from renyibounds.variational import (
    NEAR_OPTIMAL_WINDOW,
    IdentityReport,
    _atom_sums,
    _candidates,
    _grid_simplex,
    _log_floor,
    inf_identity,
    sup_identity,
)

from conftest import finite_measures, measure_from_weights, reference_expectation, reference_kl

_PARAM_SET = [
    OrderParams(-2.0, -1.0),
    OrderParams(-1.0, 1.0),
    OrderParams(1.0, 2.0),
    OrderParams(2.0, 3.0),
    OrderParams(0.5, 1.5),
]
# orders whose alpha is not dyadic, so that 1 - alpha may round otherwise than
# the mirrored order -beta / span; alpha = 4/3, 1/7, 0.3, -1/99, 300/299, -3/22
_NON_DYADIC = [
    OrderParams(1.0, 4.0),
    OrderParams(-3.0, 0.5),
    OrderParams(-0.7, 0.3),
    OrderParams(-300.0, -3.0),
    OrderParams(0.1, 30.0),
    OrderParams(-2.5, -0.3),
]


@st.composite
def identity_instances(draw, min_spread=0.0, allow_zero=False, orders=_PARAM_SET):
    dim = draw(st.integers(2, 5))
    weights = st.lists(st.integers(0 if allow_zero else 1, 1000), min_size=dim, max_size=dim)
    weights = draw(weights.filter(any) if allow_zero else weights)
    vals = draw(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, width=32),
            min_size=dim, max_size=dim,
        ).filter(lambda v: max(v) - min(v) >= min_spread)
    )
    params = draw(st.sampled_from(orders))
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
        # one grid point per column, atoms down the first axis
        got = _grid_simplex(dim, step)
        want = np.ascontiguousarray(stars_and_bars_grid(dim, step).T)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        # same bits in the same column order
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


# -- row-major reference ------------------------------------------------------
# The oracle as it was written with one candidate per row and every reduction
# over atoms on the last axis. The library now stores candidates as columns
# and reduces over axis 0; up to dim 7 both sum the atoms left to right, so
# the certificates must agree bit for bit.


def reference_primes(count):
    """The first count primes, by trial division."""
    primes = []
    n = 1
    while len(primes) < count:
        n += 1
        if all(n % p for p in primes):
            primes.append(n)
    return primes


def reference_lattice(dim, samples, seed, shift=None):
    """The shifted Kronecker lattice on the simplex, one point per row.

    Coordinate i of point j is u = ((j G_i + shift_i) mod 2^64) >> 11 in
    Python ints, with G_i = floor(frac(sqrt(p_i)) 2^64) for the i-th prime
    and the shift dim words of Philox(key=seed); its spacing is
    -log((2^53 - u) / 2^53), and the point is the spacings over their sum,
    added left to right.
    """
    gens = [math.isqrt(p * 2**128) % 2**64 for p in reference_primes(dim)]
    if shift is None:
        shift = [int(w) for w in np.random.Philox(key=int(seed)).random_raw(dim)]
    uniforms = np.array([[(2**53 - ((j * g + d) % 2**64 >> 11)) / 2**53
                          for g, d in zip(gens, shift)] for j in range(int(samples))])
    spacings = 0.0 - np.log(uniforms)
    total = spacings[:, 0].copy()
    for i in range(1, dim):
        total += spacings[:, i]
    return spacings * (1.0 / total)[:, None]


def reference_candidates(dim, grid_step, samples, seed):
    if dim <= 3:
        return stars_and_bars_grid(dim, grid_step), "grid", grid_step
    return (reference_lattice(dim, samples, seed), "lattice",
            float(samples) ** (-1.0 / (dim - 1)))


def reference_log_integral_rows(log_num, log_den, alpha):
    ln = np.asarray(log_num, dtype=float)
    lt = np.asarray(log_den, dtype=float)
    with np.errstate(invalid="ignore"):
        w = alpha * ln + (1.0 - alpha) * lt
    both_zero = np.isneginf(ln) & np.isneginf(lt)
    if np.any(both_zero):
        w = np.where(both_zero, -math.inf, w)
    return logsumexp(w, axis=-1)


def reference_rhs_values(direction, log_candidates, nu, values, params):
    alpha = params.alpha
    span = params.span
    if direction == "infimum":
        risk = logsumexp(log_candidates + params.gamma * values, axis=-1) / params.gamma
        div = reference_log_integral_rows(nu.log_weights, log_candidates, alpha)
    else:
        risk = logsumexp(log_candidates + params.beta * values, axis=-1) / params.beta
        div = reference_log_integral_rows(log_candidates, nu.log_weights, alpha)
    denom = alpha * (alpha - 1.0)
    with np.errstate(invalid="ignore"):
        div = np.where(np.isneginf(div), math.inf, div / denom)
    if direction == "infimum":
        return risk + div / span
    return risk - div / span


def reference_certify(direction, nu, g, params, grid_step=1e-2,
                      oracle_samples=100_000, seed=0):
    values = aligned_values(nu, g)
    sign = -1.0 if direction == "infimum" else 1.0
    optimizer = exp_tilt(nu, values, sign * params.span)
    if direction == "infimum":
        lhs = risk_sensitive(nu, values, params.beta)
        rhs_opt = risk_sensitive(optimizer, values, params.gamma) + (
            renyi_discrete(nu, optimizer, params.alpha) / params.span
        )
    else:
        lhs = risk_sensitive(nu, values, params.gamma)
        rhs_opt = risk_sensitive(optimizer, values, params.beta) - (
            renyi_discrete(optimizer, nu, params.alpha) / params.span
        )

    pts, kind, resolution = reference_candidates(nu.dim, grid_step, oracle_samples, seed)
    pts = np.vstack([pts, optimizer.probs, nu.probs])
    with np.errstate(divide="ignore"):
        log_pts = np.log(pts)
    rhs = reference_rhs_values(direction, log_pts, nu, values, params)

    if direction == "infimum":
        best = float(np.min(rhs))
        margin = best - lhs
        near = rhs <= lhs + NEAR_OPTIMAL_WINDOW
    else:
        best = float(np.max(rhs))
        margin = lhs - best
        near = rhs >= lhs - NEAR_OPTIMAL_WINDOW

    if np.ptp(values) == 0.0:
        max_dist = 0.0
    elif np.any(near):
        diffs = np.abs(pts[near] - optimizer.probs[None, :])
        max_dist = float(np.max(diffs))
    else:
        max_dist = 0.0

    return IdentityReport(
        direction=direction,
        lhs=lhs,
        rhs_at_optimizer=rhs_opt,
        optimizer=optimizer,
        oracle_kind=kind,
        oracle_points=int(pts.shape[0]),
        oracle_resolution=resolution,
        oracle_min_or_max=best,
        dominance_margin=float(margin),
        near_optimal_max_distance=max_dist,
    )


_FORMS = {"infimum": inf_identity, "supremum": sup_identity}


def mirrored(direction, g, params):
    """The payoff and orders of the infimum a form is certified as, and the
    sign that turns that infimum's values into the form's."""
    if direction == "infimum":
        return g, params, 1.0
    return -np.asarray(g), OrderParams(-params.gamma, -params.beta), -1.0


def random_instance(dim, seed):
    rng = np.random.default_rng(seed)
    nu = FiniteMeasure.from_probs([str(j) for j in range(dim)], rng.dirichlet(np.ones(dim)))
    return nu, rng.uniform(-3.0, 3.0, dim), int(rng.integers(0, 2**32))


def assert_same_report(nu, g, params, **kwargs):
    for direction, form in _FORMS.items():
        got = form(nu, g, params, **kwargs)
        want = reference_certify(direction, nu, g, params, **kwargs)
        # repr keeps every bit of a float; to_json_dict prints both zeros as 0.0
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        assert got.oracle_points == want.oracle_points


def assert_close_report(nu, g, params, **kwargs):
    # the summation order moves the last digits; the verdict may not move
    for direction, form in _FORMS.items():
        got = form(nu, g, params, **kwargs)
        want = reference_certify(direction, nu, g, params, **kwargs)
        assert got.oracle_points == want.oracle_points
        assert np.array_equal(got.optimizer.log_weights, want.optimizer.log_weights)
        for name in ("lhs", "rhs_at_optimizer", "oracle_min_or_max",
                     "dominance_margin", "near_optimal_max_distance"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0, abs=1e-14)
        assert got.passes() == want.passes()


def assert_close_objective(got, want, tol=1e-14):
    # the same infinite entries, the finite ones within tol
    inf = np.isinf(want)
    assert np.array_equal(np.isinf(got), inf)
    assert np.array_equal(got[inf], want[inf])
    assert np.all(np.abs(got[~inf] - want[~inf]) <= np.broadcast_to(tol, want.shape)[~inf])


@contextmanager
def exact_path():
    """Certificates inside take the log-sum-exp scan: no range admits them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "_RANGE", -1.0)
        yield


def objective(cols, logs, nu, values, params, sums=None):
    """The infimum's objective at every column of cols and of their logs,
    with none pruned: the risk term plus the divergence term over the span."""
    return (variational._risk_terms(cols, logs, values, params, sums)
            + variational._divergence_terms(logs, nu, params, sums) / params.span)


def scored(pts, nu, values, params, sums, bound):
    """The objective at each column of pts that the scan scores, piece by
    piece, and inf at the others."""
    rhs = np.full(pts.shape[1], math.inf)
    for lo in range(0, pts.shape[1], variational._PIECE):
        kept, obj = variational._score_piece(pts[:, lo:lo + variational._PIECE], nu, values,
                                             params, sums, bound)
        rhs[lo + kept] = obj
    return rhs


class TestAtomsMajorOracle:
    @pytest.mark.parametrize("regime", range(len(_PARAM_SET)))
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_bitwise_equal_to_row_major(self, dim, regime):
        # dims 2-3 scan the grid, dims 4-7 the lattice; the log-sum-exp
        # scan is bitwise the row-major one, the atom-weighted scan close to it
        nu, g, seed = random_instance(dim, 100 * dim + regime)
        kwargs = {"grid_step": {2: 1e-3}.get(dim, 1e-2), "oracle_samples": 20_000,
                  "seed": seed}
        with exact_path():
            assert_same_report(nu, g, _PARAM_SET[regime], **kwargs)
        assert_close_report(nu, g, _PARAM_SET[regime], **kwargs)

    @pytest.mark.parametrize("direction", ["infimum", "supremum"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_objective_bitwise_at_every_candidate(self, dim, direction):
        # the report mostly reflects the optimizer column, so compare the
        # candidates and the objective at each of them as well
        nu, g, seed = random_instance(dim, 7 * dim)
        # a zero atom meets the grid's zero coordinates: both-zero atoms are
        # dropped, and the log-sum-exp scan is the only one
        zeroed = measure_from_weights(np.r_[0.0, nu.probs[1:]])
        step = {2: 1e-3}.get(dim, 1e-2)
        pts, kind, _, floor = _candidates(dim, step, 20_000, seed)
        rows, want_kind, _ = reference_candidates(dim, step, 20_000, seed)
        assert kind == want_kind
        assert np.array_equal(pts.view(np.int64), np.ascontiguousarray(rows.T).view(np.int64))
        with np.errstate(divide="ignore"):
            log_pts = np.log(pts)
            log_rows = np.log(rows)
        assert np.array_equal(log_pts.view(np.int64),
                              np.ascontiguousarray(log_rows.T).view(np.int64))
        assert floor == pytest.approx(_log_floor(pts), rel=1e-15)
        for measure in (nu, zeroed):
            for params in _PARAM_SET:
                # the supremum's objective is minus its mirrored infimum's
                g_m, params_m, sign = mirrored(direction, g, params)
                got = sign * objective(pts, log_pts, measure, g_m, params_m)
                want = reference_rhs_values(direction, log_rows, measure, g, params)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                sums = _atom_sums(measure, g_m, params_m, floor)
                if measure is zeroed:
                    assert sums is None
                else:
                    assert_close_objective(
                        sign * objective(pts, log_pts, measure, g_m, params_m, sums), want)

    @pytest.mark.parametrize("weights,g", [
        ([1, 1, 0], [0.0, 1.0, -2.0]),
        ([2, 0, 3, 0, 1], [0.5, -1.0, 2.0, 0.0, -0.5]),
        ([1, 3], [0.7, 0.7]),
    ])
    def test_bitwise_equal_with_zero_atoms_and_flat_payoff(self, weights, g):
        # a zero atom keeps the log-sum-exp scan; a flat payoff without one
        # takes the atom-weighted scan
        check = assert_same_report if 0 in weights else assert_close_report
        for params in _PARAM_SET:
            check(measure_from_weights(weights), np.asarray(g), params,
                  oracle_samples=20_000, seed=3)

    @pytest.mark.parametrize("weights,g,seed,distance", [
        ([1, 22, 1, 1, 1], [-1.0, 3.0, 0.0, 0.0, -1.0], 2, 0.0850874477974981),
        ([1, 10, 1], [0.0, 3.0, -1.0], 0, 0.05526956849081932),
    ])
    def test_unlocalized_instances_keep_their_distance(self, weights, g, seed, distance):
        # the flat-objective instances behind test_full_certificate's flakes;
        # at seed 0 no lattice point falls in the dim-5 instance's window
        nu = measure_from_weights(weights)
        params = OrderParams(2.0, 3.0)
        kwargs = {"oracle_samples": 20_000, "seed": seed}
        with exact_path():
            assert_same_report(nu, np.asarray(g), params, **kwargs)
        assert_close_report(nu, np.asarray(g), params, **kwargs)
        rep = inf_identity(nu, np.asarray(g), params, **kwargs)
        assert rep.near_optimal_max_distance == distance
        assert not rep.passes()

    @pytest.mark.parametrize("regime", range(len(_PARAM_SET)))
    @pytest.mark.parametrize("dim", [8, 10, 13])
    def test_close_to_row_major_from_dim_8(self, dim, regime):
        # numpy's last-axis sum unrolls 8 ways from 8 atoms on, so the row-major
        # order can move the last digits; the verdict may not move
        nu, g, seed = random_instance(dim, 100 * dim + regime)
        assert_close_report(nu, g, _PARAM_SET[regime], oracle_samples=20_000, seed=seed)


def scan_columns(nu, g, params, pts):
    """A block's columns with the infimum's optimizer and nu, their logs, and
    the scan's sums."""
    optimizer = exp_tilt(nu, g, -params.span)
    cols = np.column_stack([pts, optimizer.probs, nu.probs])
    with np.errstate(divide="ignore"):
        logs = np.log(cols)
    return cols, logs, _atom_sums(nu, g, params, _log_floor(cols))


@st.composite
def scan_instances(draw, max_spread, min_scale):
    """Instances within the range check: dims 2-7, the five regimes.

    nu's log weights spread up to max_spread (a fraction of the most the
    check admits), and the orders scale from min_scale up to where
    |order| ptp(g) reaches the bound; the tilted optimizer may still
    fail the check, and the tests skip those.
    """
    dim = draw(st.integers(2, 7))
    params = draw(st.sampled_from(_PARAM_SET))
    g = np.asarray(draw(st.lists(st.floats(-3.0, 3.0, width=32), min_size=dim, max_size=dim)))
    alpha = params.alpha
    spread = max_spread * variational._RANGE / max(1.0, abs(alpha), abs(1.0 - alpha))
    log_w = draw(st.lists(st.floats(-spread, 0.0), min_size=dim, max_size=dim))
    # |order| max|g| stays within the bound too, so the tilts stay normalizable
    size = max(np.ptp(g), np.max(np.abs(g)), 1e-3)
    top = 0.999 * variational._RANGE / (max(-params.beta, params.gamma) * size)
    scale = min_scale * (top / min_scale) ** draw(st.floats(0.0, 1.0))
    params = OrderParams(params.beta * scale, params.gamma * scale)
    return normalize(log_w, [str(j) for j in range(dim)]), g, params


class TestAtomWeightedScan:
    """The atom-weighted scan against the log-sum-exp scan it stands in for."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        # dropped, never restored: a kept block is only valid until the next
        # build writes over its memory
        variational._last_block = None

    @staticmethod
    def objectives(instance, direction):
        nu, g, params = instance
        g, params, sign = mirrored(direction, g, params)
        pts = variational._oracle_block(nu.dim, 0.05, 2_000, 5)[0]
        cols, logs, sums = scan_columns(nu, g, params, pts)
        # the tilted optimizer's smallest atom can fail the range check first
        assume(sums is not None)
        return (sign * objective(cols, logs, nu, g, params),
                sign * objective(cols, logs, nu, g, params, sums))

    @given(scan_instances(max_spread=6.9 / variational._RANGE, min_scale=1.0))
    def test_matches_the_log_sum_exp_scan(self, instance):
        # nu's atoms within a factor of 1000 and payoffs in [-3, 3], as in the
        # certify workload, with the orders up to the range check
        for direction, form in _FORMS.items():
            want, got = self.objectives(instance, direction)
            assert_close_objective(got, want)
            kwargs = {"grid_step": 0.05, "oracle_samples": 2_000, "seed": 5}
            with exact_path():
                exact = form(*instance, **kwargs)
            assert form(*instance, **kwargs).passes() == exact.passes()

    @given(scan_instances(max_spread=0.999, min_scale=1.0 / 16.0))
    def test_close_up_to_the_range_check(self, instance):
        # far atoms and small orders: both scans round exponents up to
        # 2 _RANGE in size, so allow a few ulps of that through the divisions
        # by the risk order and by alpha (alpha - 1) span
        _, _, params = instance
        alpha = params.alpha
        for direction, order in (("infimum", params.gamma), ("supremum", params.beta)):
            want, got = self.objectives(instance, direction)
            ulps = 16.0 * sys.float_info.epsilon * variational._RANGE * (
                1.0 / abs(order) + 1.0 / abs(alpha * (alpha - 1.0) * params.span))
            assert_close_objective(got, want, 1e-14 * np.maximum(1.0, np.abs(want)) + ulps)

    # (direction, orders, guarded quantity as a multiple f of the bound ->
    # (nu's log weights, payoff)), one case per clause of the range check
    _BOUNDS = {
        "risk order": ("infimum", (1.0, 2.0),
                       lambda f: ([0.0, -1.0, -2.0], [0.0, 150.0 * f, 1.0])),
        "nu spread": ("infimum", (1.0, 2.0),
                      lambda f: ([0.0, -150.0 * f, -1.0], [0.0, 0.5, 1.0])),
        "floor": ("supremum", (2.0, 3.0),
                  lambda f: ([0.0, 0.0, math.log(2.0) - 100.0 * f], [0.0, 0.0, 1.0])),
        "floor below unit power": ("infimum", (-1.0, 1.0),
                                   lambda f: ([0.0, 0.0, math.log(2.0) - 300.0 * f],
                                              [0.0, 0.0, -1.0])),
    }

    @pytest.mark.parametrize("case", list(_BOUNDS))
    def test_just_past_each_bound_is_exact(self, case):
        direction, orders, build = self._BOUNDS[case]
        params = OrderParams(*orders)
        pts = variational._oracle_block(3, 1e-2, 2_000, 0)[0]
        for f, past in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            log_w, g = build(f)
            nu = normalize(log_w, ["a", "b", "c"])
            assert (scan_columns(nu, *mirrored(direction, np.asarray(g), params)[:2], pts)[2]
                    is None) == past
        got = _FORMS[direction](nu, g, params)
        want = reference_certify(direction, nu, np.asarray(g), params)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    @pytest.mark.parametrize("direction", list(_FORMS))
    def test_zero_atom_is_exact(self, direction):
        nu = measure_from_weights([3, 0, 1, 2])
        g = np.array([0.5, -1.0, 2.0, 0.0])
        for params in _PARAM_SET:
            pts = variational._oracle_block(4, 1e-2, 2_000, 0)[0]
            assert scan_columns(nu, *mirrored(direction, g, params)[:2], pts)[2] is None
            got = _FORMS[direction](nu, g, params, oracle_samples=2_000)
            want = reference_certify(direction, nu, g, params, oracle_samples=2_000)
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


class TestOracleBlock:
    """One read-only candidate block per oracle arguments, scanned in pieces."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        # dropped, never restored: a kept block is only valid until the next
        # build writes over its memory
        variational._last_block = None

    @pytest.fixture
    def built(self, monkeypatch):
        keys = []
        candidates = variational._candidates

        def counting(*key):
            keys.append(key)
            return candidates(*key)

        monkeypatch.setattr(variational, "_candidates", counting)
        return keys

    def test_a_pair_builds_one_block(self, built):
        nu, g, seed = random_instance(5, 11)
        params = OrderParams(1.0, 2.0)
        kwargs = {"oracle_samples": 5_000, "seed": seed}
        inf_identity(nu, g, params, **kwargs)
        sup_identity(nu, g, params, **kwargs)
        assert built == [(5, 1e-2, 5_000, seed)]
        # another seed, then another dimension, each rebuild the block
        sup_identity(nu, g, params, oracle_samples=5_000, seed=seed + 1)
        nu3, g3, _ = random_instance(3, 12)
        inf_identity(nu3, g3, params, **kwargs)
        inf_identity(nu3, g3, params, **kwargs)
        assert built == [(5, 1e-2, 5_000, seed), (5, 1e-2, 5_000, seed + 1),
                         (3, 1e-2, 5_000, seed)]

    @pytest.mark.parametrize("dim", [2, 4])
    def test_cached_arrays_are_read_only(self, dim):
        nu, g, seed = random_instance(dim, 13)
        inf_identity(nu, g, OrderParams(1.0, 2.0), oracle_samples=5_000, seed=seed)
        # the block holds the points alone
        pts, *_ = variational._oracle_block(dim, 1e-2, 5_000, seed)
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 0.5
        assert variational._last_block[1][0] is pts

    @pytest.mark.parametrize("dim,step", [(2, 1e-5), (3, 2.2e-3), (5, 1e-2)])
    def test_block_records_its_floor(self, dim, step):
        # -log of the smallest positive coordinate: log m on the grid of step 1/m
        pts, kind, _, floor = variational._oracle_block(dim, step, 5_000, 7)
        smallest = np.min(pts[pts > 0.0])
        if kind == "grid":
            assert floor == math.log(round(1.0 / step))
            assert smallest == 1.0 / round(1.0 / step)
        assert floor == pytest.approx(-math.log(smallest), rel=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 9])
    def test_reports_match_at_every_piece_size(self, monkeypatch, dim):
        # pieces of 7, 64 and 1000 columns against one whole block
        nu, g, seed = random_instance(dim, 17 * dim)
        zeroed = measure_from_weights(np.r_[0.0, nu.probs[1:]])
        kwargs = {"grid_step": {2: 1e-3}.get(dim, 5e-2), "oracle_samples": 3_000, "seed": seed}

        def reports():
            return [json.dumps(form(measure, g, params, **kwargs).to_json_dict())
                    for measure in (nu, zeroed) for params in _PARAM_SET
                    for form in _FORMS.values()]

        monkeypatch.setattr(variational, "_PIECE", 1 << 30)
        want = reports()
        for piece in (7, 64, 1000):
            monkeypatch.setattr(variational, "_PIECE", piece)
            assert reports() == want

    def test_callers_on_threads_share_the_slot(self, monkeypatch):
        # more callers than CPUs, switching often, each alternating between
        # two blocks, get the reports of a lone caller
        monkeypatch.setattr(variational, "_PIECE", 256)
        instances = [random_instance(dim, 23 * dim) for dim in (3, 5)]
        kwargs = [{"grid_step": 2e-2, "oracle_samples": 2_000, "seed": seed}
                  for _, _, seed in instances]

        def reports():
            return [json.dumps(form(nu, g, OrderParams(1.0, 2.0), **kw).to_json_dict())
                    for (nu, g, _), kw in zip(instances, kwargs) for form in _FORMS.values()]

        want = reports()
        got = []
        callers = [threading.Thread(target=lambda: got.extend(reports() for _ in range(5)))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 20

    def test_a_build_waits_for_the_scan_before_it(self, monkeypatch):
        # a second caller arrives in the middle of a scan; it may not write
        # its block over the one being scanned, so it waits for the scan
        params = OrderParams(1.0, 2.0)
        callers = [(nu, g, {"grid_step": 2e-2, "oracle_samples": 2_000, "seed": seed})
                   for nu, g, seed in (random_instance(3, 31), random_instance(5, 32))]
        want = [inf_identity(nu, g, params, **kw).to_json_dict() for nu, g, kw in callers]
        scan, second, got = variational._divergence_terms, [], []

        def interrupted(*args):
            if not second:
                nu, g, kw = callers[1]
                second.append(threading.Thread(
                    target=lambda: got.append(inf_identity(nu, g, params, **kw).to_json_dict())))
                second[0].start()
                second[0].join(timeout=0.2)
                assert second[0].is_alive()
            return scan(*args)

        monkeypatch.setattr(variational, "_divergence_terms", interrupted)
        nu, g, kw = callers[0]
        got.insert(0, inf_identity(nu, g, params, **kw).to_json_dict())
        second[0].join(timeout=60.0)
        assert got == want

    # (dim, grid_step, samples, seed): each block is written over the last,
    # smaller after larger and larger after smaller, grid and sample alike
    _SIZES = [(6, 1e-2, 30_000, 41), (4, 1e-2, 2_000, 42), (3, 5e-2, 1, 43),
              (2, 1e-5, 1, 44), (5, 1e-2, 50_000, 45), (3, 2.2e-3, 1, 46)]

    @pytest.mark.parametrize("piece", [1000, 1 << 14])
    def test_each_block_overwrites_the_last_cleanly(self, monkeypatch, piece):
        # a lattice point depends on its index alone, so any piece size
        # builds the bits of one whole lattice
        monkeypatch.setattr(variational, "_PIECE", piece)
        for dim, step, samples, seed in self._SIZES:
            pts, kind, _, floor = variational._oracle_block(dim, step, samples, seed)
            rows, want_kind, _ = reference_candidates(dim, step, samples, seed)
            want = np.ascontiguousarray(rows.T)
            with np.errstate(divide="ignore"):
                log_pts = np.log(pts)
                want_log = np.log(want)
            assert kind == want_kind
            assert pts.shape == log_pts.shape == want.shape
            assert np.array_equal(pts.view(np.int64), want.view(np.int64))
            assert np.array_equal(log_pts.view(np.int64), want_log.view(np.int64))
            if kind == "grid":
                assert floor == math.log(round(1.0 / step))
            else:
                assert floor == -math.log(np.min(want))
            # a zero atom keeps the log-sum-exp scan, bitwise the reference's
            nu = measure_from_weights(np.r_[0.0, np.arange(1.0, dim)])
            assert_same_report(nu, np.linspace(-1.0, 2.0, dim), OrderParams(1.0, 2.0),
                               grid_step=step, oracle_samples=samples, seed=seed)


class TestLattice:
    """From dim 4 on the oracle is a shifted Kronecker lattice on the simplex."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        # dropped, never restored: a kept block is only valid until the next
        # build writes over its memory
        variational._last_block = None

    @staticmethod
    def block(dim, samples, seed):
        pts, kind, _, floor = _candidates(dim, 1e-2, samples, seed)
        with np.errstate(divide="ignore"):
            log_pts = np.log(pts)
        # a copy, since the next build writes over the held memory
        return pts.copy(), log_pts, kind, floor

    @pytest.mark.parametrize("dim", [4, 5, 6, 9])
    def test_every_column_lies_on_the_simplex(self, dim):
        pts, _, kind, floor = self.block(dim, 20_000, dim)
        assert kind == "lattice"
        assert not np.signbit(pts).any() and np.all(pts <= 1.0)
        # the sum of the spacings, its reciprocal, each product and the sum
        # here round at most 3 dim times by half an eps each
        assert np.max(np.abs(pts.sum(axis=0) - 1.0)) <= 2 * dim * sys.float_info.epsilon
        assert floor == -math.log(np.min(pts))

    def test_a_larger_count_appends_points(self):
        small = self.block(5, 3_000, 11)
        large = self.block(5, 40_000, 11)
        for got, want in zip(large[:2], small[:2]):
            assert np.array_equal(got[:, :3_000].view(np.int64), want.view(np.int64))

    def test_the_seed_is_the_shift(self):
        first, again, other = (self.block(6, 5_000, seed) for seed in (12, 12, 13))
        for got, want in zip(again[:2], first[:2]):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # another shift moves every point
        assert np.all(np.any(other[0] != first[0], axis=0))

    def test_a_zero_coordinate_takes_the_floor_path(self, monkeypatch):
        # a zero first shift word puts point 0 on the face u_0 = 0, where the
        # spacing is 0: the coordinate is +0.0, its log -inf, and the floor is
        # -log of the smallest positive coordinate
        basis = variational._lattice_basis

        def zero_first_word(dim, seed):
            gens, shift = basis(dim, seed)
            shift[0] = 0
            return gens, shift

        monkeypatch.setattr(variational, "_lattice_basis", zero_first_word)
        dim, samples, seed = 5, 20_000, 14
        pts, log_pts, _, floor = self.block(dim, samples, seed)
        shift = [0] + [int(w) for w in np.random.Philox(key=seed).random_raw(dim)[1:]]
        want = np.ascontiguousarray(reference_lattice(dim, samples, seed, shift).T)
        assert np.array_equal(pts.view(np.int64), want.view(np.int64))
        assert pts[0, 0] == 0.0 and not np.signbit(pts[0, 0])
        assert log_pts[0, 0] == -math.inf
        assert floor == -math.log(np.min(pts[pts > 0.0]))
        # the block is certified as any block with a zero coordinate: both
        # scans give the same verdict
        nu, g, _ = random_instance(dim, 15)
        for form in _FORMS.values():
            with exact_path():
                exact = form(nu, g, OrderParams(1.0, 2.0), oracle_samples=samples, seed=seed)
            rep = form(nu, g, OrderParams(1.0, 2.0), oracle_samples=samples, seed=seed)
            assert rep.passes() == exact.passes()
            assert rep.dominance_margin == pytest.approx(exact.dominance_margin, abs=1e-14)


def unpruned(direction, nu, g, params, grid_step=1e-2, oracle_samples=100_000, seed=0):
    """oracle_min_or_max, dominance_margin and near_optimal_max_distance of a
    full scan: the objective at every column of the block and of the
    optimizer and nu, as one whole block, with no column pruned."""
    values, params, sign = mirrored(direction, aligned_values(nu, g), params)
    optimizer = exp_tilt(nu, values, -params.span)
    lhs = risk_sensitive(nu, values, params.beta)
    pts, _, _, floor = variational._oracle_block(nu.dim, grid_step, oracle_samples, seed)
    cols = np.column_stack([pts, optimizer.probs, nu.probs])
    with np.errstate(divide="ignore"):
        logs = np.log(cols)
    sums = _atom_sums(nu, values, params, max(floor, _log_floor(cols[:, -2:])))
    rhs = objective(cols, logs, nu, values, params, sums)
    best = float(np.min(rhs))
    near = rhs <= lhs + variational.NEAR_OPTIMAL_WINDOW
    if np.ptp(values) == 0.0 or not near.any():
        distance = 0.0
    else:
        distance = float(np.max(np.abs(cols[:, near] - optimizer.probs[:, None])))
    return sign * best, float(best - lhs), distance


def assert_as_unpruned(nu, g, params, **kwargs):
    for direction, form in _FORMS.items():
        got = form(nu, g, params, **kwargs)
        best, margin, distance = unpruned(direction, nu, g, params, **kwargs)
        want = replace(got, oracle_min_or_max=best, dominance_margin=margin,
                       near_optimal_max_distance=distance)
        for name in ("oracle_min_or_max", "dominance_margin", "near_optimal_max_distance"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name
        assert got.passes() == want.passes()


@st.composite
def prune_instances(draw):
    """Instances as test_full_certificate draws them, with zero atoms, atoms
    up to e^-400 below the largest and the non-dyadic orders as well."""
    nu, g, params = draw(identity_instances(allow_zero=True, orders=_PARAM_SET + _NON_DYADIC))
    drop = draw(st.lists(st.sampled_from([0.0, 0.0, 60.0, 200.0, 400.0]),
                         min_size=nu.dim, max_size=nu.dim))
    return normalize(nu.log_weights - np.asarray(drop), nu.labels), g, params


class TestPrune:
    """A column whose risk term alone is above the bound is not scored, and
    the certificate stays bitwise that of a full scan."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        # dropped, never restored: a kept block is only valid until the next
        # build writes over its memory
        variational._last_block = None

    @given(prune_instances(), st.booleans())
    def test_pruned_equals_a_full_scan(self, instance, exact):
        # dims 2-3 scan the grid and dims 4-5 the lattice, on either scan
        with exact_path() if exact else nullcontext():
            assert_as_unpruned(*instance, oracle_samples=20_000)

    @given(prune_instances(), st.booleans(), st.sampled_from([7, 1000, 1 << 14]))
    def test_kept_columns_score_as_in_a_full_scan(self, instance, exact, piece):
        # column by column: a kept column's objective is bitwise the full
        # scan's, and a dropped one's lies above the top its bound guards
        nu, g, params = instance
        with exact_path() if exact else nullcontext(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(variational, "_PIECE", piece)
            for direction in _FORMS:
                values, params, _ = mirrored(direction, aligned_values(nu, g), params)
                pts, _, _, floor = variational._oracle_block(nu.dim, 1e-2, 20_000, 0)
                with np.errstate(divide="ignore"):
                    logs = np.log(pts)
                sums = _atom_sums(nu, values, params, floor)
                full = objective(pts, logs, nu, values, params, sums)
                risk = variational._risk_terms(pts, logs, values, params, sums)
                top = risk_sensitive(nu, values, params.beta) + NEAR_OPTIMAL_WINDOW
                bound = variational._prune_bound(nu, params, floor, top)
                got = scored(pts, nu, values, params, sums, bound)
                assert not bound < top
                same = got.view(np.int64) == full.view(np.int64)
                assert np.all(same[~(risk > bound)])
                assert np.all(same | ((got == math.inf) & (risk > bound) & (full > top)))

    @pytest.mark.parametrize("params", _PARAM_SET)
    def test_a_column_at_the_bound_is_kept(self, params):
        # the atom-weighted scan compares risk sums against exp of the bound;
        # a column whose risk term is the bound itself is kept all the same
        nu, g, seed = random_instance(3, 47)
        pts = variational._oracle_block(3, 2e-2, 1, seed)[0]
        with np.errstate(divide="ignore"):
            logs = np.log(pts)
        sums = _atom_sums(nu, g, params, _log_floor(pts))
        risk = variational._risk_terms(pts, logs, g, params, sums)
        full = objective(pts, logs, nu, g, params, sums)
        for j in np.random.default_rng(47).choice(pts.shape[1], 100, replace=False):
            got = scored(pts, nu, g, params, sums, float(risk[j]))
            assert got[j].view(np.int64) == full[j].view(np.int64)

    def test_a_lone_kept_column_scores_as_in_its_piece(self):
        # from 8 atoms on numpy sums the atoms of a one-column array pairwise,
        # and those of a wider one in order; a zero atom keeps the
        # log-sum-exp scan, and each bound keeps one column
        for seed in range(10):
            nu, g, _ = random_instance(9, 43 + seed)
            nu = measure_from_weights(np.r_[0.0, nu.probs[1:]])
            params = _PARAM_SET[seed % len(_PARAM_SET)]
            pts = variational._oracle_block(9, 1e-2, 3_000, seed)[0]
            with np.errstate(divide="ignore"):
                logs = np.log(pts)
            risk = variational._risk_terms(pts, logs, g, params, None)
            lone = int(np.argmin(risk))
            got = scored(pts, nu, g, params, None, float(risk[lone]))
            want = objective(pts, logs, nu, g, params)
            assert got[lone].view(np.int64) == want[lone].view(np.int64)

    @pytest.mark.parametrize("which", ["optimizer and nu", "first piece", "last piece"])
    @pytest.mark.parametrize("dim,step", [(2, 1e-4), (5, 1e-2)])
    def test_a_nan_objective_reads_nan(self, monkeypatch, dim, step, which):
        # one column's divergence term turns nan, in the first call (the
        # optimizer and nu), the second (the block's first scored piece) or
        # the last: the least objective reads nan, as the minimum of one
        # whole row of objectives does, and so does the margin
        monkeypatch.setattr(variational, "_PIECE", 1000)
        nu, g, seed = random_instance(dim, 59 * dim)
        divergence, calls, poison = variational._divergence_terms, [], []

        def poisoned(*args):
            div = divergence(*args)
            if len(calls) in poison:
                div[-1] = math.nan
            calls.append(div.size)
            return div

        monkeypatch.setattr(variational, "_divergence_terms", poisoned)
        for exact in (False, True):
            with exact_path() if exact else nullcontext():
                for form in _FORMS.values():
                    kwargs = {"grid_step": step, "oracle_samples": 20_000, "seed": seed}
                    calls.clear()
                    form(nu, g, OrderParams(1.0, 2.0), **kwargs)
                    assert len(calls) >= 2
                    poison[:] = [{"optimizer and nu": 0, "first piece": 1}.get(which, len(calls) - 1)]
                    calls.clear()
                    rep = form(nu, g, OrderParams(1.0, 2.0), **kwargs)
                    assert math.isnan(rep.oracle_min_or_max)
                    assert math.isnan(rep.dominance_margin)
                    assert math.isnan(rep.to_json_dict()["oracle"]["min_or_max"])
                    poison.clear()

    @pytest.mark.parametrize("window", [1e-3, 0.1])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_the_prune_reads_the_near_window(self, monkeypatch, dim, window):
        # a wider window keeps more columns: the near set stays whole
        monkeypatch.setattr(variational, "NEAR_OPTIMAL_WINDOW", window)
        nu, g, seed = random_instance(dim, 37 * dim)
        for params in _PARAM_SET:
            assert_as_unpruned(nu, g, params, oracle_samples=20_000, seed=seed)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_a_bound_that_is_not_finite_keeps_every_column(self, bound):
        nu, g, seed = random_instance(5, 41)
        params = OrderParams(1.0, 2.0)
        pts, _, _, floor = variational._oracle_block(5, 1e-2, 20_000, seed)
        for sums in (None, _atom_sums(nu, g, params, floor)):
            got = scored(pts, nu, g, params, sums, bound)
            with np.errstate(divide="ignore"):
                want = objective(pts, np.log(pts), nu, g, params, sums)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_negative_divergence_term_is_kept(self, monkeypatch):
        # the grid point (0.05, 0.95) lies 3e-10 from nu, on the side away from
        # the optimizer, at the edge of the near window: its divergence term
        # rounds below 0, so its objective is in the window and its risk term
        # alone is not. The allowance keeps it; with none it is dropped, and
        # the distance reads that of nu instead
        nu = FiniteMeasure.from_probs(["a", "b"], [0.05 - 3e-10, 0.95 + 3e-10])
        g = np.array([0.0, -0.006469984158298175])
        params, kwargs = OrderParams(1.0, 2.0), {"grid_step": 1e-5}
        rep = inf_identity(nu, g, params, **kwargs)
        pts, _, _, floor = variational._oracle_block(2, 1e-5, 100_000, 0)
        column = pts[:, 5_000:5_001]
        assert column[:, 0].tolist() == [0.05, 0.95]
        optimizer = exp_tilt(nu, g, -params.span)
        sums = _atom_sums(nu, g, params, max(floor, _log_floor(optimizer.probs)))
        risk = variational._risk_terms(column, None, g, params, sums)[0]
        term = variational._divergence_terms(np.log(column), nu, params, sums)[0] / params.span
        window = rep.lhs + NEAR_OPTIMAL_WINDOW
        assert term < 0.0 and risk + term <= window < risk
        assert rep.near_optimal_max_distance == 0.0003064313051342124
        assert_as_unpruned(nu, g, params, **kwargs)
        monkeypatch.setattr(variational, "_ALLOWANCE", 0.0)
        variational._last_block = None
        dropped = inf_identity(nu, g, params, **kwargs)
        assert dropped.near_optimal_max_distance == 0.00030643100513421534


class TestBlockMemory:
    """A block is the points alone, written into memory the module holds.

    numpy reports its arrays to tracemalloc. Once blocks of dims 2-6 have
    been built, rebuilding a (6, 50_000) lattice block allocates 0.33 of
    a (6, _PIECE) piece: one piece-long row of point indices, and numpy's
    buffers on the last, partial piece. Each piece is built in the held
    points, with its uniforms staged in one held piece of scratch. A
    build that allocated each block anew peaked at 6.1 pieces, two of
    its three full-size arrays at once. The grid is written into the held
    points too, a piece at a time: a warm (3, 104_196) grid rebuild
    allocates 0.72 of a (3, _PIECE) piece, where staging its parts as
    int64 arrays the size of the block took 6.5. The module holds no
    logs of the block: the scans take the logs they need a piece at a
    time.
    """

    def test_a_warm_rebuild_allocates_under_a_piece(self):
        variational._last_block = None
        for dim, step in ((2, 1e-3), (3, 2e-2), (4, 1e-2), (5, 1e-2), (6, 1e-2)):
            variational._oracle_block(dim, step, 50_000, dim)
        tracemalloc.start()
        try:
            pts = variational._oracle_block(6, 1e-2, 50_000, 99)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts.shape == (6, 50_000)
        assert peak < 0.5 * variational._PIECE * 6 * pts.itemsize

    def test_the_module_holds_the_points_and_one_piece(self, monkeypatch):
        # from empty buffers, restored afterwards; a (dim, N) buffer of logs
        # would add the size of the points again
        monkeypatch.setattr(variational, "_held", {name: np.empty(0) for name in variational._held})
        variational._last_block = None
        for dim, step in ((2, 1e-3), (3, 2e-2), (4, 1e-2), (5, 1e-2), (6, 1e-2)):
            pts = variational._oracle_block(dim, step, 50_000, dim)[0]
            inf_identity(measure_from_weights(range(1, dim + 1)), np.linspace(-1.0, 1.0, dim),
                         OrderParams(1.0, 2.0), grid_step=step, oracle_samples=50_000, seed=dim)
        held = sum(array.nbytes for array in variational._held.values())
        assert pts.nbytes == variational._held["points"].nbytes
        assert held <= pts.nbytes + variational._PIECE * 6 * pts.itemsize


class TestScanMemory:
    """Each scan of a piece makes few piece-sized temporaries, and a
    certificate none longer than a piece beyond the held buffers.

    numpy reports its arrays to tracemalloc. Scoring a (6, 2^14) piece in
    full on the log-sum-exp scan peaked at 2.5 piece-sized arrays when
    the log-sum-exp shifted a copy and both divergence terms were
    materialized; it now peaks at 1.67: one exponent array and a few
    one-per-column vectors, the indices of the scored columns among them.
    The atom-weighted scan makes one exponent row at a time and peaks at
    four one-per-column vectors, 0.67 of a piece at dim 6; its pin leaves
    a margin of about 20%.

    A certificate pair at the certify workload's sizes (about 1e5
    candidates) peaked 1.5-2.5 MB above the held buffers when the scan
    kept an objective per candidate, the near set's indices and a
    concatenation with the optimizer and nu, and the grid staged its
    int64 parts: 6.4 pieces at dim 2 and 2.2 at dim 6. Each piece is now
    scored and reduced to its least objective and near distance before
    the next, and the grid is written into the held points. On the
    atom-weighted scan a pair peaks at 4.06 rows of a piece (one-per-
    column vectors of _PIECE floats) at dims 2 and 3, 2.3-3.4 at dims
    4-6, where the block's rebuild is the peak; the pin is 4.9 rows,
    2.45 pieces at dim 2 and 0.82 at dim 6.
    """

    @staticmethod
    def peak(direction, params, sums_of):
        nu, g, _ = random_instance(6, 29)
        values, params, _ = mirrored(direction, aligned_values(nu, g), params)
        rng = np.random.default_rng(29)
        probs = np.ascontiguousarray(rng.dirichlet(np.ones(6), size=1 << 14).T)
        probs.flags.writeable = False
        sums = sums_of(nu, values, params, _log_floor(probs))
        variational._score_piece(probs, nu, values, params, sums, math.inf)
        tracemalloc.start()
        try:
            variational._score_piece(probs, nu, values, params, sums, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / probs.nbytes

    @pytest.mark.parametrize("direction", list(_FORMS))
    @pytest.mark.parametrize("params", [OrderParams(1.0, 2.0), OrderParams(-2.0, -1.0)])
    def test_no_scratch_copies(self, direction, params):
        assert self.peak(direction, params, lambda *args: None) < 2.0

    @pytest.mark.parametrize("direction", list(_FORMS))
    @pytest.mark.parametrize("params", [OrderParams(1.0, 2.0), OrderParams(-2.0, -1.0)])
    def test_atom_weighted_scan_makes_rows(self, direction, params):
        assert self.peak(direction, params, _atom_sums) < 0.8

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_a_warm_pair_allocates_under_five_rows(self, dim):
        # the workload's sizes; each pair builds its own block, over the
        # held buffers that blocks of dims 2-6 have grown to
        steps = {2: 1e-5, 3: 2.2e-3}
        variational._last_block = None
        for d in range(2, 7):
            variational._oracle_block(d, steps.get(d, 1e-2), 100_000, d)
        nu, g, seed = random_instance(dim, 53 * dim)
        for i, params in enumerate(_PARAM_SET):
            kwargs = {"grid_step": steps.get(dim, 1e-2), "oracle_samples": 100_000,
                      "seed": seed + i}
            tracemalloc.start()
            try:
                for form in _FORMS.values():
                    form(nu, g, params, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4.9 * variational._PIECE * 8


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

    def test_lattice_oracle_in_higher_dimension(self):
        nu = measure_from_weights([1, 2, 3, 4, 5])
        g = np.linspace(-1.0, 1.0, 5)
        rep = inf_identity(nu, g, OrderParams(1.0, 2.0), oracle_samples=50_000)
        assert rep.oracle_kind == "lattice"
        assert rep.passes()

    def test_constant_payoff_degenerates_gracefully(self):
        nu = measure_from_weights([1, 3])
        rep = inf_identity(nu, np.array([0.7, 0.7]), OrderParams(1.0, 2.0))
        assert rep.equality_gap <= 1e-12
        assert rep.near_optimal_max_distance == 0.0
        assert rep.passes()


class TestMirror:
    """The supremum form is certified as minus its mirrored infimum."""

    @given(identity_instances(allow_zero=True, orders=_PARAM_SET + _NON_DYADIC), st.booleans())
    def test_supremum_is_the_mirrored_infimum(self, instance, exact):
        nu, g, params = instance
        kwargs = {"oracle_samples": 20_000}
        with exact_path() if exact else nullcontext():
            got = sup_identity(nu, g, params, **kwargs)
            mirror = inf_identity(nu, -g, OrderParams(-params.gamma, -params.beta), **kwargs)
        # field by field, bit for bit: the values negated, the rest unchanged
        assert (got.direction, mirror.direction) == ("supremum", "infimum")
        for name in ("lhs", "rhs_at_optimizer", "oracle_min_or_max"):
            assert repr(getattr(got, name)) == repr(-getattr(mirror, name))
        for name in ("dominance_margin", "near_optimal_max_distance", "oracle_kind",
                     "oracle_points", "oracle_resolution"):
            assert repr(getattr(got, name)) == repr(getattr(mirror, name))
        assert got.optimizer.labels == mirror.optimizer.labels
        assert np.array_equal(got.optimizer.log_weights.view(np.int64),
                              mirror.optimizer.log_weights.view(np.int64))

        # against the supremum formula itself, on the log-sum-exp scan: where
        # alpha is dyadic, 1 - alpha is the mirror's order exactly and every
        # value is equal (bitwise but for the sign of an exact zero). Else the
        # orders differ in their last bit; over 15,000 instances drawn like
        # these the values moved by at most 26 eps max(1, |lhs|), and no
        # distance or verdict moved
        with exact_path():
            got = sup_identity(nu, g, params, **kwargs)
        want = reference_certify("supremum", nu, g, params, **kwargs)
        assert np.array_equal(got.optimizer.log_weights, want.optimizer.log_weights)
        assert got.near_optimal_max_distance == want.near_optimal_max_distance
        assert got.passes() == want.passes()
        eps = sys.float_info.epsilon
        tol = 0.0 if params in _PARAM_SET else 64.0 * eps * max(1.0, abs(want.lhs))
        for name in ("lhs", "rhs_at_optimizer", "oracle_min_or_max", "dominance_margin"):
            assert abs(getattr(got, name) - getattr(want, name)) <= tol


def _kl_limit_gaps(nu, g):
    """Gaps of the two beta -> 0 limits at their tilted optimizers.

    The infimum form becomes int g d nu = min over theta of
    log int e^g d theta + KL(nu || theta), at theta* propto e^{-g} nu, and
    the supremum form the classical log int e^g d nu = max over theta of
    int g d theta - KL(theta || nu), at theta* propto e^{+g} nu.
    """
    t_inf, t_sup = exp_tilt(nu, g, -1.0), exp_tilt(nu, g, 1.0)
    gap_inf = (reference_expectation(nu, g) - risk_sensitive(t_inf, g, 1.0)
               - reference_kl(nu, t_inf))
    gap_sup = (risk_sensitive(nu, g, 1.0) - reference_expectation(t_sup, g)
               + reference_kl(t_sup, nu))
    return abs(gap_inf), abs(gap_sup)


def _alpha_zero_limit(nu, theta, alpha=1e-4):
    """alpha R_alpha(nu || theta) at a small order, and its limit -log theta(supp nu)."""
    return alpha * renyi_discrete(nu, theta, alpha), -math.log(theta.mass_of(nu.support_mask()))


class TestLimits:
    def test_kl_limit_worked(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        gaps = _kl_limit_gaps(nu, np.array([0.0, 1.0]))
        assert gaps[0] <= 1e-12
        assert gaps[1] <= 1e-12

    @given(finite_measures())
    def test_kl_limit_random(self, nu):
        g = np.linspace(-2.0, 1.0, nu.dim)
        gi, gs = _kl_limit_gaps(nu, g)
        assert gi <= 1e-10
        assert gs <= 1e-10

    def test_alpha_zero_limit(self):
        nu = measure_from_weights([1, 0])
        theta = measure_from_weights([1, 1])
        value, target = _alpha_zero_limit(nu, theta)
        assert target == pytest.approx(math.log(2.0), rel=1e-15)
        assert value == pytest.approx(target, abs=1e-3)

    def test_alpha_zero_limit_partial_overlap(self):
        nu = measure_from_weights([2, 3, 0, 0])
        theta = measure_from_weights([1, 1, 1, 1])
        value, target = _alpha_zero_limit(nu, theta)
        assert target == pytest.approx(math.log(2.0), rel=1e-15)
        assert value == pytest.approx(target, abs=1e-3)

    def test_alpha_zero_limit_validation(self):
        # the limit is approached, never taken: order 0 and orders within
        # 1e-8 of it are refused
        nu = measure_from_weights([1, 1])
        for alpha in (0.0, 1e-9, -1e-9):
            with pytest.raises(ValueError):
                renyi_discrete(nu, nu, alpha)
