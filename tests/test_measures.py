"""Finite measures, risk-sensitive values, and exponential tilting."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from renyibounds.measures import (
    BoundedFunction,
    FiniteMeasure,
    OrderParams,
    aligned_values,
    exp_tilt,
    logsumexp,
    normalize,
    risk_sensitive,
)

from conftest import finite_measures, measure_from_weights, payoff_values, reference_expectation


class TestLogsumexp:
    def test_plain(self):
        a = np.array([0.1, -2.0, 3.5])
        assert logsumexp(a) == pytest.approx(math.log(np.sum(np.exp(a))), rel=1e-14)

    def test_all_neg_inf(self):
        assert logsumexp(np.array([-math.inf, -math.inf])) == -math.inf

    def test_pos_inf_propagates(self):
        assert logsumexp(np.array([0.0, math.inf])) == math.inf

    def test_large_shift(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-14)

    def test_axis(self):
        a = np.array([[0.0, 0.0], [-math.inf, -math.inf]])
        out = logsumexp(a, axis=1)
        assert out[0] == pytest.approx(math.log(2.0))
        assert out[1] == -math.inf

    def test_empty(self):
        with pytest.raises(ValueError):
            logsumexp(np.array([]))


def masked_logsumexp(a, axis=None):
    """Reference: the masked formula (three np.where passes) on every input.

    logsumexp keeps it for slices whose maximum is not finite and must
    match it bit for bit everywhere else too."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    s = np.where(np.isneginf(m), -math.inf, s)
    s = np.where(np.isposinf(m), math.inf, s)
    if axis is None:
        return float(s.reshape(()))
    return np.squeeze(s, axis=axis)


_EXTENDED_REALS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(allow_nan=False),
    st.sampled_from([-math.inf, math.inf]),
)
_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5))
extended_matrices = arrays(np.float64, _SHAPES, elements=_EXTENDED_REALS)
finite_matrices = arrays(np.float64, _SHAPES, elements=st.floats(-1e6, 1e6))
_AXES = (None, 0, -1)


def _slices(a, axis):
    """The input slices that produce each output entry, in output order."""
    if axis is None:
        return [a.ravel()]
    return list(np.moveaxis(a, axis, -1))


class TestLogsumexpExtendedReals:
    @given(extended_matrices)
    def test_slice_conventions(self, a):
        for axis in _AXES:
            out = np.atleast_1d(logsumexp(a, axis=axis))
            for value, piece in zip(out, _slices(a, axis), strict=True):
                assert not math.isnan(value)
                if np.any(np.isposinf(piece)):
                    assert value == math.inf
                elif np.all(np.isneginf(piece)):
                    assert value == -math.inf

    @given(st.one_of(finite_matrices, extended_matrices))
    def test_bitwise_equal_to_masked_formula(self, a):
        for axis in _AXES:
            got = np.asarray(logsumexp(a, axis=axis))
            want = np.asarray(masked_logsumexp(a, axis=axis))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_input_is_not_modified(self):
        a = np.array([[0.5, -1.0], [2.0, 3.0]])
        before = a.copy()
        logsumexp(a, axis=-1)
        logsumexp(a)
        assert np.array_equal(a, before)

    @given(st.one_of(finite_matrices, extended_matrices), st.booleans())
    def test_never_writes_into_its_argument(self, a, read_only):
        # finite and masked branches alike; a write into a read-only input raises
        before = a.tobytes()
        a.flags.writeable = not read_only
        for axis in _AXES:
            logsumexp(a, axis=axis)
        assert a.tobytes() == before

    @pytest.mark.parametrize("axis", _AXES)
    def test_read_only_inputs_on_both_branches(self, axis):
        finite = np.array([[0.5, -1.0, 2.0], [2.0, 3.0, -4.0]])
        masked = np.array([[0.5, -math.inf, math.inf], [-math.inf, -math.inf, 1.0]])
        for a in (finite, masked):
            before = a.copy()
            a.flags.writeable = False
            logsumexp(a, axis=axis)
            logsumexp(a.tolist(), axis=axis)
            assert a.tobytes() == before.tobytes()


class TestFiniteMeasure:
    def test_from_probs_normalizes_and_masks_zeros(self):
        nu = FiniteMeasure.from_probs(["a", "b", "c"], [0.2, 0.8, 0.0])
        assert nu.probs == pytest.approx([0.2, 0.8, 0.0], abs=1e-15)
        assert nu.log_weights[2] == -math.inf
        assert list(nu.support_mask()) == [True, True, False]

    def test_normalize_scales_mass(self):
        nu = normalize(np.log([2.0, 6.0]), ["x", "y"])
        assert nu.probs == pytest.approx([0.25, 0.75], rel=1e-14)

    @pytest.mark.parametrize("shift", [1e6, 1e9, 1e15, -1e15])
    def test_normalize_far_from_zero(self, shift):
        # the shifted log weights are exact, so the measure is the unshifted
        # one up to the rounding of the final subtraction
        raw = [1.0, 2.0, 3.0, -math.inf]
        nu = normalize(np.add(raw, shift), list("abcd"))
        want = normalize(raw, list("abcd"))
        assert nu.log_weights[3] == -math.inf
        assert nu.log_weights[:3] == pytest.approx(want.log_weights[:3], rel=0,
                                                   abs=2 * sys.float_info.epsilon)

    def test_rejects_unnormalized_log_weights(self):
        with pytest.raises(ValueError):
            FiniteMeasure(labels=("a", "b"), log_weights=np.array([0.0, 0.0]))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            normalize(np.array([-math.inf, -math.inf]), ["a", "b"])

    def test_rejects_nan_and_pos_inf(self):
        with pytest.raises(ValueError):
            normalize(np.array([0.0, math.nan]), ["a", "b"])
        with pytest.raises(ValueError):
            normalize(np.array([0.0, math.inf]), ["a", "b"])

    def test_unique_labels_required(self):
        with pytest.raises(ValueError):
            FiniteMeasure.from_probs(["a", "a"], [0.5, 0.5])

    def test_log_weights_frozen(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            nu.log_weights[0] = 0.0

    def test_json_round_trip(self):
        nu = FiniteMeasure.from_probs(["a", "b", "c"], [0.2, 0.8, 0.0])
        back = FiniteMeasure.from_json(nu.to_json())
        assert back.labels == nu.labels
        assert np.array_equal(back.log_weights, nu.log_weights)

    def test_json_mass_tolerance(self):
        good = json.dumps({"labels": ["a", "b"], "probs": [0.5, 0.5 + 5e-10]})
        FiniteMeasure.from_json(good)
        bad = json.dumps({"labels": ["a", "b"], "probs": [0.5, 0.5 + 5e-9]})
        with pytest.raises(ValueError):
            FiniteMeasure.from_json(bad)

    def test_json_shape_errors(self):
        with pytest.raises(ValueError):
            FiniteMeasure.from_json(json.dumps({"labels": ["a"], "probs": [0.5, 0.5]}))
        with pytest.raises(ValueError):
            FiniteMeasure.from_json(json.dumps({"probs": [1.0]}))
        with pytest.raises(ValueError):
            FiniteMeasure.from_json(json.dumps([0.5, 0.5]))

    def test_mass_of(self):
        nu = FiniteMeasure.from_probs(["a", "b", "c"], [0.2, 0.3, 0.5])
        assert nu.mass_of([True, False, True]) == pytest.approx(0.7, rel=1e-14)
        assert nu.mass_of([False, False, False]) == 0.0
        with pytest.raises(ValueError):
            nu.mass_of([True, False])


class TestOrderParams:
    def test_alpha_and_span(self):
        p = OrderParams(beta=2.0, gamma=3.0)
        assert p.span == 1.0
        assert p.alpha == 3.0

    def test_from_alpha_adjacent(self):
        # adjacent orders (alpha - 1, alpha) induce the order alpha in
        # every regime: above 1, in (0, 1) and below 0
        for alpha in (2.5, 40.0, 0.5, -1.5):
            p = OrderParams(beta=alpha - 1.0, gamma=alpha)
            assert p.span == 1.0
            assert p.alpha == pytest.approx(alpha, rel=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            OrderParams(beta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            OrderParams(beta=2.0, gamma=2.0)


class TestRiskSensitive:
    def test_two_point_closed_form(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        g = [0.0, 1.0]
        assert risk_sensitive(nu, g, 1.0) == pytest.approx(
            math.log((1.0 + math.e) / 2.0), rel=1e-14)
        assert risk_sensitive(nu, g, -1.0) == pytest.approx(
            -math.log((1.0 + math.exp(-1.0)) / 2.0), rel=1e-14)

    def test_small_beta_near_expectation(self):
        nu = FiniteMeasure.from_probs(["a", "b", "c"], [0.2, 0.3, 0.5])
        g = [1.0, -0.5, 2.0]
        assert risk_sensitive(nu, g, 1e-9) == pytest.approx(
            reference_expectation(nu, g), abs=1e-6)

    def test_rejects_zero_beta(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            risk_sensitive(nu, [0.0, 1.0], 0.0)

    def test_huge_exponents_stay_finite(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        val = risk_sensitive(nu, [0.0, 1.0], 800.0)
        assert val == pytest.approx(1.0 - math.log(2.0) / 800.0, rel=1e-12)

    @given(finite_measures(), st.floats(-3.0, 3.0), st.floats(0.1, 4.0))
    def test_translation_equivariance(self, nu, shift, beta):
        g = np.linspace(-1.0, 1.0, nu.dim)
        lhs = risk_sensitive(nu, g + shift, beta)
        rhs = risk_sensitive(nu, g, beta) + shift
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(finite_measures())
    def test_monotone_in_order(self, nu):
        g = np.linspace(-1.0, 1.0, nu.dim)
        betas = [-3.0, -1.0, -0.25, 0.25, 1.0, 3.0]
        vals = [risk_sensitive(nu, g, b) for b in betas]
        assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    @given(finite_measures())
    def test_between_min_and_max(self, nu):
        g = np.linspace(-2.0, 2.0, nu.dim)
        for beta in (-2.0, 0.5, 2.0):
            v = risk_sensitive(nu, g, beta)
            assert np.min(g) - 1e-12 <= v <= np.max(g) + 1e-12


class TestExpTilt:
    def test_two_point(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.2, 0.8])
        tilted = exp_tilt(nu, [0.0, 1.0], 1.0)
        z = 0.2 + 0.8 * math.e
        assert tilted.probs == pytest.approx([0.2 / z, 0.8 * math.e / z], rel=1e-14)

    def test_zero_tilt_is_identity(self):
        nu = FiniteMeasure.from_probs(["a", "b", "c"], [0.2, 0.3, 0.5])
        tilted = exp_tilt(nu, [1.0, 2.0, 3.0], 0.0)
        assert np.array_equal(tilted.log_weights, nu.log_weights)

    def test_zero_atoms_stay_zero(self):
        nu = FiniteMeasure.from_probs(["a", "b", "c"], [0.5, 0.5, 0.0])
        tilted = exp_tilt(nu, [0.0, 0.0, 100.0], 5.0)
        assert tilted.probs[2] == 0.0

    @given(finite_measures(allow_zero=True), st.floats(-5.0, 5.0))
    def test_matches_direct_formula(self, nu, s):
        g = np.linspace(-1.0, 1.0, nu.dim)
        tilted = exp_tilt(nu, g, s)
        direct = nu.probs * np.exp(s * g)
        direct /= direct.sum()
        assert tilted.probs == pytest.approx(direct, abs=1e-13)


class TestAlignment:
    def test_bounded_function_label_check(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        other = FiniteMeasure.from_probs(["x", "y"], [0.5, 0.5])
        f = BoundedFunction.on(nu, [1.0, 2.0])
        assert np.array_equal(aligned_values(nu, f), [1.0, 2.0])
        with pytest.raises(ValueError):
            aligned_values(other, f)

    def test_bare_array_length_check(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            aligned_values(nu, [1.0, 2.0, 3.0])

    def test_nonfinite_values_rejected(self):
        nu = FiniteMeasure.from_probs(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            aligned_values(nu, [1.0, math.inf])
        with pytest.raises(ValueError):
            BoundedFunction.on(nu, [1.0, math.nan])

    def test_expectation(self):
        # the beta -> 0 limit, from both sides of 0
        nu = measure_from_weights([1, 3])
        assert reference_expectation(nu, [0.0, 1.0]) == pytest.approx(0.75, rel=1e-15)
        for beta in (-1e-9, 1e-9):
            assert risk_sensitive(nu, [0.0, 1.0], beta) == pytest.approx(0.75, abs=1e-6)


def test_payoff_strategy_shapes():
    # the shared strategies must produce aligned measure/value pairs
    @given(finite_measures(min_dim=3, max_dim=3), payoff_values(3))
    def inner(nu, vals):
        assert nu.dim == 3
        assert len(vals) == 3
        risk_sensitive(nu, vals, 1.5)

    inner()
