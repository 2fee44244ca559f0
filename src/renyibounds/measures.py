"""Finite measures on labelled atoms, kept in the log domain.

A FiniteMeasure stores normalized log weights (log-sum-exp equal to
zero), with -inf marking zero-mass atoms. Risk-sensitive evaluation,
exponential tilting, and plain expectations all operate on these log
weights directly so that exponents of order several hundred never leave
the log domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "FiniteMeasure",
    "BoundedFunction",
    "OrderParams",
    "logsumexp",
    "normalize",
    "risk_sensitive",
    "expectation",
    "exp_tilt",
]

_NORM_TOL = 1e-12
_JSON_MASS_TOL = 1e-9


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with the usual max shift.

    Entirely -inf slices return -inf, and any +inf entry propagates to
    +inf, so the function is safe on log weights of measures with zero
    atoms and on divergence exponents that legitimately diverge. The
    input is never written into.
    """
    return _logsumexp(np.asarray(a, dtype=float), axis)


def _logsumexp(a: np.ndarray, axis, out: np.ndarray | None = None):
    """logsumexp of a float array; the finite branch forms a - max in out.

    out=a shifts a caller's scratch array in place and saves a full-size
    allocation; without out, a is left as it is.
    """
    if a.size == 0:
        raise ValueError("logsumexp of an empty array")
    m = np.max(a, axis=axis, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if np.isfinite(m).all():
            # every shifted entry is <= 0 and every slice sum >= 1: no masking
            s = np.subtract(a, m, out=out)
            np.exp(s, out=s)
            s = np.sum(s, axis=axis, keepdims=True)
            np.log(s, out=s)
            s += m
        else:
            shift = np.where(np.isfinite(m), m, 0.0)
            s = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
            s = np.where(np.isneginf(m), -math.inf, s)
            s = np.where(np.isposinf(m), math.inf, s)
    if axis is None:
        return float(s.reshape(()))
    return np.squeeze(s, axis=axis)


def _as_labels(labels: Sequence[str]) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if len(out) == 0:
        raise ValueError("at least one atom is required")
    if len(set(out)) != len(out):
        raise ValueError("atom labels must be unique")
    return out


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability measure on a finite labelled support.

    log_weights are normalized at construction; zero atoms carry -inf.
    """

    labels: tuple[str, ...]
    log_weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        labels = _as_labels(self.labels)
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.ndim != 1 or lw.shape[0] != len(labels):
            raise ValueError("log_weights must be one-dimensional and match the labels")
        if np.any(np.isnan(lw)) or np.any(np.isposinf(lw)):
            raise ValueError("log weights must be finite or -inf")
        total = logsumexp(lw)
        if not math.isfinite(total):
            raise ValueError("measure has no mass")
        if abs(total) > _NORM_TOL:
            raise ValueError(f"log weights are not normalized (log mass {total!r})")
        lw = lw.copy()
        lw.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "log_weights", lw)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def support_mask(self) -> np.ndarray:
        return self.log_weights > -math.inf

    def mass_of(self, mask: np.ndarray) -> float:
        """Probability of the atom set selected by a boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.dim,):
            raise ValueError("mask length must match the support")
        if not np.any(mask):
            return 0.0
        return float(np.exp(logsumexp(self.log_weights[mask])))

    @staticmethod
    def from_probs(labels: Sequence[str], probs: Sequence[float]) -> "FiniteMeasure":
        p = np.asarray(probs, dtype=float)
        if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(np.isinf(p)):
            raise ValueError("probabilities must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            return normalize(np.log(p), labels)

    @staticmethod
    def from_json(text: str) -> "FiniteMeasure":
        """Parse {"labels": [...], "probs": [...]}; mass must be 1 to 1e-9."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or set(obj) != {"labels", "probs"}:
            raise ValueError('expected an object with exactly "labels" and "probs"')
        labels = obj["labels"]
        probs = np.asarray(obj["probs"], dtype=float)
        if len(labels) != probs.shape[0]:
            raise ValueError("labels and probs must have equal length")
        if np.any(np.isnan(probs)) or np.any(probs < 0.0):
            raise ValueError("probs must be nonnegative numbers")
        if abs(float(np.sum(probs)) - 1.0) > _JSON_MASS_TOL:
            raise ValueError("probs must sum to 1 within 1e-9")
        return FiniteMeasure.from_probs(labels, probs)

    def to_json(self) -> str:
        return json.dumps({"labels": list(self.labels), "probs": [float(p) for p in self.probs]})


def normalize(raw_log_weights, labels: Sequence[str]) -> FiniteMeasure:
    """Normalize raw log weights into a FiniteMeasure.

    Rejects inputs whose total mass is zero or undefined.
    """
    lw = np.asarray(raw_log_weights, dtype=float)
    if lw.ndim != 1:
        raise ValueError("raw log weights must be one-dimensional")
    if np.any(np.isnan(lw)) or np.any(np.isposinf(lw)):
        raise ValueError("raw log weights must be finite or -inf")
    total = logsumexp(lw)
    if not math.isfinite(total):
        raise ValueError("cannot normalize a zero-mass weight vector")
    return FiniteMeasure(labels=_as_labels(labels), log_weights=lw - total)


@dataclass(frozen=True)
class BoundedFunction:
    """Real values attached to the same labelled atoms as a measure."""

    labels: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        labels = _as_labels(self.labels)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] != len(labels):
            raise ValueError("values must be one-dimensional and match the labels")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", v)

    @staticmethod
    def on(measure: FiniteMeasure, values: Sequence[float]) -> "BoundedFunction":
        return BoundedFunction(labels=measure.labels, values=np.asarray(values, dtype=float))


FunctionLike = Union[BoundedFunction, Sequence[float], np.ndarray]


def aligned_values(measure: FiniteMeasure, g: FunctionLike) -> np.ndarray:
    """Values of g aligned with the measure's atoms.

    A BoundedFunction must carry identical labels (alignment is by index
    after that check); a bare array is trusted on length alone.
    """
    if isinstance(g, BoundedFunction):
        if g.labels != measure.labels:
            raise ValueError("function labels do not match the measure labels")
        return g.values
    v = np.asarray(g, dtype=float)
    if v.ndim != 1 or v.shape[0] != measure.dim:
        raise ValueError("function values must match the measure support size")
    if not np.all(np.isfinite(v)):
        raise ValueError("function values must be finite")
    return v


@dataclass(frozen=True)
class OrderParams:
    """Pair of nonzero exponential orders beta < gamma.

    The induced divergence order is alpha = gamma / (gamma - beta),
    which automatically avoids 0 and 1 when beta and gamma are nonzero.
    """

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        b, c = float(self.beta), float(self.gamma)
        if not (math.isfinite(b) and math.isfinite(c)):
            raise ValueError("orders must be finite")
        if b == 0.0 or c == 0.0:
            raise ValueError("orders must be nonzero")
        if not b < c:
            raise ValueError("orders must satisfy beta < gamma")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", c)

    @property
    def span(self) -> float:
        return self.gamma - self.beta

    @property
    def alpha(self) -> float:
        return self.gamma / (self.gamma - self.beta)


def risk_sensitive(nu: FiniteMeasure, g: FunctionLike, beta: float) -> float:
    """(1/beta) log integral exp(beta g) d nu, computed in the log domain."""
    beta = float(beta)
    if beta == 0.0 or not math.isfinite(beta):
        raise ValueError("beta must be nonzero and finite")
    values = aligned_values(nu, g)
    return logsumexp(nu.log_weights + beta * values) / beta


def expectation(nu: FiniteMeasure, g: FunctionLike) -> float:
    values = aligned_values(nu, g)
    return float(np.sum(nu.probs * values))


def exp_tilt(nu: FiniteMeasure, g: FunctionLike, s: float) -> FiniteMeasure:
    """Measure proportional to exp(s g) d nu; zero atoms stay zero."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("tilt exponent must be finite")
    values = aligned_values(nu, g)
    return normalize(nu.log_weights + s * values, nu.labels)
