"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is an endless sequence of cycles; a cycle is a short, fixed
list of operation kinds, so every run that measures whole cycles sees the
same mix whatever its length. The workload seed drives a numpy generator
that draws every input (measures, payoffs, parameters, Monte Carlo seeds);
the library only ever receives the generated values.

Library functions are always looked up through their module at call time
(``mc.bm_exceedance_estimate``, never a name imported here), so the traced
run sees every call once it has rebound the module attributes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from renyibounds import cli, divergences, measures
from renyibounds import montecarlo as mc
from renyibounds import variational
from renyibounds.applications import brownian, queueing

MC_SIGMAS = 5.0


@dataclass
class Outcome:
    """What the check of one operation found."""

    failures: list[str] = field(default_factory=list)
    oracle_points: int = 0
    # certificates whose near-optimal set is not localized (not a failure)
    unlocalized: int = 0
    # (estimate name, standard error) of every Monte Carlo estimate
    estimates: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class Op:
    """One operation: a call into the library and the check of its result.

    Operations with equal ``signature`` must do exactly the same counted
    work; ``path_steps`` and ``draws_used`` are what the request needs
    (paths x steps, plus one uniform per path for a bridge correction).
    """

    kind: str
    signature: tuple
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    path_steps: int = 0
    draws_used: int = 0


def _scaled(n: int, scale: float) -> int:
    return max(2, int(round(n * scale)))


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _mc_check(name: str, est, reference: float, outcome: Outcome, upper_only: bool = False) -> None:
    """Estimate within MC_SIGMAS standard errors of its closed form.

    A zero standard error is a degenerate interval, so it fails the check
    instead of counting as infinite precision.
    """
    se = est.std_error
    outcome.estimates.append((name, se))
    if not (se > 0.0 and math.isfinite(se)):
        outcome.failures.append(f"{name}: degenerate standard error {se!r}")
        return
    dev = est.mean - reference
    if dev > MC_SIGMAS * se or (not upper_only and -dev > MC_SIGMAS * se):
        outcome.failures.append(
            f"{name}: estimate {est.mean!r} vs {reference!r} beyond {MC_SIGMAS} se ({se!r})")


# -- certify -----------------------------------------------------------------

# order pairs spanning the negative, sign-crossing and > 1 regimes
_ORDER_REGIMES = ((-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (0.5, 1.5))
# grid steps that give about 1e5 oracle points in dims 2 and 3; higher
# dimensions sample the simplex instead
_GRID_STEP = {2: 1e-5, 3: 2.2e-3}
_ORACLE_SAMPLES = 100_000


def _certify_op(rng: np.random.Generator, dim: int, regime: int, scale: float) -> Op:
    nu = measures.FiniteMeasure.from_probs([str(j) for j in range(dim)],
                                           rng.dirichlet(np.ones(dim)))
    g = rng.uniform(-3.0, 3.0, dim)
    params = measures.OrderParams(*_ORDER_REGIMES[regime])
    # coarser grids in warm-up: the points grow like step^-(dim-1)
    step = _GRID_STEP.get(dim, 1e-2) * scale ** (-1.0 / max(dim - 1, 1))
    samples = _scaled(_ORACLE_SAMPLES, scale)
    seed = int(rng.integers(0, 2**32))
    kwargs = {"grid_step": step, "oracle_samples": samples, "seed": seed}

    def run():
        return (variational.inf_identity(nu, g, params, **kwargs),
                variational.sup_identity(nu, g, params, **kwargs))

    def check(reports) -> Outcome:
        # Equality at the tilt and oracle dominance are what C01 pins. The
        # third clause of passes(), localization of the near-optimal set,
        # misses on ~1% of these instances (a flat objective next to a tiny
        # atom), so it is counted and reported instead of failing the op.
        out = Outcome(oracle_points=sum(r.oracle_points for r in reports))
        for r in reports:
            if not r.passes(distance_tol=math.inf):
                out.failures.append(
                    f"{r.direction} certificate fails: gap {r.equality_gap!r}, "
                    f"margin {r.dominance_margin!r}")
            elif not r.passes():
                out.unlocalized += 1
        return out

    return Op(kind=f"certify.dim{dim}", signature=("certify", dim, step, samples),
              run=run, check=check)


def certify_cycles(seed: int, scale: float = 1.0) -> Iterator[list[Op]]:
    rng = np.random.default_rng(seed)
    c = 0
    while True:
        yield [_certify_op(rng, dim, (c + dim) % len(_ORDER_REGIMES), scale)
               for dim in range(2, 7)]
        c += 1


# -- queue -------------------------------------------------------------------

_Q_C, _Q_B, _Q_N, _Q_ALPHA, _Q_THETA, _Q_REPS = 2.0, 0.1, 50, 3.0, 1.1, 200_000


def _queue_op(rng: np.random.Generator, scale: float) -> Op:
    reps = _scaled(_Q_REPS, scale)
    seed = _mc_seed(rng)

    def run():
        rate = queueing.overflow_decay_rate(_Q_C, _Q_B)
        d1 = divergences.renyi_poisson(divergences.PoissonParams(_Q_THETA),
                                       divergences.PoissonParams(1.0), _Q_ALPHA)
        d2 = divergences.renyi_poisson(divergences.PoissonParams(1.0),
                                       divergences.PoissonParams(_Q_THETA), _Q_ALPHA - 1.0)
        nominal = mc.simulate_queue_overflow_prob(mc.PoissonLaw(1.0), _Q_C, _Q_B, _Q_N,
                                                  reps, seed=seed)
        theta = mc.simulate_queue_overflow_prob(mc.PoissonLaw(_Q_THETA), _Q_C, _Q_B, _Q_N,
                                                reps, seed=seed)
        p_lo = min(max(nominal.ci95[0], 0.0), 1.0)
        p_hi = min(max(nominal.ci95[1], 0.0), 1.0)
        lower = queueing.scaled_event_sandwich(p_lo, _Q_N, _Q_ALPHA, d1, d2).lower
        upper = queueing.scaled_event_sandwich(p_hi, _Q_N, _Q_ALPHA, d1, d2).upper
        return rate, nominal, theta, lower, upper

    def check(result) -> Outcome:
        rate, nominal, theta, lower, upper = result
        out = Outcome()
        for name, est in (("nominal", nominal), ("theta", theta)):
            out.estimates.append((name, est.std_error))
            if not est.std_error > 0.0:
                out.failures.append(f"{name}: degenerate standard error {est.std_error!r}")
        # the CLI's inside_sandwich test: the alternative's interval meets the bounds
        if not (theta.ci95[1] >= lower - 1e-9 and theta.ci95[0] <= upper + 1e-9):
            out.failures.append(f"theta CI {theta.ci95!r} outside [{lower!r}, {upper!r}]")
        if not (rate.c > 0.0 and math.isfinite(rate.c)):
            out.failures.append(f"decay rate {rate.c!r} not positive")
        return out

    steps = 2 * reps * _Q_N
    return Op(kind="queue.sandwich", signature=("queue", reps), run=run, check=check,
              path_steps=steps, draws_used=steps)


def queue_cycles(seed: int, scale: float = 1.0) -> Iterator[list[Op]]:
    rng = np.random.default_rng(seed)
    while True:
        yield [_queue_op(rng, scale)]


# -- paths -------------------------------------------------------------------

_MU, _GIRSANOV_ALPHA, _ARGMAX_GAMMA = 0.1, 2.0, 1.0


def _const_drift(x):
    return np.full_like(x, _MU)


def _tanh_drift(x):
    return _MU * np.tanh(x)


def _paths_references() -> dict:
    """Closed forms the estimates are checked against, computed once."""
    return {
        "bm.K1": brownian.bm_exceedance_drift(1.0, _MU),
        "bm.K2": brownian.bm_exceedance_drift(2.0, _MU),
        "girsanov": divergences.renyi_bm_drift(_MU),
        "argmax": brownian.laplace_h_drift(_ARGMAX_GAMMA, 1.0, _MU),
    }


def _estimate_op(kind: str, call: Callable, paths: int, steps: int, extra_draws: int,
                 reference: float, upper_only: bool = False) -> Op:
    def check(est) -> Outcome:
        out = Outcome()
        _mc_check(kind, est, reference, out, upper_only)
        return out

    return Op(kind=kind, signature=(kind, paths, steps), run=call, check=check,
              path_steps=paths * steps, draws_used=paths * steps + extra_draws)


def paths_cycles(seed: int, scale: float = 1.0) -> Iterator[list[Op]]:
    rng = np.random.default_rng(seed)
    ref = _paths_references()
    bm_paths = _scaled(200_000, scale)
    gir_paths = _scaled(100_000, scale)
    arg_paths = _scaled(20_000, scale)
    while True:
        ops = []
        for level in (1.0, 2.0):
            s = _mc_seed(rng)
            ops.append(_estimate_op(
                f"bm.K{int(level)}",
                lambda s=s, level=level: mc.bm_exceedance_estimate(
                    level, _MU, mc.PathGrid(64), bm_paths, seed=s),
                bm_paths, 64, bm_paths, ref[f"bm.K{int(level)}"]))
        s = _mc_seed(rng)
        ops.append(_estimate_op(
            "girsanov.const",
            lambda s=s: mc.girsanov_renyi_estimate(
                _const_drift, mc.PathGrid(64), _GIRSANOV_ALPHA, gir_paths, seed=s),
            gir_paths, 64, 0, ref["girsanov"]))
        s = _mc_seed(rng)
        # a drift bounded by mu has divergence at most the mu^2/2 cap
        ops.append(_estimate_op(
            "girsanov.tanh",
            lambda s=s: mc.girsanov_renyi_estimate(
                _tanh_drift, mc.PathGrid(256), _GIRSANOV_ALPHA, gir_paths, seed=s),
            gir_paths, 256, 0, ref["girsanov"], upper_only=True))
        s = _mc_seed(rng)
        ops.append(_estimate_op(
            "argmax",
            lambda s=s: mc.argmax_laplace_estimate(
                _ARGMAX_GAMMA, _MU, mc.PathGrid(4096), arg_paths, seed=s),
            arg_paths, 4096, 0, ref["argmax"]))
        yield ops


# -- queries -----------------------------------------------------------------

_GAMMAS = (0.5, 1.0, 1.5, 2.0, 3.0)
_DRIFTS = (0.05, 0.1, 0.2, 0.3)
_ORDERS = (2.5, 3.0, 4.0, 5.0)
_SERVICE_RATES = (1.5, 2.0, 2.5, 3.0)
_LEVELS = (0.5, 1.0, 1.5, 2.0)


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_output(kind: str, text: str) -> int:
    """Parse a command's data output and return its oracle points."""
    if kind in ("renyi.gaussian", "laplace.value"):
        value = float(text)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"value {text!r} outside [0, inf)")
        return 0
    if kind in ("renyi.discrete", "brownian-figures"):
        if not list(csv.DictReader(io.StringIO(text))):
            raise ValueError("empty CSV")
        return 0
    data = json.loads(text)
    if kind == "identity":
        if not (data["inf"]["passes"] and data["sup"]["passes"]):
            raise ValueError("certificate reported as failing")
        return data["inf"]["oracle"]["points"] + data["sup"]["oracle"]["points"]
    if kind == "laplace.bounds" and data["inside"] is not True:
        raise ValueError("sandwich reported as violated")
    return 0


def _query_op(kind: str, argv: list[str], output: Path | None = None) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> Outcome:
        code, stdout, stderr = result
        outcome = Outcome()
        if code != 0:
            outcome.failures.append(f"{kind}: exit code {code}: {stderr.strip()[:200]}")
            return outcome
        text = output.read_text(encoding="utf-8") if output is not None else stdout
        try:
            outcome.oracle_points = _check_output(kind, text)
        except (ValueError, KeyError, TypeError) as exc:
            outcome.failures.append(f"{kind}: unparseable output ({exc})")
        return outcome

    return Op(kind=f"cli.{kind}", signature=("cli", tuple(argv)), run=run, check=check)


def queries_cycles(seed: int, workdir: Path) -> Iterator[list[Op]]:
    """The README's closed-form commands through in-process ``cli.main``.

    Each cycle holds one ``--config FILE`` run, one ``--format csv`` run and
    one ``--output FILE`` run; the files live in ``workdir``. The commands are
    cheap, so warm-up runs them at full size too.
    """
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    figures = workdir / "figures.csv"
    while True:
        alpha = _fmt(rng.choice(_ORDERS))
        gamma = _fmt(rng.choice(_GAMMAS))
        mu = _fmt(rng.choice(_DRIFTS))
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        C, b = rng.choice(_SERVICE_RATES), rng.choice(_LEVELS)
        # named by content, so cycles generated ahead of their run never clash
        config = workdir / f"queue-C{C}-b{b}.json"
        config.write_text(json.dumps({"C": float(C), "b": float(b)}), encoding="utf-8")
        yield [
            _query_op("renyi.gaussian", [
                "renyi", f"--gaussian={_fmt(rng.uniform(-1, 1))},{_fmt(rng.uniform(0.9, 1.1))}",
                f"--gaussian={_fmt(rng.uniform(-1, 1))},{_fmt(rng.uniform(0.9, 1.1))}",
                "--alpha", alpha]),
            _query_op("renyi.discrete", [
                "renyi", "--discrete", json.dumps(p.tolist()), "--discrete",
                json.dumps(q.tolist()), "--alpha", alpha, "--format", "csv"]),
            _query_op("identity", [
                "identity", "--measure", json.dumps(rng.dirichlet(np.ones(2)).tolist()),
                "--g", json.dumps(rng.uniform(-1, 1, 2).tolist()),
                "--beta", "1", "--gamma", "2"]),
            _query_op("brownian-figures", [
                "brownian-figures", "--K", _fmt(rng.uniform(2.0, 5.0)), "--mu", mu,
                "--points", "200", "--output", str(figures)], output=figures),
            _query_op("queue", ["queue", "--config", str(config)]),
            _query_op("laplace.value", ["laplace", "--gamma", gamma]),
            _query_op("laplace.bounds", [
                "laplace", "--gamma", gamma, "--alpha", alpha, "--mu", mu, "--format", "json"]),
        ]


CYCLES = {
    "certify": lambda seed, scale, workdir: certify_cycles(seed, scale),
    "queue": lambda seed, scale, workdir: queue_cycles(seed, scale),
    "paths": lambda seed, scale, workdir: paths_cycles(seed, scale),
    "queries": lambda seed, scale, workdir: queries_cycles(seed, workdir),
}
