"""Command line front end for the divergence, identity, and bound studies.

One binary with a subcommand per study. Data goes to stdout (or the
--output file), diagnostics to stderr. Exit codes: 0 on success or a
passing check, 1 when a numerical certificate or sandwich check fails,
2 on input validation problems. Every command is deterministic given
--seed; the RENYI_SEED environment variable changes the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .applications import (
    BrownianModel,
    bm_bound_curves,
    bm_exceedance_drift,
    laplace_h_bounds,
    laplace_h_drift,
    laplace_h_wiener,
    overflow_decay_rate,
    scaled_event_sandwich,
)
from .divergences import (
    GaussianParams,
    PoissonParams,
    check_alpha,
    check_budget,
    check_upper_alpha,
    renyi_bm_drift,
    renyi_discrete,
    renyi_gaussian,
    renyi_poisson,
)
from .measures import FiniteMeasure, OrderParams, aligned_values, risk_sensitive
from .montecarlo import (
    PathGrid,
    PoissonLaw,
    argmax_laplace_estimate,
    bm_exceedance_estimate,
    girsanov_renyi_estimate,
    simulate_queue_overflow_prob,
)
from .specfun import ConvergenceError
from .variational import inf_identity, sup_identity

__all__ = ["main", "entry"]

_SANDWICH_SLACK = 1e-9


def _jsonify(obj):
    """Recursively make an object JSON safe, spelling out non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x
    return obj


def _fmt(x: float) -> str:
    """Shortest round-trip decimal; inf, -inf, and nan print literally."""
    return repr(float(x))


def _emit(text: str, args) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args) -> None:
    data = _jsonify(obj)
    if args.format == "csv":
        raise ValueError("csv output is not available for this command")
    if args.format == "json":
        text = json.dumps(data, separators=(",", ":"))
    else:
        text = json.dumps(data, indent=2)
    _emit(text, args)


def _load_json_spec(spec: str):
    s = spec.strip()
    if s.startswith("@"):
        with open(s[1:], encoding="utf-8") as fh:
            return json.load(fh)
    if s[:1] in "[{":
        return json.loads(s)
    with open(s, encoding="utf-8") as fh:
        return json.load(fh)


def _load_measure(spec: str, flag: str) -> FiniteMeasure:
    """A measure given as an inline JSON probability array, an inline
    JSON object with labels and probs, or a (possibly @-prefixed) path
    to a file holding either form."""
    try:
        data = _load_json_spec(spec)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag}: malformed JSON ({exc})") from exc
    if isinstance(data, list):
        probs = [float(x) for x in data]
        labels = tuple(str(i) for i in range(len(probs)))
        return FiniteMeasure.from_probs(labels, probs)
    if isinstance(data, dict):
        return FiniteMeasure.from_json(json.dumps(data))
    raise ValueError(f"{flag}: expected a JSON array of probabilities or a labels/probs object")


def _load_values(spec: str, measure: FiniteMeasure, flag: str) -> np.ndarray:
    try:
        data = _load_json_spec(spec)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag}: malformed JSON ({exc})") from exc
    if isinstance(data, dict):
        if set(data.keys()) != {"labels", "values"}:
            raise ValueError(f"{flag}: object form needs exactly labels and values")
        if tuple(str(x) for x in data["labels"]) != measure.labels:
            raise ValueError(f"{flag}: labels do not match the measure")
        data = data["values"]
    if not isinstance(data, list):
        raise ValueError(f"{flag}: expected a JSON array of values")
    values = np.asarray([float(x) for x in data])
    if values.size != measure.dim:
        raise ValueError(f"{flag}: need one value per atom of the measure")
    return values


def _parse_gaussian(spec: str, flag: str) -> GaussianParams:
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag}: expected mean,variance")
    return GaussianParams(float(parts[0]), float(parts[1]))


def cmd_renyi(args) -> int:
    if args.gaussian and args.discrete:
        raise ValueError("give two --gaussian specs or two --discrete specs, not both")
    if args.gaussian:
        if len(args.gaussian) != 2:
            raise ValueError("--gaussian: need exactly two mean,variance specs")
        nu = _parse_gaussian(args.gaussian[0], "--gaussian")
        theta = _parse_gaussian(args.gaussian[1], "--gaussian")
        value = renyi_gaussian(nu, theta, args.alpha)
    elif args.discrete:
        if len(args.discrete) != 2:
            raise ValueError("--discrete: need exactly two distribution specs")
        nu = _load_measure(args.discrete[0], "--discrete")
        theta = _load_measure(args.discrete[1], "--discrete")
        value = renyi_discrete(nu, theta, args.alpha)
    else:
        raise ValueError("give two --gaussian specs or two --discrete specs")
    if args.format == "json":
        _emit_json({"alpha": args.alpha, "value": value}, args)
    elif args.format == "csv":
        _emit(f"alpha,value\n{_fmt(args.alpha)},{_fmt(value)}", args)
    else:
        _emit(_fmt(value), args)
    return 0


def _corrupt_report(report, nu, values, params):
    """Swap in a deliberately wrong optimizer and its honest right side,
    so the equality certificate must fail on any nondegenerate input."""
    mixed = 0.5 * report.optimizer.probs
    mixed[0] += 0.5
    theta = FiniteMeasure.from_probs(nu.labels, mixed)
    sign = 1.0
    if report.direction == "supremum":
        # scored as sup_identity certifies it: minus the infimum at
        # orders (-gamma, -beta) and payoff -g
        values, params, sign = -values, OrderParams(-params.gamma, -params.beta), -1.0
    rhs = sign * (risk_sensitive(theta, values, params.gamma)
                  + renyi_discrete(nu, theta, params.alpha) / params.span)
    return dataclasses.replace(report, optimizer=theta, rhs_at_optimizer=rhs)


def cmd_identity(args) -> int:
    nu = _load_measure(args.measure, "--measure")
    values = _load_values(args.g, nu, "--g")
    params = OrderParams(args.beta, args.gamma)
    kwargs = {"grid_step": args.grid_step, "oracle_samples": args.oracle_samples,
              "seed": args.seed}
    reports = {}
    if args.direction in ("both", "inf"):
        reports["inf"] = inf_identity(nu, values, params, **kwargs)
    if args.direction in ("both", "sup"):
        reports["sup"] = sup_identity(nu, values, params, **kwargs)
    if args.corrupt_optimizer:
        reports = {k: _corrupt_report(r, nu, aligned_values(nu, values), params)
                   for k, r in reports.items()}
    payload = {k: r.to_json_dict() for k, r in reports.items()}
    if len(payload) == 1:
        payload = next(iter(payload.values()))
    _emit_json(payload, args)
    failed = [r for r in reports.values() if not r.passes()]
    for r in failed:
        print(
            f"identity certificate failed: direction={r.direction} "
            f"equality_gap={r.equality_gap!r} dominance_margin={r.dominance_margin!r} "
            f"optimizer_probs={[float(p) for p in r.optimizer.probs]!r}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_brownian_figures(args) -> int:
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    model = BrownianModel(level=args.K, drift=args.mu)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.points)
    rows = bm_bound_curves(model, alphas, scale=args.scale)
    bad = [r for r in rows if not (r.lower <= r.exact <= r.upper)]
    if bad:
        r = bad[0]
        print(
            f"sandwich violated at alpha={r.alpha!r}: "
            f"lower={r.lower!r} exact={r.exact!r} upper={r.upper!r}",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        payload = [
            {"alpha": r.alpha, "lower": r.lower, "upper": r.upper,
             "exact": r.exact, "scale": r.scale}
            for r in rows
        ]
        _emit_json(payload, args)
    else:
        lines = ["alpha,lower,upper,exact,scale"]
        lines.extend(
            f"{_fmt(r.alpha)},{_fmt(r.lower)},{_fmt(r.upper)},{_fmt(r.exact)},{r.scale}"
            for r in rows
        )
        _emit("\n".join(lines), args)
    return 0


def _check_queue_order(args) -> None:
    """Check the order before any other work; the bounds need alpha > 1."""
    if args.reps > 0:
        check_upper_alpha(args.alpha)
    check_alpha(args.alpha)


def _queue_budgets(args) -> tuple[float, float]:
    """Per-step budgets (d1, d2), checked before any simulation."""
    alpha = args.alpha
    d1, d2 = args.d1, args.d2
    if (d1 is None or d2 is None) and args.theta_rate is None:
        raise ValueError("need --theta-rate or explicit --d1 and --d2 budgets")
    if d1 is None:
        d1 = renyi_poisson(PoissonParams(args.theta_rate), PoissonParams(args.nominal_rate), alpha)
    if d2 is None:
        if alpha > 2.0 + 1e-8:
            d2 = renyi_poisson(PoissonParams(args.nominal_rate), PoissonParams(args.theta_rate),
                               alpha - 1.0)
        else:
            d2 = math.inf
    return check_budget("d1", d1), check_budget("d2", d2)


def _nominal_interval(est) -> tuple[float, float]:
    """The nominal probability's 95% interval in [0, 1], for the sandwich.

    With zero hits the Wald interval is [0, 0], and a bound built on it
    claims the probability is 0. There the upper end is the exact
    Clopper-Pearson limit 1 - 0.025^(1/n) instead, and with all hits the
    lower end is 0.025^(1/n). The reported estimate keeps its Wald interval.
    """
    p_lo = min(max(est.ci95[0], 0.0), 1.0)
    p_hi = min(max(est.ci95[1], 0.0), 1.0)
    if est.mean == 0.0:
        p_hi = -math.expm1(math.log(0.025) / est.n_samples)
    elif est.mean == 1.0:
        p_lo = 0.025 ** (1.0 / est.n_samples)
    return p_lo, p_hi


def cmd_queue(args) -> int:
    _check_queue_order(args)
    rate = overflow_decay_rate(args.C, args.b)
    report = {
        "model": {"C": args.C, "b": args.b, "n": args.n},
        "rate": rate.to_json_dict(),
    }
    code = 0
    if args.reps > 0:
        d1, d2 = _queue_budgets(args)
        nominal = simulate_queue_overflow_prob(
            PoissonLaw(args.nominal_rate), args.C, args.b, args.n, args.reps, seed=args.seed
        )
        p_lo, p_hi = _nominal_interval(nominal)
        lower = scaled_event_sandwich(p_lo, args.n, args.alpha, d1, d2).lower
        upper = scaled_event_sandwich(p_hi, args.n, args.alpha, d1, d2).upper
        report.update({
            "alpha": args.alpha,
            "per_step_budget": {"d1": d1, "d2": d2},
            "nominal_rate": args.nominal_rate,
            "nominal_estimate": nominal.to_json_dict(),
            "bounds": {"lower": lower, "upper": upper, "scale": "probability"},
        })
        if args.theta_rate is not None:
            theta = simulate_queue_overflow_prob(
                PoissonLaw(args.theta_rate), args.C, args.b, args.n, args.reps, seed=args.seed
            )
            inside = (theta.ci95[1] >= lower - _SANDWICH_SLACK
                      and theta.ci95[0] <= upper + _SANDWICH_SLACK)
            report["theta_rate"] = args.theta_rate
            report["theta_estimate"] = theta.to_json_dict()
            report["inside_sandwich"] = inside
            if not inside:
                print(
                    f"sandwich violated: theta CI {theta.ci95!r} outside "
                    f"[{lower!r}, {upper!r}]",
                    file=sys.stderr,
                )
                code = 1
    _emit_json(report, args)
    return code


def _laplace_exact(gamma: float, t: float, mu: float) -> float:
    if mu == 0.0:
        return laplace_h_wiener(gamma, t)
    return laplace_h_drift(gamma, t, mu)


def cmd_laplace(args) -> int:
    # the bounds check the order before the quadrature runs
    bound = None if args.alpha is None else laplace_h_bounds(args.gamma, args.t, args.alpha,
                                                             args.mu)
    value = _laplace_exact(args.gamma, args.t, args.mu)
    if bound is None:
        if args.format == "pretty":
            _emit(_fmt(value), args)
        else:
            _emit_json({"gamma": args.gamma, "t": args.t, "mu": args.mu, "value": value}, args)
        return 0
    inner = (args.alpha - 1.0) * args.gamma
    inner_value = _laplace_exact(inner, args.t, args.mu)
    if inner_value == math.inf:
        raise ValueError(f"the transform at gamma*(alpha-1) = {inner!r} is past the "
                         "float range, so the sandwich cannot be checked")
    middle = math.log(inner_value) / (args.alpha - 1.0)
    slack = 1e-6
    ok = bound.lower - slack <= middle <= bound.upper + slack
    _emit_json({
        "gamma": args.gamma, "t": args.t, "mu": args.mu, "alpha": args.alpha,
        "value": value,
        "lower": bound.lower, "middle": middle, "upper": bound.upper,
        "budget": {"d1": bound.budget.d1, "d2": bound.budget.d2},
        "inside": ok,
    }, args)
    if not ok:
        print(
            f"sandwich violated: middle={middle!r} outside "
            f"[{bound.lower!r}, {bound.upper!r}]",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_mc_bm_max(args) -> int:
    grid = PathGrid(1, args.t)  # the exact sampler reads only the horizon
    est = bm_exceedance_estimate(args.K, args.mu, grid, args.paths, seed=args.seed)
    exact = bm_exceedance_drift(args.K, args.mu, args.t)
    _emit_json({"study": "bm-max", "K": args.K, "mu": args.mu, "t": args.t,
                "estimate": est.to_json_dict(), "exact": exact}, args)
    return 0


def cmd_mc_girsanov(args) -> int:
    grid = PathGrid(args.n_steps, args.t)
    mu = args.mu
    reference = renyi_bm_drift(mu) * args.t
    if args.drift == "const":
        drift = lambda x: np.full_like(x, mu)  # noqa: E731
        ref_key = "exact"
    else:
        drift = lambda x: mu * np.tanh(x)  # noqa: E731
        ref_key = "budget_upper"
    est = girsanov_renyi_estimate(drift, grid, args.alpha, args.paths, seed=args.seed)
    _emit_json({"study": "girsanov", "drift": args.drift, "mu": mu,
                "alpha": args.alpha, "n_steps": args.n_steps, "t": args.t,
                "estimate": est.to_json_dict(), ref_key: reference}, args)
    return 0


def cmd_mc_argmax(args) -> int:
    grid = PathGrid(1, args.t)  # the exact sampler reads only the horizon
    est = argmax_laplace_estimate(args.gamma, args.mu, grid, args.paths, seed=args.seed)
    exact = _laplace_exact(args.gamma, args.t, args.mu)
    _emit_json({"study": "argmax", "gamma": args.gamma, "mu": args.mu, "t": args.t,
                "estimate": est.to_json_dict(), "exact": exact}, args)
    return 0


def _default_seed() -> int:
    return int(os.environ.get("RENYI_SEED", "0"))


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_default_seed(),
                        help="RNG seed (default: RENYI_SEED env var or 0)")
    common.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty",
                        help="output format (default pretty)")
    common.add_argument("--output", default=None, help="write data to this file instead of stdout")
    common.add_argument("--config", default=None,
                        help="JSON file of flag defaults (keys match long flag names)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="renyibounds",
        description="Order-alpha divergences, variational identity certificates, "
                    "and two-sided robust bounds with Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("renyi", parents=[common], help="divergence between two distributions")
    p.add_argument("--gaussian", action="append",
                   help="mean,variance; give twice, numerator first")
    p.add_argument("--discrete", action="append",
                   help="JSON probs array, labels/probs object, or @file; give twice, "
                        "numerator first")
    p.add_argument("--alpha", type=float, required=True, help="order (not 0 or 1)")
    p.set_defaults(func=cmd_renyi)

    p = sub.add_parser("identity", parents=[common],
                       help="certify the variational identities on a finite measure")
    p.add_argument("--measure", required=True, help="JSON measure spec or @file")
    p.add_argument("--g", required=True, help="JSON array of payoff values or @file")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--direction", choices=["both", "inf", "sup"], default="both")
    p.add_argument("--oracle-samples", type=int, default=100_000,
                   help="simplex oracle points from 4 atoms on: a lattice shifted by "
                        "--seed; a larger count appends points (default 100000)")
    p.add_argument("--grid-step", type=float, default=1e-2)
    p.add_argument("--corrupt-optimizer", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("brownian-figures", parents=[common],
                       help="two-sided exceedance bound curves as CSV")
    p.add_argument("--K", type=float, default=4.0, help="exceedance level")
    p.add_argument("--mu", type=float, default=0.1, help="alternative constant drift")
    p.add_argument("--alpha-min", type=float, default=3.0)
    p.add_argument("--alpha-max", type=float, default=100.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--scale", choices=["probability", "log"], default="probability")
    p.set_defaults(func=cmd_brownian_figures)

    p = sub.add_parser("queue", parents=[common],
                       help="overflow decay rate and Monte Carlo sandwich")
    p.add_argument("--C", type=float, default=2.0, help="per-slot service rate")
    p.add_argument("--b", type=float, default=1.0, help="overflow level per unit horizon")
    p.add_argument("--n", type=int, default=50, help="horizon steps")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--d1", type=float, default=None, help="per-step budget override")
    p.add_argument("--d2", type=float, default=None, help="per-step budget override")
    p.add_argument("--reps", type=int, default=0,
                   help="Monte Carlo replications (0: rate query only)")
    p.add_argument("--nominal-rate", type=float, default=1.0)
    p.add_argument("--theta-rate", type=float, default=None,
                   help="true arrival rate to test against the sandwich")
    p.set_defaults(func=cmd_queue)

    p = sub.add_parser("laplace", parents=[common],
                       help="argmax-time transform values and bounds")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=None,
                   help="also emit the two-sided bound at this order")
    p.set_defaults(func=cmd_laplace)

    p = sub.add_parser("mc", help="Monte Carlo estimates")
    mc = p.add_subparsers(dest="mc_command", required=True)

    q = mc.add_parser("bm-max", parents=[common], help="level crossing probability")
    q.add_argument("--K", type=float, default=1.0)
    q.add_argument("--mu", type=float, default=0.0)
    q.add_argument("--paths", type=int, default=100_000)
    q.add_argument("--t", type=float, default=1.0)
    q.set_defaults(func=cmd_mc_bm_max)

    q = mc.add_parser("girsanov", parents=[common], help="path divergence estimate")
    q.add_argument("--drift", choices=["const", "tanh"], default="const")
    q.add_argument("--mu", type=float, default=0.1)
    q.add_argument("--alpha", type=float, default=2.0)
    q.add_argument("--paths", type=int, default=100_000)
    q.add_argument("--n-steps", type=int, default=256)
    q.add_argument("--t", type=float, default=1.0)
    q.set_defaults(func=cmd_mc_girsanov)

    q = mc.add_parser("argmax", parents=[common], help="argmax-time transform estimate")
    q.add_argument("--gamma", type=float, default=1.0)
    q.add_argument("--mu", type=float, default=0.0)
    q.add_argument("--paths", type=int, default=100_000)
    q.add_argument("--t", type=float, default=1.0)
    q.set_defaults(func=cmd_mc_argmax)

    return parser


_CONFIG_FINDER = argparse.ArgumentParser(prog="renyibounds", add_help=False)
_CONFIG_FINDER.add_argument("--config")


def _splice_config(argv: list[str]) -> list[str]:
    """Replace --config FILE (or an abbreviation of it) with the flags the file holds.

    The file holds an object keyed by long flag names: underscores become
    dashes, a list repeats its flag, true gives the bare flag and false
    nothing. The flags go right after the subcommand, so explicit flags
    win, and the one real parse checks them like typed ones.
    """
    found, rest = _CONFIG_FINDER.parse_known_args(argv)
    if found.config is None:
        return argv
    with open(found.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--config must hold a JSON object of flag values")
    flags: list[str] = []
    for key, value in data.items():
        flag = "--" + str(key).replace("_", "-").lstrip("-")
        if isinstance(value, bool):
            flags += [flag] if value else []
        else:
            for v in value if isinstance(value, list) else [value]:
                flags += [flag, str(v)]
    k = 2 if rest[:1] == ["mc"] else 1
    return rest[:k] + flags + rest[k:]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _splice_config(list(argv))
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code if code in (0, 1, 2) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return int(args.func(args))
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
