"""Ten end-to-end acceptance checks with pinned tolerances.

Each test prints exactly one verdict line, "Cnn PASS" or "Cnn FAIL"
(run with -s to stream them), then asserts on the collected failures.
"""

from __future__ import annotations

import itertools
import math
import subprocess
import time

import numpy as np
import pytest
from scipy.integrate import quad

from renyibounds import montecarlo as mc
from renyibounds.applications.brownian import (
    BrownianModel,
    bm_bound_curves,
    bm_exceedance_nominal,
    laplace_h_bounds,
    laplace_h_drift,
    laplace_h_wiener,
)
from renyibounds.applications.gaussian_study import (
    gaussian_linear_risk,
    gaussian_rs_sides,
    tightness_witness,
)
from renyibounds.applications.queueing import (
    overflow_decay_rate,
    poisson_rate_ell,
    scaled_event_sandwich,
)
from renyibounds.bounds import event_bounds, rs_lower, rs_upper
from renyibounds.cli import main
from renyibounds.divergences import (
    DivergenceBudget,
    GaussianParams,
    PoissonParams,
    renyi_bm_drift,
    renyi_discrete,
    renyi_gaussian,
    renyi_poisson,
)
from renyibounds.measures import FiniteMeasure, OrderParams, risk_sensitive
from renyibounds.montecarlo import (
    PathGrid,
    PoissonLaw,
    argmax_laplace_estimate,
    bm_exceedance_estimate,
    girsanov_renyi_estimate,
    simulate_queue_overflow_prob,
)
from renyibounds.variational import inf_identity, sup_identity

from conftest import lane_uniforms, reference_kl, workload_peaks

_STD_NORMAL = GaussianParams(0.0, 1.0)

# order pairs spanning the negative, sign-crossing, and >1 regimes
_ORDER_REGIMES = (
    OrderParams(-2.0, -1.0),
    OrderParams(-1.0, 1.0),
    OrderParams(1.0, 2.0),
    OrderParams(2.0, 3.0),
    OrderParams(0.5, 1.5),
)


def _verdict(tag: str, failures: list[str]) -> None:
    print(f"{tag} {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{tag}: " + "; ".join(failures)


def _random_measure(rng: np.random.Generator, dim: int) -> FiniteMeasure:
    probs = rng.dirichlet(np.ones(dim))
    return FiniteMeasure.from_probs([str(j) for j in range(dim)], probs)


def test_c01_variational_identity_suite():
    failures: list[str] = []
    rng = np.random.default_rng(np.random.Philox(101))
    start = time.monotonic()
    for i in range(100):
        dim = int(rng.integers(2, 7))
        nu = _random_measure(rng, dim)
        g = rng.uniform(-3.0, 3.0, dim)
        params = _ORDER_REGIMES[i % len(_ORDER_REGIMES)]
        # keep the dominance oracle around 1e5 candidate points in every
        # dimension: exhaustive grids below dim 4, lattice points above
        step = 1e-5 if dim == 2 else (2.2e-3 if dim == 3 else 1e-2)
        for fn in (inf_identity, sup_identity):
            report = fn(nu, g, params, grid_step=step,
                        oracle_samples=100_000, seed=i)
            if report.equality_gap > 1e-9:
                failures.append(
                    f"instance {i} {report.direction}: equality gap "
                    f"{report.equality_gap:.3e}")
            if report.dominance_margin < -1e-9:
                failures.append(
                    f"instance {i} {report.direction}: dominance violated "
                    f"by {-report.dominance_margin:.3e}")
    elapsed = time.monotonic() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict("C01", failures)


def test_c02_exact_two_sided_sandwich():
    failures: list[str] = []
    rng = np.random.default_rng(np.random.Philox(102))
    alphas = (2.5, 3.0, 5.0, 10.0)
    start = time.monotonic()
    for i in range(200):
        dim = int(rng.integers(2, 9))
        nu = _random_measure(rng, dim)
        theta = _random_measure(rng, dim)
        g = rng.uniform(-3.0, 3.0, dim)
        mask = rng.integers(0, 2, dim).astype(bool)
        if not mask.any():
            mask[int(rng.integers(dim))] = True
        alpha = alphas[i % len(alphas)]

        d1 = renyi_discrete(theta, nu, alpha)
        d2 = renyi_discrete(nu, theta, alpha - 1.0)

        true_rs = risk_sensitive(theta, g, alpha - 1.0)
        upper = rs_upper(risk_sensitive(nu, g, alpha), d1, alpha)
        lower = rs_lower(risk_sensitive(nu, g, alpha - 2.0), d2, alpha)
        if not (lower - 1e-12 <= true_rs <= upper + 1e-12):
            failures.append(
                f"instance {i}: risk value {true_rs!r} outside "
                f"[{lower!r}, {upper!r}]")

        p_nu = float(nu.probs[mask].sum())
        p_theta = float(theta.probs[mask].sum())
        budget = DivergenceBudget(d1, d2)
        prob = event_bounds(p_nu, budget, alpha, scale="probability")
        if not (prob.lower - 1e-12 <= p_theta <= prob.upper + 1e-12):
            failures.append(
                f"instance {i}: event probability {p_theta!r} outside "
                f"[{prob.lower!r}, {prob.upper!r}]")
        logres = event_bounds(p_nu, budget, alpha, scale="log")
        true_log = math.log(p_theta) / (alpha - 1.0)
        if not (logres.lower - 1e-12 <= true_log <= logres.upper + 1e-12):
            failures.append(
                f"instance {i}: log event value {true_log!r} outside "
                f"[{logres.lower!r}, {logres.upper!r}]")
    elapsed = time.monotonic() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict("C02", failures)


def test_c03_gaussian_closed_form_and_tightness():
    failures: list[str] = []
    rng = np.random.default_rng(np.random.Philox(103))
    start = time.monotonic()

    checked = 0
    while checked < 50:
        m1, m2 = rng.uniform(-2.0, 2.0, 2)
        v1, v2 = rng.uniform(0.3, 4.0, 2)
        alpha = float(rng.uniform(-2.0, 4.0))
        if abs(alpha) < 0.1 or abs(alpha - 1.0) < 0.1:
            continue
        if alpha * v2 + (1.0 - alpha) * v1 < 0.1:
            continue
        closed = renyi_gaussian(GaussianParams(m1, v1), GaussianParams(m2, v2),
                                alpha)

        def integrand(x, m1=m1, v1=v1, m2=m2, v2=v2, alpha=alpha):
            lp1 = -0.5 * (x - m1) ** 2 / v1 - 0.5 * math.log(2 * math.pi * v1)
            lp2 = -0.5 * (x - m2) ** 2 / v2 - 0.5 * math.log(2 * math.pi * v2)
            return math.exp(alpha * lp1 + (1.0 - alpha) * lp2)

        integral, _ = quad(integrand, -np.inf, np.inf, limit=200)
        numeric = math.log(integral) / (alpha * (alpha - 1.0))
        if abs(closed - numeric) > 1e-6 * max(1.0, abs(closed)):
            failures.append(
                f"quadrature set {checked}: closed {closed!r} vs "
                f"numeric {numeric!r}")
        checked += 1

    for alpha, d in itertools.product((2.0, 3.0, 5.0), (0.5, 1.0, 2.0)):
        c, alt = tightness_witness(alpha, d)
        lhs, rhs_true = gaussian_rs_sides(c, alpha, alt)
        if abs(lhs - rhs_true) > 1e-10:
            failures.append(
                f"(alpha={alpha}, d={d}): tilt equality gap "
                f"{abs(lhs - rhs_true):.3e}")
        div = renyi_gaussian(alt, _STD_NORMAL, alpha)
        if abs(div - d) > 1e-10:
            failures.append(
                f"(alpha={alpha}, d={d}): witness divergence {div!r} "
                f"misses the budget")
        rhs_budget = gaussian_linear_risk(_STD_NORMAL, c, alpha) + d
        if abs(lhs - rhs_budget) > 1e-10:
            failures.append(
                f"(alpha={alpha}, d={d}): budget-form bound not tight, "
                f"gap {abs(lhs - rhs_budget):.3e}")

    elapsed = time.monotonic() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict("C03", failures)


def test_c04_tail_probability_value():
    failures: list[str] = []
    p = bm_exceedance_nominal(4.0)
    if abs(p - 6.33e-5) / 6.33e-5 > 0.005:
        failures.append(f"exceedance probability {p!r} not within 0.5% "
                        f"of 6.33e-5")
    _verdict("C04", failures)


def test_c05_bound_curve_reproduction():
    failures: list[str] = []
    start = time.monotonic()
    model = BrownianModel(level=4.0, drift=0.1, horizon=1.0)
    alphas = np.linspace(3.0, 100.0, 200)
    for scale in ("probability", "log"):
        rows = bm_bound_curves(model, alphas, scale=scale)
        bad = [r for r in rows
               if not (r.lower - 1e-12 <= r.exact <= r.upper + 1e-12)]
        if bad:
            r = bad[0]
            failures.append(
                f"{scale} scale: {len(bad)} rows broken, first at "
                f"alpha={r.alpha}: [{r.lower!r}, {r.upper!r}] vs {r.exact!r}")
    prob_rows = bm_bound_curves(model, alphas, scale="probability")
    best = alphas[int(np.argmin([r.upper for r in prob_rows]))]
    target = math.sqrt(-math.log(bm_exceedance_nominal(4.0)) / 0.005)
    if abs(best - target) > 2.0:
        failures.append(f"upper-bound argmin {best!r} not within 2 of "
                        f"{target!r}")
    elapsed = time.monotonic() - start
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _verdict("C05", failures)


def test_c06_divergence_property_suite():
    failures: list[str] = []
    rng = np.random.default_rng(np.random.Philox(106))
    start = time.monotonic()

    pairs = []
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        pairs.append((_random_measure(rng, dim), _random_measure(rng, dim)))

    for i, (nu, theta) in enumerate(pairs):
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
            gap = abs(renyi_discrete(nu, theta, alpha)
                      - renyi_discrete(theta, nu, 1.0 - alpha))
            if gap > 1e-12:
                failures.append(f"pair {i}: skew gap {gap:.3e} at "
                                f"alpha={alpha}")

    grid = (-3.0, -1.5, -0.5, -0.1, 0.1, 0.35, 0.65, 0.9, 1.1, 1.5, 2.5,
            4.0, 7.0, 10.0)
    for i, (nu, theta) in enumerate(pairs[:10]):
        vals = [a * renyi_discrete(nu, theta, a) for a in grid]
        drops = np.diff(vals)
        if np.any(drops < -1e-10):
            failures.append(f"pair {i}: order-scaled divergence not "
                            f"monotone, worst drop {drops.min():.3e}")

        kl = reference_kl(nu, theta)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            if abs(renyi_discrete(nu, theta, a) - kl) > 1e-3:
                failures.append(f"pair {i}: KL limit gap at alpha={a}")

        r = renyi_discrete(nu, theta, 2.0)
        if r < -1e-12:
            failures.append(f"pair {i}: negative divergence {r!r}")

    for alpha in (0.5, 2.0, 3.5):
        for i in range(5):
            components = pairs[3 * i:3 * i + 3]
            total = 0.0
            prod_nu = np.array([1.0])
            prod_theta = np.array([1.0])
            for nu, theta in components:
                total += renyi_discrete(nu, theta, alpha)
                prod_nu = np.outer(prod_nu, nu.probs).ravel()
                prod_theta = np.outer(prod_theta, theta.probs).ravel()
            labels = [str(j) for j in range(prod_nu.size)]
            joint = renyi_discrete(FiniteMeasure.from_probs(labels, prod_nu),
                                   FiniteMeasure.from_probs(labels, prod_theta),
                                   alpha)
            if abs(joint - total) > 1e-10:
                failures.append(
                    f"3-fold product at alpha={alpha}: additivity gap "
                    f"{abs(joint - total):.3e}")

    nu0, _ = pairs[0]
    for alpha in (0.5, 2.0, 3.5):
        self_div = renyi_discrete(nu0, nu0, alpha)
        if abs(self_div) > 1e-12:
            failures.append(f"self divergence {self_div!r} at alpha={alpha}")
    apart = renyi_discrete(
        FiniteMeasure.from_probs(["0", "1"], [0.5, 0.5]),
        FiniteMeasure.from_probs(["0", "1"], [0.25, 0.75]), 2.0)
    if not apart > 1e-3:
        failures.append("distinct measures not separated")

    elapsed = time.monotonic() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict("C06", failures)


def _grid_rate(C: float, b: float, step: float = 1e-5,
               t_max: float = 60.0) -> float:
    # brute-force oracle: vectorized scan of t * ell(C + b/t) on a fine
    # grid, constrained to t <= 1 when the unconstrained optimum is beyond
    t = np.arange(step, t_max, step)
    obj = t * poisson_rate_ell(C + b / t)
    k = int(np.argmin(obj))
    if t[k] >= 1.0:
        return float(poisson_rate_ell(C + b))
    return float(obj[k])


def test_c07_queue_study():
    failures: list[str] = []
    rng = np.random.default_rng(np.random.Philox(107))
    start = time.monotonic()

    witnesses = [(2.0, 1.0), (1.5, 5.0)]
    cases = witnesses + [
        (float(rng.uniform(1.05, 4.0)), float(rng.uniform(0.05, 6.0)))
        for _ in range(50)
    ]
    for C, b in cases:
        res = overflow_decay_rate(C, b)
        oracle = _grid_rate(C, b)
        if abs(res.c - oracle) > 1e-4:
            failures.append(f"(C={C:.4g}, b={b:.4g}): rate {res.c!r} vs "
                            f"grid {oracle!r}")
    if overflow_decay_rate(2.0, 1.0).branch != "interior":
        failures.append("(2, 1) should optimize strictly inside the horizon")
    if overflow_decay_rate(1.5, 5.0).branch != "edge":
        failures.append("(1.5, 5) should optimize at the horizon edge")

    # the queue kernel's Lindley recursion against the max formula: the
    # workload peak is max over j <= k of S_k - S_j - C (k - j). Arrivals are
    # integers and C is dyadic, so both are exact float arithmetic, and every
    # overflow indicator must match bit for bit, also where a peak ties the level
    law, take = PoissonLaw(1.0), 500
    for i in range(20):
        n = int(rng.integers(1, 41))
        C = float(rng.integers(65, 193)) / 64.0
        peak = workload_peaks(law.quantile(lane_uniforms(law, mc._rng(i, 0), take, n)), C)
        for level in (0.0, *np.quantile(peak, [0.5, 0.9, 1.0], method="lower")):
            over = mc._queue_kernel(law, n, C, float(level))(mc._rng(i, 0), take)
            if not np.array_equal(over, peak > level):
                failures.append(f"stream {i}: kernel and max formula disagree "
                                f"at level {level!r}")

    alpha, n, b = 3.0, 50, 0.1
    d1 = renyi_poisson(PoissonParams(1.1), PoissonParams(1.0), alpha)
    d2 = renyi_poisson(PoissonParams(1.0), PoissonParams(1.1), alpha - 1.0)
    nominal = simulate_queue_overflow_prob(PoissonLaw(1.0), 2.0, b, n,
                                           1_000_000, seed=0)
    theta = simulate_queue_overflow_prob(PoissonLaw(1.1), 2.0, b, n,
                                         1_000_000, seed=0)
    lower = scaled_event_sandwich(max(nominal.ci95[0], 0.0), n, alpha,
                                  d1, d2).lower
    upper = scaled_event_sandwich(min(nominal.ci95[1], 1.0), n, alpha,
                                  d1, d2).upper
    if not (lower <= theta.mean <= upper):
        failures.append(
            f"simulated alternative probability {theta.mean!r} outside "
            f"[{lower!r}, {upper!r}]")

    elapsed = time.monotonic() - start
    if elapsed > 180.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 180s")
    _verdict("C07", failures)


def test_c08_path_simulation_agreement():
    failures: list[str] = []
    start = time.monotonic()
    grid = PathGrid(64)

    for K in (1.0, 2.0):
        est = bm_exceedance_estimate(K, 0.0, grid, 200_000, seed=0)
        exact = bm_exceedance_nominal(K)
        if abs(est.mean - exact) > 3.0 * est.std_error:
            failures.append(
                f"K={K}: estimate {est.mean!r} vs exact {exact!r}, "
                f"|dev| > 3 se ({est.std_error:.2e})")

    for mu in (0.05, 0.1, 0.3):
        for alpha in (2.0, 3.0):
            drift = lambda x, m=mu: np.full_like(x, m)  # noqa: E731
            est = girsanov_renyi_estimate(drift, grid, alpha, 100_000, seed=0)
            exact = renyi_bm_drift(mu)
            if abs(est.mean - exact) > 3.0 * est.std_error:
                failures.append(
                    f"mu={mu}, alpha={alpha}: estimate {est.mean!r} vs "
                    f"{exact!r}, |dev| > 3 se")

    bounded = lambda x: 0.1 * np.tanh(x)  # noqa: E731
    est = girsanov_renyi_estimate(bounded, PathGrid(256), 2.0, 100_000, seed=0)
    cap = renyi_bm_drift(0.1)
    if est.mean > cap + 3.0 * est.std_error:
        failures.append(f"bounded drift estimate {est.mean!r} exceeds "
                        f"cap {cap!r} + 3 se")

    elapsed = time.monotonic() - start
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _verdict("C08", failures)


def test_c08_far_tail_slow():
    failures: list[str] = []
    est = bm_exceedance_estimate(4.0, 0.0, PathGrid(64), 10_000_000, seed=0)
    exact = bm_exceedance_nominal(4.0)
    if abs(est.mean - exact) > 3.0 * est.std_error:
        failures.append(f"K=4: estimate {est.mean!r} vs exact {exact!r}, "
                        f"|dev| > 3 se ({est.std_error:.2e})")
    _verdict("C08S", failures)


def test_c09_laplace_transform_suite():
    failures: list[str] = []
    start = time.monotonic()
    grid = PathGrid(4096)

    for gamma in (1.0, 2.0, 10.0):
        est = argmax_laplace_estimate(gamma, 0.0, grid, 20_000, seed=0)
        exact = laplace_h_wiener(gamma)
        if abs(est.mean - exact) > 3.0 * est.std_error:
            failures.append(
                f"gamma={gamma}: estimate {est.mean!r} vs exact {exact!r},"
                f" |dev| > 3 se")

    for gamma in (0.5, 1.0, 2.0, 5.0):
        collapse = laplace_h_drift(gamma, 1.0, 0.0)
        exact = laplace_h_wiener(gamma)
        if abs(collapse - exact) > 1e-6 * max(1.0, abs(exact)):
            failures.append(f"gamma={gamma}: driftless collapse gap "
                            f"{abs(collapse - exact):.3e}")

    est = argmax_laplace_estimate(1.0, 0.1, grid, 20_000, seed=0)
    exact = laplace_h_drift(1.0, 1.0, 0.1)
    if abs(est.mean - exact) > 3.0 * est.std_error:
        failures.append(f"drifted transform: estimate {est.mean!r} vs "
                        f"{exact!r}, |dev| > 3 se")

    bound = laplace_h_bounds(1.0, 1.0, 3.0, 0.1)
    middle = 0.5 * math.log(laplace_h_drift(2.0, 1.0, 0.1))
    if not (bound.lower - 1e-9 <= middle <= bound.upper + 1e-9):
        failures.append(f"sandwich broken: {middle!r} outside "
                        f"[{bound.lower!r}, {bound.upper!r}]")

    elapsed = time.monotonic() - start
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _verdict("C09", failures)


def test_c10_cli_determinism(capsys, console_script):
    failures: list[str] = []
    start = time.monotonic()
    commands = [
        ["renyi", "--gaussian", "1,1", "--gaussian", "0,1", "--alpha", "2"],
        ["renyi", "--discrete", "[0.5,0.5]", "--discrete", "[0.25,0.75]",
         "--alpha", "2", "--format", "csv"],
        ["identity", "--measure", "[0.4,0.6]", "--g", "[0,1]",
         "--beta", "1", "--gamma", "2", "--format", "json"],
        ["brownian-figures", "--points", "8", "--format", "csv"],
        ["brownian-figures", "--points", "8", "--scale", "log",
         "--format", "json"],
        ["queue", "--C", "2", "--b", "0.1", "--n", "50", "--alpha", "3",
         "--theta-rate", "1.1", "--reps", "20000", "--format", "json"],
        ["laplace", "--gamma", "1", "--alpha", "3", "--mu", "0.1",
         "--format", "json"],
        ["mc", "bm-max", "--paths", "3000", "--format", "json"],
        ["mc", "girsanov", "--paths", "3000", "--n-steps", "16",
         "--format", "json"],
        ["mc", "argmax", "--paths", "1000", "--format", "json"],
    ]
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0:
            failures.append(f"{argv}: exit codes {code1}/{code2}")
        elif out1 != out2:
            failures.append(f"{argv}: outputs differ between runs")

    command, base_env = console_script
    argv = command + ["mc", "girsanov", "--paths", "3000",
                      "--n-steps", "16", "--format", "json"]
    outputs = []
    for threads in ("1", "4"):
        env = dict(base_env)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(argv, capture_output=True, env=env)
        if proc.returncode != 0:
            failures.append(f"{threads}-thread run exited "
                            f"{proc.returncode}")
        outputs.append(proc.stdout)
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        failures.append("output changed with thread count")

    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _verdict("C10", failures)
