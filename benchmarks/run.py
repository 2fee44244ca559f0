"""Benchmark of renyibounds: one closed-loop client, one workload per run.

Run from the repository root:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists): certify, queue, paths,
queries. Every workload runs in fresh interpreters with the BLAS/OpenMP
thread variables pinned to 1, one operation at a time, and every
operation's output is checked.

--trace 0 prints the end-to-end metrics of an untraced run: throughput,
median and tail latency (means over blocks of ops, see _latency), set-up
time (the median over several fresh interpreters) and peak memory.
--trace 1 prints per-layer metrics: calls
and self time of each library module from a traced pass, the counted
Monte Carlo and oracle work, the import-time split of set-up, and the
tracing overhead against an untraced pass over the same operations.

The last line of stdout is the JSON result; the lines before it list every
metric by name and unit and the run record (versions, nproc, thread
variables, seed). The exit code is not 0, and no result is printed, when
the benchmark cannot run, e.g. without the library sources under src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 8
# ops in one block of the latency figures (see _latency)
BLOCK_OPS = 100
DEADLINE_S = 170.0

# Printed with every run; only the names BENCHMARK.json lists go into the result.
SUMMARY_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "path_steps_per_s": "steps/s",
    "oracle_points_per_s": "pts/s",
    "precision_per_s": "1/se2/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_op_share": "ratio",
}

# work that some workloads do not do at all; those print n/a
NOT_EVERYWHERE = ("path_steps_per_s", "oracle_points_per_s", "precision_per_s")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float | None, list[str]]:
    """Run a worker to completion; return the seconds until it printed
    READY and its other stdout lines."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=_env(),
                            text=True, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, lines


def _import_split(deadline: float) -> dict:
    """Import time of numpy and of the rest of renyibounds.cli, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import renyibounds.cli"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, check=True,
                          timeout=max(1.0, deadline - perf_counter()))
    numpy_us = total_us = None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        cumulative = int(parts[1])
        if name.strip() == "numpy" and numpy_us is None:
            numpy_us = cumulative
        if name == " renyibounds.cli":
            total_us = cumulative
    if numpy_us is None or total_us is None:
        raise BenchError("no import times for numpy and renyibounds.cli")
    return {"setup.import_numpy_s": numpy_us * 1e-6,
            "setup.import_renyibounds_s": (total_us - numpy_us) * 1e-6}


def _block_tail(latencies: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it,
    and that percentile (the maximum below 11 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _latency(ops: list[dict]) -> tuple[float, float, dict]:
    """Median and tail latency, and the percentile and sample counts behind them.

    A run long enough for two blocks of BLOCK_OPS ops is cut into
    blocks of whole cycles, and each figure is the mean over blocks of that
    block's median or tail; a shorter run is one block. Within a block the
    median and the tail ignore short stalls. The mean over blocks weighs the
    fast and slow phases of a shared host by their length, where the tail
    of the whole run would sit on its few slowest ops.
    """
    cycles: dict[int, list[float]] = {}
    for op in ops:
        cycles.setdefault(op["cycle"], []).append(op["s"])
    blocks: list[list[float]] = [[]]
    if len(ops) >= 2 * BLOCK_OPS:
        for latencies in cycles.values():
            if len(blocks[-1]) >= BLOCK_OPS:
                blocks.append([])
            blocks[-1].extend(latencies)
        if len(blocks[-1]) < BLOCK_OPS:
            blocks.pop()  # a short last block would sit at a lower percentile
    else:
        blocks[0] = [op["s"] for op in ops]
    tails = [_block_tail(block) for block in blocks]
    notes = {"op_tail_percentile": statistics.median(p for _, p in tails),
             "op_block_samples": statistics.median(len(b) for b in blocks),
             "op_blocks": len(blocks),
             "op_samples": len(ops)}
    return (statistics.fmean(statistics.median(b) for b in blocks),
            statistics.fmean(t for t, _ in tails), notes)


def _precision_per_s(ops: list[dict]) -> float:
    """Geometric mean over (op kind, estimate) of 1 / (se^2 * op seconds),
    from the medians of each; ops that failed their check are left out."""
    groups: dict[tuple, tuple[list, list]] = {}
    for op in ops:
        if op["failures"]:
            continue
        for name, se in op["estimates"]:
            ses, secs = groups.setdefault((op["kind"], name), ([], []))
            ses.append(se)
            secs.append(op["s"])
    if not groups:
        return 0.0
    logs = [-math.log(statistics.median(ses) ** 2 * statistics.median(secs))
            for ses, secs in groups.values()]
    return math.exp(sum(logs) / len(logs))


def _ops_per_s(ops: list[dict]) -> float:
    """Ops per busy second over the whole run, which holds whole cycles."""
    return len(ops) / sum(op["s"] for op in ops)


def _work_rates(ops: list[dict]) -> dict:
    busy = sum(op["s"] for op in ops)
    return {
        "ops_per_s": _ops_per_s(ops),
        "path_steps_per_s": sum(op["path_steps"] for op in ops) / busy,
        "oracle_points_per_s": sum(op["oracle_points"] for op in ops) / busy,
        "precision_per_s": _precision_per_s(ops),
        "failed_op_share": sum(1 for op in ops if op["failures"]) / len(ops),
    }


def _end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    ops = result["ops"]
    p50, tail, notes = _latency(ops)
    metrics = _work_rates(ops)
    metrics.update({
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    })
    notes["setup_samples_s"] = setup_samples
    return metrics, notes


def _per_layer(result: dict, imports: dict) -> tuple[dict, dict]:
    totals = result["totals"]
    layers, funcs = totals["layers"], totals["functions"]
    traced, untraced = result["traced"], result["untraced"]
    # the benchmark's own op spans form the "bench" layer
    library = {name: layer for name, layer in layers.items() if name != "bench"}
    metrics: dict[str, float] = {}
    for name, layer in library.items():
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.self_s"] = layer["self_s"]

    def func(name: str, key: str):
        return funcs.get(name, {"calls": 0, "self_s": 0.0})[key]

    draws = sum(op["draws"] for op in traced)
    metrics.update({
        "variational.oracle_points": sum(op["oracle_points"] for op in traced),
        "montecarlo.path_steps": sum(op["path_steps"] for op in traced),
        "montecarlo.draws": draws,
        "montecarlo.draw_use_ratio":
            sum(op["draws_used"] for op in traced) / draws if draws else 0.0,
        "montecarlo.bytes_computed": sum(op["bytes_computed"] for op in traced),
        "montecarlo.quantile.calls": func("montecarlo.PoissonLaw.quantile", "calls"),
        "montecarlo.quantile.self_s": func("montecarlo.PoissonLaw.quantile", "self_s"),
        "specfun.erfc.calls": func("specfun.erfc", "calls"),
        "specfun.convolve_at.calls": func("specfun.convolve_at", "calls"),
        "specfun.minimize_scalar.calls": func("specfun.minimize_scalar", "calls"),
        "cli.build_parser.self_s": func("cli.build_parser", "self_s"),
    })
    metrics.update(imports)

    wall_untraced = sum(op["s"] for op in untraced)
    wall_traced = sum(op["s"] for op in traced)
    layer_self = sum(layer["self_s"] for layer in library.values())
    untraced_rates = _work_rates(untraced)
    metrics.update({
        "trace.ops": len(traced),
        "trace.spans": result["spans"],
        "trace.ops_per_s_untraced": untraced_rates["ops_per_s"],
        "trace.ops_per_s_traced": _ops_per_s(traced),
        "trace.overhead_ops_per_s": untraced_rates["ops_per_s"] - _ops_per_s(traced),
        "trace.op_wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.unattributed_s": wall_traced - layer_self,
        "trace.span_overhead_s": result["spans"] * result["span_cost_s"],
    })
    for name in ("path_steps_per_s", "oracle_points_per_s", "precision_per_s", "failed_op_share"):
        metrics[f"untraced.{name}"] = untraced_rates[name]
    notes = {
        "layer_self_sum_s": layer_self,
        # the measured overhead is noisy, so the calibrated cost of the spans also counts
        "self_sum_within_overhead": wall_traced - layer_self <= max(
            metrics["trace.overhead_s"], metrics["trace.span_overhead_s"]),
        "spans_file": result["spans_file"],
        "repeat_failures": result["repeat_failures"],
    }
    return metrics, notes


def _run(args, spec: dict) -> tuple[dict, dict, dict]:
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            ready, _ = _spawn([*common, "--mode", "setup"], deadline)
            setup_samples.append(ready)
        imports = {}
    else:
        imports = _import_split(deadline)
    ready, lines = _spawn([*common, "--mode", "trace" if args.trace else "run"], deadline)
    if ready is None or not lines:
        raise BenchError("worker printed no result")
    setup_samples.append(ready)
    result = json.loads(lines[-1])
    if args.trace:
        metrics, notes = _per_layer(result, imports)
        ops = result["untraced"] + result["traced"] + [result["replay"]]
        wanted = spec["per_layer"]
    else:
        metrics, notes = _end_to_end(result, setup_samples)
        ops = result["ops"]
        wanted = spec["end_to_end"]
    failures = [f for op in ops for f in op["failures"]] + notes.get("repeat_failures", [])
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "ops": len(ops),
        "failed_ops": sum(1 for op in ops if op["failures"]),
        "certificates_not_localized": sum(op["unlocalized"] for op in ops),
        "first_failures": failures[:5],
        **notes,
    }
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} is not measured")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, out, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "renyibounds" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        metrics, out, record = _run(args, spec)
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = SUMMARY_UNITS if not args.trace else {m: out[m]["unit"] for m in out}
    for name, unit in shown.items():
        direction = f"{better[name]} is better" if name in better else "not gated"
        value = f"{metrics[name]:>16.6g}"
        if not args.trace and name in NOT_EVERYWHERE and metrics[name] == 0:
            value = f"{'n/a':>16s}"
        print(f"{name:34s} {value} {unit:8s} ({direction})")
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": record["failed_ops"] == 0 and not record.get("repeat_failures"),
        "attempted": record["ops"],
        "failed": record["failed_ops"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
