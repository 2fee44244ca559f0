"""Run one workload in this fresh interpreter; ``run.py`` starts it.

Every mode first sets up: import ``renyibounds.cli``, build its parser,
and run one warm-up cycle of the workload at 1/64 size, then print
``READY``. ``--mode setup`` stops there. ``--mode run`` measures whole
cycles, untraced, until ``--seconds`` have passed and at least
``MIN_OPS`` operations are done. ``--mode trace`` runs a fixed list of
cycles untraced, the same list traced, and the first operation once more
traced, and asserts that the counted work repeats exactly. The result is
one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WARMUP_SCALE = 1.0 / 64.0
# 20 ops put the 11th-slowest op, the tail, on the same op kind in every run
MIN_OPS = 20
MAX_RUN_S = 120.0
# Rough cycle times on a 2-core x86 machine. They only size the traced
# pass to about half of --seconds; being constants, they keep its op list,
# and so every count, identical between runs with the same seed.
TRACE_CYCLE_S = {"certify": 0.9, "queue": 1.0, "paths": 6.6, "queries": 0.1}
REPEATED_COUNTS = ("draws", "bytes_computed", "oracle_points")


def run_op(op, op_id: int, cycle: int, tracer=None) -> dict:
    from workloads import Outcome

    token = tracer.begin_op(op_id) if tracer is not None else None
    start = perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failing op is counted, the loop goes on
        result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    counts = tracer.end_op(token) if tracer is not None else {}
    outcome = Outcome(failures=[error]) if error else op.check(result)
    return {
        "kind": op.kind,
        "cycle": cycle,
        "s": elapsed,
        "failures": outcome.failures[:3],
        "oracle_points": outcome.oracle_points,
        "unlocalized": outcome.unlocalized,
        "estimates": outcome.estimates,
        "path_steps": op.path_steps,
        "draws_used": op.draws_used,
        **counts,
    }


def _repeat_failures(ops, records, replay) -> list[str]:
    """Counted work must be equal for equal signatures and on the replay."""
    seen: dict[tuple, tuple] = {}
    failures = []
    for op, rec in zip(ops, records):
        counts = tuple(rec[k] for k in REPEATED_COUNTS)
        first = seen.setdefault(op.signature, counts)
        if counts != first:
            failures.append(f"{op.kind}: counts {counts} differ from {first}")
    again = tuple(replay[k] for k in REPEATED_COUNTS)
    once = tuple(records[0][k] for k in REPEATED_COUNTS)
    if again != once:
        failures.append(f"replay of {ops[0].kind}: counts {again} differ from {once}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    import renyibounds.cli

    if SRC.resolve() not in Path(renyibounds.cli.__file__).resolve().parents:
        print(f"renyibounds imported from {renyibounds.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    renyibounds.cli.build_parser()
    import workloads

    make_cycles = workloads.CYCLES[args.workload]
    workdir = OUT / args.workload
    for op in next(make_cycles(args.seed, WARMUP_SCALE, workdir)):
        failures = op.check(op.run()).failures
        if failures:
            print(f"warm-up failed: {failures}", file=sys.stderr)
            return 4
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    cycles = make_cycles(args.seed, 1.0, workdir)
    if args.mode == "run":
        records = []
        start = perf_counter()
        for c, cycle in enumerate(cycles):
            for op in cycle:
                records.append(run_op(op, len(records), c))
            elapsed = perf_counter() - start
            if (elapsed >= args.seconds and len(records) >= MIN_OPS) or elapsed >= MAX_RUN_S:
                break
        result = {"mode": "run", "ops": records}
    else:
        import tracing

        n_cycles = max(1, round(args.seconds / 2.0 / TRACE_CYCLE_S[args.workload]))
        ops = [(c, op) for c, cycle in enumerate(islice(cycles, n_cycles)) for op in cycle]
        untraced = [run_op(op, i, c) for i, (c, op) in enumerate(ops)]
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = [run_op(op, i, c, tracer) for i, (c, op) in enumerate(ops)]
        totals = tracer.totals()
        spans = len(tracer.start)
        replay = run_op(ops[0][1], len(ops), 0, tracer)
        ops = [op for _, op in ops]
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.npz"
        tracer.write(spans_file)
        result = {
            "mode": "trace",
            "untraced": untraced,
            "traced": traced,
            "replay": replay,
            "repeat_failures": _repeat_failures(ops, traced, replay),
            "totals": totals,
            "spans": spans,
            "span_cost_s": tracing.span_cost_s(),
            "spans_file": str(spans_file.relative_to(HERE.parent)),
        }

    import numpy

    result["numpy"] = numpy.__version__
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
