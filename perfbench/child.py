"""One workload process of the decaylab benchmark.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--n0 PAIRS] [--setup-only]

Builds the workload's inputs, prints ``ready``, then runs the closed loop: a
single client whose next op starts only after the previous one has completed
and been checked, for at least S seconds.  It prints one JSON line with the
metric values it measured (all but setup_s, which the parent times) and the
detail behind them.  With --trace 1 spans are on for every other block of
ops, so the traced and untraced op times of one run give the tracing
overhead, and the per-layer probe runs after the loop.  It needs ROOT/src on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from pathlib import Path

import numpy as np

import decaylab
import spans
from probe import run_probe
from workloads import N0, OUT, ROOT, CliFull, DetectSweep, StreamAnalysis

WORKLOADS = {
    "detect_sweep": DetectSweep,
    "cli_full": CliFull,
    "stream_analysis": StreamAnalysis,
}


def closed_loop(workload, seconds: float, tr: spans.Tracer, alternate: bool) -> dict:
    """Run ops back to back for ``seconds``, in whole cycles of op kinds so
    every run has the same mix; at least one cycle, or two with
    ``alternate``, whose even cycles run traced."""
    cycle = workload.cycle
    min_ops = cycle * (2 if alternate else 1)
    latencies: list[float] = []
    failed = work = 0
    start = time.perf_counter()
    i = 0
    while i % cycle or i < min_ops or time.perf_counter() - start < seconds:
        tr.enabled = alternate and (i // cycle) % 2 == 0
        error = None
        t0 = time.perf_counter()
        try:
            with tr.span("op", op=i):
                units, payload = workload.op(i)
        except Exception as exc:  # a failed op is counted and keeps its latency
            error = exc
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                workload.check(i, payload)
            except Exception as exc:
                error = exc
        if error is None:
            work += units
        else:
            failed += 1
            print(f"op {i} failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        i += 1
    return {
        "elapsed": time.perf_counter() - start,
        "latencies": latencies,
        "failed": failed,
        "work": work,
    }


def end_to_end(loop: dict, workload_name: str) -> tuple[dict, dict]:
    latencies = loop["latencies"]
    tail, percentile = spans.tail(latencies)
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_full" else resource.RUSAGE_SELF
    return {
        "throughput_per_s": loop["work"] / loop["elapsed"],
        "op_s_p50": spans.median(latencies),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
    }, {
        "op_samples": len(latencies),
        "op_s_tail_percentile": percentile,
        "op_s_tail_samples_beyond": sum(x > tail for x in latencies),
    }


def per_layer(loop: dict, cycle: int, tr: spans.Tracer, probe_values: dict) -> tuple[dict, dict]:
    # overhead from whole cycles, so each side runs the same mix of op kinds
    latencies = loop["latencies"]
    cycles = [sum(latencies[k : k + cycle]) for k in range(0, len(latencies), cycle)]
    on, off = cycles[0::2], cycles[1::2]
    untraced = spans.median(off)
    coverage, covered_base = tr.coverage("op")
    calls = tr.counts.get("analyzer.detect_calls", 0)
    attempted = len(latencies)
    values = dict(probe_values)
    values.update(
        {
            "bench.trace_overhead_ratio": (spans.median(on) - untraced) / untraced,
            "bench.trace_coverage": coverage,
            "analyzer.detect_fit_share": tr.counts.get("analyzer.detect_fits", 0) / calls,
            "analyzer.verdict_correct_ratio": tr.counts.get("analyzer.verdicts_correct", 0) / calls,
            "failed_ratio": loop["failed"] / attempted,
        }
    )
    bases = {
        "trace_overhead_cycles": {"traced": len(on), "untraced": len(off)},
        "trace_coverage_op_s": covered_base,
        "detect_calls": calls,
        "failed_ratio_attempted": attempted,
    }
    return values, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n0", type=int, help="override the workload's and the probe's n0")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(decaylab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"decaylab imported from {decaylab.__file__}, not from the checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tr = spans.Tracer(enabled=False)
    kind = WORKLOADS[args.workload]
    n0 = args.n0 or kind.n0
    workload = kind(args.seed, n0, tr)
    close = getattr(workload, "close", lambda: None)
    print("ready", flush=True)
    if args.setup_only:
        close()
        return 0
    try:
        loop = closed_loop(workload, args.seconds, tr, alternate=bool(args.trace))
    finally:
        close()
    result = {
        "attempted": len(loop["latencies"]),
        "failed": loop["failed"],
        "problems": [],
        "detail": {"numpy": np.__version__, "n0": n0, "work_units": workload.unit},
    }
    if args.trace:
        tr.enabled = True
        probe_values, problems = run_probe(tr, args.seed, args.n0 or N0)
        tr.enabled = False
        result["metrics"], bases = per_layer(loop, workload.cycle, tr, probe_values)
        result["problems"] = problems
        result["detail"]["bases"] = bases
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tr.dump(trace_path)
        result["detail"]["trace_file"] = str(trace_path.relative_to(OUT.parent))
    else:
        result["metrics"], extra = end_to_end(loop, args.workload)
        result["detail"].update(extra)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
