"""decaylab benchmark: runs one workload and prints its metrics as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout that holds src/decaylab and
BENCHMARK.json; nothing needs to be installed.  Workloads, metrics and units
are those of BENCHMARK.json, and a run fails unless it measured exactly
those.  With --trace 0 the last line carries the end-to-end metrics, with
--trace 1 the per-layer ones, and the line before it the detail: sample
counts, bases of ratios, the environment and any failed check.

Every workload runs in fresh processes of its own (child.py), so its peak
RSS is its own.  An untraced run starts SETUPS of them one after another:
the middle one goes on to the timed loop, the others exit once their set-up
is done, and setup_s is the median time from process start to ``ready``.
--smoke runs every workload once per trace mode at n0 = 5000 through the
command in BENCHMARK.json and checks that every metric is printed with its
unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SMOKE_N0 = 5_000
SETUPS = 5
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def environment(threads: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "decaylab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "DECAYLAB_THREADS": threads,
        "machine": platform.machine(),
    }


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a workload process; returns seconds until it printed ``ready``
    and the rest of its output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *argv], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process timed out: {argv}") from None
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"workload process exited {proc.returncode}: {argv}")
    return ready, rest


def run_workload(spec: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    deadline = time.perf_counter() + TIMEOUT_S
    threads = min(2, len(os.sched_getaffinity(0)))
    env = dict(os.environ, DECAYLAB_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--trace", str(args.trace)]
    if args.n0:
        argv += ["--n0", str(args.n0)]
    # set-ups are spread before and after the timed run, so that their median
    # does not hang on one stretch of a host whose speed drifts
    extra = 0 if args.trace else SETUPS - 1
    setups = [spawn(argv + ["--setup-only"], env, deadline)[0] for _ in range(extra // 2)]
    ready, out = spawn(argv, env, deadline)
    setups.append(ready)
    setups += [spawn(argv + ["--setup-only"], env, deadline)[0] for _ in range(extra - extra // 2)]
    result = json.loads(out.strip().splitlines()[-1])

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        raise BenchError(
            f"measured {sorted(values)} but BENCHMARK.json declares {sorted(declared)}"
        )
    final = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(threads),
        "setup_s_samples": setups,
        "problems": result["problems"],
        **result["detail"],
    }
    return final, detail


def smoke(spec: dict) -> int:
    """Run the benchmark command on every workload and trace mode at a tiny n0."""
    targets = json.loads((Path(__file__).resolve().parent / "layer_targets.json").read_text())
    if set(targets) != {m["name"] for m in spec["per_layer"]}:
        raise BenchError("layer_targets.json and the per_layer metrics differ")
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            command = spec["command"] + ["--workload", workload["name"], "--seed", "1"]
            command += ["--seconds", "1", "--trace", str(trace), "--n0", str(SMOKE_N0)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise BenchError(f"{label}: exit code {proc.returncode}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                raise BenchError(f"{label}: result keys {sorted(last)}")
            if not (last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1):
                print(proc.stderr, file=sys.stderr)
                raise BenchError(f"{label}: incorrect result {last}")
            for metric in spec[group]:
                printed = last["metrics"].get(metric["name"])
                if printed is None or printed.get("unit") != metric["unit"]:
                    raise BenchError(f"{label}: {metric['name']} not printed with its unit")
                if not isinstance(printed.get("value"), (int, float)):
                    raise BenchError(f"{label}: {metric['name']} has no numeric value")
            print(f"smoke ok: {label}, {len(spec[group])} metrics")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n0", type=int, help="pairs per scenario (for smoke runs)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "decaylab" / "__init__.py").is_file():
        print(f"no decaylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            parser.error("--workload is required")
        final, detail = run_workload(spec, args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
