"""Per-layer probe of the traced run: times each public layer call on fixed inputs.

Every call runs inside a span named after its layer metric, outside any op,
so the metric is the median of those spans.  The inputs depend only on the
seed and n0, so the probe reads the same in every workload's traced run.
Failed checks are returned as messages; they make the run incorrect.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np

import spans
from decaylab import (
    EventStream,
    Scenario,
    Species,
    Verdict,
    classify,
    conservation_residual,
    derive_rates,
    erase_identities,
    estimate_rates,
    evaluate_curve,
    histogram,
    lifetime_report,
    pair_substream,
    reconstruct,
    simulate,
)
from decaylab.cli import parse_config, run, write_curve_csv, write_events_csv
from workloads import (
    COLUMNS,
    CURVE_FIELDS,
    OUT,
    RS11,
    CheckFailed,
    check_lifetimes,
    cli_config_text,
    op_seed,
    rate_pool,
    traced_detect,
)

REPS = 5


def _same_events(a: EventStream, b: EventStream) -> bool:
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)


def run_probe(tr: spans.Tracer, seed: int, n0: int) -> tuple[dict[str, float], list[str]]:
    """Time every layer; returns the per-layer metric values and failed checks."""
    failures: list[str] = []
    values: dict[str, float] = {}

    def med(name: str) -> float:
        return spans.median(tr.durations(name))

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    # montecarlo: serial and threaded simulate of one entangled scenario and
    # the parts of simulate, once each per rep, so that other_s and
    # thread_speedup come from calls made close together in time
    scenario = Scenario(n0=n0, rates=RS11, seed=op_seed(seed, 0))
    threaded = replace(scenario, parallel=True)
    grid = scenario.grid()
    for rep in range(REPS):
        stream, curve = tr.call("montecarlo.simulate", simulate, scenario)
        check(
            _same_events(tr.call("montecarlo.simulate_parallel", simulate, threaded)[0], stream),
            "threaded simulate is not bit-identical to serial",
        )
        if rep == 0:
            # rows in the order simulate generates them (all firsts by pair,
            # then all seconds), so this is the very sort simulate runs; a
            # shuffled copy costs several times more
            generated = np.lexsort((stream.pair_id, stream.order))
            unsorted = EventStream(*(getattr(stream, c)[generated] for c in COLUMNS))
        check(
            _same_events(tr.call("montecarlo.sort", unsorted.sorted_by_time), stream),
            "sorted_by_time of the generated rows differs from simulate's order",
        )
        tr.call("montecarlo.histogram", histogram, stream, grid, n0)
        with tr.span("montecarlo.draws"):
            pair_substream(scenario.seed, 0).random(4 * n0)
    serial, parallel, sort, hist, draws = (
        tr.durations(f"montecarlo.{name}")
        for name in ("simulate", "simulate_parallel", "sort", "histogram", "draws")
    )
    values["montecarlo.simulate_s"] = spans.median(serial)
    values["montecarlo.sort_s"] = spans.median(sort)
    values["montecarlo.histogram_s"] = spans.median(hist)
    values["montecarlo.draws_s"] = spans.median(draws)
    values["montecarlo.other_s"] = spans.median(
        [s - a - b - c for s, a, b, c in zip(serial, sort, hist, draws)]
    )
    values["montecarlo.thread_speedup"] = spans.median([s / p for s, p in zip(serial, parallel)])
    values["montecarlo.events"] = len(stream)
    values["montecarlo.stream_mb"] = sum(getattr(stream, c).nbytes for c in COLUMNS) / 1e6

    # analyzer: on the entangled stream, its erased copy and a product stream
    product, _ = simulate(
        Scenario(
            n0=n0, rates=RS11, mode="product", product_species=Species.OR, seed=op_seed(seed, 1)
        )
    )
    for _ in range(REPS):
        counts = tr.call("analyzer.classify", classify, stream, grid, n0)
        recon = tr.call("analyzer.reconstruct", reconstruct, counts)
        check(
            all(np.array_equal(getattr(recon, f), getattr(curve, f)) for f in CURVE_FIELDS),
            "reconstruction differs from the histogram",
        )
        tr.call("analyzer.estimate_rates", estimate_rates, stream, n0)
        erased = tr.call("analyzer.erase_identities", erase_identities, stream)
        for name, source, want in (
            ("analyzer.detect_entangled", stream, Verdict.ENTANGLED),
            ("analyzer.detect_product", product, Verdict.PRODUCT),
            ("analyzer.detect_erased", erased, Verdict.ENTANGLED),
        ):
            got = traced_detect(tr, name, source, n0, RS11, want).verdict
            check(got is want, f"{name}: verdict {got.value}, expected {want.value}")
    for name in (
        "classify",
        "reconstruct",
        "estimate_rates",
        "erase_identities",
        "detect_entangled",
        "detect_product",
        "detect_erased",
    ):
        values[f"analyzer.{name}_s"] = med(f"analyzer.{name}")

    # cli: start-up, config parsing, both CSV writers and one in-process run
    workdir = OUT / f"probe-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for _ in range(REPS):
            with tr.span("cli.startup"):
                code = subprocess.run([sys.executable, "-c", "import decaylab.cli"]).returncode
            check(code == 0, f"import decaylab.cli exited {code}")
        text = cli_config_text(seed, n0)
        for _ in range(100):
            config = tr.call("cli.parse_config", parse_config, text)
        for _ in range(REPS):
            tr.call("cli.write_curve_csv", write_curve_csv, workdir / "empirical.csv", curve)
        events_path = workdir / "events.csv"
        tr.call("cli.write_events_csv", write_events_csv, events_path, stream)
        events_mb = events_path.stat().st_size / 1e6
        events_path.unlink()
        config = replace(config, outdir=workdir / "run")
        code = tr.call("cli.run", run, config, quiet=True)
        check(code == 0, f"in-process run returned {code}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in ("run", "startup", "parse_config", "write_curve_csv", "write_events_csv"):
        values[f"cli.{name}_s"] = med(f"cli.{name}")
    values["cli.events_csv_mb"] = events_mb
    values["cli.events_csv_mb_per_s"] = events_mb / values["cli.write_events_csv_s"]

    # kinetics and rates: seeded rate sets, degenerate and switched-off ones too
    residual_max = 0.0
    for rates, kind in rate_pool(np.random.default_rng([seed, 4]), 64):
        tr.call("rates.derive_rates", derive_rates, rates)
        name = "kinetics.lifetime_report" + ("_degenerate" if kind == "degenerate" else "")
        report = tr.call(name, lifetime_report, rates)
        residual_max = max(residual_max, report.solver_residual)
        try:
            check_lifetimes(rates, report)
        except CheckFailed as exc:
            failures.append(str(exc))
        sc = Scenario(n0=n0, rates=rates)
        curve = tr.call("kinetics.evaluate_curve", evaluate_curve, sc)
        tr.call("kinetics.conservation_residual", conservation_residual, curve, True)
    for name in (
        "lifetime_report",
        "lifetime_report_degenerate",
        "evaluate_curve",
        "conservation_residual",
    ):
        values[f"kinetics.{name}_s"] = med(f"kinetics.{name}")
    values["kinetics.solver_residual_max"] = residual_max
    values["rates.derive_rates_s"] = med("rates.derive_rates")
    return values, failures
