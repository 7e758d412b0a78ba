"""The three closed-loop workloads of the decaylab benchmark.

Each workload builds its inputs from the workload seed in its constructor
(the set-up), and exposes ``op(i)``, which makes the i-th op's layer calls and
returns (work units, payload), and ``check(i, payload)``, which raises
CheckFailed when the op's output is wrong.  ``cycle`` is the number of ops
after which the op kinds repeat.  The library only ever sees the generated
scenarios, streams and config files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans
from decaylab import (
    DEGENERATE_EPS,
    EventStream,
    RateSet,
    Scenario,
    Species,
    Verdict,
    classify,
    derive_rates,
    detect,
    erase_identities,
    estimate_rates,
    reconstruct,
    simulate,
    species_survival_fraction,
)
from decaylab.cli import format_complex

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
N0 = 1_000_000  # pairs per scenario, as in acceptance criterion 8

RS11 = RateSet(1.0, 1.0)
CURVE_FIELDS = ("n", "n_or", "n_pa", "N_or", "N_pa")
COLUMNS = ("pair_id", "time", "species", "side", "order")
STAGES = "analytic, montecarlo, reconstruction, detection, lifetimes"


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def op_seed(seed: int, i: int) -> int:
    """Philox key of the i-th scenario of a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def disc(rng: np.random.Generator, radius: float) -> complex:
    """A point drawn uniformly from the disc |W| <= radius."""
    r = radius * math.sqrt(rng.random())
    phase = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(phase), r * math.sin(phase))


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def moderate_rates(rng: np.random.Generator) -> RateSet:
    """Free rates within a factor two of 1 and W != 0 in the disc |W| <= 0.3."""
    return RateSet(
        log_uniform(rng, 0.5, 2.0),
        log_uniform(rng, 0.5, 2.0),
        w_or=disc(rng, 0.3),
        w_pa=disc(rng, 0.3),
    )


def rate_pool(rng: np.random.Generator, count: int) -> list[tuple[RateSet, str]]:
    """Rate sets for the closed forms: one in eight exactly degenerate
    (gamma_t == gamma_h), one in eight with a channel switched off (W = -1),
    the rest generic.  Free rates are log-uniform in [0.1, 10], |W| <= 0.9."""
    pool = []
    for i in range(count):
        g_or, g_pa = log_uniform(rng, 0.1, 10.0), log_uniform(rng, 0.1, 10.0)
        if i % 8 == 0:
            pool.append((_degenerate(rng), "degenerate"))
        elif i % 8 == 4:
            off, other = -1.0 + 0j, disc(rng, 0.9)
            w = (off, other) if rng.random() < 0.5 else (other, off)
            pool.append((RateSet(g_or, g_pa, *w), "switched_off"))
        else:
            pool.append((RateSet(g_or, g_pa, disc(rng, 0.9), disc(rng, 0.9)), "generic"))
    return pool


def _degenerate(rng: np.random.Generator) -> RateSet:
    # gamma_t = gamma_h |1 + W_H|^2 + gamma_H |1 + W_h|^2 equals gamma_h when
    # |1 + W_H|^2 = 1 - (gamma_H / gamma_h) |1 + W_h|^2; W_H is then real
    while True:
        g_h, g_other = log_uniform(rng, 0.1, 10.0), log_uniform(rng, 0.1, 10.0)
        w_h = disc(rng, 0.9)
        a = 1.0 - g_other / g_h * abs(1.0 + w_h) ** 2
        if a >= 0.01:
            break
    w_other = complex(math.sqrt(a) - 1.0)
    if rng.random() < 0.5:
        rates, h = RateSet(g_h, g_other, w_or=w_h, w_pa=w_other), Species.OR
    else:
        rates, h = RateSet(g_other, g_h, w_or=w_other, w_pa=w_h), Species.PA
    gamma_t = derive_rates(rates).gamma_t
    if abs(gamma_t - rates.gamma(h)) >= DEGENERATE_EPS * gamma_t:
        raise RuntimeError("degenerate rate set missed the confluent branch")
    return rates


def cli_config_text(seed: int, n0: int) -> str:
    """All-stages, threaded CLI config of an entangled preparation."""
    rates = moderate_rates(np.random.default_rng([seed, 1]))
    return (
        f"n0 = {n0}\n"
        f"gamma_or = {rates.gamma_or!r}\n"
        f"gamma_pa = {rates.gamma_pa!r}\n"
        f"w_or = {format_complex(rates.w_or)}\n"
        f"w_pa = {format_complex(rates.w_pa)}\n"
        f"seed = {op_seed(seed, 0)}\n"
        "parallel = true\n"
        f"emit = {STAGES}\n"
    )


def traced_detect(tr: spans.Tracer, name: str, source, n0: int, rates, expected: Verdict):
    """detect() inside a span, counting calls, returned fits and right verdicts."""
    verdict = tr.call(name, detect, source, n0, rates)
    tr.count("analyzer.detect_calls")
    # read the field without triggering a fit that a lazy result might compute
    if vars(verdict).get("fitted_rates") is not None:
        tr.count("analyzer.detect_fits")
    if verdict.verdict is expected:
        tr.count("analyzer.verdicts_correct")
    return verdict


def expect_verdict(got: Verdict, want: Verdict, what: str) -> None:
    if got is not want:
        raise CheckFailed(f"{what}: verdict {got.value}, expected {want.value}")


class DetectSweep:
    """simulate + detect of one n0-pair scenario per op, serial.

    Ops cycle entangled (RS11, then a W != 0 set), product:or, entangled,
    product:pa; each verdict is checked against the preparation.  A product
    op costs about a third of an entangled one, so with entangled ops in the
    majority the latency percentiles fall inside one mode."""

    unit = "pairs"
    n0 = N0

    def __init__(self, seed: int, n0: int, tr: spans.Tracer):
        self.seed, self.n0, self.tr = seed, n0, tr
        rates_w = moderate_rates(np.random.default_rng([seed, 1]))
        self.kinds = [
            (RS11, None),
            (rates_w, None),
            (RS11, Species.OR),
            (RS11, None),
            (rates_w, Species.PA),
        ]
        self.cycle = len(self.kinds)
        # warm-up: one small op of each kind
        for i in range(self.cycle):
            self._op(i, min(n0, 10_000))

    def op(self, i: int):
        return self._op(i, self.n0)

    def _op(self, i: int, n0: int):
        rates, species = self.kinds[i % self.cycle]
        scenario = Scenario(
            n0=n0,
            rates=rates,
            mode="product" if species else "entangled",
            product_species=species,
            seed=op_seed(self.seed, i),
        )
        stream, _ = self.tr.call("montecarlo.simulate", simulate, scenario)
        expected = Verdict.PRODUCT if species else Verdict.ENTANGLED
        verdict = traced_detect(self.tr, "analyzer.detect", stream, n0, rates, expected)
        return n0, (len(stream), verdict.verdict, expected, n0 * (1 if species else 2))

    def check(self, i: int, payload) -> None:
        rows, got, want, expected_rows = payload
        if rows != expected_rows:
            raise CheckFailed(f"{rows} events, expected {expected_rows}")
        expect_verdict(got, want, f"op {i}")


class StreamAnalysis:
    """Analyzer-only ops on a pool of recorded n0-pair streams.

    The pool holds one entangled stream in time order, the same stream in
    side order (all L rows, then all R rows, each side sorted by time, as
    two per-side detectors record it) and one product stream.  No op runs
    the simulator."""

    unit = "pairs"
    n0 = N0

    def __init__(self, seed: int, n0: int, tr: spans.Tracer):
        self.n0, self.tr = n0, tr
        rng = np.random.default_rng([seed, 1])
        self.rates = moderate_rates(rng)
        entangled = Scenario(n0=n0, rates=self.rates, seed=op_seed(seed, 0))
        self.grid = entangled.grid()
        stream, self.curve = simulate(entangled)
        by_side = np.lexsort((stream.time, stream.side))
        side_ordered = EventStream(*(getattr(stream, c)[by_side] for c in COLUMNS))
        species = Species.OR if rng.random() < 0.5 else Species.PA
        product, _ = simulate(
            Scenario(
                n0=n0,
                rates=self.rates,
                mode="product",
                product_species=species,
                seed=op_seed(seed, 1),
            )
        )
        self.pool = [stream, side_ordered, product]
        self.gamma_t = [derive_rates(self.rates).gamma_t] * 2 + [self.rates.gamma(species)]
        self.cycle = len(self.pool)

    def op(self, i: int):
        tr, n0 = self.tr, self.n0
        k = i % self.cycle
        stream = self.pool[k]
        recon = None
        want = Verdict.ENTANGLED
        if k < 2:
            counts = tr.call("analyzer.classify", classify, stream, self.grid, n0)
            recon = tr.call("analyzer.reconstruct", reconstruct, counts)
        else:
            want = Verdict.PRODUCT
        est = tr.call("analyzer.estimate_rates", estimate_rates, stream, n0)
        direct = traced_detect(tr, "analyzer.detect", stream, n0, self.rates, want)
        erased = tr.call("analyzer.erase_identities", erase_identities, stream)
        blind = traced_detect(tr, "analyzer.detect", erased, n0, self.rates, want)
        return n0, (k, recon, est, direct.verdict, blind.verdict, want)

    def check(self, i: int, payload) -> None:
        k, recon, est, direct, blind, want = payload
        if recon is not None:
            for name in CURVE_FIELDS:
                if not np.array_equal(getattr(recon, name), getattr(self.curve, name)):
                    raise CheckFailed(f"reconstructed {name} differs from the histogram")
        truth = self.gamma_t[k]
        if not abs(est.gamma_t_est - truth) <= 5.0 * est.gamma_t_se:
            raise CheckFailed(
                f"gamma_t estimate {est.gamma_t_est} +- {est.gamma_t_se} misses {truth}"
            )
        expect_verdict(direct, want, f"stream {k}")
        expect_verdict(blind, want, f"erased stream {k}")


def check_lifetimes(rates: RateSet, report) -> None:
    """solver_residual <= 1e-9, and survival - 1/e changes sign across
    tau (1 +- 1e-9) at both species lifetimes."""
    if not report.solver_residual <= 1e-9:
        raise CheckFailed(f"solver_residual {report.solver_residual}")
    er = derive_rates(rates)
    target = math.exp(-1.0)
    for h, tau in ((Species.OR, report.tau_tilde_or), (Species.PA, report.tau_tilde_pa)):
        before = float(species_survival_fraction(tau * (1 - 1e-9), h, rates, er)) - target
        after = float(species_survival_fraction(tau * (1 + 1e-9), h, rates, er)) - target
        if not before > 0.0 > after:
            raise CheckFailed(f"{h.value} survival does not cross 1/e at tau = {tau!r}")


class CliFull:
    """One ``python -m decaylab --config ... --quiet`` subprocess per op.

    All five stages, threaded simulate, output into a fresh directory.  Every
    op of a run uses the same config, so events.csv and summary.json must be
    byte-identical across ops.  At 1e5 pairs an op takes about a second, so
    a run holds over twenty ops and its tail percentile lies above the
    median; at 1e6 a run held two or three."""

    unit = "pairs"
    n0 = 100_000
    cycle = 1

    def __init__(self, seed: int, n0: int, tr: spans.Tracer):
        self.n0, self.tr = n0, tr
        self.dir = OUT / f"cli_full-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text(cli_config_text(seed, n0))
        self.out = self.dir / "out"
        self.reference: tuple[bytes, bytes] | None = None

    def op(self, i: int):
        # PYTHONPATH and DECAYLAB_THREADS come from this process's environment
        command = [sys.executable, "-m", "decaylab", "--config", str(self.config)]
        command += ["--out", str(self.out), "--quiet"]
        with self.tr.span("cli.main"):
            proc = subprocess.run(command, stdout=subprocess.DEVNULL)
        return self.n0, proc.returncode

    def check(self, i: int, returncode: int) -> None:
        try:
            if returncode != 0:
                raise CheckFailed(f"exit code {returncode}")
            events = (self.out / "events.csv").read_bytes()
            summary_bytes = (self.out / "summary.json").read_bytes()
            rows = events.count(b"\n") - 1
            if rows != 2 * self.n0:
                raise CheckFailed(f"events.csv has {rows} rows, expected {2 * self.n0}")
            digest = (hashlib.blake2b(events).digest(), summary_bytes)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                raise CheckFailed("events.csv or summary.json differs from the first op")
            summary = json.loads(summary_bytes)
            if summary["reconstruction"]["matches_montecarlo"] is not True:
                raise CheckFailed("reconstruction does not match the histogram")
            if summary["detection"]["verdict"] != Verdict.ENTANGLED.value:
                raise CheckFailed(f"verdict {summary['detection']['verdict']}")
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
