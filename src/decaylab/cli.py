"""Command-line front end: key=value configs in, CSV and JSON artifacts out.

Exit codes: 0 success, 2 I/O failure, 3 domain, solver, data, or config
failure.  Failures print a single machine-readable JSON record to stderr.
Numeric CSV fields carry 17 significant digits, so written values round-trip
exactly and reruns of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .analyzer import (
    MIN_PAIRS_DEFAULT,
    classify,
    detect,
    reconstruct,
)
from .errors import ConfigError, DecayLabError
from .kinetics import (
    conservation_residual,
    evaluate_curve,
    lifetime_report,
)
from .montecarlo import (
    ENTANGLED,
    PRODUCT,
    EventStream,
    Scenario,
    simulate,
)
from .rates import RateSet, Species, derive_rates, lambda_unweighted

__all__ = [
    "STAGES",
    "RunConfig",
    "parse_complex",
    "format_complex",
    "parse_config",
    "write_curve_csv",
    "write_events_csv",
    "run",
    "main",
]

STAGES = ("analytic", "montecarlo", "reconstruction", "detection", "lifetimes")

CURVE_HEADER = "t,n,n_or,n_pa,N_or,N_pa"
EVENTS_HEADER = "pair_id,time,species,side,order"

# entangled rate this many times the free rate triggers a plausibility warning
WARN_RATE_FACTOR = 1e3

# rows formatted and written per file write; bounds the writers' memory
_CHUNK = 8192

# everything of an events.csv row after its time, keyed species * 6 + side * 3
# + order (the montecarlo column codes)
_EVENT_SUFFIXES = np.array(
    [
        f",{species},{side},{order}\n"
        for species in ("or", "pa")
        for side in ("L", "R")
        for order in ("first", "second", "unknown")
    ],
    dtype=object,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation does: scenario, stages, outputs, knobs."""

    scenario: Scenario
    outdir: Path
    emit: frozenset[str]
    lifetime_tol: float | None = None
    detection_threshold: float | None = None
    detection_min_pairs: int = MIN_PAIRS_DEFAULT

    def __post_init__(self) -> None:
        object.__setattr__(self, "outdir", Path(self.outdir))
        emit = frozenset(self.emit)
        if not emit:
            raise ConfigError("emit must name at least one stage")
        unknown = emit - set(STAGES)
        if unknown:
            raise ConfigError(f"unknown emit stages: {sorted(unknown)}")
        object.__setattr__(self, "emit", emit)
        if "reconstruction" in emit and not self.scenario.is_entangled:
            raise ConfigError("reconstruction requires mode=entangled")
        if self.detection_min_pairs < 1:
            raise ConfigError("detection_min_pairs must be >= 1")
        for name in ("lifetime_tol", "detection_threshold"):
            value = getattr(self, name)
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and positive")


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (also accepting j) into a complex number."""
    s = text.strip().replace(" ", "").lower()
    if not s:
        raise ConfigError("empty complex value")
    if "inf" in s or "nan" in s:
        raise ConfigError(f"complex value must be finite, got {text!r}")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ConfigError(f"cannot parse complex value {text!r}") from None


def format_complex(z: complex) -> str:
    """Inverse of parse_complex, shortest digits that round-trip."""
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _parse_bool(value: str, key: str, line_no: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"line {line_no}: {key} must be a boolean, got {value!r}")


def _parse_int(value: str, key: str, line_no: int) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be an integer, got {value!r}") from None


def _parse_float(value: str, key: str, line_no: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"line {line_no}: {key} must be finite")
    return out


_KEYS = frozenset(
    {
        "n0",
        "gamma_or",
        "gamma_pa",
        "w_or",
        "w_pa",
        "mode",
        "t_max",
        "grid_points",
        "seed",
        "parallel",
        "emit",
        "out",
        "lifetime_tol",
        "detection_threshold",
        "detection_min_pairs",
    }
)


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from key=value lines.

    '#' starts a comment, blank lines are skipped, later duplicate keys win.
    Required keys: n0, gamma_or, gamma_pa.  Defaults: W = 0, entangled mode,
    t_max of ten slow-species lifetimes, 512 grid points, seed 0, serial,
    emit analytic and lifetimes, output directory 'out'.
    """
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected key=value, got {line.strip()!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {line_no}: {key} has no value")
        raw[key] = (value, line_no)

    for required in ("n0", "gamma_or", "gamma_pa"):
        if required not in raw:
            raise ConfigError(f"missing required key {required!r}")

    def take(key: str) -> tuple[str, int] | None:
        return raw.get(key)

    n0_text, n0_line = raw["n0"]
    n0 = _parse_int(n0_text, "n0", n0_line)
    if n0 < 1:
        raise ConfigError(f"line {n0_line}: n0 must be >= 1")

    gammas = {}
    for key in ("gamma_or", "gamma_pa"):
        value, line_no = raw[key]
        gamma = _parse_float(value, key, line_no)
        if gamma <= 0.0:
            raise ConfigError(f"line {line_no}: {key} must be > 0")
        gammas[key] = gamma

    ws = {}
    for key in ("w_or", "w_pa"):
        item = take(key)
        ws[key] = parse_complex(item[0]) if item else 0j

    mode, product_species = ENTANGLED, None
    item = take("mode")
    if item:
        value, line_no = item
        lowered = value.lower()
        if lowered == ENTANGLED:
            pass
        elif lowered in (f"{PRODUCT}:or", f"{PRODUCT}:pa"):
            mode = PRODUCT
            product_species = Species(lowered.split(":", 1)[1])
        else:
            raise ConfigError(
                f"line {line_no}: mode must be 'entangled', 'product:or', or 'product:pa'"
            )

    t_max = None
    item = take("t_max")
    if item:
        t_max = _parse_float(item[0], "t_max", item[1])
        if t_max <= 0.0:
            raise ConfigError(f"line {item[1]}: t_max must be > 0")

    grid_points = 512
    item = take("grid_points")
    if item:
        grid_points = _parse_int(item[0], "grid_points", item[1])
        if grid_points < 2:
            raise ConfigError(f"line {item[1]}: grid_points must be >= 2")

    seed = 0
    item = take("seed")
    if item:
        seed = _parse_int(item[0], "seed", item[1])
        if not 0 <= seed < 2**64:
            raise ConfigError(f"line {item[1]}: seed must fit in an unsigned 64-bit integer")

    parallel = False
    item = take("parallel")
    if item:
        parallel = _parse_bool(item[0], "parallel", item[1])

    emit = frozenset(("analytic", "lifetimes"))
    item = take("emit")
    if item:
        names = [name.strip() for name in item[0].split(",") if name.strip()]
        if not names:
            raise ConfigError(f"line {item[1]}: emit must name at least one stage")
        unknown = set(names) - set(STAGES)
        if unknown:
            raise ConfigError(f"line {item[1]}: unknown emit stages {sorted(unknown)}")
        emit = frozenset(names)

    outdir = Path("out")
    item = take("out")
    if item:
        outdir = Path(item[0])

    lifetime_tol = None
    item = take("lifetime_tol")
    if item:
        lifetime_tol = _parse_float(item[0], "lifetime_tol", item[1])
        if lifetime_tol <= 0.0:
            raise ConfigError(f"line {item[1]}: lifetime_tol must be > 0")

    detection_threshold = None
    item = take("detection_threshold")
    if item:
        detection_threshold = _parse_float(item[0], "detection_threshold", item[1])
        if detection_threshold <= 0.0:
            raise ConfigError(f"line {item[1]}: detection_threshold must be > 0")

    detection_min_pairs = MIN_PAIRS_DEFAULT
    item = take("detection_min_pairs")
    if item:
        detection_min_pairs = _parse_int(item[0], "detection_min_pairs", item[1])
        if detection_min_pairs < 1:
            raise ConfigError(f"line {item[1]}: detection_min_pairs must be >= 1")

    try:
        rates = RateSet(
            gamma_or=gammas["gamma_or"],
            gamma_pa=gammas["gamma_pa"],
            w_or=ws["w_or"],
            w_pa=ws["w_pa"],
        )
        scenario = Scenario(
            n0=n0,
            rates=rates,
            mode=mode,
            product_species=product_species,
            t_max=t_max,
            grid_points=grid_points,
            seed=seed,
            parallel=parallel,
        )
    except DecayLabError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        scenario=scenario,
        outdir=outdir,
        emit=emit,
        lifetime_tol=lifetime_tol,
        detection_threshold=detection_threshold,
        detection_min_pairs=detection_min_pairs,
    )


def _write_rows(path: Path, header: str, row_format: str, n: int, cells) -> None:
    """Write a header line, then n rows of row_format, _CHUNK rows per write.

    cells(lo, hi) returns the columns of rows [lo, hi) as lists of Python
    scalars; one % over the repeated row format renders the whole chunk.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            values = tuple(chain.from_iterable(zip(*cells(lo, hi))))
            fh.write(row_format * (hi - lo) % values)


def write_curve_csv(path: Path, curve) -> None:
    columns = (curve.grid, curve.n, curve.n_or, curve.n_pa, curve.N_or, curve.N_pa)
    # "%.17g" % x equals format(x, ".17g") for every float, -0.0 and subnormals
    # included, and integer counts print in full
    specs = ("%d" if col.dtype.kind in "biu" else "%.17g" for col in columns)
    _write_rows(
        path,
        CURVE_HEADER,
        ",".join(specs) + "\n",
        curve.grid.size,
        lambda lo, hi: [col[lo:hi].tolist() for col in columns],
    )


def write_events_csv(path: Path, stream: EventStream) -> None:
    def cells(lo: int, hi: int) -> tuple[list, list, list]:
        key = stream.species[lo:hi] * 6 + stream.side[lo:hi] * 3 + stream.order[lo:hi]
        return (
            stream.pair_id[lo:hi].tolist(),
            stream.time[lo:hi].tolist(),
            _EVENT_SUFFIXES[key].tolist(),
        )

    _write_rows(path, EVENTS_HEADER, "%d,%.17g%s", len(stream), cells)


def _json_float(value: float):
    value = float(value)
    return None if math.isnan(value) else value


def _complex_block(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit_error(exc: BaseException) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def _scenario_block(config: RunConfig) -> dict:
    s = config.scenario
    mode = s.mode if s.is_entangled else f"{s.mode}:{s.product_species.value}"
    return {
        "n0": s.n0,
        "mode": mode,
        "gamma_or": s.rates.gamma_or,
        "gamma_pa": s.rates.gamma_pa,
        "w_or": _complex_block(s.rates.w_or),
        "w_pa": _complex_block(s.rates.w_pa),
        "t_max": s.t_max,
        "grid_points": s.grid_points,
        "seed": s.seed,
        "parallel": s.parallel,
        "emit": sorted(config.emit),
        "out": str(config.outdir),
    }


def _run_stages(config: RunConfig, quiet: bool) -> None:
    scenario = config.scenario
    rates = scenario.rates
    er = derive_rates(rates)
    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)

    def note(message: str) -> None:
        if not quiet:
            print(message)

    summary: dict = {"scenario": _scenario_block(config)}
    summary["rates"] = {
        "gamma_or": rates.gamma_or,
        "gamma_pa": rates.gamma_pa,
        "w_or": _complex_block(rates.w_or),
        "w_pa": _complex_block(rates.w_pa),
        "gamma_t_or": er.gamma_t_or,
        "gamma_t_pa": er.gamma_t_pa,
        "gamma_t": er.gamma_t,
        "lambda": er.lam,
        "lambda_unweighted": lambda_unweighted(rates),
    }
    warnings = []
    for name, free, modified in (
        ("or", rates.gamma_or, er.gamma_t_or),
        ("pa", rates.gamma_pa, er.gamma_t_pa),
    ):
        if modified > WARN_RATE_FACTOR * free:
            warnings.append(
                f"gamma_t_{name} = {modified:g} exceeds {WARN_RATE_FACTOR:g} x "
                f"gamma_{name}; check the W values"
            )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if warnings:
        summary["warnings"] = warnings

    conservation: list[float] = []

    if "analytic" in config.emit:
        curve = evaluate_curve(scenario)
        path = outdir / "analytic.csv"
        write_curve_csv(path, curve)
        conservation.append(conservation_residual(curve, scenario.is_entangled))
        note(f"analytic: {curve.grid.size} grid points -> {path}")

    stream = empirical = None
    if config.emit & {"montecarlo", "reconstruction", "detection"}:
        stream, empirical = simulate(scenario)
        conservation.append(conservation_residual(empirical, scenario.is_entangled))

    if "montecarlo" in config.emit:
        events_path = outdir / "events.csv"
        write_events_csv(events_path, stream)
        curve_path = outdir / "empirical.csv"
        write_curve_csv(curve_path, empirical)
        note(f"montecarlo: {len(stream)} events -> {events_path}")

    if "reconstruction" in config.emit:
        counts = classify(stream, scenario.grid(), scenario.n0)
        recon = reconstruct(counts)
        diff = 0
        for name in ("n", "n_or", "n_pa", "N_or", "N_pa"):
            delta = np.abs(getattr(recon, name) - getattr(empirical, name))
            diff = max(diff, int(delta.max()) if delta.size else 0)
        summary["reconstruction"] = {
            "matches_montecarlo": diff == 0,
            "max_abs_difference": diff,
        }
        note(f"reconstruction: max |difference| = {diff} vs histogram")

    if "detection" in config.emit:
        verdict = detect(
            stream,
            scenario.n0,
            rates,
            threshold=config.detection_threshold,
            min_pairs=config.detection_min_pairs,
        )
        fitted = None
        if verdict.fitted_rates is not None:
            f = verdict.fitted_rates
            fitted = {
                "gamma_t_est": _json_float(f.gamma_t_est),
                "gamma_t_se": _json_float(f.gamma_t_se),
                "n_pairs": f.n_pairs,
                "gamma_or_est": _json_float(f.gamma_or_est),
                "gamma_or_se": _json_float(f.gamma_or_se),
                "n_second_or": f.n_second_or,
                "gamma_pa_est": _json_float(f.gamma_pa_est),
                "gamma_pa_se": _json_float(f.gamma_pa_se),
                "n_second_pa": f.n_second_pa,
            }
        summary["detection"] = {
            "verdict": verdict.verdict.value,
            "statistic": verdict.statistic,
            "threshold": verdict.threshold,
            "reason": verdict.reason,
            "distances": dict(sorted(verdict.distances.items())),
            "fitted_rates": fitted,
        }
        note(
            f"detection: {verdict.verdict.value} "
            f"(statistic {verdict.statistic:.4g}, threshold {verdict.threshold:.4g})"
        )

    if "lifetimes" in config.emit:
        report = lifetime_report(rates, tol=config.lifetime_tol)
        summary["lifetimes"] = {
            "tau_or": report.tau_or,
            "tau_pa": report.tau_pa,
            "tau_tilde_state": report.tau_tilde_state,
            "tau_tilde_or": report.tau_tilde_or,
            "tau_tilde_pa": report.tau_tilde_pa,
            "solver_residual": report.solver_residual,
        }
        note(f"lifetimes: tau_tilde_state = {report.tau_tilde_state:.6g}")

    summary["conservation_max_error"] = max(conservation) if conservation else None
    summary_path = outdir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    note(f"summary -> {summary_path}")


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute a RunConfig; returns the process exit code."""
    try:
        _run_stages(config, quiet)
    except OSError as exc:
        _emit_error(exc)
        return 2
    except DecayLabError as exc:
        _emit_error(exc)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description=(
            "Simulate and analyse the decay of entangled metastable atom pairs "
            "from a key=value config file."
        ),
    )
    parser.add_argument("--config", required=True, metavar="PATH", help="config file")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the RNG seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        _emit_error(exc)
        return 2
    try:
        config = parse_config(text)
        if args.out is not None:
            config = replace(config, outdir=Path(args.out))
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must fit in an unsigned 64-bit integer")
            config = replace(config, scenario=replace(config.scenario, seed=args.seed))
    except DecayLabError as exc:
        _emit_error(exc)
        return 3
    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
