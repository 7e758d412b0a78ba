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
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from itertools import product
from pathlib import Path

import numpy as np

from ._rules import _instance, _integer, _quote, _real
from .analyzer import (
    MIN_PAIRS_DEFAULT,
    classify,
    detect,
    reconstruct,
)
from .errors import ConfigError, DecayLabError, DomainError
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

# The writers lay a chunk of rows out as a matrix of cells in 8-byte words, a
# block of words per column whose last cell holds the "," or "\n" after it;
# dropping the zero cells leaves the rows' bytes.  A float block is 20 (digit,
# ".") pairs, "000" and 17 digits, for 1e-3 <= v < 1e16, an int block 16
# digits for 0 <= v < 10**16; other values take Python's '%.17g' or '%d'.
_DIGITS = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).astype(np.uint8, order="C")
_PAIRS = np.insert(_DIGITS, [1, 2, 3, 4], ord("."), axis=1).view(np.uint64).ravel()
_ZEROS = np.zeros(10_000, np.int8)  # trailing zeros of 0000..9999
for _zero in _DIGITS.T == 48:
    _ZEROS = _zero * (_ZEROS + 1)
_POW10 = 10 ** np.arange(1, 16)
# the smallest double >= 10**j, j = -3..16 (each parsed 1e-j lies above 10**-j)
_LOWS = np.array([float(f"1e{j}") for j in range(-3, 17)])
# 5**q < 2**47 for q <= 19, and its Veltkamp split into 26-bit halves
_POW5 = np.array([float(5**q) for q in range(20)])
_POW5_HI = _POW5 * 134217729.0 - (_POW5 * 134217729.0 - _POW5)
_POW5_LO = _POW5 - _POW5_HI
# an events.csv row's labels, keyed species * 6 + side * 3 + order (the
# montecarlo column codes)
_LABELS = np.array(
    [",".join(label) for label in product(("or", "pa"), "LR", ("first", "second", "unknown"))],
    "S16",
).view(np.uint64).reshape(-1, 2)


def _masks() -> tuple[np.ndarray, np.ndarray]:
    """Masks of the kept cells of a float block, row (k + 3) * 18 + kept for
    10**k <= v < 10**(k + 1) with kept digits left once trailing zeros go,
    and of an int block's digits, row k for k + 1 digits."""
    k = np.arange(-3, 17)[:, None, None]
    kept = np.maximum(np.arange(18)[:, None], k + 1)  # integer digits stay
    i, point = np.divmod(np.arange(40), 2)  # cell 2i holds digit i, 2i + 1 a "."
    digits = (i >= 3 + np.minimum(k, 0)) & (i < 3 + kept)
    floats = np.where(point, (i == 3 + k) & (kept > k + 1), digits).reshape(-1, 40)
    ints = np.arange(16) >= np.arange(15, -1, -1)[:, None]
    return tuple((m * np.uint8(255)).view(np.uint64) for m in (floats, ints))


_FLOAT_MASK, _INT_MASK = _masks()


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation does: scenario, stages, outputs, knobs.

    Each check names the field it failed first, as RateSet's and Scenario's
    do, so parse_config can point the error at the line that set the field.
    """

    scenario: Scenario
    outdir: Path = Path("out")
    emit: frozenset[str] = frozenset(("analytic", "lifetimes"))
    detection_threshold: float | None = None
    detection_min_pairs: int = MIN_PAIRS_DEFAULT

    def __post_init__(self) -> None:
        try:
            _instance(self.scenario, Scenario, "scenario")
            object.__setattr__(self, "outdir", Path(_instance(self.outdir, (str, os.PathLike), "outdir")))
            try:
                emit = frozenset(self.emit)
            except TypeError:  # not iterable, or holding unhashable items
                emit = None
            if isinstance(self.emit, str) or emit is None or not all(isinstance(e, str) for e in emit):
                raise ConfigError(f"emit must be a collection of stage names, got {_quote(self.emit)}")
            if not emit:
                raise ConfigError("emit must name at least one stage")
            unknown = emit - set(STAGES)
            if unknown:
                raise ConfigError(f"emit names unknown stages: {sorted(unknown)}")
            object.__setattr__(self, "emit", emit)
            if "reconstruction" in emit and not self.scenario.is_entangled:
                raise ConfigError("emit includes reconstruction, which requires mode=entangled")
            pairs = _integer(self.detection_min_pairs, "detection_min_pairs", least=1)
            object.__setattr__(self, "detection_min_pairs", pairs)
            if self.detection_threshold is not None:
                threshold = _real(self.detection_threshold, "detection_threshold")
                object.__setattr__(self, "detection_threshold", threshold)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (also accepting j) into a complex number."""
    s = text.strip().replace(" ", "").lower()
    if not s:
        raise ConfigError("empty complex value")
    if "inf" in s or "nan" in s:  # the words; the i -> j swap below would garble "inf"
        raise ConfigError(f"complex value must be finite, got {text!r}")
    try:
        number = complex(s.replace("i", "j"))
    except ValueError:
        raise ConfigError(f"cannot parse complex value {text!r}") from None
    if not (math.isfinite(number.real) and math.isfinite(number.imag)):  # 1e400 rounds to inf
        raise ConfigError(f"complex value must be finite, got {text!r}")
    return number


def format_complex(z: complex) -> str:
    """Inverse of parse_complex, shortest digits that round-trip."""
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _parse_mode(text: str) -> tuple[str, Species | None]:
    """(mode, product_species) of 'entangled', 'product:or' or 'product:pa'."""
    lowered = text.lower()
    if lowered == ENTANGLED:
        return ENTANGLED, None
    if lowered in (f"{PRODUCT}:or", f"{PRODUCT}:pa"):
        return PRODUCT, Species(lowered.split(":", 1)[1])
    raise ValueError(text)


def _parse_emit(text: str) -> frozenset[str]:
    return frozenset(name.strip() for name in text.split(",") if name.strip())


# key -> (parser from text, what the parser accepts, owner of the value).  The
# parsers only read text; every range rule lives in the owner's __post_init__.
_KEYS = {
    "n0": (_parse_int, "an integer", Scenario),
    "gamma_or": (float, "a number", RateSet),
    "gamma_pa": (float, "a number", RateSet),
    "w_or": (parse_complex, "a finite complex number a+bi", RateSet),
    "w_pa": (parse_complex, "a finite complex number a+bi", RateSet),
    "mode": (_parse_mode, "'entangled', 'product:or', or 'product:pa'", Scenario),
    "t_max": (float, "a number", Scenario),
    "grid_points": (_parse_int, "an integer", Scenario),
    "seed": (_parse_int, "an integer", Scenario),
    "parallel": (_parse_bool, "a boolean", Scenario),
    "emit": (_parse_emit, "a comma-separated list of stages", RunConfig),
    "out": (Path, "a path", RunConfig),
    "detection_threshold": (float, "a number", RunConfig),
    "detection_min_pairs": (_parse_int, "an integer", RunConfig),
}


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from key=value lines.

    '#' starts a comment, blank lines are skipped, later duplicate keys win.
    Required keys: n0, gamma_or, gamma_pa.  Defaults: W = 0, entangled mode,
    t_max of ten slow-species lifetimes, 512 grid points, seed 0, serial,
    emit analytic and lifetimes, output directory 'out'.  An error about a
    key's value starts with the number of the line that set it.
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

    fields: dict[type, dict] = {RateSet: {}, Scenario: {}, RunConfig: {}}
    for key, (value, line_no) in raw.items():
        parse, accepts, owner = _KEYS[key]
        try:
            fields[owner][key] = parse(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} must be {accepts}, got {value!r}") from None
    scenario = fields[Scenario]
    if "mode" in scenario:
        scenario["mode"], scenario["product_species"] = scenario["mode"]
    run = fields[RunConfig]
    if "out" in run:
        run["outdir"] = run.pop("out")

    try:
        return RunConfig(Scenario(rates=RateSet(**fields[RateSet]), **scenario), **run)
    except DecayLabError as exc:
        # the owners' messages start with the name of the field they reject
        message = str(exc)
        key = message.split(" ", 1)[0]
        if key in raw:
            message = f"line {raw[key][1]}: {message}"
        raise ConfigError(message) from exc


def _spill(text: np.ndarray, outside: np.ndarray, values, fmt: bytes) -> None:
    """fmt % v by Python for each value outside the tables' range, written
    into its words zero-padded (no field reaches a block's separator cell)."""
    rows = np.flatnonzero(outside)
    if rows.size:
        fields = [fmt % value for value in values[rows].tolist()]
        words = text.shape[-1]
        text[rows] = np.array(fields, f"S{8 * words}").view(np.uint64).reshape(-1, words)


def _groups(n: np.ndarray, count: int) -> np.ndarray:
    """The count base-10**4 digits of n, leading first."""
    groups = np.empty(n.shape + (count,), np.int64)
    for i in range(count - 1, 0, -1):
        high = n // 10**4
        np.subtract(n, high * 10**4, out=groups[..., i])
        n = high
    groups[..., 0] = n
    return groups


def _float_cells(x: np.ndarray, text: np.ndarray) -> None:
    """'%.17g' % v of each v in x, in integer arithmetic for 1e-3 <= v < 1e16."""
    x = np.asarray(x, dtype=np.float64)  # '%.17g' formats any float as a double
    inside = (x >= _LOWS[0]) & (x < 1e16)
    v = np.where(inside, x, 1.0)
    k = _LOWS.searchsorted(v, "right") - 4  # 10**k <= v < 10**(k + 1)
    q = 16 - k
    mant, e = np.frexp(v)
    # v * 10**q, of 17 integer digits, is (p + err) * 2**s: Dekker's exact
    # two-product of the 53-bit mantissa and 5**q, scaled so p * 2**s >= 2**53
    m = mant * 2.0**53
    split = m * 134217729.0
    m_hi = split - (split - m)
    m_lo = m - m_hi
    f_hi, f_lo = _POW5_HI[q], _POW5_LO[q]
    p = m * _POW5[q]
    err = ((m_hi * f_hi - p) + m_hi * f_lo + m_lo * f_hi) + m_lo * f_lo
    s = e + q - 53
    err = np.ldexp(err, s)
    whole = np.floor(err)
    n = np.ldexp(p, s).astype(np.int64) + whole.astype(np.int64)
    err -= whole
    # half to even, as dtoa; doubles are too sparse for n to reach 10**17
    n += (err > 0.5) | ((err == 0.5) & (n & 1 == 1))
    groups = _groups(n, 5)
    z = _ZEROS[np.moveaxis(groups, -1, 0)]
    kept = 17 - (z[4] + (z[4] == 4) * (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * z[1])))
    np.bitwise_and(_PAIRS[groups], _FLOAT_MASK.take((k + 3) * 18 + kept, axis=0), out=text)
    _spill(text, ~inside, x, b"%.17g")


def _int_cells(x: np.ndarray, text: np.ndarray) -> None:
    """'%d' % v of each v in x, by table for 0 <= v < 10**16."""
    inside = (x >= 0) & (x < 10**16)
    v = np.where(inside, x, 0).astype(np.int64)
    mask = _INT_MASK.take(_POW10.searchsorted(v, "right"), axis=0)
    groups = _groups(v, 4)
    np.bitwise_and(_DIGITS.view(np.uint32)[groups, 0].view(np.uint64), mask, out=text[..., :2])
    text[..., 2] = 0  # room for a 20-character '%d'
    _spill(text, ~inside, x, b"%d")


def _label_cells(key: np.ndarray, text: np.ndarray) -> None:
    text[:] = _LABELS.take(key, axis=0)


def _write_rows(path: Path, header: str, columns) -> None:
    """Write a header line, then a row per element of the columns, _CHUNK
    rows per write.  columns are (cells, words, values); cells(v, text)
    fills a chunk's words of v."""
    n = len(columns[0][2])
    chunk = max(1, min(_CHUNK, n))
    bounds = np.cumsum([0] + [words for _, words, _ in columns])
    ends = 8 * bounds[1:] - 1  # each value's last cell holds the "," or "\n" after it
    text = np.zeros((chunk, bounds[-1]), np.uint64)
    raw = text.view(np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, chunk):
            m = min(chunk, n - lo)
            for (fill, _, values), start, stop in zip(columns, bounds, bounds[1:]):
                fill(values[lo : lo + m], text[:m, start:stop])
            raw[:m, ends] = ord(",")
            raw[:m, -1] = ord("\n")
            fh.write(raw[:m].tobytes().translate(None, b"\0"))  # drop the zero padding


def write_curve_csv(path: Path, curve) -> None:
    columns = (curve.grid, curve.n, curve.n_or, curve.n_pa, curve.N_or, curve.N_pa)
    # integer counts print in full, as "%d" would
    blocks = [(_int_cells, 3, c) if c.dtype.kind in "biu" else (_float_cells, 5, c) for c in columns]
    _write_rows(path, CURVE_HEADER, blocks)


def write_events_csv(path: Path, stream: EventStream) -> None:
    key = stream.species * 6 + stream.side * 3 + stream.order
    columns = [(_int_cells, 3, stream.pair_id), (_float_cells, 5, stream.time)]
    _write_rows(path, EVENTS_HEADER, columns + [(_label_cells, 2, key)])


def _emit_error(exc: BaseException) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def _json(value):
    """value as JSON data: a dataclass as a dict of its fields (those declared
    repr=False left out), a dict value by value, a complex as {re, im}, an
    Enum as its value, a NaN float as null."""
    if is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in fields(value) if f.repr}
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _scenario_block(config: RunConfig) -> dict:
    block = _json(config.scenario)
    block |= block.pop("rates")
    species = block.pop("product_species")
    if species is not None:
        block["mode"] += f":{species}"
    return block | {"emit": sorted(config.emit), "out": str(config.outdir)}


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
    summary["rates"] = _json(rates) | _json(er)
    summary["rates"]["lambda"] = summary["rates"].pop("lam")
    summary["rates"]["lambda_unweighted"] = lambda_unweighted(rates)
    warnings = []
    for h in Species:
        modified = er.species_rate(h)
        if modified > WARN_RATE_FACTOR * rates.gamma(h):
            warnings.append(
                f"gamma_t_{h.value} = {modified:g} exceeds {WARN_RATE_FACTOR:g} x "
                f"gamma_{h.value}; check the W values"
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
        del curve  # each curve is freed after its stage (_PEAK_BYTES_PER_POINT)

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
            diff = max(diff, int(delta.max()))
        del counts, recon, delta
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
        summary["detection"] = _json(verdict) | {"fitted_rates": _json(verdict.fitted_rates)}
        note(
            f"detection: {verdict.verdict.value} "
            f"(statistic {verdict.statistic:.4g}, threshold {verdict.threshold:.4g})"
        )

    if "lifetimes" in config.emit:
        report = lifetime_report(rates)
        summary["lifetimes"] = _json(report)
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
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if args.out is not None:
            config = replace(config, outdir=Path(args.out))
        if args.seed is not None:
            config = replace(config, scenario=replace(config.scenario, seed=args.seed))
    except OSError as exc:
        _emit_error(exc)
        return 2
    except (DecayLabError, UnicodeDecodeError) as exc:
        # Scenario rejects a bad --seed with a DomainError, and bytes that are
        # not UTF-8 are no config text: both are config errors
        _emit_error(ConfigError(str(exc)))
        return 3
    return run(config, quiet=args.quiet)
