"""Tests for the config parser, CSV writers, and command-line entry point."""

import csv
import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaylab.cli as cli
from decaylab import (
    ConfigError,
    EventStream,
    PopulationCurve,
    RateSet,
    Scenario,
    erase_identities,
    simulate,
)
from decaylab.cli import (
    CURVE_HEADER,
    EVENTS_HEADER,
    STAGES,
    RunConfig,
    format_complex,
    main,
    parse_complex,
    parse_config,
    write_curve_csv,
    write_events_csv,
)
from decaylab.montecarlo import _PEAK_BYTES_PER_POINT

MINIMAL = "n0 = 1000\ngamma_or = 1.0\ngamma_pa = 1.0\n"


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(tmp_path, text, *extra):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--quiet", *extra])
    return code, out


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config_defaults():
    config = parse_config(MINIMAL)
    sc = config.scenario
    assert sc.n0 == 1000
    assert sc.rates.w_or == 0j and sc.rates.w_pa == 0j
    assert sc.mode == "entangled"
    assert sc.t_max == 10.0
    assert sc.grid_points == 512
    assert sc.seed == 0 and not sc.parallel
    assert config.emit == frozenset({"analytic", "lifetimes"})
    assert str(config.outdir) == "out"


def test_parse_comments_and_duplicates():
    text = (
        "# heading\n"
        "n0 = 10  # inline\n"
        "\n"
        "gamma_or = 1.0\n"
        "gamma_pa = 2.0\n"
        "seed = 1\n"
        "seed = 7\n"
    )
    config = parse_config(text)
    assert config.scenario.seed == 7
    assert config.scenario.rates.gamma_pa == 2.0


def test_parse_full_config():
    text = (
        "n0 = 500\n"
        "gamma_or = 2.0\n"
        "gamma_pa = 0.5\n"
        "w_or = 0.1+0.2i\n"
        "w_pa = -0.3\n"
        "t_max = 7.5\n"
        "grid_points = 64\n"
        "seed = 99\n"
        "parallel = true\n"
        "emit = analytic, montecarlo, detection\n"
        "out = results\n"
        "detection_min_pairs = 50\n"
    )
    config = parse_config(text)
    assert config.scenario.rates.w_or == 0.1 + 0.2j
    assert config.scenario.rates.w_pa == -0.3 + 0j
    assert config.scenario.parallel
    assert config.emit == frozenset({"analytic", "montecarlo", "detection"})
    assert config.detection_min_pairs == 50


def test_parse_product_mode():
    config = parse_config(MINIMAL + "mode = product:pa\n")
    assert config.scenario.mode == "product"
    assert config.scenario.product_species.value == "pa"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n0 = 10\ngamma_or = 1\n", "gamma_pa"),
        (MINIMAL + "flavour = up\n", "line 4"),
        (MINIMAL + "gamma_or = -1\n", "must be > 0"),
        ("n0 = 0\ngamma_or = 1\ngamma_pa = 1\n", "n0"),
        (MINIMAL + "mode = mixed\n", "mode"),
        (MINIMAL + "emit = analytic, plots\n", "plots"),
        (MINIMAL + "seed = -3\n", "seed"),
        (MINIMAL + "grid_points = 1\n", "grid_points"),
        (MINIMAL + "just words\n", "key=value"),
        (MINIMAL + "t_max =\n", "no value"),
        (MINIMAL + "w_or = fast\n", "complex"),
        (MINIMAL + "mode = product:pa\nemit = reconstruction\n", "reconstruction"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


# each line sets one key to a value of the right type but out of range
@pytest.mark.parametrize(
    "line",
    [
        "n0 = 0",
        "gamma_or = 0",
        "gamma_pa = -2.5",
        "gamma_pa = inf",
        "t_max = -1",
        "grid_points = 1",
        "seed = -3",
        "seed = 18446744073709551616",
        "emit = plots",
        "emit = reconstruction",
        "lifetime_tol = 0",
        "detection_threshold = nan",
        "detection_min_pairs = 0",
        "n0 = 9223372036854775808",
        "grid_points = 1000000000000",
    ],
)
def test_range_errors_name_the_line_of_their_key(line):
    text = "# owned ranges\n" + MINIMAL + "mode = product:or\n" + line + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    key = line.split(" ", 1)[0]
    assert str(err.value).startswith(f"line 6: {key} ")


# values that only a caller of RunConfig, not parse_config, can pass
@pytest.mark.parametrize(
    "field,value",
    [
        ("lifetime_tol", "x"),
        ("detection_min_pairs", "3"),
        ("detection_threshold", True),
        ("detection_min_pairs", 2.5),
    ],
)
def test_run_config_values_of_the_wrong_type_are_config_errors(field, value):
    scenario = Scenario(n0=100, rates=RateSet(1.0, 1.0))
    with pytest.raises(ConfigError) as err:
        RunConfig(scenario, **{field: value})
    assert str(err.value).startswith(f"{field} ")
    config = RunConfig(scenario, lifetime_tol=1, detection_min_pairs=np.int64(3))
    assert type(config.lifetime_tol) is float and type(config.detection_min_pairs) is int


@pytest.mark.parametrize(
    "field,value",
    [("scenario", "x"), ("emit", 5), ("outdir", None), ("emit", "analytic")],
    ids=["scenario-str", "emit-int", "outdir-none", "emit-str"],
)
def test_run_config_fields_of_the_wrong_kind_are_config_errors(field, value):
    # a bare string emit would be read as its letters, a bad scenario only
    # fail later inside run
    kwargs = {"scenario": Scenario(n0=100, rates=RateSet(1.0, 1.0)), field: value}
    with pytest.raises(ConfigError) as err:
        RunConfig(**kwargs)
    assert str(err.value).startswith(f"{field} ") and repr(value) in str(err.value)


@pytest.mark.parametrize("slow", ["gamma_or", "gamma_pa"])
def test_default_t_max_overflow_names_the_slow_rate(slow):
    # ten lifetimes of a 1e-320 rate overflow a float, though t_max is unset
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"{slow} = 1e-320\n")
    assert str(err.value).startswith(f"line 4: {slow} ")


@pytest.mark.parametrize("line", ["n0 = 9223372036854775808", "grid_points = 1000000000000"])
def test_oversized_config_values_exit_3_on_their_line(tmp_path, capsys, line):
    # both once ended in a traceback: an int64 overflow, and a 7.28 TiB grid
    code, _ = _run(tmp_path, MINIMAL + "emit = analytic, montecarlo\n" + line + "\n")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"].startswith(f"line 5: {line.split()[0]} ")


def test_default_t_max_overflow_exits_3(tmp_path, capsys):
    code, _ = _run(tmp_path, MINIMAL + "gamma_or = 1e-320\n")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("line 4: gamma_or ")


def test_readme_config_example_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    keys = {line.split("=", 1)[0].strip() for line in example.splitlines() if "=" in line}
    assert keys == set(cli._KEYS)
    parse_config(example)


# ---------------------------------------------------------------------------
# complex values


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", 0j),
        ("0.5", 0.5 + 0j),
        ("-0.25", -0.25 + 0j),
        ("0.3i", 0.3j),
        ("0.1+0.2i", 0.1 + 0.2j),
        ("0.1 - 0.2i", 0.1 - 0.2j),
        ("1e-3+2.5e-1j", 0.001 + 0.25j),
    ],
)
def test_parse_complex_values(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "inf", "1+nanj", "1+i+i"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ConfigError):
        parse_complex(bad)


@pytest.mark.parametrize(
    "z", [0j, 1 + 0j, -0.5 + 0j, 0.1 + 0.2j, 0.1 - 0.2j, -1 / 3 + 1e-17j]
)
def test_complex_round_trip(z):
    assert parse_complex(format_complex(z)) == z


# ---------------------------------------------------------------------------
# end-to-end runs


def test_run_default_stages(tmp_path):
    code, out = _run(tmp_path, MINIMAL)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lifetimes"]["tau_tilde_state"] == 0.5
    assert summary["rates"]["gamma_t"] == 2.0
    assert summary["rates"]["lambda"] == 0.0
    assert (out / "analytic.csv").exists()
    assert not (out / "events.csv").exists()
    assert summary["conservation_max_error"] <= 1e-9 * 1000


def test_run_all_stages(tmp_path):
    text = MINIMAL + "emit = analytic, montecarlo, reconstruction, detection, lifetimes\n"
    code, out = _run(tmp_path, text)
    assert code == 0
    for name in ("analytic.csv", "events.csv", "empirical.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reconstruction"]["matches_montecarlo"] is True
    assert summary["reconstruction"]["max_abs_difference"] == 0
    assert summary["detection"]["verdict"] == "entangled"
    assert summary["detection"]["fitted_rates"]["n_pairs"] == 1000
    assert summary["conservation_max_error"] <= 1e-9 * 1000


def test_run_peak_memory_within_its_per_point_estimate(tmp_path):
    # Scenario refuses grids by this estimate, so an all-stage run must not
    # undercount it; a small n0 leaves the grid-sized curves to dominate
    points = 500_000
    rates = RateSet(1.0, 0.5, w_or=0.3 + 0.2j, w_pa=-0.4)
    scenario = Scenario(n0=1000, rates=rates, grid_points=points, seed=4)
    config = RunConfig(scenario, outdir=tmp_path, emit=frozenset(STAGES))
    tracemalloc.start()
    try:
        assert cli.run(config, quiet=True) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= points * _PEAK_BYTES_PER_POINT


def test_csv_shapes_and_headers(tmp_path):
    text = MINIMAL + "grid_points = 16\nemit = analytic, montecarlo\n"
    _, out = _run(tmp_path, text)
    analytic = (out / "analytic.csv").read_text().splitlines()
    assert analytic[0] == CURVE_HEADER
    assert len(analytic) == 17
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == EVENTS_HEADER
    assert len(events) == 2001
    row = events[1].split(",")
    assert row[2] in ("or", "pa")
    assert row[3] in ("L", "R")
    assert row[4] in ("first", "second")
    # empirical counts serialise as bare integers
    empirical = (out / "empirical.csv").read_text().splitlines()
    assert "." not in empirical[1].split(",", 2)[1]


def test_csv_floats_round_trip(tmp_path):
    text = MINIMAL + "grid_points = 64\nt_max = 3.7\n"
    _, out = _run(tmp_path, text)
    rows = (out / "analytic.csv").read_text().splitlines()[1:]
    t = np.array([float(r.split(",", 1)[0]) for r in rows])
    assert np.array_equal(t, np.linspace(0.0, 3.7, 64))


# ---------------------------------------------------------------------------
# CSV writers against one-row-at-a-time reference writers

SPECIES_NAMES = ("or", "pa")
SIDE_NAMES = ("L", "R")
ORDER_NAMES = ("first", "second", "unknown")
SMALL_CHUNK = 4


def _fmt_reference(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _curve_csv_reference(curve) -> bytes:
    columns = (curve.n, curve.n_or, curve.n_pa, curve.N_or, curve.N_pa)
    lines = [CURVE_HEADER]
    for i, t in enumerate(curve.grid):
        lines.append(",".join([_fmt_reference(t)] + [_fmt_reference(c[i]) for c in columns]))
    return ("\n".join(lines) + "\n").encode()


def _events_csv_reference(stream) -> bytes:
    lines = [EVENTS_HEADER]
    for i in range(len(stream)):
        lines.append(
            f"{stream.pair_id[i]},{stream.time[i]:.17g},"
            f"{SPECIES_NAMES[stream.species[i]]},{SIDE_NAMES[stream.side[i]]},"
            f"{ORDER_NAMES[stream.order[i]]}"
        )
    return ("\n".join(lines) + "\n").encode()


# the lengths around a chunk boundary, or any length over a few chunks
ROWS = st.one_of(
    st.sampled_from([0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1]),
    st.integers(0, 3 * SMALL_CHUNK + 1),
)
# edge times: -0.0, the smallest subnormal, a huge value
TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300]),
    st.floats(min_value=0.0, allow_infinity=False),
)


@st.composite
def streams(draw):
    n = draw(ROWS)

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    stream = EventStream(
        np.array(column(st.integers(-1, 2**63 - 1)), dtype=np.int64),
        np.array(column(TIMES), dtype=float),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
        np.array(column(st.integers(0, 2)), dtype=np.uint8),
    )
    return erase_identities(stream) if draw(st.booleans()) else stream


@st.composite
def curves(draw):
    n = draw(ROWS.filter(bool))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    grid = np.concatenate([[0.0], np.cumsum(steps)])

    def column():
        if draw(st.booleans()):
            ints = st.integers(0, 2**63 - 1)
            return np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
        return np.array(draw(st.lists(TIMES, min_size=n, max_size=n)), dtype=float)

    return PopulationCurve(grid, *(column() for _ in range(5)), n0=1)


@settings(max_examples=150, deadline=None)
@given(streams())
def test_events_csv_matches_reference_writer(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("events") / "events.csv"
    with mock.patch.object(cli, "_CHUNK", SMALL_CHUNK):
        write_events_csv(path, stream)
    assert path.read_bytes() == _events_csv_reference(stream)


@settings(max_examples=150, deadline=None)
@given(curves())
def test_curve_csv_matches_reference_writer(tmp_path_factory, curve):
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    with mock.patch.object(cli, "_CHUNK", SMALL_CHUNK):
        write_curve_csv(path, curve)
    assert path.read_bytes() == _curve_csv_reference(curve)


# ---------------------------------------------------------------------------
# the writers' table-driven number cells against Python's own % formatting


def _cell_fields(cells, values, words: int) -> list[bytes]:
    """The fields cells(values, text) renders, one per value."""
    text = np.zeros((len(values), words), np.uint64)
    cells(values, text)
    raw = text.view(np.uint8)
    raw[:, -1] = ord("\n")
    return np.compress(raw.ravel() != 0, raw.ravel()).tobytes().split(b"\n")[:-1]


def _assert_floats_format_like_python(values) -> None:
    x = np.asarray(values, dtype=float)
    assert _cell_fields(cli._float_cells, x, 5) == [b"%.17g" % v for v in x.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-4, 1e16), min_size=1, max_size=64))
def test_float_cells_match_python(values):
    _assert_floats_format_like_python(values)


def test_float_cells_round_near_ties_like_python():
    # d5e(k - 17) lies halfway between two 17-digit decimals of exponent k;
    # its double and the doubles either side round on both sides of the tie
    rng = np.random.default_rng(20261018)
    digits = rng.integers(10**16, 10**17, 20_000).tolist()
    exponents = rng.integers(-4, 16, 20_000).tolist()
    ties = np.array([float(f"{d}5e{k - 17}") for d, k in zip(digits, exponents)])
    _assert_floats_format_like_python(np.concatenate([ties, np.nextafter(ties, 0.0)]))
    _assert_floats_format_like_python(np.nextafter(ties, np.inf))
    # short binary fractions have exact decimal ties
    fractions = rng.integers(1, 2**24, 20_000) / 2.0 ** rng.integers(0, 40, 20_000)
    _assert_floats_format_like_python(fractions)


def test_float_cells_around_powers_of_ten():
    for j in range(-5, 18):
        around = [float(f"1e{j}")]
        for _ in range(30):
            around = [np.nextafter(around[0], 0.0)] + around + [np.nextafter(around[-1], np.inf)]
        _assert_floats_format_like_python(around)


def test_float_cells_bulk_over_the_whole_range():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)  # nan, inf, -0.0 too
    spread = 10.0 ** rng.uniform(-6, 18, 50_000)
    _assert_floats_format_like_python(np.concatenate([bits, spread, [0.0, -0.0, 5e-324]]))


def test_float_cells_decade_bounds_are_exact():
    # _LOWS[j + 3] must be the smallest double >= 10**j
    for j, low in zip(range(-3, 17), cli._LOWS.tolist()):
        assert Fraction(low) >= Fraction(10) ** j > Fraction(np.nextafter(low, 0.0))


def test_int_cells_match_python():
    rng = np.random.default_rng(12)
    edges = [10**j + d for j in range(20) for d in (-1, 0, 1) if 10**j + d < 2**63]
    for values in (
        np.array(edges + [0, -1, -(2**63), 2**63 - 1], dtype=np.int64),
        rng.integers(-(2**63), 2**63 - 1, 20_000),
        rng.integers(0, 10 ** rng.integers(1, 17, 20_000)),
        np.array([0, 10**16, 2**64 - 1], dtype=np.uint64),
        np.array([True, False]),
    ):
        assert _cell_fields(cli._int_cells, values, 3) == [b"%d" % v for v in values.tolist()]


@pytest.mark.parametrize("erase", [False, True])
def test_events_csv_rebuilds_every_column(tmp_path, erase):
    # 2e4 rows span three chunks of the real size
    stream, _ = simulate(Scenario(n0=10_000, rates=RateSet(1.3, 0.7), seed=9))
    if erase:
        stream = erase_identities(stream)
    path = tmp_path / "events.csv"
    write_events_csv(path, stream)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert ",".join(header) == EVENTS_HEADER
    pair_id, time, species, side, order = zip(*rows)
    np.testing.assert_array_equal(np.array(pair_id, dtype=np.int64), stream.pair_id)
    np.testing.assert_array_equal(np.array([float(t) for t in time]), stream.time)
    for names, text, codes in (
        (SPECIES_NAMES, species, stream.species),
        (SIDE_NAMES, side, stream.side),
        (ORDER_NAMES, order, stream.order),
    ):
        np.testing.assert_array_equal([names.index(v) for v in text], codes)


def test_rerun_is_byte_identical(tmp_path):
    text = MINIMAL + "emit = montecarlo\nseed = 17\n"
    _, out1 = _run(tmp_path, text)
    cfg = _write(tmp_path, text, name="again.cfg")
    out2 = tmp_path / "out2"
    assert main(["--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    for name in ("events.csv", "empirical.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summaries = []
    for out in (out1, out2):
        summary = json.loads((out / "summary.json").read_text())
        summary["scenario"].pop("out")
        summaries.append(summary)
    assert summaries[0] == summaries[1]


SUMMARY_DIGESTS = {
    # entangled, W != 0, every stage, threaded
    "n0 = 5000\ngamma_or = 1.0\ngamma_pa = 0.5\nw_or = 0.1+0.2i\nw_pa = -0.05i\nseed = 7\n"
    "parallel = true\nemit = analytic, montecarlo, reconstruction, detection, lifetimes\n": (
        "347c41284f09375f7e11d1a193fe3296"
    ),
    # product:pa, whose fitted per-species rates are NaN: JSON null
    "n0 = 5000\ngamma_or = 1.0\ngamma_pa = 0.5\nmode = product:pa\nseed = 7\n"
    "emit = analytic, montecarlo, detection, lifetimes\n": "2b794217fb58d97ec7ee77d3e7a70ae1",
    # too few pairs for a verdict, so fitted_rates is null
    "n0 = 50\ngamma_or = 1.0\ngamma_pa = 0.5\nw_or = 0.1+0.2i\nseed = 7\n"
    "emit = analytic, montecarlo, reconstruction, detection, lifetimes\n": (
        "25f4e752bee2aa2956a65511db35f7f8"
    ),
}


@pytest.mark.parametrize("text", SUMMARY_DIGESTS, ids=["entangled", "product", "n0=50"])
def test_summary_json_bytes_are_pinned(tmp_path, monkeypatch, text):
    # digests of the summaries written before the blocks came from the result
    # dataclasses; a relative --out keeps scenario.out fixed
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, text)
    assert main(["--config", str(cfg), "--out", "out", "--quiet"]) == 0
    summary = (tmp_path / "out" / "summary.json").read_bytes()
    assert hashlib.blake2b(summary, digest_size=16).hexdigest() == SUMMARY_DIGESTS[text]


def test_seed_override_changes_events(tmp_path):
    text = MINIMAL + "emit = montecarlo\n"
    _, out1 = _run(tmp_path, text)
    cfg = _write(tmp_path, text, name="again.cfg")
    out2 = tmp_path / "out2"
    assert main(["--config", str(cfg), "--out", str(out2), "--quiet", "--seed", "1"]) == 0
    a = (out1 / "events.csv").read_bytes()
    b = (out2 / "events.csv").read_bytes()
    assert a != b
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["scenario"]["seed"] == 1


def test_product_mode_detection_verdict(tmp_path):
    text = (
        "n0 = 20000\n"
        "gamma_or = 1.0\n"
        "gamma_pa = 1.0\n"
        "mode = product:pa\n"
        "emit = montecarlo, detection\n"
    )
    code, out = _run(tmp_path, text)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["detection"]["verdict"] == "product"
    assert summary["detection"]["fitted_rates"]["n_second_or"] == 0
    assert summary["conservation_max_error"] == 0


def test_extreme_modification_warns(tmp_path, capsys):
    text = "n0 = 100\ngamma_or = 1.0\ngamma_pa = 1.0\nw_pa = 40\nemit = analytic\n"
    code, out = _run(tmp_path, text)
    assert code == 0
    assert "warning" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert any("gamma_t_or" in w for w in summary["warnings"])


def test_quiet_suppresses_progress(tmp_path, capsys):
    code, _ = _run(tmp_path, MINIMAL)
    assert code == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.cfg"), "--quiet"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "FileNotFoundError"
    assert "message" in record


def test_bad_config_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "n0 = ten\ngamma_or = 1\ngamma_pa = 1\n")
    code = main(["--config", str(cfg), "--quiet"])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_unwritable_outdir_exits_2(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory\n")
    cfg = _write(tmp_path, MINIMAL)
    assert main(["--config", str(cfg), "--out", str(blocker), "--quiet"]) == 2


def test_runtime_domain_error_exits_3(tmp_path, capsys):
    # fully suppressed decay parses fine but has no finite lifetimes
    text = MINIMAL + "w_or = -1\nw_pa = -1\nemit = lifetimes\n"
    code, _ = _run(tmp_path, text)
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DomainError"


def test_oversized_n0_exits_3_before_allocating(tmp_path, capsys):
    text = "n0 = 10000000000000\ngamma_or = 1.0\ngamma_pa = 1.0\nemit = montecarlo\n"
    code, _ = _run(tmp_path, text)
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "DomainError"


def test_bad_seed_override_exits_3(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    assert main(["--config", str(cfg), "--seed", "-1", "--quiet"]) == 3


def test_seed_override_beyond_64_bits_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    assert main(["--config", str(cfg), "--seed", str(2**64), "--quiet"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


def test_invalid_thread_env_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DECAYLAB_THREADS", "many")
    text = MINIMAL + "parallel = true\nemit = montecarlo\n"
    code, _ = _run(tmp_path, text)
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
