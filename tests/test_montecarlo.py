"""Tests for the stochastic pair simulator and exact event histograms."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaylab
from decaylab import (
    ConfigError,
    DataError,
    DomainError,
    EmissionOrder,
    EventStream,
    RateSet,
    Scenario,
    Side,
    Species,
    conservation_residual,
    derive_rates,
    evaluate_curve,
    histogram,
    pair_substream,
    sample_pair,
    simulate,
)
from decaylab.montecarlo import (
    DRAWS_PER_PAIR,
    FIRST_CODE,
    L_CODE,
    OR_CODE,
    PA_CODE,
    R_CODE,
    SECOND_CODE,
    SPECIES_CODE,
    UNKNOWN_CODE,
    UNKNOWN_PAIR,
    _PEAK_BYTES_PER_PAIR,
    _draw,
    _entangled_rates,
    _memory_bytes,
    _sort_keys,
    _sorted_stream,
    _time_order,
)

RS11 = RateSet(1.0, 1.0)


def _stream(pairs, t, species, side, order):
    return EventStream(
        np.asarray(pairs),
        np.asarray(t),
        np.asarray(species),
        np.asarray(side),
        np.asarray(order),
    )


# ---------------------------------------------------------------------------
# scenario


def test_scenario_defaults():
    sc = Scenario(n0=10, rates=RateSet(2.0, 0.5))
    assert sc.t_max == 20.0  # ten lifetimes of the slower species
    assert sc.grid_points == 512
    g = sc.grid()
    assert g[0] == 0.0 and g[-1] == sc.t_max and g.size == 512


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(n0=0, rates=RS11)
    with pytest.raises(DomainError):
        Scenario(n0=2.5, rates=RS11)
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, mode="mixed")
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, mode="product")
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, product_species=Species.OR)
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, t_max=0.0)
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, grid_points=1)
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, seed=-1)
    with pytest.raises(DomainError):
        Scenario(n0=10, rates=RS11, seed=2**64)


# ---------------------------------------------------------------------------
# stream structure


def test_simulate_pair_structure():
    stream, _ = simulate(Scenario(n0=4, rates=RateSet(1.5, 0.5), seed=3))
    assert len(stream) == 8
    assert np.all(np.diff(stream.time) >= 0.0)
    for pid in range(4):
        rows = np.flatnonzero(stream.pair_id == pid)
        assert rows.size == 2
        first, second = sorted((stream[int(i)] for i in rows), key=lambda e: e.order.value)
        assert first.order is EmissionOrder.FIRST
        assert second.order is EmissionOrder.SECOND
        assert first.species is second.species.companion()
        assert first.side is second.side.opposite()
        assert first.time <= second.time


def test_single_pair_run():
    stream, _ = simulate(Scenario(n0=1, rates=RS11, seed=9))
    assert len(stream) == 2
    assert stream[0].order is EmissionOrder.FIRST
    assert stream[1].order is EmissionOrder.SECOND


def test_sample_pair_matches_simulate():
    rs = RateSet(1.3, 0.7, w_or=0.2 - 0.1j, w_pa=-0.3)
    er = derive_rates(rs)
    stream, _ = simulate(Scenario(n0=50, rates=rs, seed=77))
    for pid in (0, 1, 17, 49):
        first, second = sample_pair(pid, rs, er, pair_substream(77, pid))
        rows = np.flatnonzero(stream.pair_id == pid)
        got = sorted((stream[int(i)] for i in rows), key=lambda e: e.order.value)
        assert got[0] == first
        assert got[1] == second


def test_sample_pair_consumes_fixed_budget():
    rs = RS11
    er = derive_rates(rs)
    rng = pair_substream(5, 0)
    sample_pair(0, rs, er, rng)
    # after one pair the generator sits exactly at the next pair's block
    fresh = pair_substream(5, 1)
    assert rng.random(2).tolist() == fresh.random(2).tolist()
    assert DRAWS_PER_PAIR == 4


@pytest.mark.parametrize(
    "rates",
    [RS11, RateSet(1.3, 0.7, w_or=0.2 - 0.1j, w_pa=-0.3), RateSet(1.0, 2.0, w_or=-1.0)],
    ids=["RS11", "W", "or-suppressed"],
)
def test_draw_kernel_matches_the_reference_formula_at_its_edges(rates):
    # the largest uniform below 1, the smallest above 0, exactly 0, and a
    # species uniform exactly at the pa threshold gamma_t_or / gamma_t
    er = derive_rates(rates)
    p_or = er.gamma_t_or / er.gamma_t
    edges = [0.0, 2.0**-53, 1.0 - 2.0**-53]
    grid = np.meshgrid(edges, [*edges, p_or, 0.5], edges, [*edges, 0.5], indexing="ij")
    u = np.stack([g.ravel() for g in grid], axis=1)
    # the kernel as written before it computed in place
    t1 = -np.log1p(-u[:, 0]) / er.gamma_t
    first_or = u[:, 1] < p_or
    t2 = t1 - np.log1p(-u[:, 2]) / np.where(first_or, rates.gamma_pa, rates.gamma_or)
    first_left = u[:, 3] < 0.5
    want_codes = (~first_or).astype(np.uint8) | (~first_left).astype(np.uint8) << 1
    out = np.empty((len(u), 2))
    codes = _draw(u, out, *_entangled_rates(rates, er))
    assert out.tobytes() == np.column_stack([t1, t2]).tobytes()
    assert codes.tobytes() == want_codes.tobytes()
    t_h = -np.log1p(-u[:, 0]) / rates.gamma_pa
    product = np.empty((len(u), 1))
    side = _draw(u, product, rates.gamma_pa)
    assert product.ravel().tobytes() == t_h.tobytes()
    assert side.tobytes() == (~first_left).astype(np.uint8).tobytes()
    # no -0.0 is drawn, u = 0 included, which _sorted_stream's value sort needs
    assert not np.signbit(out).any() and not np.signbit(product).any()
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0


def test_rerun_is_deterministic():
    sc = Scenario(n0=300, rates=RateSet(1.0, 2.0, w_pa=0.1j), seed=11)
    a, _ = simulate(sc)
    b, _ = simulate(sc)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.pair_id, b.pair_id)
    assert np.array_equal(a.species, b.species)
    assert np.array_equal(a.side, b.side)
    assert np.array_equal(a.order, b.order)


def test_parallel_run_bit_identical(monkeypatch):
    serial = Scenario(n0=3 * (1 << 16) + 101, rates=RS11, seed=2)
    threaded = Scenario(n0=serial.n0, rates=RS11, seed=2, parallel=True)
    a, _ = simulate(serial)
    monkeypatch.setenv("DECAYLAB_THREADS", "5")
    b, _ = simulate(threaded)
    for name in ("pair_id", "time", "species", "side", "order"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


_THREAD_POOL_IMPORT = """
import os, sys
import decaylab
from decaylab.montecarlo import _BLOCK
assert "concurrent.futures" not in sys.modules
rates = decaylab.RateSet(1.0, 0.5, w_or=0.2)
serial, _ = decaylab.simulate(decaylab.Scenario(n0=2 * _BLOCK, rates=rates, seed=5))
assert "concurrent.futures" not in sys.modules
os.environ["DECAYLAB_THREADS"] = "2"
threaded, _ = decaylab.simulate(
    decaylab.Scenario(n0=2 * _BLOCK, rates=rates, seed=5, parallel=True)
)
assert "concurrent.futures" in sys.modules
for name in ("pair_id", "time", "species", "side", "order"):
    assert getattr(serial, name).tobytes() == getattr(threaded, name).tobytes(), name
"""


def test_thread_pool_is_imported_by_threaded_simulate_only():
    # concurrent.futures, and the logging it imports, cost every import of
    # the package; only a threaded simulate of more than one block needs it
    env = dict(os.environ, PYTHONPATH=str(Path(decaylab.__file__).parents[1]))
    env.pop("DECAYLAB_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_POOL_IMPORT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_thread_env_validation(monkeypatch):
    monkeypatch.setenv("DECAYLAB_THREADS", "lots")
    with pytest.raises(ConfigError):
        simulate(Scenario(n0=10, rates=RS11, parallel=True))


def test_channel_suppression_forces_species():
    # w_pa = -1 blocks or-decay of the pair, so every first photon is pa
    rs = RateSet(1.0, 1.0, w_pa=-1.0)
    stream, _ = simulate(Scenario(n0=500, rates=rs, seed=4))
    first = stream.order == FIRST_CODE
    assert np.all(stream.species[first] == PA_CODE)
    assert np.all(stream.species[~first] == OR_CODE)


def test_product_mode_stream():
    sc = Scenario(
        n0=400, rates=RS11, mode="product", product_species=Species.PA, seed=6
    )
    stream, curve = simulate(sc)
    assert len(stream) == 400
    assert np.all(stream.species == PA_CODE)
    assert np.all(stream.order == FIRST_CODE)
    assert np.all(curve.n_or == 0) and np.all(curve.n_pa == 0)
    assert conservation_residual(curve, entangled=False) == 0.0


def test_seeded_species_frequency():
    rs = RateSet(2.0, 1.0)
    er = derive_rates(rs)
    n0 = 20000
    stream, _ = simulate(Scenario(n0=n0, rates=rs, seed=12))
    first = stream.order == FIRST_CODE
    k_or = int(np.sum(stream.species[first] == OR_CODE))
    p = er.gamma_t_or / er.gamma_t
    sigma = np.sqrt(n0 * p * (1.0 - p))
    assert abs(k_or - n0 * p) < 4.0 * sigma


def test_seeded_first_time_mean():
    rs = RateSet(1.0, 1.0)
    n0 = 20000
    stream, _ = simulate(Scenario(n0=n0, rates=rs, seed=13))
    t1 = stream.time[stream.order == FIRST_CODE]
    # exponential with rate 2: mean 1/2, sd 1/2
    assert abs(t1.mean() - 0.5) < 4.0 * 0.5 / np.sqrt(n0)


def test_empirical_curve_tracks_closed_form():
    # core region: expected counts >= 10 so the binomial band is meaningful
    sc = Scenario(n0=100000, rates=RS11, seed=42)
    _, curve = simulate(sc)
    expect = evaluate_curve(sc)
    for name in ("n", "n_pa"):
        mean = getattr(expect, name)
        p = mean / sc.n0
        sigma = np.sqrt(sc.n0 * p * (1.0 - p))
        core = (mean >= 10.0) & (sigma > 0.0)
        tail = mean < 10.0
        exact = sigma == 0.0
        assert np.array_equal(getattr(curve, name)[exact], mean[exact])
        z = np.abs(getattr(curve, name)[core] - mean[core]) / sigma[core]
        assert z.max() < 4.0
        # in the far tail the Gaussian band is meaningless; just require
        # stragglers to stay rare
        assert np.all(getattr(curve, name)[tail] < 50)


# ---------------------------------------------------------------------------
# histograms


def test_histogram_hand_case():
    stream = _stream(
        [0, 0], [1.0, 2.0], [OR_CODE, PA_CODE], [L_CODE, R_CODE], [FIRST_CODE, SECOND_CODE]
    )
    mid = histogram(stream, [0.0, 1.5], n0=1)
    assert mid.n.tolist() == [1, 0]
    assert mid.n_pa.tolist() == [0, 1]
    assert mid.n_or.tolist() == [0, 0]
    assert mid.N_or.tolist() == [0, 1]
    assert mid.N_pa.tolist() == [0, 0]
    late = histogram(stream, [0.0, 3.0], n0=1)
    assert late.n.tolist() == [1, 0]
    assert late.n_pa.tolist() == [0, 0]
    assert late.N_or.tolist() == [0, 1]
    assert late.N_pa.tolist() == [0, 1]


def test_histogram_empty_stream():
    empty = _stream([], [], [], [], [])
    curve = histogram(empty, [0.0, 1.0, 2.0], n0=7)
    assert curve.n.tolist() == [7, 7, 7]
    assert curve.N_or.tolist() == [0, 0, 0]


def test_histogram_completed_ensemble():
    stream, _ = simulate(Scenario(n0=250, rates=RS11, seed=21))
    grid = np.array([0.0, stream.time.max() + 1.0])
    curve = histogram(stream, grid, n0=250)
    assert curve.n[-1] == 0 and curve.n_or[-1] == 0 and curve.n_pa[-1] == 0
    assert curve.N_or[-1] == 250 and curve.N_pa[-1] == 250
    assert conservation_residual(curve) == 0.0


def test_histogram_conservation_is_exact():
    stream, curve = simulate(Scenario(n0=5000, rates=RateSet(2.0, 0.7, w_or=0.3), seed=8))
    assert curve.n.dtype == np.int64
    assert conservation_residual(curve) == 0.0


def test_histogram_rejects_bad_streams():
    erased = _stream([0, 0], [1.0, 2.0], [0, 1], [0, 1], [2, 2])
    with pytest.raises(DataError):
        histogram(erased, [0.0, 1.0], n0=1)
    crowd = _stream([0, 1], [1.0, 2.0], [0, 1], [0, 1], [0, 0])
    with pytest.raises(DataError):
        histogram(crowd, [0.0, 1.0], n0=1)
    with pytest.raises(DomainError):
        histogram(crowd, [0.0, 1.0], n0=2, mode="mixed")


def test_event_stream_validation():
    with pytest.raises(DataError):
        _stream([0], [-1.0], [0], [0], [0])
    with pytest.raises(DataError):
        _stream([0], [np.inf], [0], [0], [0])
    with pytest.raises(DataError):
        _stream([0, 1], [1.0], [0], [0], [0])
    with pytest.raises(DataError):
        _stream([0], [1.0], [7], [0], [0])


@pytest.mark.parametrize(
    "times,message",
    [
        ([np.nan], "finite"),
        ([1.0, np.nan, 0.5], "finite"),
        ([-np.inf, 1.0], "finite"),
        ([0.5, np.inf], "finite"),
        ([-1.0, np.nan], "finite"),
        ([2.0, -1e-300], ">= 0"),
        ([-0.0, 1.0], None),
    ],
)
def test_event_stream_time_rules(times, message):
    # the rules read only time.min() and time.max(), which carry any NaN
    n = len(times)
    columns = (np.arange(n), times, [0] * n, [0] * n, [0] * n)
    if message is None:
        assert np.signbit(_stream(*columns).time[0])
    else:
        with pytest.raises(DataError, match=message):
            _stream(*columns)


def test_event_stream_sorting_and_access():
    stream = _stream(
        [1, 0], [2.0, 1.0], [PA_CODE, OR_CODE], [R_CODE, L_CODE], [SECOND_CODE, FIRST_CODE]
    )
    by_time = stream.sorted_by_time()
    assert by_time.time.tolist() == [1.0, 2.0]
    ev = by_time[0]
    assert ev.pair_id == 0
    assert ev.species is Species.OR
    assert ev.side is Side.L
    assert ev.order is EmissionOrder.FIRST
    assert stream.has_identities


@pytest.mark.parametrize("column", ["pair_id", "time", "species", "side", "order"])
def test_stream_columns_are_read_only(column):
    passed = np.array([0, 0])
    stream = EventStream(passed, np.array([1.0, 2.0]), [OR_CODE, PA_CODE], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        getattr(stream, column)[0] = 0
    # the caller's own array is not frozen: the stream holds a view of it
    assert passed.flags.writeable


def test_simulate_rejects_n0_beyond_physical_memory():
    with pytest.raises(DomainError, match="physical memory"):
        simulate(Scenario(n0=10**13, rates=RS11))


PHYSICAL = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
V1_UNLIMITED = "9223372036854771712"  # LONG_MAX rounded down to a 4 KiB page


@pytest.mark.parametrize(
    "proc,files,want",
    [
        ("0::/box\n", {"box/memory.max": "1048576\n"}, 2**20),
        ("0::/\n", {"memory.max": "2097152\n"}, 2**21),
        ("0::/box\n", {"box/memory.max": "max\n"}, PHYSICAL),
        ("4:memory:/box\n0::/\n", {"memory/box/memory.limit_in_bytes": "3145728\n"}, 3 * 2**20),
        ("3:cpu,memory:/a/b\n", {"memory/a/b/memory.limit_in_bytes": "4194304"}, 4 * 2**20),
        ("4:memory:/box\n", {"memory/box/memory.limit_in_bytes": V1_UNLIMITED}, PHYSICAL),
        ("0::/box\n", {"box/memory.max": str(PHYSICAL + 4096)}, PHYSICAL),
        ("0::/box\n", {"box/memory.max": "garbled"}, PHYSICAL),
        ("0::/box\n", {}, PHYSICAL),
        ("2:cpu:/box\n1:name=systemd:/\n", {"memory.max": "1048576"}, PHYSICAL),
        (None, {"memory.max": "1048576"}, PHYSICAL),
        ("0::/a/b\n", {"a/b/memory.max": "4194304", "a/memory.max": "1048576"}, 2**20),
        ("0::/a/b\n", {"a/b/memory.max": "max", "memory.max": "2097152"}, 2**21),
        ("0::/a/b\n", {"a/b/memory.max": "1048576", "a/memory.max": "4194304"}, 2**20),
        (
            "4:memory:/a/b\n",
            {
                "memory/a/b/memory.limit_in_bytes": V1_UNLIMITED,
                "memory/a/memory.limit_in_bytes": "3145728",
            },
            3 * 2**20,
        ),
        (
            "4:memory:/box\n0::/box\n",
            {"memory/box/memory.limit_in_bytes": "3145728", "box/memory.max": "2097152"},
            2**21,
        ),
    ],
    ids=[
        "v2",
        "v2-root",
        "v2-max",
        "v1-hybrid",
        "v1-joint-controllers",
        "v1-unlimited",
        "above-physical",
        "garbled",
        "unreadable",
        "no-memory-line",
        "no-proc-file",
        "v2-nested-parent-tighter",
        "v2-nested-root-limit",
        "v2-nested-child-tighter",
        "v1-nested-parent-tighter",
        "v1-and-v2-smallest",
    ],
)
def test_memory_bytes_reads_the_cgroup_limit(tmp_path, proc, files, want):
    proc_cgroup = tmp_path / "cgroup"
    if proc is not None:
        proc_cgroup.write_text(proc)
    root = tmp_path / "fs"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    assert _memory_bytes(str(proc_cgroup), str(root)) == want


def test_memory_bytes_reads_its_own_limit_once(tmp_path):
    assert _memory_bytes() == _memory_bytes()
    # a kept answer opens no file; explicit paths are read on every call
    proc_cgroup = tmp_path / "cgroup"
    proc_cgroup.write_text("0::/\n")
    (tmp_path / "memory.max").write_text("4096\n")
    with mock.patch("builtins.open", side_effect=AssertionError("file opened")):
        assert _memory_bytes() <= PHYSICAL
    for limit in (4096, 8192):
        (tmp_path / "memory.max").write_text(f"{limit}\n")
        assert _memory_bytes(str(proc_cgroup), str(tmp_path)) == limit


def test_simulate_rejects_n0_beyond_the_cgroup_limit(monkeypatch):
    assert _memory_bytes() <= PHYSICAL
    monkeypatch.setattr("decaylab.montecarlo._memory_bytes", lambda: 2**20)
    with pytest.raises(DomainError, match="cgroup limit"):
        simulate(Scenario(n0=100_000, rates=RS11))
    simulate(Scenario(n0=10_000, rates=RS11))


@pytest.mark.parametrize(
    "rates,mode,species",
    [
        (RS11, "entangled", None),
        (RateSet(1.0, 0.5, w_or=0.3 + 0.2j, w_pa=-0.4), "entangled", None),
        (RS11, "product", Species.PA),
    ],
    ids=["RS11", "W", "product:pa"],
)
def test_simulate_peak_memory_within_its_estimate(rates, mode, species):
    # _check_memory refuses runs by this estimate, so it must not undercount
    n0 = 10**6
    scenario = Scenario(n0=n0, rates=rates, mode=mode, product_species=species, seed=4)
    tracemalloc.start()
    try:
        simulate(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n0 * _PEAK_BYTES_PER_PAIR


@pytest.mark.parametrize(
    "rates,mode,species",
    [
        (RateSet(1.0, 0.5, w_or=0.3 + 0.2j, w_pa=-0.4), "entangled", None),
        (RS11, "product", Species.PA),
    ],
    ids=["W", "product:pa"],
)
def test_simulate_peak_is_the_stream_plus_block_scratch(rates, mode, species):
    # the draws, the code decoding and histogram work in _BLOCK-row pieces,
    # so beyond the columns returned only the 1-byte draw codes are n-sized
    n0 = 10**6
    scenario = Scenario(n0=n0, rates=rates, mode=mode, product_species=species, seed=4)
    tracemalloc.start()
    try:
        stream, _ = simulate(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(getattr(stream, c).nbytes for c in COLUMNS) + 4 * n0


def test_event_stream_rejects_negative_pair_ids():
    with pytest.raises(DataError):
        _stream([-2], [1.0], [OR_CODE], [L_CODE], [FIRST_CODE])
    erased = _stream([UNKNOWN_PAIR], [1.0], [OR_CODE], [L_CODE], [UNKNOWN_CODE])
    assert not erased.has_identities


COLUMNS = ("pair_id", "time", "species", "side", "order")


@st.composite
def tied_pairs(draw):
    # integer times force exact ties across pairs, times a few ulps apart
    # differ only in their lowest bits, and -0.0 ties with 0.0; a zero delay
    # makes a pair's second emission tie with its own first
    n = draw(st.integers(0, 40))
    ints = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    whole = np.array(draw(ints), dtype=float)
    t1 = whole + np.array(draw(ints)) % 3 * np.spacing(whole)
    t1[t1 == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    t2 = t1 + np.array(draw(ints), dtype=float)
    species_1 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
    side_1 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
    ids = np.arange(n, dtype=np.int64)
    # the row layout simulate sorts: every first emission, then every second
    stream = EventStream(
        np.concatenate([ids, ids]),
        np.concatenate([t1, t2]),
        np.concatenate([species_1, species_1 ^ 1]),
        np.concatenate([side_1, side_1 ^ 1]),
        np.repeat(np.array([FIRST_CODE, SECOND_CODE], np.uint8), n),
    )
    perm = np.array(draw(st.permutations(range(2 * n))), dtype=np.intp)
    return stream, perm


def _lexsorted(stream):
    idx = np.lexsort((stream.order, stream.pair_id, stream.time))
    return idx, EventStream(*(getattr(stream, c)[idx] for c in COLUMNS))


def _assert_same(a, b):
    for c in COLUMNS:
        np.testing.assert_array_equal(getattr(a, c), getattr(b, c))


@settings(max_examples=200, deadline=None)
@given(tied_pairs())
def test_time_order_matches_lexsort_with_ties(case):
    stream, perm = case
    want_idx, want = _lexsorted(stream)
    idx, time = _time_order(stream.time, stream.pair_id, stream.order)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(time, want.time)
    shuffled = EventStream(*(getattr(stream, c)[perm] for c in COLUMNS))
    _assert_same(shuffled.sorted_by_time(), want)
    # erased rows repeat (pair, order), so lexsort's stable order decides
    blind = EventStream(
        np.full(len(shuffled), UNKNOWN_PAIR),
        shuffled.time,
        shuffled.species,
        shuffled.side,
        np.full(len(shuffled), UNKNOWN_CODE),
    )
    _assert_same(blind.sorted_by_time(), _lexsorted(blind)[1])


@settings(max_examples=200, deadline=None)
@given(tied_pairs())
def test_time_order_of_interleaved_rows_matches_lexsort(case):
    # simulate's own layout puts pair p's emissions in rows 2p and 2p + 1, so
    # row order is (pair, order) order and no tie columns are passed
    stream, _ = case
    n = len(stream) // 2
    interleaved = np.arange(2 * n).reshape(2, n).T.ravel()
    rows = EventStream(*(getattr(stream, c)[interleaved] for c in COLUMNS))
    want_idx, want = _lexsorted(rows)
    idx, time = _time_order(rows.time)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(time, want.time)


@st.composite
def build_rows(draw):
    # simulate's draw buffers: pair p's times in row p (first, then second
    # emission when entangled) and its first emission's species | side << 1.
    # Integer times tie across pairs, times a few ulps apart (subnormals at
    # zero) agree only in the keys' time bits, and a zero delay ties a pair
    # with itself; _BLOCK is patched small so tie runs straddle its blocks
    mode = draw(st.sampled_from(["entangled", "product"]))
    n = draw(st.integers(1, 40))
    ints = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    whole = np.array(draw(ints), dtype=float)
    t1 = whole + np.array(draw(ints)) % 3 * np.spacing(whole)
    times = np.column_stack([t1, t1 + np.array(draw(ints), dtype=float)])
    if mode == "product":
        times = times[:, :1].copy()
    top = 3 if mode == "entangled" else 1
    codes = np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), np.uint8)
    split = draw(st.integers(0, n))
    block = draw(st.sampled_from([1, 2, 3, 7, 2**16]))
    return mode, times, codes, split, block


@settings(max_examples=300, deadline=None)
@given(build_rows())
def test_stream_build_matches_lexsort_on_tie_runs(case):
    # the pinned digests never reach a tie run; this is the check of that path
    mode, times, codes, split, block = case
    n, width = times.shape
    product = mode == "product"
    scenario = Scenario(n0=n, rates=RS11, mode=mode, product_species=Species.PA if product else None)
    rows = np.arange(times.size)
    order = (rows % width).astype(np.uint8)
    first = codes[rows // width]
    laid_out = EventStream(
        rows // width,
        times.ravel(),
        np.full(rows.size, PA_CODE) if product else (first & 1) ^ order,
        first if product else (first >> 1) ^ order,
        order,
    )
    want = _lexsorted(laid_out)[1]
    keys = np.empty(times.size, dtype=np.uint64)
    bits = max(times.size - 1, 1).bit_length()
    for lo, hi in ((0, split), (split, n)):  # fill writes the keys block by block
        _sort_keys(times[lo:hi].ravel(), width * lo, bits, keys[width * lo : width * hi])
    with mock.patch("decaylab.montecarlo._BLOCK", block):
        got = _sorted_stream(times.ravel(), keys, codes, scenario)
    for c in COLUMNS:
        assert getattr(got, c).dtype == getattr(want, c).dtype
        assert getattr(got, c).tobytes() == getattr(want, c).tobytes(), c


# ---------------------------------------------------------------------------
# pinned outputs


def _reference_stream(scenario):
    # every pair drawn alone by sample_pair, laid out as every first emission
    # then every second, and ordered by lexsort on (time, pair, order)
    er = derive_rates(scenario.rates)
    events = [
        sample_pair(pid, scenario.rates, er, pair_substream(scenario.seed, pid))
        for pid in range(scenario.n0)
    ]
    rows = [pair[0] for pair in events] + [pair[1] for pair in events]
    stream = EventStream(
        np.array([e.pair_id for e in rows]),
        np.array([e.time for e in rows]),
        np.array([SPECIES_CODE[e.species] for e in rows]),
        np.array([L_CODE if e.side is Side.L else R_CODE for e in rows]),
        np.array([FIRST_CODE if e.order is EmissionOrder.FIRST else SECOND_CODE for e in rows]),
    )
    return _lexsorted(stream)[1]


@pytest.mark.parametrize("rates", [RS11, RateSet(1.3, 0.7, w_or=0.2 - 0.1j, w_pa=-0.3)])
def test_simulate_matches_reference_rows(rates):
    sc = Scenario(n0=300, rates=rates, seed=19)
    stream, _ = simulate(sc)
    want = _reference_stream(sc)
    _assert_same(stream, want)
    for c in COLUMNS:
        assert getattr(stream, c).dtype == getattr(want, c).dtype


def _digest(a):
    little = a.astype(a.dtype.newbyteorder("<"), copy=False)
    return hashlib.blake2b(little.tobytes(), digest_size=16).hexdigest()


# blake2b digests of every stream column and curve field, recorded from the
# simulator that concatenated its rows; three full blocks plus a partial one
PINNED_N0 = 3 * (1 << 16) + 101
PINNED = [
    (
        Scenario(n0=PINNED_N0, rates=RateSet(1.3, 0.7, w_or=0.2 - 0.1j, w_pa=-0.3), seed=31),
        {
            "pair_id": "803738b9b8deb9024cfbc5f245ae78b8",
            "time": "07198109985cf70e32c248008b621746",
            "species": "64e2fe2f591c9e69fd6a203b997b2a6c",
            "side": "dc2677912b573ffa215c3a025682d064",
            "order": "226850eebe76abeb72513dd7876a0458",
        },
        {
            "n": "da00295ac2463ced839b14e557581a96",
            "n_or": "c58e8332b95fdba25455dd286ef518ec",
            "n_pa": "f6b1f5b8bb1758cfec6b27f1b49e824e",
            "N_or": "ece96662c4a289951a017a042a79bae4",
            "N_pa": "c9d935544f6e0214c43d533d9e8b75ed",
        },
    ),
    (
        Scenario(
            n0=PINNED_N0,
            rates=RateSet(1.0, 2.0),
            mode="product",
            product_species=Species.PA,
            seed=32,
        ),
        {
            "pair_id": "86d19ba304ec9de100c371a98e472126",
            "time": "68dd646346519b5780e09e2ff9105e7f",
            "species": "9fbf2edcedf8d112042073980d621e18",
            "side": "12bad488dbff490c4dead9b3f4134a73",
            "order": "94cdf48deff9ada953fa4e849387d9ca",
        },
        {
            "n": "98baef3b6c48e5aa8a67d1acd626ceff",
            "n_or": "5f6df6002bc71ca2d81a7492de37025d",
            "n_pa": "5f6df6002bc71ca2d81a7492de37025d",
            "N_or": "5f6df6002bc71ca2d81a7492de37025d",
            "N_pa": "abe523a39e9e2ecd89e834521db2eb9d",
        },
    ),
]


@pytest.mark.parametrize("scenario, columns, fields", PINNED, ids=["entangled", "product_pa"])
def test_simulate_matches_pinned_digests(scenario, columns, fields):
    stream, curve = simulate(scenario)
    assert {c: _digest(getattr(stream, c)) for c in COLUMNS} == columns
    assert {f: _digest(getattr(curve, f)) for f in fields} == fields


# ---------------------------------------------------------------------------
# histogram on sorted and unsorted streams

CURVE_FIELDS = ("n", "n_or", "n_pa", "N_or", "N_pa")
GRID_POINTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


@st.composite
def histogram_cases(draw):
    # times on or between the grid points, zero included, ties within and
    # across pairs; a pair may have no second emission and any species, so
    # some categories stay empty
    mode = draw(st.sampled_from(["entangled", "product"]))
    n = draw(st.integers(0, 25))
    times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 3.0, 4.0])
    t1 = np.array(draw(st.lists(times, min_size=n, max_size=n)))
    species_1 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
    side_1 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
    ids = np.arange(n)
    if mode == "entangled":
        delay = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
        kept = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        columns = (
            np.concatenate([ids, ids[kept]]),
            np.concatenate([t1, (t1 + delay)[kept]]),
            np.concatenate([species_1, species_1[kept] ^ 1]),
            np.concatenate([side_1, side_1[kept] ^ 1]),
            np.repeat(np.array([FIRST_CODE, SECOND_CODE], np.uint8), [n, kept.sum()]),
        )
    else:
        columns = (ids, t1, species_1, side_1, np.full(n, FIRST_CODE, np.uint8))
    stream = EventStream(*columns)
    perm = np.array(draw(st.permutations(range(len(stream)))), dtype=np.intp)
    grid = sorted(draw(st.sets(st.sampled_from(GRID_POINTS[1:]), max_size=5)))
    n0 = n + draw(st.integers(0, 3)) or 1
    return mode, stream, perm, np.array([0.0, *grid]), n0


@settings(max_examples=300, deadline=None)
@given(histogram_cases())
def test_histogram_sorted_and_shuffled_streams_agree(case):
    mode, stream, perm, grid, n0 = case
    by_time = stream.sorted_by_time()
    shuffled = EventStream(*(getattr(by_time, c)[perm] for c in COLUMNS))
    a = histogram(by_time, grid, n0, mode=mode)
    b = histogram(shuffled, grid, n0, mode=mode)
    for f in CURVE_FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        assert getattr(a, f).dtype == np.int64
    # photon counts straight from their definition
    at_or_before = stream.time[:, None] <= grid
    for f, code in (("N_or", OR_CODE), ("N_pa", PA_CODE)):
        want = np.count_nonzero(at_or_before & (stream.species == code)[:, None], axis=0)
        np.testing.assert_array_equal(getattr(a, f), want)


def _brute_curve(stream, grid, n0, mode):
    # every curve field straight from its definition, one row at a time
    at = stream.time[:, None] <= grid

    def count(order, species):
        rows = (stream.order == order) & (stream.species == species)
        return np.count_nonzero(at & rows[:, None], axis=0)

    f_or, f_pa = count(FIRST_CODE, OR_CODE), count(FIRST_CODE, PA_CODE)
    if mode == "product":
        zeros = np.zeros(grid.size, dtype=np.int64)
        return {"n": n0 - f_or - f_pa, "n_or": zeros, "n_pa": zeros, "N_or": f_or, "N_pa": f_pa}
    s_or, s_pa = count(SECOND_CODE, OR_CODE), count(SECOND_CODE, PA_CODE)
    return {
        "n": n0 - f_or - f_pa,
        "n_or": f_pa - s_or,
        "n_pa": f_or - s_pa,
        "N_or": f_or + s_or,
        "N_pa": f_pa + s_pa,
    }


@settings(max_examples=300, deadline=None)
@given(histogram_cases(), st.sampled_from([1, 3, 7]), st.booleans())
def test_histogram_counts_across_block_edges(case, block, late):
    # with blocks of 1, 3 or 7 rows, grid points fall before the first row,
    # on block edges and past the last row; late moves every row past the
    # last grid point, and the streams include empty ones and n0 = 1
    mode, stream, perm, grid, n0 = case
    if late:
        stream = EventStream(
            stream.pair_id, stream.time + 5.0, stream.species, stream.side, stream.order
        )
    by_time = stream.sorted_by_time()
    shuffled = EventStream(*(getattr(by_time, c)[perm] for c in COLUMNS))
    want = _brute_curve(stream, grid, n0, mode)
    with mock.patch("decaylab.montecarlo._BLOCK", block):
        for s in (by_time, shuffled):
            curve = histogram(s, grid, n0, mode=mode)
            for f in CURVE_FIELDS:
                np.testing.assert_array_equal(getattr(curve, f), want[f])


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("n0", [1, 2, 23])
@pytest.mark.parametrize("mode", ["entangled", "product"])
def test_simulate_is_the_same_for_any_block_size(block, n0, mode):
    # draws, code decoding and counts each run a _BLOCK at a time
    species = Species.OR if mode == "product" else None
    rates = RateSet(1.3, 0.7, w_or=0.2 - 0.1j, w_pa=-0.3)
    scenario = Scenario(n0=n0, rates=rates, mode=mode, product_species=species, seed=8)
    want, want_curve = simulate(scenario)
    with mock.patch("decaylab.montecarlo._BLOCK", block):
        got, curve = simulate(scenario)
    for c in COLUMNS:
        assert getattr(got, c).tobytes() == getattr(want, c).tobytes(), c
    for f in CURVE_FIELDS:
        assert getattr(curve, f).tobytes() == getattr(want_curve, f).tobytes(), f
