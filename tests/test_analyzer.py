"""Tests for classification, reconstruction, rate fits, and detection."""

import copy
import inspect
import pickle
import tracemalloc
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decaylab import (
    ClassifiedCounts,
    DataError,
    DecayLabError,
    DetectionVerdict,
    DomainError,
    EntangledRates,
    EventStream,
    InsufficientDataError,
    PopulationCurve,
    RateSet,
    Scenario,
    Species,
    UnclassifiableError,
    Verdict,
    classify,
    default_threshold,
    derive_rates,
    detect,
    erase_identities,
    estimate_rates,
    evaluate_curve,
    histogram,
    pair_substream,
    product_model_distance,
    reconstruct,
    sample_pair,
    simulate,
)
from decaylab.analyzer import _CHUNK, _SEGMENT, _join, _ordered, _segment_gaps, _sup_distance
from decaylab.montecarlo import (
    FIRST_CODE,
    L_CODE,
    OR_CODE,
    PA_CODE,
    R_CODE,
    SECOND_CODE,
    UNKNOWN_CODE,
    _nondecreasing,
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


def _hand_stream():
    # pair 0: or photon at t=1 (first), pa photon at t=2 (second)
    return _stream(
        [0, 0], [1.0, 2.0], [OR_CODE, PA_CODE], [L_CODE, R_CODE], [FIRST_CODE, SECOND_CODE]
    )


# ---------------------------------------------------------------------------
# classification


def test_classify_hand_case_between_emissions():
    counts = classify(_hand_stream(), [1.5], n0=1)
    assert counts.n1_or.tolist() == [1]
    assert counts.n1_pa.tolist() == [0]
    assert counts.n2_or.tolist() == [0]
    assert counts.n2_pa.tolist() == [0]


def test_classify_hand_case_after_both():
    counts = classify(_hand_stream(), [3.0], n0=1)
    assert counts.n1_or.tolist() == [1]
    assert counts.n2_pa.tolist() == [1]
    assert counts.photons(Species.PA).tolist() == [1]


def test_classify_empty_stream():
    empty = _stream([], [], [], [], [])
    counts = classify(empty, [0.5, 1.5], n0=5)
    for name in ("n1_or", "n1_pa", "n2_or", "n2_pa"):
        assert getattr(counts, name).tolist() == [0, 0]


def test_detect_empty_stream():
    empty = _stream([], [], [], [], [])
    for source in (empty, erase_identities(empty)):
        verdict = detect(source, 5, RS11, min_pairs=1)
        # no photon: distance 1 from every product curve, no companion mass
        shape = {"shape_or": 1.0, "shape_pa": 1.0, "product_or": 1.0, "product_pa": 1.0}
        assert verdict.distances == shape | {"mass_or": 0.0, "mass_pa": 0.0}
        assert verdict.verdict is Verdict.INCONCLUSIVE and verdict.reason == "no photons"
        assert verdict.fitted_rates is None


@pytest.mark.parametrize("n0", [5, 1000])
def test_detect_no_photons_is_inconclusive(n0):
    # an empty record once read ENTANGLED at n0 = 1000 and PRODUCT at n0 = 5
    empty = _stream([], [], [], [], [])
    zeros = np.zeros(3, np.int64)
    grid = [0.0, 1.0, 2.0]
    counts = ClassifiedCounts(grid, zeros, zeros, zeros, zeros, n0=n0)
    curve = PopulationCurve(grid, np.full(3, n0), *[np.zeros(3)] * 4, n0)
    for source in (empty, erase_identities(empty), counts, curve):
        verdict = detect(source, n0, RS11, min_pairs=1)
        assert verdict.verdict is Verdict.INCONCLUSIVE and verdict.reason == "no photons"
    # the sample-size rule comes first
    assert detect(empty, n0, RS11, min_pairs=n0 + 1).reason.startswith("sample size")


def test_detect_at_rates_whose_model_exponent_overflows():
    # t * -gamma passes the float range once t > 1.8; its limit expm1(-inf)
    # = -1 is exact, so detect raises no RuntimeWarning (an error here)
    stream, curve = simulate(Scenario(n0=2000, rates=RS11, seed=1))
    for source in (stream, erase_identities(stream)):
        verdict = detect(source, 2000, RateSet(1e308, 1e308))
        assert verdict.verdict is Verdict.ENTANGLED and verdict.statistic == 1.0
    # the grid ends at t_max, before the last photons
    assert detect(curve, 2000, RateSet(1e308, 1e308)).verdict is Verdict.ENTANGLED
    # product_model_distance takes the same guard when called directly
    assert product_model_distance(stream, 2000, Species.OR, 1e308) == 1.0


def test_sorting_an_erased_stream_copies_no_constant_column():
    stream, _ = simulate(Scenario(n0=200, rates=RS11, seed=4))
    perm = np.random.default_rng(2).permutation(len(stream))
    pair_id, time, species, side, order = (getattr(stream, c)[perm] for c in COLUMNS)
    blind = erase_identities(_stream(pair_id, time, species, side, order))
    ordered = blind.sorted_by_time()
    for c in ("pair_id", "order"):
        column = getattr(ordered, c)
        assert column.strides == (0,) and np.shares_memory(column, getattr(blind, c))
    for c in ("time", "species", "side"):
        assert np.array_equal(getattr(ordered, c), getattr(stream, c))


def test_classify_is_order_invariant():
    stream, _ = simulate(Scenario(n0=200, rates=RateSet(1.5, 0.8, w_or=0.1), seed=31))
    grid = np.linspace(0.0, 6.0, 25)
    base = classify(stream, grid, 200)
    perm = np.random.default_rng(0).permutation(len(stream))
    shuffled = _stream(
        stream.pair_id[perm],
        stream.time[perm],
        stream.species[perm],
        stream.side[perm],
        stream.order[perm],
    )
    other = classify(shuffled, grid, 200)
    for name in ("n1_or", "n1_pa", "n2_or", "n2_pa"):
        assert np.array_equal(getattr(base, name), getattr(other, name))


def test_classify_rejects_erased_stream():
    erased = erase_identities(_hand_stream())
    with pytest.raises(UnclassifiableError):
        classify(erased, [1.0], n0=1)


def test_classify_rejects_structural_violations():
    two_firsts = _stream([0, 0], [1.0, 2.0], [0, 1], [0, 1], [0, 0])
    with pytest.raises(DataError):
        classify(two_firsts, [1.0], n0=1)
    orphan_second = _stream([0], [1.0], [0], [0], [SECOND_CODE])
    with pytest.raises(DataError):
        classify(orphan_second, [1.0], n0=1)
    same_species = _stream([0, 0], [1.0, 2.0], [0, 0], [0, 1], [0, 1])
    with pytest.raises(DataError):
        classify(same_species, [1.0], n0=1)
    inverted = _stream([0, 0], [2.0, 1.0], [0, 1], [0, 1], [0, 1])
    with pytest.raises(DataError):
        classify(inverted, [1.0], n0=1)
    with pytest.raises(DataError):
        classify(_stream([5, 5], [1.0, 2.0], [0, 1], [0, 1], [0, 1]), [1.0], n0=2)


def _pair_check_reference(stream, n0):
    """The pair-structure checks of classify, one n0-long scatter per column;
    returns the DataError message, or None for a sound stream."""
    pid = stream.pair_id
    first, second = stream.order == FIRST_CODE, stream.order == SECOND_CODE
    bc1 = np.bincount(pid[first], minlength=n0)
    bc2 = np.bincount(pid[second], minlength=n0)
    if bc1.max() > 1:
        return "a pair carries two first emissions"
    if bc2.max() > 1:
        return "a pair carries two second emissions"
    if np.any(bc2 > bc1):
        return "a second emission has no matching first"
    both = (bc1 == 1) & (bc2 == 1)
    species_1, species_2 = np.zeros(n0, np.uint8), np.zeros(n0, np.uint8)
    t1, t2 = np.zeros(n0), np.zeros(n0)
    species_1[pid[first]] = stream.species[first]
    species_2[pid[second]] = stream.species[second]
    t1[pid[first]] = stream.time[first]
    t2[pid[second]] = stream.time[second]
    if np.any(species_1[both] == species_2[both]):
        return "a pair emitted the same species twice"
    if np.any(t2[both] < t1[both]):
        return "a second emission precedes its first"
    return None


@st.composite
def small_streams(draw):
    # a few pairs and a few rows, so that every kind of violation shows up
    n0 = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    stream = _stream(
        column(st.integers(0, n0 - 1)),
        column(st.sampled_from([0.0, 1.0, 2.0])),
        column(st.integers(0, 1)),
        column(st.integers(0, 1)),
        column(st.sampled_from([FIRST_CODE, SECOND_CODE])),
    )
    return stream, n0


@settings(max_examples=300, deadline=None)
@given(small_streams())
def test_classify_pair_checks_match_reference(case):
    stream, n0 = case
    want = _pair_check_reference(stream, n0)
    if want is None:
        classify(stream, [1.0], n0)
    else:
        with pytest.raises(DataError) as err:
            classify(stream, [1.0], n0)
        assert str(err.value) == want


@settings(max_examples=300, deadline=None)
@given(small_streams())
def test_estimate_rates_pair_checks_match_classify(case):
    stream, n0 = case
    want = _pair_check_reference(stream, n0)
    if want is None:
        try:
            estimate_rates(stream, n0, min_pairs=0)
        except DataError as exc:
            # a sound stream may still be too short or too quick to fit
            assert isinstance(exc, InsufficientDataError) or "sum to zero" in str(exc)
    else:
        with pytest.raises(DataError) as err:
            estimate_rates(stream, n0, min_pairs=0)
        assert str(err.value) == want


COLUMNS = ("pair_id", "time", "species", "side", "order")


def _fresh(stream):
    return EventStream(*(np.array(getattr(stream, c)) for c in COLUMNS))


def _outcome(call):
    """A call's result in comparable form, or its error's type and message."""
    try:
        result = call()
    except DecayLabError as exc:
        return type(exc), str(exc)
    if isinstance(result, ClassifiedCounts):
        return [getattr(result, f).tolist() for f in ("n1_or", "n1_pa", "n2_or", "n2_pa")]
    return _bits(astuple(result))


@settings(max_examples=300, deadline=None)
@given(small_streams(), st.integers(0, 5), st.booleans())
def test_pair_join_memo_matches_fresh_streams(case, other_n0, classify_first):
    # the join is kept on the stream after its first use: later calls, with
    # either n0 and in either order, must still answer like a fresh stream
    stream, n0 = case
    calls = [
        lambda s, m: classify(s, [1.0], m),
        lambda s, m: estimate_rates(s, m, min_pairs=0),
    ]
    if not classify_first:
        calls.reverse()
    for m in (other_n0, n0, other_n0):
        for call in calls:
            assert _outcome(lambda: call(stream, m)) == _outcome(lambda: call(_fresh(stream), m))


@pytest.mark.parametrize("erased", [False, True], ids=["identified", "erased"])
def test_identities_are_scanned_once_per_stream(erased):
    stream, _ = simulate(Scenario(n0=300, rates=RS11, seed=5))
    if erased:
        stream = erase_identities(stream)
    scan = mock.Mock(wraps=EventStream.has_identities.fget)
    with mock.patch.object(EventStream, "has_identities", property(scan)):
        for _ in range(3):
            for call in (
                lambda: classify(stream, [1.0], 300),
                lambda: estimate_rates(stream, 300, min_pairs=1),
            ):
                if erased:
                    with pytest.raises(UnclassifiableError):
                        call()
                else:
                    call()
    assert scan.call_count == 1


def _sparse(stream, scale=10**12):
    # the same stream with pair p renamed p * scale
    return EventStream(stream.pair_id * scale, *(getattr(stream, c) for c in COLUMNS[1:]))


@settings(max_examples=300, deadline=None)
@given(small_streams())
def test_sparse_pair_ids_match_dense_ids(case):
    # ids up to 3e12 would once size the join's table by the largest id
    stream, n0 = case
    for call in (
        lambda s, m: classify(s, [1.0], m),
        lambda s, m: estimate_rates(s, m, min_pairs=0),
    ):
        assert _outcome(lambda: call(_sparse(stream), n0 * 10**12)) == _outcome(
            lambda: call(stream, n0)
        )


def test_sparse_pair_ids_of_a_simulated_stream():
    sc = Scenario(n0=5000, rates=RateSet(1.0, 0.5, w_or=0.2j), seed=11)
    stream, _ = simulate(sc)
    sparse, n0 = _sparse(stream), sc.n0 * 10**12
    dense, counts = classify(stream, sc.grid(), sc.n0), classify(sparse, sc.grid(), n0)
    for name in ("n1_or", "n1_pa", "n2_or", "n2_pa"):
        assert np.array_equal(getattr(counts, name), getattr(dense, name))
    assert estimate_rates(sparse, n0) == estimate_rates(stream, sc.n0)


N0_CALLS = {
    "classify": lambda stream, n0: classify(stream, [1.0], n0),
    "estimate_rates": lambda stream, n0: estimate_rates(stream, n0, min_pairs=1),
    "histogram": lambda stream, n0: histogram(stream, [0.0, 1.0], n0),
    "Scenario": lambda stream, n0: Scenario(n0=n0, rates=RS11),
    "detect": lambda stream, n0: detect(stream, n0, RS11).fitted_rates,
    "default_threshold": lambda stream, n0: default_threshold(n0),
}


@pytest.mark.parametrize(
    "entry,n0",
    [pytest.param(e, 2**63, id=f"{e}-2**63") for e in N0_CALLS if e != "default_threshold"]
    + [pytest.param(e, 10**400, id=f"{e}-10**400") for e in N0_CALLS],
)
def test_n0_beyond_int64_is_a_domain_error(entry, n0):
    # int64 counts, and float(n0) for the real-valued rule, once ended in a
    # raw OverflowError here
    with pytest.raises(DomainError, match="n0 must be a"):
        N0_CALLS[entry](_hand_stream(), n0)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_stream_copies_keep_read_only_columns_and_no_kept_join(clone):
    # a copy that carried the kept join over writable columns could go stale
    stream, _ = simulate(Scenario(n0=50, rates=RS11, seed=3))
    estimate_rates(stream, 50, min_pairs=1)
    twin = clone(stream)
    for c in COLUMNS:
        assert not getattr(twin, c).flags.writeable
        assert np.array_equal(getattr(twin, c), getattr(stream, c))
    assert not any(key.startswith("_") for key in vars(twin))


@pytest.mark.parametrize(
    "call",
    [
        lambda stream: classify(stream, [1.0], True),
        lambda stream: estimate_rates(stream, True, min_pairs=1),
        lambda stream: histogram(stream, [0.0, 1.0], True),
        lambda stream: ClassifiedCounts(np.array([1.0]), *[np.zeros(1, np.int64)] * 4, True),
        lambda stream: Scenario(n0=True, rates=RS11),
    ],
    ids=["classify", "estimate_rates", "histogram", "ClassifiedCounts", "Scenario"],
)
def test_bool_n0_is_rejected(call):
    with pytest.raises(DomainError):
        call(_hand_stream())


def test_classified_counts_validation():
    grid = np.array([0.5, 1.5])
    zeros = np.zeros(2, dtype=np.int64)
    with pytest.raises(DomainError):
        ClassifiedCounts(grid, np.array([2, 1]), zeros, zeros, zeros, n0=5)
    with pytest.raises(DomainError):
        ClassifiedCounts(grid, np.array([3, 3]), np.array([3, 3]), zeros, zeros, n0=5)
    with pytest.raises(DomainError):
        ClassifiedCounts(np.array([1.5, 0.5]), zeros, zeros, zeros, zeros, n0=5)
    for nan_grid in ([0.5, np.nan], [np.nan, 0.5], [np.nan, np.nan]):
        with pytest.raises(DomainError):
            ClassifiedCounts(np.array(nan_grid), zeros, zeros, zeros, zeros, n0=5)
    with pytest.raises(DomainError):
        ClassifiedCounts(np.array([np.nan]), zeros[:1], zeros[:1], zeros[:1], zeros[:1], n0=5)


@pytest.mark.parametrize("grid", [[0.0, np.nan], [np.nan, 1.0], [0.0, 1.0, np.nan, 3.0]])
def test_classify_rejects_nan_grid_points(grid):
    # NaN once passed the diff <= 0 test: classify counted, and reconstruct
    # built a PopulationCurve with a NaN time
    stream, _ = simulate(Scenario(n0=200, rates=RS11, seed=3))
    with pytest.raises(DomainError, match="grid"):
        classify(stream, grid, 200)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_inverts_classification_exactly():
    sc = Scenario(n0=3000, rates=RateSet(2.0, 0.9, w_or=0.2, w_pa=-0.1j), seed=14)
    stream, direct = simulate(sc)
    rebuilt = reconstruct(classify(stream, sc.grid(), sc.n0))
    for name in ("n", "n_or", "n_pa", "N_or", "N_pa"):
        assert np.array_equal(getattr(rebuilt, name), getattr(direct, name))
    coarse = np.array([0.0, 0.5, 2.0, 7.0])
    rebuilt2 = reconstruct(classify(stream, coarse, sc.n0))
    direct2 = histogram(stream, coarse, sc.n0)
    for name in ("n", "n_or", "n_pa", "N_or", "N_pa"):
        assert np.array_equal(getattr(rebuilt2, name), getattr(direct2, name))


def test_reconstruct_empty_counts():
    grid = np.array([0.0, 1.0])
    zeros = np.zeros(2, dtype=np.int64)
    curve = reconstruct(ClassifiedCounts(grid, zeros, zeros, zeros, zeros, n0=9))
    assert curve.n.tolist() == [9, 9]
    assert curve.N_or.tolist() == [0, 0]


def test_reconstruct_rejects_inconsistent_counts():
    grid = np.array([0.0, 1.0])
    zeros = np.zeros(2, dtype=np.int64)
    bad = ClassifiedCounts(grid, zeros, zeros, np.array([0, 1]), zeros, n0=9)
    with pytest.raises(DataError):
        reconstruct(bad)


# ---------------------------------------------------------------------------
# identity erasure


def test_erase_identities_keeps_observables():
    stream, _ = simulate(Scenario(n0=100, rates=RS11, seed=1))
    blind = erase_identities(stream)
    assert len(blind) == len(stream)
    assert np.array_equal(blind.time, stream.time)
    assert np.array_equal(blind.species, stream.species)
    assert np.array_equal(blind.side, stream.side)
    assert not blind.has_identities
    with pytest.raises(DataError):
        blind[0]


def test_erase_identities_shares_the_observed_columns():
    stream, _ = simulate(Scenario(n0=100, rates=RS11, seed=1))
    before = {c: getattr(stream, c).copy() for c in COLUMNS}
    blind = erase_identities(stream)
    for c in ("time", "species", "side"):
        assert np.shares_memory(getattr(blind, c), getattr(stream, c))
    for c in ("pair_id", "order"):
        assert not np.shares_memory(getattr(blind, c), getattr(stream, c))
    for c, column in before.items():
        assert np.array_equal(getattr(stream, c), column)
    assert stream.has_identities


def test_erase_identities_allocates_no_column():
    # constant identity views and no re-check of the shared columns: a
    # 16 B/pair pair-id column and 1 B/row order column once came to 3.4 MB here
    stream, _ = simulate(Scenario(n0=100_000, rates=RS11, seed=5))
    tracemalloc.start()
    try:
        blind = erase_identities(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    for c, code in (("pair_id", -1), ("order", 2)):
        column = getattr(blind, c)
        assert column.shape == (len(stream),) and not column.flags.writeable
        assert column.dtype == getattr(stream, c).dtype and np.all(column == code)


@pytest.mark.parametrize("name", ["time_ordered", "side_ordered", "product"])
@pytest.mark.parametrize("view_kept", [True, False], ids=["view_kept", "fresh"])
def test_detect_on_erased_views_matches_materialised_erasure(analyzer_streams, name, view_kept):
    # the constant identity columns change no bit of detect: the same verdict
    # as on a stream whose identity columns are filled arrays
    n0, rates, _, streams = analyzer_streams
    source = _fresh(streams[name])
    if view_kept:
        detect(source, n0, rates)
    m = len(source)
    filled = EventStream(
        np.full(m, -1), source.time.copy(), source.species, source.side, np.full(m, 2, np.uint8)
    )
    got, want = detect(erase_identities(source), n0, rates), detect(filled, n0, rates)
    assert got.verdict is want.verdict and got.reason == want.reason
    assert _typed_bits([got.statistic, got.threshold]) == _typed_bits(
        [want.statistic, want.threshold]
    )
    assert got.distances.keys() == want.distances.keys()
    assert _typed_bits(got.distances.values()) == _typed_bits(want.distances.values())


# ---------------------------------------------------------------------------
# rate estimation


def test_estimate_rates_recovers_truth():
    sc = Scenario(n0=1_000_000, rates=RS11, seed=5)
    stream, _ = simulate(sc)
    est = estimate_rates(stream, sc.n0)
    assert est.n_pairs == sc.n0
    assert est.gamma_t_se == est.gamma_t_est / np.sqrt(sc.n0)
    assert abs(est.gamma_t_est - 2.0) < 3.0 * est.gamma_t_se
    assert abs(est.gamma_or_est - 1.0) < 4.0 * est.gamma_or_se
    assert abs(est.gamma_pa_est - 1.0) < 4.0 * est.gamma_pa_se
    assert est.n_second_or + est.n_second_pa == sc.n0


def test_estimate_rates_product_stream():
    sc = Scenario(
        n0=5000, rates=RateSet(1.0, 0.5), mode="product", product_species=Species.PA, seed=3
    )
    stream, _ = simulate(sc)
    est = estimate_rates(stream, sc.n0)
    assert abs(est.gamma_t_est - 0.5) < 4.0 * est.gamma_t_se
    assert np.isnan(est.gamma_or_est) and est.n_second_or == 0
    assert np.isnan(est.gamma_pa_est) and est.n_second_pa == 0


def test_estimate_rates_needs_enough_pairs():
    stream, _ = simulate(Scenario(n0=50, rates=RS11, seed=2))
    with pytest.raises(InsufficientDataError):
        estimate_rates(stream, 50)
    est = estimate_rates(stream, 50, min_pairs=10)
    assert est.n_pairs == 50
    with pytest.raises(UnclassifiableError):
        estimate_rates(erase_identities(stream), 50)


def test_estimate_rates_rejects_two_firsts():
    # pair 0 emits two firsts: three first emissions from two pairs
    stream = _stream([1, 0, 0, 1], [0.5, 1.0, 1.5, 2.0], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1])
    with pytest.raises(DataError, match="two first"):
        estimate_rates(stream, 2, min_pairs=1)


def test_estimate_rates_rejects_two_seconds():
    # pair 0 emits two seconds: three pa seconds from two pairs
    stream = _stream(
        [1, 0, 1, 0, 0],
        [0.5, 1.0, 1.0, 2.0, 3.0],
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
    )
    with pytest.raises(DataError, match="two second"):
        estimate_rates(stream, 2, min_pairs=1)


def _zero_delay_stream():
    # pair 0's second emission leaves no delay after its first, which
    # classify accepts, so the pa delays sum to zero
    return _stream([0, 0], [1.0, 1.0], [OR_CODE, PA_CODE], [L_CODE, R_CODE], [0, 1])


def test_estimate_rates_rejects_zero_delay_sum():
    stream = _zero_delay_stream()
    classify(stream, [0.0, 1.0], n0=1)
    with pytest.raises(DataError, match="pa second-emission delays sum to zero"):
        estimate_rates(stream, 1, min_pairs=1)


def test_fitted_rates_rejects_zero_delay_sum():
    verdict = detect(_zero_delay_stream(), 1, RS11, min_pairs=1)
    with pytest.raises(DataError, match="delays sum to zero"):
        verdict.fitted_rates


@pytest.mark.parametrize(
    "t, species, order, match",
    [
        # two firsts whose times sum past 1.8e308: the rate would read 0
        pytest.param([1e308, 1e308], [0, 1], [0, 0], "first-emission times sum to inf,", id="firsts"),
        # two pa seconds 1e308 after their or firsts: the pa delays sum past it
        pytest.param(
            [1.0, 1.0, 1e308, 1e308], [0, 0, 1, 1], [0, 0, 1, 1],
            "pa second-emission delays sum to inf,", id="delays",
        ),
        # two firsts whose times sum to a subnormal: the rate 2 / 1e-323 is inf
        pytest.param(
            [5e-324, 5e-324], [0, 1], [0, 0], "first-emission times sum to 1e-323,", id="subnormal"
        ),
    ],
)
def test_estimate_rates_rejects_sums_without_a_finite_rate(t, species, order, match):
    pairs = [0, 1, 0, 1][: len(t)]
    stream = _stream(pairs, t, species, [L_CODE] * len(t), order)
    with pytest.raises(DataError, match=match):
        estimate_rates(stream, 2, min_pairs=1)
    with pytest.raises(DataError, match=match):
        detect(stream, 2, RS11, min_pairs=1).fitted_rates


# ---------------------------------------------------------------------------
# detection


def test_frozen_shape_distance_under_modification():
    # dense analytic pa-photon curve at W = 0.2 against the free product
    # model; frozen sup distance over [0, 25] at step 1e-4
    sc = Scenario(
        n0=1000,
        rates=RateSet(1.0, 1.0, w_or=0.2, w_pa=0.2),
        t_max=25.0,
        grid_points=250_001,
    )
    curve = evaluate_curve(sc)
    d = product_model_distance(curve, 1000.0, Species.PA, 1.0)
    assert d == pytest.approx(0.087036713, abs=1e-6)


def test_detect_entangled_curve():
    sc = Scenario(n0=10_000, rates=RS11, t_max=10.0)
    verdict = detect(evaluate_curve(sc), sc.n0, RS11)
    assert verdict.verdict is Verdict.ENTANGLED
    assert verdict.statistic > 0.99
    assert verdict.threshold == default_threshold(sc.n0)
    # both single-species hypotheses fail on the companion photon mass
    assert verdict.distances["mass_or"] > 0.99
    assert verdict.distances["mass_pa"] > 0.99


def test_detect_product_curve():
    sc = Scenario(
        n0=10_000, rates=RS11, mode="product", product_species=Species.PA, t_max=10.0
    )
    verdict = detect(evaluate_curve(sc), sc.n0, RS11)
    assert verdict.verdict is Verdict.PRODUCT
    assert verdict.statistic <= 1e-15  # one rounding of n0 * model / n0
    assert verdict.distances["shape_pa"] <= 1e-15
    assert verdict.distances["mass_or"] == 0.0


def test_detect_streams_both_ways():
    ent, _ = simulate(Scenario(n0=20_000, rates=RS11, seed=44))
    v_ent = detect(ent, 20_000, RS11)
    assert v_ent.verdict is Verdict.ENTANGLED
    assert v_ent.fitted_rates is not None
    assert abs(v_ent.fitted_rates.gamma_t_est - 2.0) < 4.0 * v_ent.fitted_rates.gamma_t_se
    prod, _ = simulate(
        Scenario(n0=20_000, rates=RS11, mode="product", product_species=Species.OR, seed=45)
    )
    v_prod = detect(prod, 20_000, RS11)
    assert v_prod.verdict is Verdict.PRODUCT


def test_detect_works_without_identities():
    stream, _ = simulate(Scenario(n0=20_000, rates=RS11, seed=46))
    blind = erase_identities(stream)
    verdict = detect(blind, 20_000, RS11)
    assert verdict.verdict is Verdict.ENTANGLED
    assert verdict.fitted_rates is None
    perm = np.random.default_rng(1).permutation(len(blind))
    shuffled = EventStream(
        blind.pair_id[perm], blind.time[perm], blind.species[perm], blind.side[perm], blind.order[perm]
    )
    assert detect(shuffled, 20_000, RS11).statistic == verdict.statistic


def test_detect_counts_source():
    sc = Scenario(n0=20_000, rates=RS11, seed=47)
    stream, _ = simulate(sc)
    counts = classify(stream, sc.grid(), sc.n0)
    verdict = detect(counts, sc.n0, RS11)
    assert verdict.verdict is Verdict.ENTANGLED


def test_detect_small_sample_is_inconclusive():
    sc = Scenario(n0=10, rates=RS11, t_max=10.0)
    verdict = detect(evaluate_curve(sc), sc.n0, RS11)
    assert verdict.verdict is Verdict.INCONCLUSIVE
    assert "sample size" in verdict.reason


def test_detect_threshold_band_is_inconclusive():
    sc = Scenario(n0=10_000, rates=RS11, t_max=10.0)
    curve = evaluate_curve(sc)
    first = detect(curve, sc.n0, RS11)
    banded = detect(curve, sc.n0, RS11, threshold=first.statistic)
    assert banded.verdict is Verdict.INCONCLUSIVE
    assert "band" in banded.reason


def test_detect_validation():
    sc = Scenario(n0=1000, rates=RS11, t_max=10.0)
    curve = evaluate_curve(sc)
    with pytest.raises(DomainError):
        detect(curve, 1000, RS11, threshold=-0.1)
    with pytest.raises(DomainError):
        detect("photons", 1000, RS11)
    with pytest.raises(DomainError):
        product_model_distance(curve, 1000.0, Species.OR, 0.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("kind", ["stream", "curve"])
def test_product_model_distance_needs_a_finite_positive_gamma(kind, gamma):
    # an infinite gamma once gave 1.0 on a stream but NaN and a
    # RuntimeWarning on a curve; NaN passed the gamma <= 0 test
    sc = Scenario(n0=1000, rates=RS11, t_max=10.0, seed=2)
    source = simulate(sc)[0] if kind == "stream" else evaluate_curve(sc)
    with pytest.raises(DomainError, match="gamma"):
        product_model_distance(source, 1000, Species.OR, gamma)


def _stream_distance_reference(sorted_times, n0, gamma):
    # the plain form of the sup distance, one temporary per step
    k = sorted_times.size
    tail = abs(k / n0 - 1.0)
    if k == 0:
        return tail
    model = -np.expm1(-gamma * sorted_times)
    steps = np.arange(k, dtype=float)
    before = np.max(np.abs(model - steps / n0))
    after = np.max(np.abs((steps + 1.0) / n0 - model))
    return max(before, after, tail)


def _distance(sorted_times, n0, gamma):
    """_sup_distance of sorted times, read as the or rows of the kept view
    of an erased stream that holds only them."""
    k = sorted_times.size
    stream = EventStream(
        np.full(k, -1), sorted_times, np.full(k, OR_CODE), np.zeros(k, int), np.full(k, UNKNOWN_CODE)
    )
    time, species, _, ends, prefix = _ordered(stream)
    return _sup_distance(time, species, OR_CODE, ends, prefix[OR_CODE], n0, gamma)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1e-9, 0.1, 0.5, 0.7, 1.0, 2.0, 30.0]), max_size=40).map(sorted),
    st.one_of(st.integers(1, 60), st.floats(0.5, 1e7)),
    st.floats(1e-3, 1e3),
)
def test_stream_distance_matches_reference_bits(times, n0, gamma):
    times = np.array(times, dtype=float)
    got = _distance(times, n0, gamma)
    want = _stream_distance_reference(times, n0, gamma)
    assert type(got) is type(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize(
    "k", [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7], ids=lambda k: f"k{k}"
)
@pytest.mark.parametrize("n0_kind", ["k", "float"])
def test_stream_distance_matches_reference_across_blocks(k, n0_kind):
    assert _CHUNK == 2**15 and _CHUNK % _SEGMENT == 0
    rng = np.random.default_rng(k)
    # exact ties and zeros at the front, so equal times straddle block edges
    times = np.sort(np.round(rng.exponential(1.0, k), 3))
    n0 = max(k, 1) if n0_kind == "k" else 1.7 * k + 0.3
    for gamma in (0.5, 1.0, 37.0):
        got = _distance(times, n0, gamma)
        want = _stream_distance_reference(times, n0, gamma)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("k", [2**15 + 1, 3 * 2**15 + 7])
def test_stream_distance_counts_every_row_at_block_edges(k):
    # zeros before row p, then times so late that the model is 1: the sup is
    # the gap 1 - p / n0 at row p, so it moves if a block skips row p
    n0 = 2.0 * k
    block = _CHUNK
    for p in sorted({1, block - 1, block, block + 1, 2 * block, 3 * block, k - 1} & set(range(1, k))):
        times = np.zeros(k)
        times[p:] = 1e3
        got = _distance(times, n0, 1.0)
        assert np.float64(got).tobytes() == np.float64(1.0 - p / n0).tobytes()
        assert np.float64(got).tobytes() == np.float64(
            _stream_distance_reference(times, n0, 1.0)
        ).tobytes()


def _bits(values) -> list:
    # floats by their bytes, so NaN matches NaN and -0.0 differs from 0.0
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in values]


def _detect_reference(stream, n0, rates):
    """detect's statistic and distances by boolean-mask gathers and one
    full-length distance per species."""
    distances = {}
    for h, gamma in ((Species.OR, rates.gamma_or), (Species.PA, rates.gamma_pa)):
        code = OR_CODE if h is Species.OR else PA_CODE
        shape = _stream_distance_reference(np.sort(stream.time[stream.species == code]), n0, gamma)
        mass = int(np.count_nonzero(stream.species != code)) / n0
        distances[f"shape_{h.value}"] = shape
        distances[f"mass_{h.companion().value}"] = mass
        distances[f"product_{h.value}"] = max(shape, mass)
    return min(distances["product_or"], distances["product_pa"]), distances


def _classify_reference(stream, grid):
    first, is_or = stream.order == FIRST_CODE, stream.species == OR_CODE
    second = stream.order == SECOND_CODE
    masks = (first & is_or, first & ~is_or, second & is_or, second & ~is_or)
    return [np.searchsorted(np.sort(stream.time[m]), grid, side="right") for m in masks]


def _rates_reference(stream, n0):
    """estimate_rates by an n0-long scatter of first times and mask gathers."""
    first, second = stream.order == FIRST_CODE, stream.order == SECOND_CODE
    t1 = np.full(n0, np.nan)
    t1[stream.pair_id[first]] = stream.time[first]
    delays = stream.time[second] - t1[stream.pair_id[second]]
    is_or = stream.species[second] == OR_CODE
    n_pairs = int(np.count_nonzero(first))
    gamma_t = n_pairs / float(stream.time[first].sum())
    fits = []
    for mask in (is_or, ~is_or):
        k = int(np.count_nonzero(mask))
        rate = k / float(delays[mask].sum()) if k else np.nan
        fits += [rate, rate / np.sqrt(k) if k else np.nan, k]
    return [gamma_t, gamma_t / np.sqrt(n_pairs), n_pairs, *fits]


@pytest.fixture(scope="module")
def analyzer_streams():
    # 1e5 pairs put ~1e5 photons in each species: several distance blocks
    n0 = 100_000
    rates = RateSet(1.3, 0.7, w_or=0.2 + 0.1j, w_pa=-0.3)
    entangled = Scenario(n0=n0, rates=rates, seed=71)
    stream, _ = simulate(entangled)
    by_side = np.lexsort((stream.time, stream.side))
    side_ordered = EventStream(
        *(getattr(stream, c)[by_side] for c in ("pair_id", "time", "species", "side", "order"))
    )
    product, _ = simulate(
        Scenario(n0=n0, rates=rates, mode="product", product_species=Species.PA, seed=72)
    )
    streams = {"time_ordered": stream, "side_ordered": side_ordered, "product": product}
    return n0, rates, entangled.grid(), streams


@pytest.mark.parametrize("name", ["time_ordered", "side_ordered", "product", "erased"])
def test_analyzer_results_match_mask_references(analyzer_streams, name):
    n0, rates, grid, streams = analyzer_streams
    if name == "erased":
        stream = erase_identities(streams["time_ordered"])
    else:
        stream = streams[name]
    verdict = detect(stream, n0, rates)
    statistic, distances = _detect_reference(stream, n0, rates)
    assert _bits([verdict.statistic]) == _bits([statistic])
    assert verdict.distances.keys() == distances.keys()
    assert _bits(verdict.distances.values()) == _bits(distances.values())
    if name == "erased":
        return
    counts = classify(stream, grid, n0)
    got = [counts.n1_or, counts.n1_pa, counts.n2_or, counts.n2_pa]
    for have, want in zip(got, _classify_reference(stream, grid)):
        assert np.array_equal(have, want)
    # histogram's unsorted path gathers per category too
    curve = histogram(stream, grid, n0, mode="product" if name == "product" else "entangled")
    assert np.array_equal(curve.N_or, counts.n1_or + counts.n2_or)
    assert np.array_equal(curve.N_pa, counts.n1_pa + counts.n2_pa)
    want = _bits(_rates_reference(stream, n0))
    assert _bits(astuple(estimate_rates(stream, n0))) == want
    assert _bits(astuple(verdict.fitted_rates)) == want


@pytest.fixture(scope="module")
def million_pair_streams():
    n0 = 1_000_000
    rates = RateSet(0.8, 1.4, w_or=-0.1 + 0.2j, w_pa=0.25)
    entangled = Scenario(n0=n0, rates=rates, seed=73)
    stream, _ = simulate(entangled)
    by_side = np.lexsort((stream.time, stream.side))
    side_ordered = EventStream(*(getattr(stream, c)[by_side] for c in COLUMNS))
    product, _ = simulate(
        Scenario(n0=n0, rates=rates, mode="product", product_species=Species.OR, seed=74)
    )
    streams = {"time_ordered": stream, "side_ordered": side_ordered, "product": product}
    return n0, rates, entangled.grid(), streams


@pytest.mark.parametrize("classify_first", [True, False], ids=["classify_first", "fit_first"])
@pytest.mark.parametrize("name", ["time_ordered", "side_ordered", "product", "erased"])
def test_memoised_join_matches_mask_references_at_1e6(million_pair_streams, name, classify_first):
    # on a fresh stream per case, so the first call builds the join and the
    # calls after it read the kept one; every result must match the references
    n0, rates, grid, streams = million_pair_streams
    source = streams["time_ordered" if name == "erased" else name]
    stream = _fresh(erase_identities(source) if name == "erased" else source)
    verdict = detect(stream, n0, rates)
    statistic, distances = _detect_reference(stream, n0, rates)
    assert _bits([verdict.statistic, *verdict.distances.values()]) == _bits(
        [statistic, *distances.values()]
    )
    if name == "erased":
        assert verdict.fitted_rates is None
        return
    rates_want = _bits(_rates_reference(stream, n0))
    counts_want = [c.tolist() for c in _classify_reference(stream, grid)]
    for _ in range(2):
        steps = ["classify", "fit"] if classify_first else ["fit", "classify"]
        for step in steps:
            if step == "fit":
                assert _bits(astuple(estimate_rates(stream, n0))) == rates_want
            else:
                counts = classify(stream, grid, n0)
                got = [counts.n1_or, counts.n1_pa, counts.n2_or, counts.n2_pa]
                assert [c.tolist() for c in got] == counts_want
    assert _bits(astuple(verdict.fitted_rates)) == rates_want


def _materialised_detect(stream, n0, rates):
    """detect's statistic and distances from each species' times compressed
    out and sorted whole, as detect read every stream before row blocks."""
    distances = {}
    for h, gamma in ((Species.OR, rates.gamma_or), (Species.PA, rates.gamma_pa)):
        code = OR_CODE if h is Species.OR else PA_CODE
        shape = _distance(np.sort(np.compress(stream.species == code, stream.time)), n0, gamma)
        mass = int(np.count_nonzero(stream.species != code)) / n0
        distances[f"shape_{h.value}"] = shape
        distances[f"mass_{h.companion().value}"] = mass
        distances[f"product_{h.value}"] = max(shape, mass)
    return min(distances["product_or"], distances["product_pa"]), distances


def _typed_bits(values) -> list:
    return [(type(v), np.float64(v).tobytes()) for v in values]


def _blocked_case(k, absent):
    rng = np.random.default_rng(k)
    # exact ties and zeros at the front, so equal times straddle row blocks
    time = np.sort(np.round(rng.exponential(1.0, k), 3))
    species = rng.integers(0, 2, k).astype(np.uint8)
    if absent:
        # pa is absent from the first row block and or from the second
        species[: _CHUNK + 5] = OR_CODE
        species[_CHUNK + 5 : 2 * _CHUNK + 9] = PA_CODE
    erased = np.full(k, -1)
    return EventStream(erased, time, species, rng.integers(0, 2, k), np.full(k, 2))


@pytest.mark.parametrize(
    "k,absent",
    [(0, False), (1, False), (2**15 - 1, False), (2**15, False), (2**15 + 1, False)]
    + [(3 * 2**15 + 7, True)],
    ids=lambda v: str(v),
)
def test_blocked_detect_matches_the_materialised_path(k, absent):
    assert _CHUNK == 2**15 and _CHUNK % _SEGMENT == 0
    stream = _blocked_case(k, absent)
    rates = RateSet(1.3, 0.7)
    for n0 in (max(k // 2, 1), 3 * k + 1):
        # a sorted stream is read in row blocks and never sorted
        with mock.patch("decaylab.analyzer._time_order", side_effect=AssertionError):
            verdict = detect(stream, n0, rates, min_pairs=1)
        statistic, distances = _materialised_detect(stream, n0, rates)
        assert _typed_bits([verdict.statistic]) == _typed_bits([statistic])
        assert verdict.distances.keys() == distances.keys()
        assert _typed_bits(verdict.distances.values()) == _typed_bits(distances.values())


def test_side_ordered_stream_is_sorted_once(million_pair_streams):
    # classify, the fit, detect and detect on the erased copy share one view
    n0, rates, grid, streams = million_pair_streams
    stream = _fresh(streams["side_ordered"])
    with mock.patch("decaylab.analyzer._time_order", wraps=_time_order) as sort:
        counts = classify(stream, grid, n0)
        estimate_rates(stream, n0)
        by_side = detect(stream, n0, rates)
        blind = detect(erase_identities(stream), n0, rates)
    assert sort.call_count == 1
    by_time = detect(streams["time_ordered"], n0, rates)
    want = classify(streams["time_ordered"], grid, n0)
    for name in ("n1_or", "n1_pa", "n2_or", "n2_pa"):
        assert np.array_equal(getattr(counts, name), getattr(want, name))
    for verdict in (by_side, blind):
        assert _typed_bits([verdict.statistic]) == _typed_bits([by_time.statistic])
        assert _typed_bits(verdict.distances.values()) == _typed_bits(by_time.distances.values())


def test_detect_on_a_fresh_side_ordered_stream_keeps_one_view(million_pair_streams):
    # cold: the kept 10 B/row view (time, species, order), its time column
    # gathered into the key sort's own buffer, and no other column-sized copy
    n0, rates, _, streams = million_pair_streams
    stream = _fresh(streams["side_ordered"])
    tracemalloc.start()
    try:
        detect(stream, n0, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * len(stream)


@pytest.mark.parametrize(
    "name,bound", [("time_ordered", 10), ("side_ordered", 12), ("product", 10)]
)
def test_a_cold_pair_join_holds_block_scratch(million_pair_streams, name, bound):
    # the join's row-sized arrays are the first-row table and the first
    # times, then the table of seen seconds and the delays: about 7.4 B/row
    # (the old one held 28.5); a side-ordered classify then keeps its view
    n0, _, grid, streams = million_pair_streams
    stream = _fresh(streams[name])
    tracemalloc.start()
    try:
        classify(stream, grid, n0)
        estimate_rates(stream, n0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * len(stream)


@pytest.mark.parametrize("name", ["time_ordered", "side_ordered"])
def test_detect_checks_a_stream_order_once(analyzer_streams, name):
    # the check is kept on the stream, as the pair join is; a copy checks anew
    n0, rates, _, streams = analyzer_streams
    stream = _fresh(streams[name])
    want = detect(copy.copy(stream), n0, rates)
    with mock.patch("decaylab.analyzer._nondecreasing", wraps=_nondecreasing) as check:
        verdicts = [detect(stream, n0, rates) for _ in range(3)]
        detect(copy.copy(stream), n0, rates)
    assert check.call_count == 2
    for verdict in verdicts:
        assert _bits([verdict.statistic, *verdict.distances.values()]) == _bits(
            [want.statistic, *want.distances.values()]
        )


@pytest.mark.parametrize("name", ["time_ordered", "side_ordered"])
def test_erased_copy_keeps_the_stream_order_check(analyzer_streams, name):
    # erase_identities shares the time column, so it passes on the kept view
    n0, rates, _, streams = analyzer_streams
    stream = _fresh(streams[name])
    with mock.patch("decaylab.analyzer._nondecreasing", wraps=_nondecreasing) as check:
        direct = detect(stream, n0, rates)
        blind = detect(erase_identities(stream), n0, rates)
    assert check.call_count == 1
    assert _typed_bits(blind.distances.values()) == _typed_bits(direct.distances.values())


def test_erased_copy_of_a_sorted_view_stays_unclassifiable(analyzer_streams):
    # the view passed on holds the source's order column; the erased copy's
    # own identities must still decide
    n0, rates, grid, streams = analyzer_streams
    stream = _fresh(streams["side_ordered"])
    detect(stream, n0, rates)
    erased = erase_identities(stream)
    detect(erased, n0, rates)
    assert vars(erased)["_ordered"] is vars(stream)["_ordered"]
    for call in (lambda: classify(erased, grid, n0), lambda: estimate_rates(erased, n0)):
        with pytest.raises(UnclassifiableError):
            call()


def test_erased_view_passes_the_constant_order_column_through(analyzer_streams):
    # an erased copy made before its source keeps a view sorts its own; its
    # order column is one value, so the view keeps it at stride 0, uncopied
    n0, rates, _, streams = analyzer_streams
    source = _fresh(streams["side_ordered"])
    erased = erase_identities(source)
    blind = detect(erased, n0, rates)
    order = _ordered(erased)[2]
    assert order.strides == (0,) and order.size == len(erased) and order[0] == UNKNOWN_CODE
    direct = detect(source, n0, rates)
    assert np.array_equal(_ordered(erased)[-1], _ordered(source)[-1])
    assert _typed_bits(blind.distances.values()) == _typed_bits(direct.distances.values())


def test_erased_detect_reuses_the_source_segment_summary(analyzer_streams):
    # the erased copy shares the view, and with it the kept segment ends and
    # prefix table: its detect neither gathers nor counts a segment again,
    # and each hypothesis reads its own species' row of the table
    n0, rates, _, streams = analyzer_streams
    stream = _fresh(streams["side_ordered"])
    direct = detect(stream, n0, rates)
    erased = erase_identities(stream)
    with (
        mock.patch("decaylab.analyzer._sup_distance", wraps=_sup_distance) as sup,
        mock.patch("decaylab.analyzer._prefix_sums", side_effect=AssertionError),
    ):
        blind = detect(erased, n0, rates)
    ends, prefix = _ordered(stream)[3:]
    assert [call.args[2] for call in sup.call_args_list] == [OR_CODE, PA_CODE]
    assert [call.args[3] is ends for call in sup.call_args_list] == [True, True]
    assert [call.args[4].base is prefix for call in sup.call_args_list] == [True, True]
    assert _typed_bits(blind.distances.values()) == _typed_bits(direct.distances.values())


@pytest.mark.parametrize("name", ["time_ordered", "side_ordered"])
def test_a_second_detect_gathers_no_segment_ends(million_pair_streams, name):
    # the warm call's temporaries are a few segment-sized arrays (15,626
    # float64 here); the segment-end gathers and counts that a call once
    # redid put the peak at 1.0 MB
    n0, rates, _, streams = million_pair_streams
    stream = _fresh(streams[name])
    detect(stream, n0, rates)
    for source in (stream, erase_identities(stream)):
        tracemalloc.start()
        try:
            detect(source, n0, rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**18


def _summary_case(seed, rows, ordering, absent):
    """_tally_case's stream, with every row of one species when absent
    names the other."""
    stream, pairs = _tally_case(seed, rows, ordering, 2**-13)
    if absent is not None:
        species = np.full(rows, PA_CODE if absent is Species.OR else OR_CODE)
        stream = EventStream(stream.pair_id, stream.time, species, stream.side, stream.order)
    return stream, pairs


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        [0, 1, _SEGMENT - 1, _SEGMENT, _SEGMENT + 1]
        + [k * _CHUNK + d for k in (1, 2) for d in (-1, 1)]
    )
    | st.integers(0, 4 * _SEGMENT),
    st.sampled_from(["time", "side", "shuffled"]),
    st.sampled_from([None, Species.OR, Species.PA]),
    st.floats(0.25, 4.0),
    st.floats(1e-2, 1e2),
)
def test_distance_from_the_kept_summary_matches_the_compressed_times(
    seed, rows, ordering, absent, scale, gamma
):
    stream, pairs = _summary_case(seed, rows, ordering, absent)
    n0 = max(round(scale * pairs), 1)

    def distances(source):
        return _typed_bits(product_model_distance(source, n0, h, gamma) for h in Species)

    times = [np.sort(np.compress(stream.species == c, stream.time)) for c in (OR_CODE, PA_CODE)]
    want = _typed_bits(_distance(t, n0, gamma) for t in times)
    assert want == _typed_bits(_stream_distance_reference(t, n0, gamma) for t in times)
    early = erase_identities(stream)
    assert distances(early) == want  # made before the source keeps a view: its own
    assert distances(stream) == want
    assert distances(erase_identities(stream)) == want  # the source's view


def _segment_case(seed, size, gamma_or, gamma_pa, absent):
    """A time-ordered stream of size rows: product-like times, so many
    segments' bounds reach the supremum, rounded so that ties cross segment
    edges, and whole segments of one species when absent is set."""
    rng = np.random.default_rng(seed)
    species = rng.integers(0, 2, size).astype(np.uint8)
    if absent:
        per_segment = rng.integers(0, 3, -(-size // _SEGMENT))
        for code in (OR_CODE, PA_CODE):
            rows = np.repeat(per_segment == code + 1, _SEGMENT)[:size]
            species[rows] = code
    rates = np.where(species == OR_CODE, gamma_or, gamma_pa)
    time = np.round(rng.exponential(1.0, size) / rates, int(rng.integers(2, 6)))
    order = np.argsort(time, kind="stable")
    blank = np.full(size, -1)
    return EventStream(blank, time[order], species[order], np.zeros(size), np.full(size, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    # sizes at a multiple of _SEGMENT and one off it, up to several chunks
    st.sampled_from([0, 1, 2, 7, 300])
    .flatmap(lambda m: st.sampled_from([m * _SEGMENT - 1, m * _SEGMENT, m * _SEGMENT + 1]))
    .map(lambda k: max(k, 0))
    | st.integers(0, 3 * _SEGMENT),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.sampled_from([0.25, 1.0, 1.01, 4.0]) | st.floats(0.05, 4.0),
)
def test_segment_bounds_match_the_reference_bits(seed, size, gamma_or, gamma_pa, absent, scale):
    # n0 below and above the or photon count; near it, or matches its own
    # product model to fluctuation scale, and many segments are read
    stream = _segment_case(seed, size, gamma_or, gamma_pa, absent)
    n0 = max(round(scale * np.count_nonzero(stream.species == OR_CODE)), 1)
    # the rows reversed: one run per distinct time, so a key-sorted view
    reverse = EventStream(*(getattr(stream, c)[::-1] for c in COLUMNS))
    for h, code, gamma in ((Species.OR, OR_CODE, gamma_or), (Species.PA, PA_CODE, gamma_pa)):
        want = _stream_distance_reference(np.sort(stream.time[stream.species == code]), n0, gamma)
        for source in (stream, reverse):
            got = product_model_distance(source, n0, h, gamma)
            assert _typed_bits([got]) == _typed_bits([want])
    verdict = detect(stream, n0, RateSet(gamma_or, gamma_pa), min_pairs=1)
    for h, code in ((Species.OR, OR_CODE), (Species.PA, PA_CODE)):
        mass = int(np.count_nonzero(stream.species == code)) / n0
        assert _typed_bits([verdict.distances[f"mass_{h.value}"]]) == _typed_bits([mass])


@pytest.mark.parametrize("k", [2**15 + 1, 3 * 2**15 + 7])
def test_segment_bounds_read_a_quantile_stream_chunk_by_chunk(k):
    # times at the model's quantiles keep every gap within 1/n0 of the
    # supremum, so every segment's bound reaches it and all are read
    times = -np.log1p(-(np.arange(k) + 0.5) / k)
    with mock.patch("decaylab.analyzer._segment_gaps", wraps=_segment_gaps) as read:
        got = _distance(times, k, 1.0)
    read_segments = sum(call.args[1].size for call in read.call_args_list)
    assert read_segments == -(-k // _SEGMENT)
    assert read.call_count >= 1 + read_segments // (_CHUNK // _SEGMENT)
    assert _typed_bits([got]) == _typed_bits([_stream_distance_reference(times, k, 1.0)])


def _runs_stream(seed, n0, runs):
    """A simulated stream in 1, 2 or many non-decreasing time runs."""
    stream, _ = simulate(Scenario(n0=n0, rates=RateSet(1.3, 0.6, w_or=0.2), seed=seed))
    rng = np.random.default_rng(seed)
    if runs == "shuffled":
        order = rng.permutation(len(stream))
    else:
        # rows split by a random key into runs, each kept in time order
        key = rng.integers(0, runs, len(stream))
        order = np.lexsort((np.arange(len(stream)), key))
    return EventStream(*(getattr(stream, c)[order] for c in COLUMNS))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3000),
    st.sampled_from([1, 2, 5, "shuffled"]),
    st.integers(1, 40),
    st.booleans(),
)
def test_classify_by_runs_matches_the_reference(seed, n0, runs, points, on_events):
    stream = _runs_stream(seed, n0, runs)
    rng = np.random.default_rng(seed + 1)
    grid = np.sort(rng.uniform(0.0, 6.0, points))
    if on_events and len(stream):
        # grid points on event times, where "at or before" decides the count
        grid = np.union1d(grid, rng.choice(stream.time, min(points, len(stream))))
    grid = np.unique(grid)
    counts = classify(stream, grid, n0)
    got = [counts.n1_or, counts.n1_pa, counts.n2_or, counts.n2_pa]
    for have, want in zip(got, _classify_reference(stream, grid)):
        assert have.dtype == np.int64 and np.array_equal(have, want)


def _tally_case(seed, rows, ordering, step):
    """A sound stream of rows photons: ceil(rows / 2) pairs, the first
    rows // 2 of them with their second emission; times on a lattice of
    spacing step, so that many are tied, put in time, side or shuffled
    order."""
    rng = np.random.default_rng(seed)
    pairs, seconds = rows - rows // 2, rows // 2
    t1 = rng.integers(0, round(5 / step), pairs) * step
    t2 = t1[:seconds] + rng.integers(0, round(2 / step), seconds) * step
    s1 = rng.integers(0, 2, pairs)
    side1 = rng.integers(0, 2, pairs)
    columns = [
        np.r_[np.arange(pairs), np.arange(seconds)],
        np.r_[t1, t2],
        np.r_[s1, 1 - s1[:seconds]],
        np.r_[side1, 1 - side1[:seconds]],
        np.r_[np.zeros(pairs, int), np.ones(seconds, int)],
    ]
    if ordering == "time":
        by = np.argsort(columns[1], kind="stable")
    elif ordering == "side":
        by = np.lexsort((columns[1], columns[3]))
    else:
        by = rng.permutation(rows)
    return EventStream(*(c[by] for c in columns)), max(pairs, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    # about a segment, and enough segments for several chunks of them
    st.sampled_from([0, 1, _SEGMENT - 1, _SEGMENT, _SEGMENT + 1, 2 * _CHUNK + _SEGMENT + 3])
    | st.integers(0, 4 * _SEGMENT),
    st.sampled_from(["time", "side", "shuffled"]),
    st.integers(1, 700),
    st.floats(0.0, 1.0),
    st.sampled_from([1 / 8, 2**-13]),
    st.sampled_from(["lattice", "edges", "one segment"]),
)
# grid points in over 2 * _CHUNK // _SEGMENT distinct segments: three chunks
@example(7, 2 * _CHUNK + _SEGMENT + 3, "side", 700, 0.5, 2**-13, "lattice")
@example(11, 2 * _CHUNK + _SEGMENT + 3, "shuffled", 1, 0.0, 2**-13, "edges")
@example(12, 2 * _CHUNK + _SEGMENT + 3, "time", 1, 0.0, 1 / 8, "one segment")
def test_classify_counts_match_a_brute_force_count(seed, rows, ordering, points, tied, step, kind):
    stream, n0 = _tally_case(seed, rows, ordering, step)
    rng = np.random.default_rng(seed + 1)
    t = np.sort(stream.time)
    if kind == "lattice" or not rows:
        # grid points on the lattice, tied with event times, and between and past them
        lattice = rng.integers(0, round(8 / step), points) * step
        between = rng.uniform(0.0, 8.0, points)
        grid = np.unique(np.where(rng.random(points) < tied, lattice, between))
    elif kind == "edges":
        # 0, before the first and after the last time, the time that ends
        # each whole segment and a point past it (edges on multiples of
        # _SEGMENT rows unless a tie runs on), and the short last segment's times
        ends = np.arange(_SEGMENT, rows, _SEGMENT)
        past = (t[ends - 1] + t[ends]) / 2
        grid = np.unique(np.r_[0.0, t[0] / 2, t[ends - 1], past, t[-1] + 1.0, t[rows - rows % _SEGMENT :]])
    else:
        # every point inside one segment: its event times and points between them
        inside = t[_SEGMENT * int(rng.integers(0, -(-rows // _SEGMENT))) :][:_SEGMENT]
        grid = np.unique(np.r_[inside[:-1], rng.uniform(inside[0], inside[-1], 20)])
    counts = classify(stream, grid, n0)
    got = [counts.n1_or, counts.n1_pa, counts.n2_or, counts.n2_pa]
    code = stream.order.astype(int) << 1 | stream.species
    for c, have in enumerate(got):
        want = [np.count_nonzero((stream.time <= g) & (code == c)) for g in grid]
        assert have.dtype == np.int64 and have.tolist() == want


@pytest.mark.parametrize("k", [5 * _SEGMENT + 3, 2**15 + 1])
@pytest.mark.parametrize("decimals", [1, 2])
def test_tie_heavy_distance_matches_the_full_evaluation(k, decimals):
    # quantile times on a coarse lattice: runs of one time fill whole
    # segments, whose bounds then equal their exact gaps, and in most cases
    # the supremum lies outside the segment read first, so the selection of
    # further segments decides the result
    times = np.round(-np.log1p(-(np.arange(k) + 0.5) / k), decimals)
    stream = EventStream(
        np.full(k, -1), times, np.full(k, OR_CODE), np.zeros(k, int), np.full(k, UNKNOWN_CODE)
    )
    for n0 in (k, k + 1, 2 * k):
        for gamma in (0.9, 1.0, 1.1):
            got = product_model_distance(stream, n0, Species.OR, gamma)
            assert _typed_bits([got]) == _typed_bits([_stream_distance_reference(times, n0, gamma)])


def test_detect_on_a_time_ordered_stream_copies_no_column(million_pair_streams):
    # row blocks, not a mask, an index array and a compressed copy per
    # species (18 MB at 1e6 pairs)
    n0, rates, _, streams = million_pair_streams
    tracemalloc.start()
    try:
        detect(streams["time_ordered"], n0, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_detect_on_a_fresh_stream_copies_no_column(million_pair_streams):
    # cold: the order check and the segment counts are found inside the
    # traced call, and the count pass must not cast the species column whole
    n0, rates, _, streams = million_pair_streams
    stream = _fresh(streams["time_ordered"])
    tracemalloc.start()
    try:
        detect(stream, n0, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_classify_counts_without_row_lists(million_pair_streams):
    # a mask per row and one category's times at a time, not row lists and
    # gathered times (27 MB at 1e6 pairs)
    n0, _, grid, streams = million_pair_streams
    stream = streams["time_ordered"]
    estimate_rates(stream, n0)  # builds and keeps the pair join
    tracemalloc.start()
    try:
        classify(stream, grid, n0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("name", ["time_ordered", "side_ordered"])
def test_first_classify_after_the_view_holds_block_scratch(million_pair_streams, name):
    # the second pa prefix once ANDed the species and order columns whole,
    # 2.0 of a 2.4 MB peak at 1e6 pairs; a warm classify once kept a running
    # int64 sum of the gathered rows
    n0, rates, grid, streams = million_pair_streams
    stream = _fresh(streams[name])
    estimate_rates(stream, n0)  # the pair join
    detect(stream, n0, rates)  # the time-ordered view
    for bound in (2**19, 2**18):  # the first classify, then a warm one
        tracemalloc.start()
        try:
            classify(stream, grid, n0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_detect_stream_n0_must_be_whole():
    stream, _ = simulate(Scenario(n0=300, rates=RS11, seed=49))
    # a truncated n0 once reached the fit: 300.7 fitted with 300, and 0.5
    # gave a verdict whose fitted_rates read failed
    with pytest.raises(DomainError, match="whole number"):
        detect(stream, 300.7, RS11, min_pairs=10)
    with pytest.raises(DomainError, match="whole number"):
        detect(stream, 0.5, RS11, min_pairs=0)
    whole = detect(stream, 300.0, RS11, min_pairs=10)
    assert whole.fit_args[1] == 300 and type(whole.fit_args[1]) is int
    assert whole.fitted_rates == estimate_rates(stream, 300, 10)
    assert whole.statistic == detect(stream, 300, RS11, min_pairs=10).statistic


def test_detection_verdict_takes_no_fit_arguments():
    # the fit's arguments are detect's to set: a verdict built by hand once
    # took a stray sixth argument and then failed on reading fitted_rates
    assert "fit_args" not in inspect.signature(DetectionVerdict).parameters
    verdict = DetectionVerdict(Verdict.PRODUCT, 0.0, 1.0, {}, "")
    assert verdict.fit_args is None and verdict.fitted_rates is None
    assert "fit_args" not in repr(verdict)


def test_detect_holds_a_stream_n0_below_2_63_up_front():
    # the counted-pair rule once surfaced only on reading fitted_rates
    stream, _ = simulate(Scenario(n0=300, rates=RS11, seed=49))
    for n0 in (2**63, float(2**63), 1e19):
        with pytest.raises(DomainError, match="n0 must be a positive integer below 2"):
            detect(stream, n0, RS11)


def test_detect_gridded_sources_keep_real_n0():
    sc = Scenario(n0=300, rates=RS11, seed=49, t_max=10.0)
    stream, curve = simulate(sc)
    counts = classify(stream, sc.grid(), sc.n0)
    for source in (curve, counts, evaluate_curve(sc)):
        for n0 in (300.7, 0.5):
            verdict = detect(source, n0, RS11, min_pairs=0)
            assert verdict.fitted_rates is None
            assert verdict.threshold == default_threshold(n0)


@pytest.mark.parametrize("n0", ["300", b"300", None, True], ids=["str", "bytes", "none", "bool"])
@pytest.mark.parametrize("entry", ["default_threshold", "detect", "product_model_distance"])
def test_real_n0_rule_rejects_non_numbers(entry, n0):
    # float() once let "300" through: detect ended in a numpy TypeError and
    # default_threshold("300") returned a threshold
    curve = evaluate_curve(Scenario(n0=300, rates=RS11, t_max=10.0))
    calls = {
        "default_threshold": lambda: default_threshold(n0),
        "detect": lambda: detect(curve, n0, RS11),
        "product_model_distance": lambda: product_model_distance(curve, n0, Species.OR, 1.0),
    }
    with pytest.raises(DomainError, match="real number"):
        calls[entry]()


def test_default_threshold_value():
    assert default_threshold(1e6) == pytest.approx(3.0 * 1.36 / 1000.0, rel=1e-12)


def test_pair_ids_beyond_n0_are_data_errors():
    stream = _stream([0, 0, 3], [1.0, 2.0, 0.5], [0, 1, 0], [0, 1, 0], [0, 1, 0])
    with pytest.raises(DataError):
        estimate_rates(stream, 3, min_pairs=1)
    with pytest.raises(DataError):
        classify(stream, [1.0], n0=3)
    with pytest.raises(DataError):
        detect(stream, 3, RS11, min_pairs=1).fitted_rates


@pytest.mark.parametrize("n0s", [(3, 4), (4, 3)], ids=["short-n0-first", "long-n0-first"])
def test_pair_id_range_error_comes_before_structural_errors(n0s):
    # pair 0 emits one species twice and pair 3 lies outside n0 = 3; the
    # kept join must not let its structural error win over the range check
    stream = _stream([0, 0, 3], [1.0, 2.0, 0.5], [0, 0, 0], [0, 1, 0], [0, 1, 0])
    want = {3: "pair ids must lie in [0, n0)", 4: "a pair emitted the same species twice"}
    for n0 in n0s:
        for call in (lambda m: classify(stream, [1.0], m), lambda m: estimate_rates(stream, m, 1)):
            with pytest.raises(DataError) as err:
                call(n0)
            assert str(err.value) == want[n0]


@pytest.mark.parametrize(
    "check",
    [
        lambda stream, n0: classify(stream, [1.0], n0),
        lambda stream, n0: estimate_rates(stream, n0, min_pairs=1),
    ],
    ids=["classify", "estimate_rates"],
)
def test_pair_checks_scale_with_the_stream_not_n0(check):
    # an n0-long scratch array would take 80 MB here
    stream = _stream([0, 0], [1.0, 2.0], [OR_CODE, PA_CODE], [L_CODE, R_CODE], [0, 1])
    tracemalloc.start()
    try:
        check(stream, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_detect_fits_rates_on_first_read():
    sc = Scenario(n0=20_000, rates=RS11, seed=48)
    stream, _ = simulate(sc)
    verdict = detect(stream, sc.n0, RS11, min_pairs=50)
    assert "fitted_rates" not in vars(verdict)
    assert verdict.fitted_rates == estimate_rates(stream, sc.n0, 50)
    assert "fitted_rates" in vars(verdict)
    assert detect(erase_identities(stream), sc.n0, RS11).fitted_rates is None
    assert detect(classify(stream, sc.grid(), sc.n0), sc.n0, RS11).fitted_rates is None
    assert detect(evaluate_curve(sc), sc.n0, RS11).fitted_rates is None


def _join_reference(events):
    """The pair join as one pass of whole-stream gathers: (pair-id count,
    first error or None, then the first count and time sum and the
    (count, delay sum) of or and pa seconds)."""
    pid, species, time = events.pair_id, events.species, events.time
    n_ids = int(pid.max()) + 1 if pid.size else 0
    if n_ids > pid.size:
        pid = np.unique(pid, return_inverse=True)[1]
    r1 = np.flatnonzero(events.order == FIRST_CODE)
    r2 = np.flatnonzero(events.order == SECOND_CODE)
    first_row = np.full(min(n_ids, pid.size), -1, dtype=np.intp)
    first_row[pid.take(r1)] = r1
    if np.count_nonzero(first_row >= 0) != r1.size:
        return n_ids, "a pair carries two first emissions"
    pid2 = pid.take(r2)
    if pid2.size and np.bincount(pid2).max() > 1:
        return n_ids, "a pair carries two second emissions"
    j = first_row.take(pid2)
    if np.any(j < 0):
        return n_ids, "a second emission has no matching first"
    species2 = species.take(r2)
    if np.any(species2 == species.take(j)):
        return n_ids, "a pair emitted the same species twice"
    delays = time.take(r2) - time.take(j)
    if np.any(delays < 0.0):
        return n_ids, "a second emission precedes its first"
    is_or = species2 == OR_CODE
    seconds = tuple(
        (int(np.count_nonzero(m)), float(np.compress(m, delays).sum())) for m in (is_or, ~is_or)
    )
    return n_ids, None, r1.size, float(time.take(r1).sum()), seconds


def _join_bits(result):
    n_ids, error, *sums = result
    if error is not None:
        return n_ids, error
    n_first, first_sum, seconds = sums
    return n_ids, n_first, _typed_bits([first_sum]), [(k, _typed_bits([t])) for k, t in seconds]


@st.composite
def joinable_streams(draw):
    # streams with intact identities: a simulated one of up to 200 pairs
    # (so sums exceed numpy's 128-term pairwise blocks), rows shuffled or not,
    # with a few cells broken as malformed_inputs breaks them; or columns
    # drawn from malformed_inputs' values with identities kept
    if draw(st.booleans()):
        n0 = draw(st.integers(1, 200))
        species = draw(st.sampled_from([None, Species.OR]))
        scenario = Scenario(
            n0=n0,
            rates=RateSet(1.3, 0.7, w_or=0.2j),
            mode="product" if species else "entangled",
            product_species=species,
            seed=draw(st.integers(0, 2**32)),
        )
        stream = simulate(scenario)[0]
        columns = {c: np.array(getattr(stream, c)) for c in COLUMNS}
        n = len(stream)
        for _ in range(draw(st.integers(0, 3))):
            i, name = draw(st.integers(0, n - 1)), draw(st.sampled_from(COLUMNS))
            if name == "pair_id":
                columns[name][i] = draw(st.sampled_from([0, n0 - 1, n0, 10**12]))
            elif name == "time":
                columns[name][i] = draw(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1e300]))
            else:
                columns[name][i] ^= 1
        if draw(st.booleans()):
            perm = draw(st.permutations(range(n)))
            columns = {c: v[perm] for c, v in columns.items()}
        return EventStream(*(columns[c] for c in COLUMNS))
    n = draw(st.integers(0, 24))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return EventStream(
        np.array(column(st.one_of(st.integers(0, 6), st.just(10**12))), dtype=np.int64),
        np.array(column(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 1e300]))),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
    )


@settings(max_examples=300, deadline=None)
@given(joinable_streams(), st.sampled_from([1, 2, 3, 7, 64]))
def test_blocked_join_matches_the_whole_stream_join(stream, block):
    # blocks this small put every violation and sum term across block edges;
    # the first error in check order over the whole stream is reported
    with mock.patch("decaylab.montecarlo._BLOCK", block):
        got = _join(stream)
    assert _join_bits(got) == _join_bits(_join_reference(stream))


@st.composite
def malformed_inputs(draw):
    # columns that EventStream accepts but that may break every pair rule:
    # pair ids out of range, repeated or erased, orders unknown, seconds
    # before firsts, zero and extreme times; grids empty, unsorted, negative,
    # non-finite or not 1-d
    n = draw(st.integers(0, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    stream = EventStream(
        np.array(column(st.one_of(st.integers(-1, 6), st.just(10**12))), dtype=np.int64),
        np.array(column(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 1e300]))),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
        np.array(column(st.integers(0, 1)), dtype=np.uint8),
        np.array(column(st.integers(0, 2)), dtype=np.uint8),
    )
    point = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, -1.0, np.nan, np.inf, "a", 10**400])
    grid = draw(
        st.one_of(
            st.lists(point, max_size=6),
            st.lists(point, min_size=2, max_size=6).map(lambda g: [g[: len(g) // 2]] * 2),
            point,
        )
    )
    n0 = draw(st.one_of(st.integers(-1, 8), st.sampled_from([2.5, True, 2**63, 10**400, 10**13])))
    min_pairs = draw(st.one_of(st.integers(0, 3), st.sampled_from(["x", None, 1.5, True, -1])))
    # a product Scenario's species and parallel flag, of the right kind or not
    species = draw(st.sampled_from([Species.OR, Species.PA, "or", None]))
    parallel = draw(st.sampled_from([False, np.bool_(True), "no", None]))
    reference = draw(st.sampled_from([RS11, None, "x"]))
    return stream, grid, n0, min_pairs, reference, species, parallel


@settings(max_examples=300, deadline=None)
@given(malformed_inputs(), st.sampled_from(["entangled", "product"]))
def test_malformed_inputs_raise_only_package_errors(case, mode):
    stream, grid, n0, min_pairs, reference, species, parallel = case

    def product_run():
        scenario = Scenario(n0, reference, "product", species, parallel=parallel)
        if scenario.n0 <= 8:
            simulate(scenario)

    calls = (
        lambda: classify(stream, grid, n0),
        lambda: estimate_rates(stream, n0, min_pairs),
        lambda: histogram(stream, grid, n0, mode=mode),
        lambda: detect(stream, n0, reference, min_pairs=min_pairs).fitted_rates,
        lambda: Scenario(n0=n0, rates=reference),
        product_run,
    )
    for call in calls:
        try:
            call()
        except DecayLabError:
            pass


# each of these once raised a raw TypeError, AttributeError or numpy
# ValueError, or (two inf points) a RuntimeWarning before its DomainError;
# a bool seed once ran as seed 1, and a bool rate constructed
@pytest.mark.parametrize(
    "call",
    [
        lambda: detect(_hand_stream(), 1, RS11, min_pairs="x"),
        lambda: estimate_rates(_hand_stream(), 1, min_pairs=None),
        lambda: detect(_hand_stream(), 1, None),
        lambda: Scenario(n0=10, rates=None),
        lambda: classify(_hand_stream(), ["a", "b"], 1),
        lambda: histogram(_hand_stream(), ["a", "b"], 1),
        lambda: evaluate_curve(Scenario(n0=10, rates=RS11), grid=["a"]),
        lambda: classify(_hand_stream(), [0.0, np.inf, np.inf], 1),
        lambda: histogram(_hand_stream(), [0.0, 1e300, np.inf], 1),
        lambda: Scenario(n0=10, rates=RS11, mode="product", product_species="or"),
        lambda: Scenario(n0=10, rates=RS11, parallel="no"),
        lambda: pair_substream(-1, 0),
        lambda: pair_substream(1, "a"),
        lambda: sample_pair(0, RS11, derive_rates(RS11), None),
        lambda: Scenario(n0=10, rates=RS11, seed=True),
        lambda: pair_substream(True, 0),
        lambda: EntangledRates(True, 1.0, 2.0, 0.0),
        lambda: EntangledRates("a", 1.0, 2.0, 0.0),
        lambda: EntangledRates(None, 1.0, 2.0, 0.0),
    ],
    ids=[
        "min_pairs-str",
        "min_pairs-none",
        "reference-none",
        "rates-none",
        "classify-str-grid",
        "histogram-str-grid",
        "curve-str-grid",
        "inf-twice",
        "inf-last",
        "product-species-str",
        "parallel-str",
        "seed-negative",
        "pair-id-str",
        "rng-none",
        "seed-bool",
        "substream-seed-bool",
        "entangled-rates-bool",
        "entangled-rates-str",
        "entangled-rates-none",
    ],
)
def test_analyzer_inputs_of_the_wrong_kind_are_domain_errors(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


def _counts(n1_or):
    zeros = [0, 0]
    return ClassifiedCounts([0.0, 1.0], n1_or, zeros, zeros, zeros, n0=5)


def _columns(**given):
    values = dict(pair_id=[0, 1], time=[0.0, 1.0], species=[0, 1], side=[0, 1], order=[0, 0])
    return EventStream(**(values | given))


# values that a column's cast once changed silently or turned into a raw
# numpy error: wrapped codes, truncated ids and counts, strings
@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: _columns(species=np.array([256, 257])), DataError),
        (lambda: _columns(pair_id=[0.0, 0.9]), DataError),
        (lambda: _columns(species=[-1, 0]), DataError),
        (lambda: _columns(side=[300, 0]), DataError),
        (lambda: _columns(order=["0", "1"]), DataError),
        (lambda: _columns(time=["a", "b"]), DataError),
        (lambda: _columns(pair_id=[[0], [1, 2]]), DataError),
        (lambda: _counts([0, 0.9]), DomainError),
        (lambda: _counts(["0", "1"]), DomainError),
    ],
    ids=[
        "wrapped",
        "fractional-id",
        "negative",
        "300",
        "str-order",
        "str-time",
        "ragged",
        "fractional-count",
        "str-count",
    ],
)
def test_values_a_column_cast_would_change_are_typed_errors(build, error):
    with pytest.raises(error):
        build()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(COLUMNS),
    st.lists(
        st.one_of(st.integers(-300, 300), st.just(2**64), st.floats(), st.text(max_size=2)),
        min_size=2,
        max_size=2,
    ),
)
def test_event_columns_keep_every_value_or_refuse_it(name, values):
    try:
        stream = _columns(**{name: values})
    except DataError:
        return
    assert getattr(stream, name).tolist() == values


def test_two_species_product_at_w0_is_called_entangled():
    # the blind spot: the statistic tells one-species from two-species
    # preparations; it does not test lambda = gamma_t - gamma_or - gamma_pa.
    # A merge of a product:or and a product:pa stream at W = 0 has lambda = 0
    # and is called ENTANGLED with statistic 1, as an entangled W = 0 stream is
    n0, rates = 20_000, RateSet(1.0, 0.5)
    assert derive_rates(rates).lam == 0.0
    parts = [
        simulate(Scenario(n0=n0, rates=rates, mode="product", product_species=h, seed=80 + i))[0]
        for i, h in enumerate(Species)
    ]
    merged = EventStream(*(np.concatenate([getattr(p, c) for p in parts]) for c in COLUMNS))
    entangled, _ = simulate(Scenario(n0=n0, rates=rates, seed=82))
    for stream in (erase_identities(merged), entangled):
        verdict = detect(stream, n0, rates)
        assert verdict.verdict is Verdict.ENTANGLED
        assert verdict.statistic == pytest.approx(1.0, abs=0.01)
