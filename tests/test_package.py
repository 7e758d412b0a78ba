"""Tests for the package's export list, its one module of input rules, and
how every exported callable meets malformed input."""

import inspect
import math
import warnings
from enum import Enum

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import decaylab
from decaylab import _rules, analyzer, cli, errors, kinetics, montecarlo, rates
from decaylab import (
    DecayLabError,
    RateSet,
    Scenario,
    Species,
    classify,
    conservation_residual,
    derive_rates,
    erase_identities,
    evaluate_curve,
    lifetime_report,
    simulate,
)

MODULES = (analyzer, errors, kinetics, montecarlo, rates)


def test_exports_are_the_modules_all_lists():
    names = decaylab.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert decaylab.__version__ == "0.1.0"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(decaylab, name) is getattr(module, name)


# the rules each module once kept a copy of, under these names
FORKED = {"_check_n0", "_positive_n0", "_finite_positive", "_finite_complex"}


def test_input_rules_have_one_owner():
    rules = {
        name
        for name, value in vars(_rules).items()
        if inspect.isfunction(value) and value.__module__ == "decaylab._rules"
    }
    shared = {"_instance", "_real", "_complex", "_integer", "_exact", "_as_times", "_validate_grid"}
    assert shared <= rules
    for module in (rates, kinetics, montecarlo, analyzer, cli):
        used = rules & set(vars(module))
        assert used, module.__name__
        for name in used:
            assert getattr(module, name).__module__ == "decaylab._rules", (module, name)
        assert not FORKED & set(vars(module)), module.__name__
    assert not hasattr(_rules, "__all__")
    assert not rules & set(decaylab.__all__)
    assert all(name.startswith("_") for name in rules)


def test_rule_messages_quote_a_huge_integer_by_its_bit_length():
    # repr of an int past the int-to-str digit limit raises ValueError
    huge = 10**5000
    for call in (
        lambda: RateSet(huge, 1.0),
        lambda: decaylab.default_threshold(huge),
        lambda: Scenario(n0=huge, rates=RateSet(1.0, 1.0)),
        lambda: decaylab.pair_substream(huge, 0),
    ):
        with pytest.raises(errors.DomainError, match=f"got an int of {huge.bit_length()} bits"):
            call()
    with pytest.raises(errors.DomainError, match="got list"):
        RateSet([huge], 1.0)


# ---------------------------------------------------------------------------
# every exported callable, every parameter, malformed values


class _Stranger:
    """An object of a class that no decaylab call takes."""


RS = RateSet(1.0, 0.5, w_or=0.1 + 0.2j)
ER = derive_rates(RS)
STILL = derive_rates(RateSet(1.0, 1.0, w_or=-1.0, w_pa=-1.0))  # gamma_t = 0
SCENARIO = Scenario(n0=8, rates=RS, t_max=10.0, grid_points=5, seed=3)
PRODUCT = Scenario(n0=5, rates=RS, mode="product", product_species=Species.PA, grid_points=4)
STREAM, CURVE = simulate(SCENARIO)
COUNTS = classify(STREAM, SCENARIO.grid(), SCENARIO.n0)
GRID = [0.0, 0.5, 1.0]

MALFORMED = (
    "x",
    None,
    True,
    False,
    math.nan,
    math.inf,
    -math.inf,
    [[0.0, 1.0], [2.0, 3.0]],
    [[0.0], [1.0, 2.0]],
    -1,
    -3,
    2**64,
    10**5000,  # past the digit limit of int-to-str conversion, which repr uses
    np.empty(0),
    _Stranger(),
    RS,
    Species.OR,
    STREAM,
    CURVE,
)

RATE = (0.5, 1.0, 2, np.float64(1.5))
AMPLITUDE = (0, 0.25, 0.1 + 0.2j, -1.0)
# valid values by parameter name; each parameter draws from these and MALFORMED
VALID = {
    "t": (0.0, 0.7, [0.0, 1.0, 2.0], np.linspace(0.0, 3.0, 4)),
    "h": tuple(Species),
    "n0": (1, 5, 8, 300.0, np.int64(8)),
    "rates": (RS,),
    "reference": (RS,),
    "er": (ER, STILL),
    "events": (STREAM, erase_identities(STREAM)),
    "source": (STREAM, erase_identities(STREAM), CURVE, COUNTS),
    "grid": (GRID, SCENARIO.grid()),
    "scenario": (SCENARIO, PRODUCT),  # n0 <= 8, so simulate allocates little
    "counts": (COUNTS,),
    "curve": (CURVE,),
    "entangled": (True, np.bool_(False)),
    "mode": ("entangled", "product"),
    "product_species": (None, Species.OR),
    "parallel": (False, np.bool_(True)),
    "seed": (0, 7, 2**64 - 1),
    "rng": (np.random.Generator(np.random.Philox(1)),),
    "min_pairs": (0, 5),
    "threshold": (None, 0.1),
    "t_max": (None, 10.0),
    "grid_points": (2, 6),
    "gamma": RATE,
    "gamma_h": RATE,
    "gamma_or": RATE,
    "gamma_pa": RATE,
    "gamma_t_or": RATE,
    "gamma_t_pa": RATE,
    "gamma_t": RATE,
    "lam": (0.0, -0.25),
    "w": AMPLITUDE,
    "w_companion": AMPLITUDE,
    "w_or": AMPLITUDE,
    "w_pa": AMPLITUDE,
}
# parameters whose valid values depend on the call: the columns of these
# classes, and the value an Enum looks up
COLUMNS = {
    "EventStream": {
        "pair_id": (STREAM.pair_id, [0, 0, 1]),
        "time": (STREAM.time, [0.5, 1.0, 0.25]),
        "species": (STREAM.species, [0, 1, 1]),
        "side": (STREAM.side, [1, 0, 0]),
        "order": (STREAM.order, [0, 1, 0]),
    },
    "PopulationCurve": {
        name: ([0, 1, 2], np.array([0.0, 0.5, 2.0]))
        for name in ("n", "n_or", "n_pa", "N_or", "N_pa")
    },
    "ClassifiedCounts": {
        name: ([0, 1, 2], [1, 1, 1]) for name in ("n1_or", "n1_pa", "n2_or", "n2_pa")
    },
    "sample_pair": {"pair_id": (0, 3, np.int64(5))},
    "pair_substream": {"pair_id": (0, 3, np.int64(5))},
}
# an exported Enum is looked up by a member or a member's value
for enum in (v for v in vars(decaylab).values() if isinstance(v, type(Enum))):
    COLUMNS[enum.__name__] = {"value": (*enum, *(member.value for member in enum))}

# exception classes are left out: an exception takes any arguments
CALLABLES = {
    name: value
    for name, value in vars(decaylab).items()
    if name in decaylab.__all__
    and callable(value)
    and not (inspect.isclass(value) and issubclass(value, BaseException))
}


def _parameters(name):
    signature = inspect.signature(CALLABLES[name])
    kinds = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    return [p.name for p in signature.parameters.values() if p.kind not in kinds]


def _valid(call, parameter):
    return COLUMNS.get(call, {}).get(parameter) or VALID.get(parameter, (1.0,))


# one parameter at a time draws from valid and malformed values, the others
# from valid values only, so that no earlier check hides the one under test
@pytest.mark.parametrize(
    "name,parameter", [(name, p) for name in sorted(CALLABLES) for p in _parameters(name)]
)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_public_calls_raise_only_package_errors(name, parameter, data):
    kwargs = {p: data.draw(st.sampled_from(_valid(name, p)), label=p) for p in _parameters(name)}
    kwargs[parameter] = data.draw(
        st.sampled_from(list(_valid(name, parameter)) + list(MALFORMED)), label=parameter
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = CALLABLES[name](**kwargs)
            if name == "detect":
                result.fitted_rates  # the fit runs on this read
        except DecayLabError:
            pass


# ---------------------------------------------------------------------------
# accepted rates at the ends of the float range

# free rates log-uniform over 1e-308..1.7e308, amplitudes from a switched-off
# channel (-1) and none (0) through moderate values to 1e200
EXTREME_RATE = st.floats(-308.0, math.log10(1.7e308)).map(lambda e: 10.0**e)
EXTREME_AMPLITUDE = st.one_of(
    st.sampled_from([-1.0, 0.0]),
    st.builds(lambda e, unit: unit * 10.0**e, st.floats(-3.0, 200.0), st.sampled_from([1, -1, 1j, -1j])),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    gammas=st.tuples(EXTREME_RATE, EXTREME_RATE),
    amplitudes=st.tuples(EXTREME_AMPLITUDE, EXTREME_AMPLITUDE),
    n0=st.integers(1, 50),
    species=st.sampled_from([None, *Species]),
)
def test_accepted_extreme_rates_simulate_and_detect_or_refuse(gammas, amplitudes, n0, species):
    try:
        rates = RateSet(*gammas, *amplitudes)
    except DecayLabError:
        assume(False)
    mode = {"mode": "product", "product_species": species} if species else {}
    scenario = Scenario(n0=n0, rates=rates, t_max=1.0, **mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            stream, curve = simulate(scenario)
        except DecayLabError:
            pass
        else:
            # the stream passes its own checks again, and its pair checks
            columns = ("pair_id", "time", "species", "side", "order")
            decaylab.EventStream(*(getattr(stream, c) for c in columns))
            if scenario.is_entangled:
                classify(stream, scenario.grid(), n0)
            assert conservation_residual(curve, scenario.is_entangled) == 0
        try:
            verdict = decaylab.detect(STREAM, SCENARIO.n0, rates)
        except DecayLabError:
            pass
        else:
            assert 0.0 <= verdict.statistic <= 1.0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    gammas=st.tuples(EXTREME_RATE, EXTREME_RATE),
    amplitudes=st.tuples(EXTREME_AMPLITUDE, EXTREME_AMPLITUDE),
    n0=st.integers(1, 2**62),
    species=st.sampled_from([None, *Species]),
)
# n0 * gamma_t_H once overflowed in n_single: the first two warned "invalid
# value" and were refused as "n_pa (n_or) must be finite"; the third warned
# "overflow" while the lifetime bracket grew
@example(gammas=(1e306, 1.0), amplitudes=(0.0, 0.0), n0=2000, species=None)
@example(gammas=(1e303, 1e303), amplitudes=(0.0, 0.0), n0=10**6, species=None)
@example(gammas=(1e300, 1e-300), amplitudes=(0.0, 0.0), n0=1, species=None)
# the lifetime bracket once doubled to inf, and the midpoint of one past half
# the largest float overflowed, where the confluent form is inf * 0
@example(gammas=(1e-308, 1e-308), amplitudes=(0.0, -1.0), n0=1, species=None)
@example(gammas=(2.268649942633871e-308,) * 2, amplitudes=(0.0, -1.0), n0=1, species=None)
def test_accepted_extreme_rates_give_checked_curves_and_lifetimes_or_refuse(gammas, amplitudes, n0, species):
    try:
        rates = RateSet(*gammas, *amplitudes)
    except DecayLabError:
        assume(False)
    mode = {"mode": "product", "product_species": species} if species else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_max in (1.0, None):
            try:
                scenario = Scenario(n0=n0, rates=rates, t_max=t_max, **mode)
                curve = evaluate_curve(scenario)
            except DecayLabError:
                continue
            # a rounding-level bound: seven terms of at most 2 n0 and their sum
            residual = conservation_residual(curve, scenario.is_entangled)
            assert residual <= 8 * np.spacing(2.0 * n0)
        try:
            report = lifetime_report(rates)
        except DecayLabError:
            pass
        else:
            assert report.solver_residual <= 1e-9
