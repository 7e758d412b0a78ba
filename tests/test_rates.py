"""Tests for the modified-rate algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decaylab import (
    DomainError,
    EntangledRates,
    RateSet,
    Scenario,
    Species,
    derive_rates,
    detect,
    entangled_rate,
    evaluate_curve,
    lambda_unweighted,
    product_model_distance,
    relative_modification,
)

finite_rate = st.floats(min_value=1e-3, max_value=1e3)
w_part = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_species_companion_roundtrip():
    assert Species.OR.companion() is Species.PA
    assert Species.PA.companion() is Species.OR
    for h in Species:
        assert h.companion().companion() is h


def test_free_rate_recovered_at_w_zero():
    assert entangled_rate(1.0, 0j) == 1.0
    assert entangled_rate(0.37, 0j) == 0.37


def test_channel_switched_off_at_w_minus_one():
    assert entangled_rate(1.0, -1 + 0j) == 0.0


def test_hand_evaluated_complex_amplitude():
    # |1 + (0.1+0.2i)|^2 = 1.21 + 0.04 = 1.25
    assert entangled_rate(2.0, 0.1 + 0.2j) == pytest.approx(2.5, rel=1e-14)


def test_relative_modification_reference_points():
    assert relative_modification(0j) == 0.0
    assert relative_modification(-1 + 0j) == -1.0
    assert relative_modification(0.1 + 0.2j) == pytest.approx(0.25, rel=1e-13)


def test_derive_rates_unmodified_pair():
    er = derive_rates(RateSet(1.0, 1.0))
    assert (er.gamma_t_or, er.gamma_t_pa, er.gamma_t, er.lam) == (1.0, 1.0, 2.0, 0.0)


def test_derive_rates_hand_case():
    er = derive_rates(RateSet(2.0, 1.0, w_or=0.1, w_pa=0.0))
    assert er.gamma_t_or == 2.0
    assert er.gamma_t_pa == pytest.approx(1.21, rel=1e-14)
    assert er.gamma_t == pytest.approx(3.21, rel=1e-14)
    assert er.lam == pytest.approx(0.21, rel=1e-12)


def test_derive_rates_fully_suppressed():
    er = derive_rates(RateSet(1.0, 1.0, w_or=-1.0, w_pa=-1.0))
    assert (er.gamma_t_or, er.gamma_t_pa, er.gamma_t) == (0.0, 0.0, 0.0)
    assert er.lam == -2.0


def test_species_rate_accessor():
    er = derive_rates(RateSet(2.0, 1.0, w_or=0.1))
    assert er.species_rate(Species.OR) == er.gamma_t_or
    assert er.species_rate(Species.PA) == er.gamma_t_pa


def test_unweighted_excess_reference_points():
    assert lambda_unweighted(RateSet(3.0, 0.5)) == 0.0
    got = lambda_unweighted(RateSet(2.0, 1.0, w_or=0.1, w_pa=0.1))
    assert got == pytest.approx(0.42, rel=1e-12)
    assert lambda_unweighted(RateSet(1.0, 1.0, w_or=-1.0)) == -1.0


def test_both_excess_forms_vanish_at_w_zero():
    rs = RateSet(2.7, 0.3)
    # the weighted difference re-associates gamma_or + gamma_pa, so it is
    # zero only to rounding; the unweighted form is exactly zero
    assert abs(derive_rates(rs).lam) <= 1e-15 * (rs.gamma_or + rs.gamma_pa)
    assert lambda_unweighted(rs) == 0.0


def test_rejects_invalid_rates_and_amplitudes():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            RateSet(bad, 1.0)
        with pytest.raises(DomainError):
            entangled_rate(bad, 0j)
    with pytest.raises(DomainError):
        RateSet(1.0, 1.0, w_or=complex(math.inf, 0.0))
    with pytest.raises(DomainError):
        relative_modification(complex(0.0, math.nan))


def test_entangled_rates_reject_inconsistent_sum():
    with pytest.raises(DomainError):
        EntangledRates(gamma_t_or=1.0, gamma_t_pa=1.0, gamma_t=2.0000001, lam=0.0)
    with pytest.raises(DomainError):
        EntangledRates(gamma_t_or=-0.5, gamma_t_pa=1.0, gamma_t=0.5, lam=0.0)


def test_rateset_accessors():
    rs = RateSet(2.0, 1.0, w_or=0.5j, w_pa=-0.25)
    assert rs.gamma(Species.OR) == 2.0
    assert rs.gamma(Species.PA) == 1.0
    assert rs.w(Species.OR) == 0.5j
    assert rs.w(Species.PA) == -0.25


@given(g=finite_rate, re=w_part, im=w_part)
def test_rate_factorises_through_relative_modification(g, re, im):
    w = complex(re, im)
    assert entangled_rate(g, w) == g * (1.0 + relative_modification(w))


@given(re=w_part, im=w_part)
def test_relative_modification_never_below_minus_one(re, im):
    assert relative_modification(complex(re, im)) >= -1.0


@given(g=finite_rate)
def test_w_zero_identity_is_bitwise(g):
    assert entangled_rate(g, 0j) == g


@given(
    g=finite_rate,
    lo=st.floats(min_value=-0.999, max_value=3.0),
    step=st.floats(min_value=1e-6, max_value=2.0),
)
def test_strictly_increasing_in_real_amplitude(g, lo, step):
    assert entangled_rate(g, complex(lo, 0.0)) < entangled_rate(g, complex(lo + step, 0.0))


@given(
    gor=finite_rate,
    gpa=finite_rate,
    re_or=w_part,
    im_or=w_part,
    re_pa=w_part,
    im_pa=w_part,
)
def test_derived_rates_are_internally_consistent(gor, gpa, re_or, im_or, re_pa, im_pa):
    rs = RateSet(gor, gpa, w_or=complex(re_or, im_or), w_pa=complex(re_pa, im_pa))
    er = derive_rates(rs)
    assert er.gamma_t == er.gamma_t_or + er.gamma_t_pa
    assert er.gamma_t_or >= 0.0 and er.gamma_t_pa >= 0.0
    assert er.lam == er.gamma_t - gor - gpa
    assert er.gamma_t_or == entangled_rate(gor, rs.w_pa)
    assert er.gamma_t_pa == entangled_rate(gpa, rs.w_or)


def _curve():
    return evaluate_curve(Scenario(n0=300, rates=RateSet(1.0, 1.0)))


# one rule, finite and > 0, for every rate, horizon and threshold; each of
# these once raised a raw ValueError or TypeError
@pytest.mark.parametrize(
    "call",
    [
        lambda: RateSet("x", 1.0),
        lambda: RateSet(1.0, None),
        lambda: Scenario(n0=10, rates=RateSet(1.0, 1.0), t_max="x"),
        lambda: detect(_curve(), 300, RateSet(1.0, 1.0), threshold="x"),
        lambda: product_model_distance(_curve(), 300, Species.OR, "x"),
        lambda: detect(_curve(), 300, RateSet(1.0, 1.0), threshold=math.nan),
        lambda: detect(_curve(), 300, RateSet(1.0, 1.0), threshold=math.inf),
        lambda: detect(_curve(), 300, RateSet(1.0, 1.0), threshold=0.0),
    ],
    ids=["rate", "rate-none", "t_max", "threshold", "gamma", "threshold-nan", "threshold-inf", "threshold-0"],
)
def test_finite_positive_rule_raises_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# the finite-complex rule for every amplitude; a string once raised a raw
# ValueError, None a TypeError
@pytest.mark.parametrize(
    "call",
    [
        lambda: RateSet(1.0, 1.0, w_or="x"),
        lambda: RateSet(1.0, 1.0, w_or=None),
        lambda: RateSet(1.0, 1.0, w_pa=True),
        lambda: RateSet(1.0, 1.0, w_pa=10**400),
        lambda: relative_modification("0.5"),
        lambda: entangled_rate(1.0, complex(math.nan, 0.0)),
    ],
    ids=["str", "none", "bool", "huge-int", "relative-str", "nan"],
)
def test_finite_complex_rule_raises_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_finite_complex_rule_keeps_every_number():
    rates = RateSet(1.0, 1.0, w_or=np.float32(0.25), w_pa=np.complex64(-0.5 + 0.5j))
    assert (rates.w_or, rates.w_pa) == (0.25 + 0j, -0.5 + 0.5j)
    assert type(rates.w_or) is complex and type(rates.w_pa) is complex
    assert RateSet(1.0, 1.0, w_or=1).w_or == 1 + 0j
