"""Tests for the closed-form population and photon-count dynamics."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import decaylab.kinetics as kinetics
from decaylab import (
    DomainError,
    EntangledRates,
    PopulationCurve,
    RateSet,
    Scenario,
    SolverError,
    Species,
    conservation_residual,
    derive_rates,
    evaluate_curve,
    lifetime_report,
    lifetime_species,
    n_entangled,
    n_single,
    photons_emitted,
    product_model_distance,
    product_photons,
    product_population,
    species_survival_fraction,
)

finite_rate = st.floats(min_value=0.05, max_value=20.0)
w_part = st.floats(min_value=-1.5, max_value=1.5)
times = st.floats(min_value=0.0, max_value=50.0)


def _pair(gor, gpa, wor=0j, wpa=0j):
    rs = RateSet(gor, gpa, w_or=wor, w_pa=wpa)
    return rs, derive_rates(rs)


# ---------------------------------------------------------------------------
# pair population


def test_pair_population_initial_condition():
    _, er = _pair(1.0, 1.0)
    assert n_entangled(0.0, 1000.0, er) == 1000.0


def test_pair_population_half_life():
    _, er = _pair(1.0, 1.0)
    assert n_entangled(0.5 * math.log(2.0), 1000.0, er) == pytest.approx(500.0, rel=1e-12)


def test_pair_population_scalar_and_array_forms():
    _, er = _pair(2.0, 1.0)
    scalar = n_entangled(0.7, 1000.0, er)
    assert isinstance(scalar, float)
    arr = n_entangled(np.array([0.0, 0.7, 1.4]), 1000.0, er)
    assert arr.shape == (3,)
    assert arr[1] == scalar


def test_negative_time_rejected():
    rs, er = _pair(1.0, 1.0)
    with pytest.raises(DomainError):
        n_entangled(-0.1, 1000.0, er)
    with pytest.raises(DomainError):
        n_single(np.array([0.0, -1e-9]), Species.PA, 1000.0, rs, er)
    with pytest.raises(DomainError):
        photons_emitted(float("nan"), Species.OR, 1000.0, rs, er)


# ---------------------------------------------------------------------------
# lone-survivor population


def test_survivor_population_starts_empty():
    rs, er = _pair(2.0, 1.0, wor=0.1)
    assert n_single(0.0, Species.OR, 1000.0, rs, er) == 0.0
    assert n_single(0.0, Species.PA, 1000.0, rs, er) == 0.0


def test_survivor_population_hand_case():
    # symmetric unmodified rates at t = ln 2: feed integral gives n0/4
    rs, er = _pair(1.0, 1.0)
    got = n_single(math.log(2.0), Species.PA, 1000.0, rs, er)
    assert got == pytest.approx(250.0, rel=1e-12)


def test_survivor_population_degenerate_limit():
    # gamma_t == gamma_pa == 1 with or-feed 0.5: n_pa(1) = 1000 * 0.5 * 1 * e^-1
    rs = RateSet(1.0, 1.0)
    er = EntangledRates(gamma_t_or=0.5, gamma_t_pa=0.5, gamma_t=1.0, lam=-1.0)
    got = n_single(1.0, Species.PA, 1000.0, rs, er)
    assert got == pytest.approx(500.0 / math.e, rel=1e-12)
    assert got == pytest.approx(183.93972058572117, rel=1e-12)


def test_survivor_population_near_degenerate_cross_check():
    # gamma_t = 1 + 1e-6 against gamma_pa = 1, feed 1: frozen two-exponential value
    rs = RateSet(1.0, 1.0)
    er = EntangledRates(gamma_t_or=1.0, gamma_t_pa=1e-6, gamma_t=1.0 + 1e-6, lam=0.0)
    got = n_single(1.0, Species.PA, 500.0, rs, er)
    assert got == pytest.approx(183.93962858, rel=1e-9)


def test_survivor_population_continuous_across_degenerate_switch():
    # perturbing gamma_t by 1e-7 moves n_pa by less than 1e-5 relative
    rs = RateSet(1.0, 1.0)
    limit = n_single(
        1.0,
        Species.PA,
        1000.0,
        rs,
        EntangledRates(gamma_t_or=1.0, gamma_t_pa=0.0, gamma_t=1.0, lam=0.0),
    )
    for eps in (1e-7, -1e-7):
        gpa_t = max(eps, 0.0)
        gor_t = 1.0 + eps - gpa_t
        er = EntangledRates(
            gamma_t_or=gor_t, gamma_t_pa=gpa_t, gamma_t=gor_t + gpa_t, lam=0.0
        )
        got = n_single(1.0, Species.PA, 1000.0, rs, er)
        assert got == pytest.approx(limit, rel=1e-5)


@given(gor=finite_rate, gpa=finite_rate, re=w_part, im=w_part, t=times)
@settings(deadline=None)
def test_survivor_matches_literal_two_exponential_form(gor, gpa, re, im, t):
    rs, er = _pair(gor, gpa, wpa=complex(re, im))
    gamma_h = rs.gamma_pa
    delta = er.gamma_t - gamma_h
    # the literal difference of exponentials cancels catastrophically when
    # delta * t is small; only compare where it is well conditioned
    if abs(delta) < 1e-6 * max(er.gamma_t, gamma_h) or abs(delta) * t < 1e-4:
        return
    literal = 1000.0 * er.gamma_t_or * (
        math.exp(-gamma_h * t) - math.exp(-er.gamma_t * t)
    ) / delta
    got = n_single(t, Species.PA, 1000.0, rs, er)
    assert got == pytest.approx(literal, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# cumulative photon counts


def test_photon_count_reference_values():
    rs, er = _pair(1.0, 1.0)
    assert photons_emitted(0.0, Species.PA, 1000.0, rs, er) == 0.0
    got = photons_emitted(math.log(2.0), Species.PA, 1000.0, rs, er)
    assert got == pytest.approx(500.0, rel=1e-12)
    # frozen trapezoid quadrature of the emission-rate integrand, step 1e-6
    assert got == pytest.approx(500.000000004167, rel=1e-7)
    assert photons_emitted(200.0, Species.PA, 1000.0, rs, er) == pytest.approx(
        1000.0, rel=1e-12
    )


def test_photon_count_is_nondecreasing():
    rs, er = _pair(2.3, 0.4, wor=0.3 - 0.2j, wpa=-0.5j)
    t = np.linspace(0.0, 30.0, 4001)
    for h in Species:
        diffs = np.diff(photons_emitted(t, h, 1000.0, rs, er))
        assert np.all(diffs >= -1e-9)


@given(gor=finite_rate, gpa=finite_rate, re=w_part, im=w_part, t=times)
@settings(deadline=None)
def test_conservation_of_atoms(gor, gpa, re, im, t):
    rs, er = _pair(gor, gpa, wor=complex(re, im), wpa=complex(im, re))
    n0 = 1000.0
    n = n_entangled(t, n0, er)
    n_or = n_single(t, Species.OR, n0, rs, er)
    n_pa = n_single(t, Species.PA, n0, rs, er)
    N_or = photons_emitted(t, Species.OR, n0, rs, er)
    N_pa = photons_emitted(t, Species.PA, n0, rs, er)
    assert abs(N_or + N_pa + 2.0 * n + n_or + n_pa - 2.0 * n0) <= 1e-9 * n0


@given(gor=finite_rate, gpa=finite_rate, t=times)
@settings(deadline=None)
def test_flat_marginal_without_modification(gor, gpa, t):
    # at W = 0 each species decays exactly as if unentangled
    rs, er = _pair(gor, gpa)
    n0 = 1000.0
    for h in Species:
        marginal = n_entangled(t, n0, er) + n_single(t, h, n0, rs, er)
        assert marginal == pytest.approx(product_population(t, h, n0, rs), rel=1e-12)
        assert photons_emitted(t, h, n0, rs, er) == pytest.approx(
            product_photons(t, h, n0, rs), rel=1e-12, abs=1e-9
        )


# ---------------------------------------------------------------------------
# product-state references


def test_product_population_reference_values():
    rs = RateSet(1.0, 1.0)
    assert product_population(0.0, Species.PA, 1000.0, rs) == 1000.0
    got = product_population(2.0 * math.log(2.0), Species.PA, 1000.0, rs)
    assert got == pytest.approx(250.0, rel=1e-12)
    assert product_photons(0.0, Species.OR, 1000.0, rs) == 0.0
    assert product_photons(1.0, Species.OR, 1000.0, rs) == pytest.approx(
        1000.0 * (1.0 - 1.0 / math.e), rel=1e-12
    )


# ---------------------------------------------------------------------------
# sampled curves


def test_evaluate_curve_entangled():
    sc = Scenario(n0=1000, rates=RateSet(1.0, 1.0), t_max=10.0, grid_points=101)
    curve = evaluate_curve(sc)
    assert curve.grid[0] == 0.0 and curve.grid[-1] == 10.0
    assert curve.n[0] == 1000.0
    assert curve.n[-1] == pytest.approx(1000.0 * math.exp(-20.0), rel=1e-12)
    assert curve.n_or[0] == 0.0 and curve.N_pa[0] == 0.0
    assert conservation_residual(curve) <= 1e-9 * sc.n0


def test_evaluate_curve_product_mode():
    sc = Scenario(
        n0=500,
        rates=RateSet(2.0, 0.5),
        mode="product",
        product_species=Species.PA,
        t_max=4.0,
        grid_points=33,
    )
    curve = evaluate_curve(sc)
    expect = 500.0 * np.exp(-0.5 * curve.grid)
    np.testing.assert_allclose(curve.n, expect, rtol=1e-12)
    assert np.all(curve.n_or == 0.0) and np.all(curve.n_pa == 0.0)
    assert np.all(curve.N_or == 0.0)
    assert curve.N_pa[-1] == pytest.approx(500.0 - expect[-1], rel=1e-12)
    assert conservation_residual(curve, entangled=False) <= 1e-9 * sc.n0
    # an or preparation decays at gamma_or and fills N_or instead
    sc = Scenario(
        n0=500,
        rates=RateSet(2.0, 0.5),
        mode="product",
        product_species=Species.OR,
        t_max=4.0,
        grid_points=33,
    )
    curve = evaluate_curve(sc)
    expect = 500.0 * np.exp(-2.0 * curve.grid)
    np.testing.assert_allclose(curve.n, expect, rtol=1e-12)
    assert np.all(curve.n_or == 0.0) and np.all(curve.n_pa == 0.0)
    assert np.all(curve.N_pa == 0.0)
    assert curve.N_or[-1] == pytest.approx(500.0 - expect[-1], rel=1e-12)
    assert conservation_residual(curve, entangled=False) <= 1e-9 * sc.n0


def test_evaluate_curve_single_point_grid():
    sc = Scenario(n0=1000, rates=RateSet(1.0, 1.0))
    curve = evaluate_curve(sc, grid=[0.0])
    assert curve.grid.shape == (1,)
    assert curve.n[0] == 1000.0
    assert curve.N_or[0] == 0.0


def test_evaluate_curve_rejects_bad_grids():
    sc = Scenario(n0=1000, rates=RateSet(1.0, 1.0))
    for bad in ([], [0.5, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0], [0.0, float("nan")], [0.0, float("nan"), 2.0]):
        with pytest.raises(DomainError):
            evaluate_curve(sc, grid=bad)


def test_population_curve_validation():
    grid = np.array([0.0, 1.0])
    good = np.zeros(2)
    with pytest.raises(DomainError):
        PopulationCurve(grid, np.array([1.0, -0.5]), good, good, good, good, n0=1000)
    with pytest.raises(DomainError):
        PopulationCurve(grid, np.zeros(3), good, good, good, good, n0=1000)
    # NaN once passed the diff <= 0 test
    for nan_grid in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.nan, 2.0]):
        rows = np.zeros(len(nan_grid))
        with pytest.raises(DomainError):
            PopulationCurve(np.array(nan_grid), rows, rows, rows, rows, rows, n0=1000)
    # a NaN N_or once gave detect a NaN statistic and an INCONCLUSIVE verdict
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            PopulationCurve(grid, good, good, good, np.array([0.0, bad]), good, n0=1000)
    curve = PopulationCurve(grid, good, good, good, good, good, n0=1000)
    assert curve.survivors(Species.OR) is curve.n_or
    assert curve.photons(Species.PA) is curve.N_pa


# ---------------------------------------------------------------------------
# lifetimes


def test_lifetime_collapses_to_free_value_without_modification():
    for gor, gpa in ((1.0, 1.0), (2.0, 1.0), (0.3, 7.0)):
        rs, er = _pair(gor, gpa)
        assert abs(lifetime_species(Species.OR, rs, er) - 1.0 / gor) <= 1e-9
        assert abs(lifetime_species(Species.PA, rs, er) - 1.0 / gpa) <= 1e-9


def test_lifetime_report_symmetric_case():
    report = lifetime_report(RateSet(1.0, 1.0))
    assert report.tau_or == 1.0 and report.tau_pa == 1.0
    assert report.tau_tilde_state == 0.5
    assert abs(report.tau_tilde_or - 1.0) <= 1e-9
    assert abs(report.tau_tilde_pa - 1.0) <= 1e-9
    assert report.solver_residual <= 1e-9


def test_state_lifetime_is_exact_inverse_sum():
    report = lifetime_report(RateSet(3.0, 1.0))
    assert report.tau_tilde_state == 0.25
    rs, er = _pair(1.0, 1.0, wor=-0.5, wpa=-0.5)
    assert 1.0 / er.gamma_t == 2.0
    assert lifetime_report(rs).tau_tilde_state == 2.0


def test_species_lifetime_shifts_under_modification():
    # frozen scan value for gamma = (1, 1), W = 0.2 on both channels
    rs, er = _pair(1.0, 1.0, wor=0.2, wpa=0.2)
    tau = lifetime_species(Species.PA, rs, er)
    assert tau == pytest.approx(0.799170726, abs=1e-6)
    assert abs(tau - 1.0) > 1e-3


def test_a_root_wider_than_its_float_spacing_ends_at_adjacent_floats():
    # the width 1e-12 x the fast time 1/gamma_t is below the spacing of floats
    # near the slow root 1e6, so bisection ends at two adjacent floats
    rs = RateSet(1.0, 1e-6)
    tau = lifetime_species(Species.PA, rs)
    assert kinetics._BISECT_RTOL / derive_rates(rs).gamma_t < np.spacing(tau)
    assert tau == pytest.approx(1e6, rel=1e-12)
    assert lifetime_report(rs).solver_residual <= 1e-12


def test_lifetime_requires_decay():
    rs, er = _pair(1.0, 1.0, wor=-1.0, wpa=-1.0)
    with pytest.raises(DomainError):
        lifetime_species(Species.PA, rs, er)
    with pytest.raises(DomainError):
        lifetime_report(rs)


def test_lifetime_bracket_cap_raises(monkeypatch):
    # strong suppression keeps survival above 1/e at the characteristic scale,
    # so an artificially tight cap must trip the solver guard
    rs, er = _pair(1.0, 1.0, wor=-0.9, wpa=-0.9)
    assert lifetime_species(Species.PA, rs, er) > 0.0
    monkeypatch.setattr(kinetics, "_BRACKET_CAP", 1.0)
    with pytest.raises(SolverError):
        lifetime_species(Species.PA, rs, er)


def test_lifetime_root_near_the_fast_scale():
    # the bisection once stopped at a width of 1e-12 of the slow scale, here
    # 1e12 * 1e-12 = 1, and reported tau_tilde_pa = 1.3642 with residual
    # 0.112 where the root is 1 / gamma_t = 0.999998
    rs, er = _pair(1e-12, 1e-12, wor=1e6)
    report = lifetime_report(rs)
    assert report.tau_tilde_pa == pytest.approx(1.0 / er.gamma_t, rel=1e-9)
    assert report.solver_residual <= 1e-9


def test_lifetime_residual_above_the_bound_raises(monkeypatch):
    # a stopping width as wide as the root leaves a residual that the report
    # refuses
    rs = RateSet(1.0, 0.5, w_or=0.2)
    assert lifetime_report(rs).solver_residual <= 1e-9
    monkeypatch.setattr(kinetics, "_BISECT_RTOL", 1.0)
    with pytest.raises(SolverError, match="residual"):
        lifetime_report(rs)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-12.0, 12.0),
    st.floats(-12.0, 12.0),
    *[st.floats(-1e9, 1e9) | st.sampled_from([0.0, -1.0, 1e9, -1e9])] * 4,
)
@example(-12.0, -12.0, 1e6, 0.0, 0.0, 0.0)
def test_lifetime_report_is_within_the_bound_or_refused(log_or, log_pa, wor, wori, wpa, wpai):
    # rates 1e-12..1e12 and |W| up to 1e9 on either channel: 121 of 525 such
    # sets once gave a residual above 1e-6 and raised nothing
    rs, er = _pair(10.0**log_or, 10.0**log_pa, complex(wor, wori), complex(wpa, wpai))
    assume(er.gamma_t > 0.0)
    try:
        report = lifetime_report(rs)
    except SolverError:
        return
    assert report.solver_residual <= 1e-9


def test_survival_fraction_monotone():
    rs, er = _pair(1.3, 0.7, wor=0.25, wpa=-0.1j)
    t = np.linspace(0.0, 20.0, 501)
    for h in Species:
        s = species_survival_fraction(t, h, rates=rs, er=er)
        assert s[0] == 1.0
        assert np.all(np.diff(s) < 0.0)


# each of these once read "or" as pa (the first three returned the pa curve)
# or ended in a raw AttributeError or KeyError
@pytest.mark.parametrize(
    "call",
    [
        lambda rs, er, h: product_photons(1.0, h, 10, rs),
        lambda rs, er, h: product_population(1.0, h, 10, rs),
        lambda rs, er, h: photons_emitted(1.0, h, 10, rs, er),
        lambda rs, er, h: n_single(1.0, h, 10, rs, er),
        lambda rs, er, h: species_survival_fraction(1.0, h, rs, er),
        lambda rs, er, h: lifetime_species(h, rs, er),
        lambda rs, er, h: product_model_distance(evaluate_curve(Scenario(10, rs)), 10, h, 1.0),
        lambda rs, er, h: rs.gamma(h),
    ],
    ids=[
        "product_photons",
        "product_population",
        "photons_emitted",
        "n_single",
        "species_survival_fraction",
        "lifetime_species",
        "product_model_distance",
        "RateSet.gamma",
    ],
)
def test_a_species_argument_is_checked_not_guessed(call):
    rs, er = _pair(1.0, 0.5)
    assert call(rs, er, Species.OR) != call(rs, er, Species.PA)
    for h in ("or", "pa", None, 0):
        with pytest.raises(DomainError, match=f"^h must be of type Species, got {h!r}$"):
            call(rs, er, h)


def test_product_photons_of_a_species_string_is_refused():
    # the pa value, 3.93, once came back for "or"; or's is 6.32
    rs = RateSet(1.0, 0.5)
    assert product_photons(1.0, Species.OR, 10, rs) == pytest.approx(6.3212, abs=1e-4)
    with pytest.raises(DomainError):
        product_photons(1.0, "or", 10, rs)
