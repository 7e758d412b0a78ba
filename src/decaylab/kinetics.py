"""Closed-form population and photon-count dynamics of decaying pairs.

With n entangled pairs, n_h lone species-h atoms (the survivor left behind
when its companion emitted first), and N_h species-h photons counted so far,
the rate equations are

    dn/dt    = -gamma_t * n
    dn_h/dt  =  gamma_t_H * n - gamma_h * n_h      (H = companion of h)
    dN_h/dt  =  gamma_t_h * n + gamma_h * n_h

with n(0) = n0 and everything else zero.  The solutions used here:

    n(t)   = n0 exp(-gamma_t t)
    n_h(t) = n0 gamma_t_H / (gamma_t - gamma_h)
             * (exp(-gamma_h t) - exp(-gamma_t t))
    N_h(t) = n0 - n(t) - n_h(t)

The last identity is the exact integral of the system: every pair that has
fully decayed through the h channel contributed one h photon from the pair
and one from the survivor, and partial progress is accounted by the survivor
population itself.  It is algebraically equal to the direct two-exponential
expression for N_h but stays exactly conservative in floating point.

When gamma_t == gamma_h the spectral gap closes and n_h takes its confluent
limit n0 gamma_t_H t exp(-gamma_t t); the branch switches when the relative
gap drops below DEGENERATE_EPS.

Every entangled curve is read from one unchecked evaluation, _fractions, of
n/n0 and n_h/n0; callers scale by n0 last.  Its non-confluent survivor term is
gamma_t_H * diff / |gamma_t - gamma_h|, a ratio of at most 1 / DEGENERATE_EPS
times a difference of exponentials <= 1, so no product leaves the float
range, and an exponent past it is -inf, whose exp, 0, is the exact limit.
The public calls check their arguments once and read it; the lifetime
solver reads it directly.

A product (never entangled) preparation of the same atoms factorises: each
atom decays independently, n_product(t) = n0 exp(-gamma_h t) per species and
N_h = n0 (1 - exp(-gamma_h t)).  Per species these coincide with the
entangled curves exactly when W = 0, which is why detection needs both
species (see the analyzer module).

Species lifetimes: the 1/e time of the combined still-excited population
n + n_h solves a transcendental two-exponential equation, handled here by
bracketing bisection, which stops at _BISECT_RTOL of the fastest
characteristic time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rules import _as_times, _exact, _instance, _real, _validate_grid
from .errors import DomainError, SolverError
from .rates import EntangledRates, RateSet, Species, derive_rates

__all__ = [
    "DEGENERATE_EPS",
    "PopulationCurve",
    "n_entangled",
    "n_single",
    "photons_emitted",
    "product_population",
    "product_photons",
    "evaluate_curve",
    "conservation_residual",
    "species_survival_fraction",
    "lifetime_species",
    "lifetime_report",
    "LifetimeReport",
]

# relative |gamma_t - gamma_h| below which the confluent branch is used
DEGENERATE_EPS = 1e-8

# bisection constants: the bracket growth cap, relative to the slowest
# characteristic time of the problem, and the interval width at which it
# stops, relative to the fastest, near which the root can lie
_BRACKET_CAP = 1e3
_BISECT_RTOL = 1e-12
# the largest |survival(tau) - 1/e| that lifetime_report returns
_RESIDUAL_BOUND = 1e-9
_TARGET = math.exp(-1.0)


def _maybe_scalar(values: np.ndarray, t) -> np.ndarray | float:
    if np.ndim(t) == 0:
        return float(values)
    return values


def n_entangled(t, n0: float, er: EntangledRates):
    """Entangled-pair population n0 exp(-gamma_t t)."""
    n0 = _real(n0, "n0")
    tt = _as_times(t)
    return _maybe_scalar(n0 * np.exp(-_instance(er, EntangledRates, "er").gamma_t * tt), t)


@np.errstate(over="ignore")  # an exponent past the float range is -inf
def _fractions(tt, h: Species, rates: RateSet, er: EntangledRates) -> tuple:
    """n/n0 and n_h/n0 at times tt, of arguments already checked.

    With a <= b the two exponents, the difference of exponentials is
    exp(-a t) * (-expm1(-(b-a)t)), which loses no precision to cancellation.
    """
    gamma_h = rates.gamma(h)
    gamma_t = er.gamma_t
    feed = er.species_rate(h.companion())
    n = np.exp(-gamma_t * tt)
    delta = gamma_t - gamma_h
    if abs(delta) < DEGENERATE_EPS * gamma_t:
        return n, feed * tt * n
    a = min(gamma_h, gamma_t)
    b = max(gamma_h, gamma_t)
    diff = np.exp(-a * tt) * -np.expm1(-(b - a) * tt)
    return n, feed * diff / abs(delta)


def _checked(t, h: Species, rates: RateSet, er: EntangledRates) -> tuple:
    """_fractions at times t, once t, rates and er pass their rules."""
    return _fractions(_as_times(t), h, _instance(rates, RateSet, "rates"), _instance(er, EntangledRates, "er"))


def n_single(t, h: Species, n0: float, rates: RateSet, er: EntangledRates):
    """Population of lone species-h survivors at time t.

    Fed by first emissions of the companion species at rate gamma_t_H and
    drained by free decay at gamma_h.
    """
    n0 = _real(n0, "n0")
    return _maybe_scalar(n0 * _checked(t, h, rates, er)[1], t)


def photons_emitted(t, h: Species, n0: float, rates: RateSet, er: EntangledRates):
    """Cumulative species-h photon count N_h(t) = n0 - n(t) - n_h(t).

    Exact integral of the rate equations; clamped at zero to absorb the
    sub-resolution negative roundoff that subtraction can produce near t = 0.
    """
    n0 = _real(n0, "n0")
    n, n_h = _checked(t, h, rates, er)
    return _maybe_scalar(np.maximum(n0 - n0 * n - n0 * n_h, 0.0), t)


@np.errstate(over="ignore")  # an exponent past the float range is -inf
def product_population(t, h: Species, n0: float, rates: RateSet):
    """Still-excited species-h atoms of a product preparation."""
    n0 = _real(n0, "n0")
    tt = _as_times(t)
    return _maybe_scalar(n0 * np.exp(-_instance(rates, RateSet, "rates").gamma(h) * tt), t)


def _model(t, gamma: float):
    """1 - exp(-gamma t), the product photon fraction, by the same ufuncs on
    the same operands for every caller; a 0-d t gives a numpy scalar."""
    m = np.multiply(t, -gamma)
    if not m.ndim:
        return -np.expm1(m)
    np.expm1(m, out=m)
    return np.negative(m, out=m)


def product_photons(t, h: Species, n0: float, rates: RateSet):
    """Cumulative species-h photons of a product preparation."""
    n0 = _real(n0, "n0")
    tt = _as_times(t)
    return _maybe_scalar(n0 * _model(tt, _instance(rates, RateSet, "rates").gamma(h)), t)


@dataclass(frozen=True)
class PopulationCurve:
    """Populations and photon counts tabulated on a time grid.

    Arrays are aligned with ``grid``: entangled pairs ``n``, lone survivors
    ``n_or``/``n_pa``, cumulative photons ``N_or``/``N_pa``.  Analytic curves
    hold floats; histograms of simulated events hold exact integer counts.
    """

    grid: np.ndarray
    n: np.ndarray
    n_or: np.ndarray
    n_pa: np.ndarray
    N_or: np.ndarray
    N_pa: np.ndarray
    n0: float

    def __post_init__(self) -> None:
        grid = _validate_grid(self.grid)
        if grid[0] != 0.0:
            raise DomainError("grid must start at t = 0")
        object.__setattr__(self, "grid", grid)
        for name in ("n", "n_or", "n_pa", "N_or", "N_pa"):
            arr = _exact(getattr(self, name), None, name)
            if arr.shape != grid.shape:
                raise DomainError(f"{name} must match the grid shape")
            if not (np.all(np.isfinite(arr)) and np.all(arr >= 0)):
                raise DomainError(f"{name} must be finite and non-negative everywhere")
            object.__setattr__(self, name, arr)
        _real(self.n0, "n0")

    def survivors(self, h: Species) -> np.ndarray:
        return self.n_or if _instance(h, Species, "h") is Species.OR else self.n_pa

    def photons(self, h: Species) -> np.ndarray:
        return self.N_or if _instance(h, Species, "h") is Species.OR else self.N_pa


def evaluate_curve(scenario, grid=None) -> PopulationCurve:
    """Tabulate the closed-form curves of a scenario on its time grid.

    An explicit ``grid`` overrides the scenario's own; a single-point grid
    [0] yields just the initial conditions.
    """
    from .montecarlo import Scenario  # montecarlo imports this module
    n0 = float(_instance(scenario, Scenario, "scenario").n0)
    grid = scenario.grid() if grid is None else _validate_grid(grid)
    rates = scenario.rates
    if scenario.is_entangled:
        er = derive_rates(rates)
        fractions = [_fractions(grid, h, rates, er) for h in Species]
        n = n0 * fractions[0][0]  # n/n0 is the same for either species
        survivors = [n0 * n_h for _, n_h in fractions]
        photons = [np.maximum(n0 - n - n_h, 0.0) for n_h in survivors]
        return PopulationCurve(grid, n, *survivors, *photons, n0)
    h = scenario.product_species
    n = product_population(grid, h, n0, rates)
    photons = [n0 - n if s is h else np.zeros_like(grid) for s in Species]
    return PopulationCurve(grid, n, *np.zeros((2, grid.size)), *photons, n0)


def conservation_residual(curve: PopulationCurve, entangled: bool = True) -> float:
    """Largest absolute violation of photon-number conservation on the grid.

    Entangled pairs emit two photons each, so
    N_or + N_pa + 2 n + n_or + n_pa = 2 n0 at all times; a product
    preparation emits one per atom, N_or + N_pa + n = n0.
    """
    _instance(curve, PopulationCurve, "curve")
    if _instance(entangled, (bool, np.bool_), "entangled"):
        total = curve.N_or + curve.N_pa + 2 * curve.n + curve.n_or + curve.n_pa
        expected = 2 * curve.n0
    else:
        total = curve.N_or + curve.N_pa + curve.n
        expected = curve.n0
    return float(np.max(np.abs(total - expected)))


def species_survival_fraction(t, h: Species, rates: RateSet, er: EntangledRates):
    """Fraction of species-h atoms still excited: (n(t) + n_h(t)) / n0."""
    n, n_h = _checked(t, h, rates, er)
    return _maybe_scalar(n + n_h, t)


def _excess(tau: float, h: Species, rates: RateSet, er: EntangledRates) -> float:
    """survival(tau) - 1/e, of arguments already checked."""
    n, n_h = _fractions(tau, h, rates, er)
    return float(n + n_h) - _TARGET


def lifetime_species(h: Species, rates: RateSet, er: EntangledRates | None = None) -> float:
    """1/e lifetime of the species-h excited population under entanglement.

    Solves (n(tau) + n_h(tau)) / n0 = 1/e by doubling an upper bracket and
    bisecting.  The bracket is capped at 1e3 times the slowest characteristic
    time and at half the largest float; survival still above 1/e there
    signals pathological rates and raises SolverError, which names the rates.
    Bisection stops at a width of 1e-12 of the fastest characteristic time,
    min(1/gamma_h, 1/gamma_t), or at two adjacent floats.
    """
    er = derive_rates(rates) if er is None else _instance(er, EntangledRates, "er")
    gamma_h = _instance(rates, RateSet, "rates").gamma(h)
    if er.gamma_t <= 0.0:
        raise DomainError("gamma_t must be positive for a finite lifetime")
    scale = max(1.0 / gamma_h, 1.0 / er.gamma_t)
    tol = _BISECT_RTOL * min(1.0 / gamma_h, 1.0 / er.gamma_t)
    # past half the largest float a bracket (or the midpoint of one) is inf,
    # where the confluent form is inf * 0
    cap = min(_BRACKET_CAP * scale, 0.5 * np.finfo(float).max)
    lo, hi = 0.0, scale
    while hi <= cap and _excess(hi, h, rates, er) > 0.0:
        lo, hi = hi, 2.0 * hi
    if not hi <= cap:
        raise SolverError(
            f"survival of {h.value} never reaches 1/e below t = {cap:g} "
            f"(gamma_{h.value} = {gamma_h:g}, gamma_t = {er.gamma_t:g})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _excess(mid, h, rates, er) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LifetimeReport:
    """Free, entangled-state, and per-species 1/e lifetimes of a preparation.

    solver_residual is |survival(tau) - 1/e| at the worse of the two
    transcendental roots, at most 1e-9.
    """

    tau_or: float
    tau_pa: float
    tau_tilde_state: float
    tau_tilde_or: float
    tau_tilde_pa: float
    solver_residual: float


def lifetime_report(rates: RateSet) -> LifetimeReport:
    """Collect every lifetime of a preparation in one report.

    Raises SolverError when a root's residual |survival(tau) - 1/e| exceeds
    1e-9.
    """
    er = derive_rates(rates)
    taus = [lifetime_species(h, rates, er) for h in Species]
    residual = max(abs(_excess(tau, h, rates, er)) for h, tau in zip(Species, taus))
    if not residual <= _RESIDUAL_BOUND:
        raise SolverError(f"lifetime solver residual {residual:g} exceeds {_RESIDUAL_BOUND:g}")
    # the fields in order: free, entangled-state, per-species entangled
    free = (1.0 / rates.gamma(h) for h in Species)
    return LifetimeReport(*free, 1.0 / er.gamma_t, *taus, solver_residual=residual)
