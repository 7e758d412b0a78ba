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

A product (never entangled) preparation of the same atoms factorises: each
atom decays independently, n_product(t) = n0 exp(-gamma_h t) per species and
N_h = n0 (1 - exp(-gamma_h t)).  Per species these coincide with the
entangled curves exactly when W = 0, which is why detection needs both
species (see the analyzer module).

Species lifetimes: the 1/e time of the combined still-excited population
n + n_h solves a transcendental two-exponential equation, handled here by
bracketing bisection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .rates import EntangledRates, RateSet, Species, _finite_positive, derive_rates

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

# bisection defaults: bracket growth cap and interval tolerance, both relative
# to the slowest characteristic time of the problem
_BRACKET_CAP = 1e3
_BISECT_RTOL = 1e-12


def _as_times(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("times must be finite")
    if np.any(arr < 0.0):
        raise DomainError("times must be >= 0")
    return arr


def _check_n0(n0: float) -> float:
    """n0 as a float; the rule for expected (real-valued) populations."""
    if not isinstance(n0, numbers.Real) or isinstance(n0, bool):
        raise DomainError(f"n0 must be a real number, got {n0!r}")
    try:
        n0 = float(n0)
    except OverflowError:  # an integer beyond the float range
        n0 = math.inf
    if not math.isfinite(n0) or n0 <= 0.0:
        raise DomainError(f"n0 must be a finite positive count, got {n0!r}")
    return n0


def _positive_n0(n0) -> int:
    """n0 as an int; the rule for counted pairs (bool is not a count, and
    counts are int64)."""
    if not isinstance(n0, (int, np.integer)) or isinstance(n0, bool) or not 1 <= n0 < 2**63:
        raise DomainError("n0 must be a positive integer below 2**63")
    return int(n0)


def _maybe_scalar(values: np.ndarray, t) -> np.ndarray | float:
    if np.ndim(t) == 0:
        return float(values)
    return values


def n_entangled(t, n0: float, er: EntangledRates):
    """Entangled-pair population n0 exp(-gamma_t t)."""
    n0 = _check_n0(n0)
    tt = _as_times(t)
    return _maybe_scalar(n0 * np.exp(-er.gamma_t * tt), t)


def n_single(t, h: Species, n0: float, rates: RateSet, er: EntangledRates):
    """Population of lone species-h survivors at time t.

    Fed by first emissions of the companion species at rate gamma_t_H and
    drained by free decay at gamma_h.  Evaluated in a form that never
    overflows and loses no precision to cancellation: with a <= b the two
    exponents, the difference of exponentials is exp(-a t) * (-expm1(-(b-a)t)).
    """
    n0 = _check_n0(n0)
    tt = _as_times(t)
    gamma_h = rates.gamma(h)
    gamma_t = er.gamma_t
    feed = er.species_rate(h.companion())
    delta = gamma_t - gamma_h
    if abs(delta) < DEGENERATE_EPS * gamma_t:
        out = n0 * feed * tt * np.exp(-gamma_t * tt)
        return _maybe_scalar(out, t)
    a = min(gamma_h, gamma_t)
    b = max(gamma_h, gamma_t)
    diff = np.exp(-a * tt) * -np.expm1(-(b - a) * tt)
    return _maybe_scalar(n0 * feed * diff / abs(delta), t)


def photons_emitted(t, h: Species, n0: float, rates: RateSet, er: EntangledRates):
    """Cumulative species-h photon count N_h(t) = n0 - n(t) - n_h(t).

    Exact integral of the rate equations; clamped at zero to absorb the
    sub-resolution negative roundoff that subtraction can produce near t = 0.
    """
    n0 = _check_n0(n0)
    tt = _as_times(t)
    out = n0 - n_entangled(tt, n0, er) - n_single(tt, h, n0, rates, er)
    return _maybe_scalar(np.maximum(out, 0.0), t)


def product_population(t, h: Species, n0: float, rates: RateSet):
    """Still-excited species-h atoms of a product preparation."""
    n0 = _check_n0(n0)
    tt = _as_times(t)
    return _maybe_scalar(n0 * np.exp(-rates.gamma(h) * tt), t)


def product_photons(t, h: Species, n0: float, rates: RateSet):
    """Cumulative species-h photons of a product preparation."""
    n0 = _check_n0(n0)
    tt = _as_times(t)
    return _maybe_scalar(n0 * -np.expm1(-rates.gamma(h) * tt), t)


def _exact(values, dtype, name: str, error: type) -> np.ndarray:
    """values as a dtype array; error, starting with name, when they are not
    numbers or when the cast would change one (a safe cast changes none)."""
    try:
        arr = np.asarray(values)
    except ValueError:  # lists of unequal lengths
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must be an array of numbers")
    with np.errstate(invalid="ignore"):  # NaN or inf cast to an integer
        cast = arr.astype(dtype, copy=False)
    if not np.can_cast(arr.dtype, dtype) and not np.array_equal(cast, arr):
        raise error(f"{name} holds values that casting to {np.dtype(dtype)} would change")
    return cast


def _validate_grid(grid) -> np.ndarray:
    """grid as a float array: numbers, 1-d, non-empty, finite, from t >= 0,
    strictly increasing; finiteness is tested before the differences, which
    inf - inf would turn into a warning and a NaN."""
    grid = _exact(grid, np.float64, "grid", DomainError)
    if grid.ndim != 1 or grid.size == 0 or not grid[0] >= 0.0:
        raise DomainError("grid must be 1-d, non-empty, with times >= 0")
    if not np.all(np.isfinite(grid)):
        raise DomainError("grid times must be finite")
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError("grid must be strictly increasing")
    return grid


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
            arr = np.asarray(getattr(self, name))
            if arr.shape != grid.shape:
                raise DomainError(f"{name} must match the grid shape")
            if not (np.all(np.isfinite(arr)) and np.all(arr >= 0)):
                raise DomainError(f"{name} must be finite and non-negative everywhere")
            object.__setattr__(self, name, arr)
        _check_n0(self.n0)

    def survivors(self, h: Species) -> np.ndarray:
        return self.n_or if h is Species.OR else self.n_pa

    def photons(self, h: Species) -> np.ndarray:
        return self.N_or if h is Species.OR else self.N_pa


def evaluate_curve(scenario, grid=None) -> PopulationCurve:
    """Tabulate the closed-form curves of a scenario on its time grid.

    An explicit ``grid`` overrides the scenario's own; a single-point grid
    [0] yields just the initial conditions.
    """
    grid = scenario.grid() if grid is None else _validate_grid(grid)
    n0 = float(scenario.n0)
    rates = scenario.rates
    if scenario.is_entangled:
        er = derive_rates(rates)
        n = n_entangled(grid, n0, er)
        n_or = n_single(grid, Species.OR, n0, rates, er)
        n_pa = n_single(grid, Species.PA, n0, rates, er)
        N_or = np.maximum(n0 - n - n_or, 0.0)
        N_pa = np.maximum(n0 - n - n_pa, 0.0)
        return PopulationCurve(grid, n, n_or, n_pa, N_or, N_pa, n0)
    h = scenario.product_species
    n = product_population(grid, h, n0, rates)
    N_h = n0 - n
    z1, z2, z3 = (np.zeros_like(grid) for _ in range(3))
    if h is Species.OR:
        return PopulationCurve(grid, n, z1, z2, N_h, z3, n0)
    return PopulationCurve(grid, n, z1, z2, z3, N_h, n0)


def conservation_residual(curve: PopulationCurve, entangled: bool = True) -> float:
    """Largest absolute violation of photon-number conservation on the grid.

    Entangled pairs emit two photons each, so
    N_or + N_pa + 2 n + n_or + n_pa = 2 n0 at all times; a product
    preparation emits one per atom, N_or + N_pa + n = n0.
    """
    if entangled:
        total = curve.N_or + curve.N_pa + 2 * curve.n + curve.n_or + curve.n_pa
        expected = 2 * curve.n0
    else:
        total = curve.N_or + curve.N_pa + curve.n
        expected = curve.n0
    return float(np.max(np.abs(total - expected)))


def species_survival_fraction(t, h: Species, rates: RateSet, er: EntangledRates):
    """Fraction of species-h atoms still excited: (n(t) + n_h(t)) / n0."""
    return n_entangled(t, 1.0, er) + n_single(t, h, 1.0, rates, er)


def lifetime_species(
    h: Species,
    rates: RateSet,
    er: EntangledRates | None = None,
    tol: float | None = None,
) -> float:
    """1/e lifetime of the species-h excited population under entanglement.

    Solves (n(tau) + n_h(tau)) / n0 = 1/e by doubling an upper bracket and
    bisecting.  The bracket is capped at 1e3 times the slowest characteristic
    time; survival still above 1/e there signals pathological rates and
    raises SolverError.  tol, the width at which bisection stops, defaults
    to 1e-12 of that time and must be finite and > 0.
    """
    if er is None:
        er = derive_rates(rates)
    gamma_h = rates.gamma(h)
    if er.gamma_t <= 0.0:
        raise DomainError("gamma_t must be positive for a finite lifetime")
    scale = max(1.0 / gamma_h, 1.0 / er.gamma_t)
    tol = _BISECT_RTOL * scale if tol is None else _finite_positive(tol, "tol")
    target = math.exp(-1.0)

    def excess(tau: float) -> float:
        return float(species_survival_fraction(tau, h, rates, er)) - target

    lo, hi = 0.0, scale
    cap = _BRACKET_CAP * scale
    while excess(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise SolverError(
                f"survival of {h.value} never reaches 1/e below t = {cap:g}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LifetimeReport:
    """Free, entangled-state, and per-species 1/e lifetimes of a preparation.

    solver_residual is |survival(tau) - 1/e| at the worse of the two
    transcendental roots.
    """

    tau_or: float
    tau_pa: float
    tau_tilde_state: float
    tau_tilde_or: float
    tau_tilde_pa: float
    solver_residual: float


def lifetime_report(rates: RateSet, tol: float | None = None) -> LifetimeReport:
    """Collect every lifetime of a preparation in one report."""
    er = derive_rates(rates)
    tau_or = lifetime_species(Species.OR, rates, er, tol)
    tau_pa = lifetime_species(Species.PA, rates, er, tol)
    target = math.exp(-1.0)
    residual = max(
        abs(float(species_survival_fraction(tau_or, Species.OR, rates, er)) - target),
        abs(float(species_survival_fraction(tau_pa, Species.PA, rates, er)) - target),
    )
    return LifetimeReport(
        tau_or=1.0 / rates.gamma_or,
        tau_pa=1.0 / rates.gamma_pa,
        tau_tilde_state=1.0 / er.gamma_t,
        tau_tilde_or=tau_or,
        tau_tilde_pa=tau_pa,
        solver_residual=residual,
    )
