"""Entanglement-modified decay rates for a pair of metastable atoms.

A pair holds one ortho ("or") and one para ("pa") metastable atom, shared
symmetrically between the left and right sides of the apparatus.  Species h
decays by single-photon emission at the free-atom rate gamma_h.  While the
pair is still entangled, the amplitude for emitting a species-h photon
interferes with the companion species' evolution amplitude, and the emission
rate becomes

    gamma_t_h = gamma_h * |1 + W_H|^2        (H = companion species of h)

where W_H is a dimensionless complex number, the expectation value of the
non-trivial part of the companion's evolution operator.  The pair leaves the
entangled state at the first emission, so the total disentangling rate is

    gamma_t = gamma_t_or + gamma_t_pa

and the excess over the free rates,

    lam = gamma_t - gamma_or - gamma_pa,

measures how much entanglement accelerates (lam > 0) or inhibits (lam < 0)
the first emission.  W values are treated as constants in time.  W = 0
recovers the free rates exactly; W = -1 switches a channel off completely.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "Species",
    "RateSet",
    "EntangledRates",
    "relative_modification",
    "entangled_rate",
    "derive_rates",
    "lambda_unweighted",
]


class Species(Enum):
    """Metastable species tag: ortho or para."""

    OR = "or"
    PA = "pa"

    def companion(self) -> "Species":
        """The other species of the pair."""
        return Species.PA if self is Species.OR else Species.OR


def _finite_positive(value, name: str) -> float:
    """value as a float; a DomainError starting with name unless it is a
    finite real number > 0 (a bool is not one)."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    if not 0.0 < number < math.inf:
        raise DomainError(f"{name} must be > 0 and finite, got {value!r}")
    return number


def _finite_complex(value, name: str) -> complex:
    """value as a complex; a DomainError starting with name unless it is a
    number (a bool is not one) with finite real and imaginary parts."""
    number = complex(math.nan)
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            number = complex(value)
        except OverflowError:  # an integer beyond the float range
            number = complex(math.inf)
    if not (math.isfinite(number.real) and math.isfinite(number.imag)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class RateSet:
    """Free-atom decay rates and evolution amplitudes for one pair preparation.

    gamma_or, gamma_pa are the free single-atom emission rates (inverse time).
    w_or, w_pa are the dimensionless amplitudes W^or, W^pa; w_h modifies the
    emission rate of the *companion* species while the pair is entangled.
    """

    gamma_or: float
    gamma_pa: float
    w_or: complex = 0j
    w_pa: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma_or", _finite_positive(self.gamma_or, "gamma_or"))
        object.__setattr__(self, "gamma_pa", _finite_positive(self.gamma_pa, "gamma_pa"))
        object.__setattr__(self, "w_or", _finite_complex(self.w_or, "w_or"))
        object.__setattr__(self, "w_pa", _finite_complex(self.w_pa, "w_pa"))

    def gamma(self, h: Species) -> float:
        """Free rate of species h."""
        return self.gamma_or if h is Species.OR else self.gamma_pa

    def w(self, h: Species) -> complex:
        """Amplitude W^h."""
        return self.w_or if h is Species.OR else self.w_pa


@dataclass(frozen=True)
class EntangledRates:
    """Modified rates derived from a RateSet.

    gamma_t is the sum of the two per-species entangled rates by construction,
    and lam is the excess of gamma_t over the free-rate sum.  Instances are
    normally produced by derive_rates.
    """

    gamma_t_or: float
    gamma_t_pa: float
    gamma_t: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("gamma_t_or", "gamma_t_pa", "gamma_t"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "lam", float(self.lam))
        if self.gamma_t != self.gamma_t_or + self.gamma_t_pa:
            raise DomainError("gamma_t must equal gamma_t_or + gamma_t_pa exactly")

    def species_rate(self, h: Species) -> float:
        """Entangled emission rate of species-h photons."""
        return self.gamma_t_or if h is Species.OR else self.gamma_t_pa


def relative_modification(w: complex) -> float:
    """Relative rate change |1 + w|^2 - 1 caused by a companion amplitude w.

    Evaluated as (1 + Re w)^2 + (Im w)^2 - 1, which is exact at w = 0 and
    w = -1 and never returns a value below -1 in floating point.
    """
    w = _finite_complex(w, "w")
    re1 = 1.0 + w.real
    return re1 * re1 + w.imag * w.imag - 1.0


def entangled_rate(gamma_h: float, w_companion: complex) -> float:
    """Emission rate gamma_h * |1 + w_companion|^2 of an entangled pair."""
    gamma_h = _finite_positive(gamma_h, "gamma_h")
    return gamma_h * (1.0 + relative_modification(w_companion))


def derive_rates(rates: RateSet) -> EntangledRates:
    """All modified rates for a preparation, with the rate-weighted excess lam."""
    gamma_t_or = entangled_rate(rates.gamma_or, rates.w_pa)
    gamma_t_pa = entangled_rate(rates.gamma_pa, rates.w_or)
    gamma_t = gamma_t_or + gamma_t_pa
    lam = gamma_t - rates.gamma_or - rates.gamma_pa
    return EntangledRates(gamma_t_or=gamma_t_or, gamma_t_pa=gamma_t_pa, gamma_t=gamma_t, lam=lam)


def lambda_unweighted(rates: RateSet) -> float:
    """Unweighted excess |W^or|^2 + |W^pa|^2 + 2 Re(W^or + W^pa).

    This is the sum of the two relative modifications, i.e. the excess rate
    per unit free rate when both free rates are equal.  It ignores the rate
    weighting that makes lam dimensionally consistent, so it is reported for
    comparison only; derive_rates carries the weighted excess.
    """
    return relative_modification(rates.w_or) + relative_modification(rates.w_pa)
