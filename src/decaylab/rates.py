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

from dataclasses import dataclass
from enum import Enum

from ._rules import _Lookup, _complex, _instance, _real
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


class Species(Enum, metaclass=_Lookup):
    """Metastable species tag: ortho or para."""

    OR = "or"
    PA = "pa"

    def companion(self) -> "Species":
        """The other species of the pair."""
        return Species.PA if self is Species.OR else Species.OR


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
        object.__setattr__(self, "gamma_or", _real(self.gamma_or, "gamma_or"))
        object.__setattr__(self, "gamma_pa", _real(self.gamma_pa, "gamma_pa"))
        object.__setattr__(self, "w_or", _complex(self.w_or, "w_or"))
        object.__setattr__(self, "w_pa", _complex(self.w_pa, "w_pa"))

    def gamma(self, h: Species) -> float:
        """Free rate of species h."""
        return self.gamma_or if _instance(h, Species, "h") is Species.OR else self.gamma_pa

    def w(self, h: Species) -> complex:
        """Amplitude W^h."""
        return self.w_or if _instance(h, Species, "h") is Species.OR else self.w_pa


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
            object.__setattr__(self, name, _real(getattr(self, name), name, strict=False))
        object.__setattr__(self, "lam", _real(self.lam, "lam", -float("inf")))
        if self.gamma_t != self.gamma_t_or + self.gamma_t_pa:
            raise DomainError("gamma_t must equal gamma_t_or + gamma_t_pa exactly")

    def species_rate(self, h: Species) -> float:
        """Entangled emission rate of species-h photons."""
        return self.gamma_t_or if _instance(h, Species, "h") is Species.OR else self.gamma_t_pa


def relative_modification(w: complex) -> float:
    """Relative rate change |1 + w|^2 - 1 caused by a companion amplitude w.

    Evaluated as (1 + Re w)^2 + (Im w)^2 - 1, which is exact at w = 0 and
    w = -1 and never returns a value below -1 in floating point.
    """
    w = _complex(w, "w")
    re1 = 1.0 + w.real
    return re1 * re1 + w.imag * w.imag - 1.0


def entangled_rate(gamma_h: float, w_companion: complex) -> float:
    """Emission rate gamma_h * |1 + w_companion|^2 of an entangled pair."""
    gamma_h = _real(gamma_h, "gamma_h")
    return gamma_h * (1.0 + relative_modification(w_companion))


def derive_rates(rates: RateSet) -> EntangledRates:
    """All modified rates for a preparation, with the rate-weighted excess lam."""
    gamma_t_or = entangled_rate(_instance(rates, RateSet, "rates").gamma_or, rates.w_pa)
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
    w_or = _instance(rates, RateSet, "rates").w_or
    return relative_modification(w_or) + relative_modification(rates.w_pa)
