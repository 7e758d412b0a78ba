"""The argument rules of every decaylab module.  Each returns its argument
as the caller computes with it, or raises a DomainError (_exact: the error
the caller names) whose message starts with the argument's name, which
parse_config reads to point a config error at its line.  _Lookup is the
rule of the package's Enums; _number is the one conversion of _real and
_complex."""

from __future__ import annotations

import math
import numbers
from enum import EnumMeta

import numpy as np

from .errors import DomainError


def _quote(value) -> str:
    """repr(value) for a message; an int past the digit limit of int-to-str
    conversion, whose repr raises, by its bit length, and a container of one
    by its type."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits" if isinstance(value, int) else type(value).__name__


class _Lookup(EnumMeta):
    """The metaclass of the package's Enums: a lookup by a value that no
    member holds raises a DomainError starting with the class name, not the
    ValueError of Enum (or of numpy, when an array is compared with each
    member's value)."""

    def __call__(cls, value, *args, **kwargs):
        try:
            return super().__call__(value, *args, **kwargs)
        except ValueError:
            values = ", ".join(repr(member.value) for member in cls)
            raise DomainError(f"{cls.__name__} must be one of {values}, got {_quote(value)}") from None


def _instance(value, kinds, name: str):
    """value; a DomainError starting with name unless it is an instance of
    kinds, a class or a tuple of classes."""
    if not isinstance(value, kinds):
        names = dict.fromkeys(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise DomainError(f"{name} must be of type {' or '.join(names)}, got {_quote(value)}")
    return value


def _number(value, kind: type, convert: type):
    """convert(value) when value is a kind number and not a bool, convert(inf)
    when it is an integer beyond the float range, else convert(nan)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        try:
            return convert(value)
        except OverflowError:
            return convert(math.inf)
    return convert(math.nan)


def _real(value, name: str, least: float = 0.0, strict: bool = True) -> float:
    """value as a float; a DomainError starting with name unless it is a
    real number (an integer beyond the float range reads as inf), finite
    and > least (>= least unless strict)."""
    number = _number(value, numbers.Real, float)
    if not (number > least or not strict and number == least) or number == math.inf:
        bound = f"{'>' if strict else '>='} {least:g}"
        raise DomainError(f"{name} must be a finite real number and must be {bound}, got {_quote(value)}")
    return number


def _complex(value, name: str) -> complex:
    """value as a complex; a DomainError starting with name unless it is a
    number with finite real and imaginary parts."""
    number = _number(value, numbers.Complex, complex)
    if not (math.isfinite(number.real) and math.isfinite(number.imag)):
        raise DomainError(f"{name} must be a finite number, got {_quote(value)}")
    return number


def _integer(value, name: str, least: int = 0, bits: int | None = None) -> int:
    """value as an int; a DomainError starting with name unless it is an
    integer >= least and, given bits, below 2**bits (counts are int64, so
    a pair count is below 2**63)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
        if number >= least and (bits is None or number < 1 << bits):
            return number
    kind = "a positive integer" if least == 1 else f"an integer >= {least}"
    below = "" if bits is None else f" below 2**{bits}"
    raise DomainError(f"{name} must be {kind}{below}, got {_quote(value)}")


def _exact(values, dtype, name: str, error: type = DomainError) -> np.ndarray:
    """values as a dtype array (of their own numeric dtype when dtype is
    None); error, starting with name, when they are not numbers or when the
    cast would change one (a safe cast changes none)."""
    try:
        arr = np.asarray(values)
    except ValueError:  # lists of unequal lengths
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must be an array of numbers")
    with np.errstate(invalid="ignore"):  # NaN or inf cast to an integer
        cast = arr.astype(arr.dtype if dtype is None else dtype, copy=False)
    if not np.can_cast(arr.dtype, cast.dtype) and not np.array_equal(cast, arr):
        raise error(f"{name} holds values that casting to {cast.dtype} would change")
    return cast


def _as_times(t, name: str = "times") -> np.ndarray:
    """t as a float array of finite times >= 0, of any shape; a DomainError
    starting with name otherwise."""
    arr = _exact(t, np.float64, name)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise DomainError(f"{name} must be >= 0")
    return arr


def _validate_grid(grid) -> np.ndarray:
    """grid as _as_times reads it, 1-d, non-empty and strictly increasing;
    finiteness is tested before the differences, which inf - inf would turn
    into a warning and a NaN."""
    grid = _as_times(grid, "grid")
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) > 0.0):
        raise DomainError("grid must be 1-d, non-empty and strictly increasing")
    return grid
