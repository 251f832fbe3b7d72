"""Scalar backends.

Everything numeric runs over one of two backends: exact rationals
(``fractions.Fraction``) for polynomial-identity assertions, and binary64
floats elsewhere.  A backend is just the string ``"rational"`` or
``"float"``; values are coerced on entry and ordinary arithmetic does the
rest.  Mixing backends coerces to float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[Fraction, float, int]

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_TOL = 1e-9


def coerce(value, backend: str) -> Scalar:
    """Coerce ``value`` into the backend's scalar type.

    Floats entering the rational backend are converted exactly (every
    binary64 value is a rational number), so no information is invented.
    """
    if backend == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value)
        return Fraction(value)
    if backend == FLOAT:
        return float(value)
    raise ValueError(f"unknown backend {backend!r}")


def infer_backend(values: Sequence) -> str:
    """Rational unless any value is a float."""
    for v in values:
        if isinstance(v, float):
            return FLOAT
    return RATIONAL


def join_backend(a: str, b: str) -> str:
    return RATIONAL if (a == RATIONAL and b == RATIONAL) else FLOAT
