"""Exact scalar arithmetic for the max-plus semiring.

A weight is either an exact rational (``fractions.Fraction``) or the
additive identity ``EPSILON``, which plays the role of minus infinity:

    a (+) b = max(a, b)        with EPSILON (+) a = a
    a (*) b = a + b            with EPSILON (*) a = EPSILON

EPSILON is a distinct singleton type, never a sentinel numeric value, so
no finite weight can collide with it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class Epsilon:
    """The additive identity of the max-plus semiring (minus infinity)."""

    __slots__ = ()
    _INSTANCE = None

    def __new__(cls) -> "Epsilon":
        if cls._INSTANCE is None:
            cls._INSTANCE = super().__new__(cls)
        return cls._INSTANCE

    def __repr__(self) -> str:
        return "-inf"

    def __copy__(self) -> "Epsilon":
        return self

    def __deepcopy__(self, memo) -> "Epsilon":
        return self


EPSILON = Epsilon()

Weight = Union[Fraction, Epsilon]

ZERO = Fraction(0)

# Plain tokens, ASCII "p" and "p/q" with an optional minus sign: Fraction
# reads them as int(p) and int(p) / int(q), and parsing them that way
# skips its type checks and its general pattern.
_PLAIN_TOKEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_weight(value) -> Weight:
    """Coerce a Python value to a weight.

    Accepts Fraction, int, Epsilon, None (treated as EPSILON) and strings
    in the token syntax of :func:`weight_from_token`.  Floats are accepted
    only when integral; non-integers must be written as exact strings or
    Fractions to avoid silent binary rounding.
    """
    if isinstance(value, Epsilon):
        return value
    if value is None:
        return EPSILON
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not weights")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise ValueError(
            f"non-integral float {value!r} is not exact; pass a string or Fraction"
        )
    if isinstance(value, str):
        return weight_from_token(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a weight")


def weight_from_token(token) -> Weight:
    """Parse a serialized weight.

    Tokens are plain integers, the ASCII string ``"-inf"``, or strings that
    ``Fraction`` accepts exactly: ``"p/q"``, decimal strings like ``"-1.5"``,
    and plain integer strings.
    """
    if isinstance(token, bool):
        raise ValueError("booleans are not weights")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, Fraction):
        return token
    if isinstance(token, str):
        if token.strip() == "-inf":
            return EPSILON
        try:
            plain = _PLAIN_TOKEN.fullmatch(token)
            if plain is None:
                return Fraction(token)
            p, q = plain.groups()
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"unreadable weight token {token!r}") from exc
    raise ValueError(f"unreadable weight token {token!r}")


def weight_token(w: Weight):
    """Serialize a weight: EPSILON -> "-inf", integers -> int, else "p/q"."""
    if isinstance(w, Epsilon):
        return "-inf"
    if w.denominator == 1:
        return int(w)
    return f"{w.numerator}/{w.denominator}"
