"""Exact scalar arithmetic: rationals plus a single infinity.

All sequence data and threshold statistics are exact rationals
(``fractions.Fraction``); quantities that diverge are the singleton
``INF``.  Floats enter only at the matrix-construction boundary.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Tuple

from .errors import SchemaError

__all__ = ["INF", "Infinite", "parse_rational", "format_rational"]


class Infinite:
    """Positive infinity for counts and sums.  A singleton: compare with ``is``.
    INF plus a count is INF (an explicit 0 joining infinitely many); no order."""

    _instance: "Infinite | None" = None

    def __new__(cls) -> "Infinite":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __add__(self, other: object):
        if isinstance(other, (int, Fraction)) or other is self:
            return self
        return NotImplemented


INF = Infinite()

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str, path: str = "$", ratio=Fraction):
    """Parse ``"p/q"`` or an integer literal into an exact Fraction, or into
    ratio(p, q) for another reading of the two integers.

    Decimal notation is rejected on purpose: 0.1 is not 1/10 in binary
    floating point, and silently accepting it would poison exact checks.
    """
    match = isinstance(text, str) and _RATIONAL_RE.match(text.strip())
    if not match:
        raise SchemaError(f"expected rational 'p/q' or integer string, got {text!r}", path)
    p, _, q = match[0].partition("/")
    try:
        return ratio(int(p), int(q or 1))
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in {text!r}", path) from None
    except ValueError as exc:  # int() refuses a part past the interpreter's digit limit
        raise SchemaError(f"invalid rational: {exc}", path) from None


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational; '3', '-1/2', etc."""
    return str(x) if type(x) is Fraction else str(Fraction(x))


def _scaled(*values: Fraction) -> Tuple[int, List[int]]:
    """Q, the lcm of the denominators, and each value times Q as an integer.

    The lcm runs over the distinct denominators from short to long, and
    Q // d is read from the quotient of the next longer denominator when d
    divides it, so the denominators of a materialized geometric tail cost no
    long division.
    """
    dens = sorted({x.denominator for x in values}, key=int.bit_length)
    Q = math.lcm(*dens)
    scale, above, k = {}, Q, 1
    for d in reversed(dens):
        q, r = divmod(above, d)
        above, k = d, k * q if r == 0 else Q // d
        scale[d] = k
    return Q, [x.numerator * scale[x.denominator] for x in values]
