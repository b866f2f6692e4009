"""Diagonal sequences with symbolic accumulation tails, and their threshold statistics.

A sequence here is a multiset of values in [0, B]: finitely many explicit
entries, optional counts of exact 0s and exact Bs (possibly infinite), and
optional tails accumulating at each endpoint.  Geometric tails keep every
statistic exactly rational via closed-form remainders; divergent tails carry
no element data, only the fact that the corresponding endpoint statistic is
infinite.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from .errors import DomainError, UnsupportedOperationError
from .scalars import INF, Infinite, _scaled

Count = Union[int, Infinite]


@dataclass(frozen=True)
class GeometricTail:
    """Infinitely many entries at distances first·ratio^t (t = 0, 1, …) from an endpoint.

    On the zero side the entries are the distances themselves; on the B side
    they are B minus the distances.  Total distance mass is first/(1−ratio).
    """

    first: Fraction
    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "first", Fraction(self.first))
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if not (self.first > 0):
            raise DomainError(f"tail first element must be positive, got {self.first}")
        if not (0 < self.ratio < 1):
            raise DomainError(f"tail ratio must be in (0,1), got {self.ratio}")

    def total(self) -> Fraction:
        return self.first / (1 - self.ratio)

    def element(self, t: int) -> Fraction:
        return self.first * self.ratio**t

    def head_sum(self, count: int) -> Fraction:
        # first·(1−ratio^count)/(1−ratio)
        return self.first * (1 - self.ratio**count) / (1 - self.ratio)

    def tail_sum_from(self, t: int) -> Fraction:
        return self.element(t) / (1 - self.ratio)

    def _elements(self) -> Iterator[Fraction]:
        """first, first·ratio, first·ratio², … without end: the one walk over tail elements."""
        x = self.first
        while True:
            yield x
            x *= self.ratio

    def _cut(self, cut: Fraction, strict: bool = False) -> Tuple[int, Fraction]:
        """(c, x): the c leading elements are ≥ cut (> cut if strict); x is the next one."""
        if cut <= 0:
            raise DomainError("a tail cut must be positive")
        for c, x in enumerate(self._elements()):
            if x <= cut if strict else x < cut:
                return c, x

    def count_at_least(self, cut: Fraction) -> int:
        """|{t ≥ 0 : first·ratio^t ≥ cut}| — finite for cut > 0."""
        return self._cut(cut)[0]

    def count_greater(self, cut: Fraction) -> int:
        """|{t ≥ 0 : first·ratio^t > cut}| — finite for cut > 0."""
        return self._cut(cut, strict=True)[0]

    def drop(self, count: int) -> "GeometricTail":
        return GeometricTail(self.element(count), self.ratio)


@dataclass(frozen=True)
class DivergentTail:
    """Entries accumulating at an endpoint with infinite distance mass.

    Carries no element values: only the divergence fact is ever used.  By
    convention its entries lie beyond every interior threshold, so it
    contributes Infinite to its own endpoint's statistic and nothing to the
    opposite one; interior range counts against it are unsupported.
    """


Tail = Union[GeometricTail, DivergentTail]


@dataclass(frozen=True)
class SpectrumSpec:
    """Prescribed finite spectrum 0 = A_0 < A_1 < … < A_{n+1} = B."""

    points: tuple

    def __init__(self, points):
        pts = tuple(Fraction(p) for p in points)
        if len(pts) < 2:
            raise DomainError("spectrum needs at least the two endpoints 0 and B")
        if pts[0] != 0:
            raise DomainError(f"spectrum must start at 0, got {pts[0]}")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise DomainError("spectrum points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def B(self) -> Fraction:
        return self.points[-1]

    @property
    def n(self) -> int:
        return len(self.points) - 2

    @property
    def interior(self) -> tuple:
        return self.points[1:-1]


class ThresholdStats(NamedTuple):
    """C(α) = Σ_{d_i<α} d_i and D(α) = Σ_{d_i≥α} (B−d_i), exactly."""

    alpha: Fraction
    C: Union[Fraction, Infinite]
    D: Union[Fraction, Infinite]


class DivergenceFlags(NamedTuple):
    sum_d_infinite: bool
    sum_Bd_infinite: bool
    C_half_infinite: bool
    D_half_infinite: bool


def _as_count(value, name: str) -> Count:
    if value is INF:
        return INF
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise DomainError(f"{name} must be a nonnegative integer or INF, got {value!r}")


@dataclass(frozen=True)
class DiagonalSequence:
    """A prescribed diagonal: explicit entries plus endpoint counts and tails.

    Construction normalizes: explicit values equal to 0 or B are folded into
    zero_count/b_count, the rest are sorted nondecreasing.  The value multiset
    is unchanged by normalization.  The range check, the folding and the sort
    run on the entries scaled to integers, whose prefix sums are kept for
    threshold_stats.
    """

    B: Fraction
    explicit: tuple = ()
    zero_count: Count = 0
    b_count: Count = 0
    zero_tail: Optional[Tail] = None
    b_tail: Optional[Tail] = None
    # (Q, Q·B, P): Q is the lcm of the denominators of B and the explicit
    # entries, and P[i] = Q·(explicit[0] + … + explicit[i−1]) for i = 0, …, m
    _prefix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = self.B if isinstance(self.B, Fraction) else Fraction(self.B)
        if B <= 0:
            raise DomainError(f"B must be positive, got {B}")
        zero_count = _as_count(self.zero_count, "zero_count")
        b_count = _as_count(self.b_count, "b_count")
        values = [v if isinstance(v, Fraction) else Fraction(v) for v in self.explicit]
        Q, (qB, *scaled) = _scaled(B, *values)
        interior = []
        for qv, v in zip(scaled, values):
            if 0 < qv < qB:
                interior.append((qv, v))
            elif qv == 0:
                zero_count = zero_count + 1
            elif qv == qB:
                b_count = b_count + 1
            else:
                raise DomainError(f"explicit value {v} outside [0, {B}]")
        interior.sort(key=itemgetter(0))
        for tail, side in ((self.zero_tail, "zero_tail"), (self.b_tail, "b_tail")):
            if tail is None or isinstance(tail, DivergentTail):
                continue
            if not isinstance(tail, GeometricTail):
                raise DomainError(f"{side} must be GeometricTail, DivergentTail, or None")
            if tail.first >= B:
                raise DomainError(f"{side} first element {tail.first} must be < B={B}")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "explicit", tuple(v for _, v in interior))
        object.__setattr__(self, "zero_count", zero_count)
        object.__setattr__(self, "b_count", b_count)
        prefix = list(accumulate((qv for qv, _ in interior), initial=0))
        object.__setattr__(self, "_prefix", (Q, qB, prefix))


def _split(tail: GeometricTail, cut: Fraction) -> Tuple[List[Fraction], GeometricTail]:
    """The elements ≥ cut and the geometric tail of the rest, from one walk."""
    moved: List[Fraction] = []
    for x in tail._elements():
        if x < cut:
            return moved, GeometricTail(x, tail.ratio)
        moved.append(x)


def materialize_tails(seq: DiagonalSequence, low: Fraction, high: Fraction) -> DiagonalSequence:
    """Move every zero-tail element ≥ low and every b-tail element ≤ high into explicit.

    Finitely many elements qualify (ratio < 1).  The remaining tails stay
    geometric with first advanced past the moved elements, so the value
    multiset is preserved and no tail element straddles [low, high].
    """
    low, high = Fraction(low), Fraction(high)
    if not (0 < low <= high < seq.B):
        raise DomainError(f"materialization bounds must satisfy 0 < low ≤ high < B")
    if isinstance(seq.zero_tail, DivergentTail) or isinstance(seq.b_tail, DivergentTail):
        raise UnsupportedOperationError("divergent tails have no elements to materialize")
    explicit = list(seq.explicit)
    zero_tail, b_tail = seq.zero_tail, seq.b_tail
    if isinstance(zero_tail, GeometricTail):
        moved, zero_tail = _split(zero_tail, low)
        explicit += moved
    if isinstance(b_tail, GeometricTail):
        moved, b_tail = _split(b_tail, seq.B - high)
        explicit += (seq.B - x for x in moved)
    return DiagonalSequence(seq.B, tuple(explicit), seq.zero_count, seq.b_count, zero_tail, b_tail)


def threshold_stats(seq: DiagonalSequence, alpha: Fraction) -> ThresholdStats:
    """Exact C(α) and D(α): the explicit entries below α are a prefix of the
    sorted ones, read from the prefix sums at one bisect, and each geometric
    tail is counted once for closed-form partial sums."""
    alpha = Fraction(alpha)
    B = seq.B
    if not (0 < alpha < B):
        raise DomainError(f"alpha must lie in (0, B), got {alpha}")

    i = bisect_left(seq.explicit, alpha)  # explicit[:i] < α ≤ explicit[i:]
    Q, qB, P = seq._prefix
    C: Union[Fraction, Infinite] = Fraction(P[i], Q)
    D: Union[Fraction, Infinite] = Fraction((len(seq.explicit) - i) * qB - (P[-1] - P[i]), Q)
    zt, bt = seq.zero_tail, seq.b_tail
    if isinstance(zt, GeometricTail):
        # elements first·ratio^t < alpha are exactly t ≥ c, and x is the first
        # of them: C gains x/(1−ratio), D gains B − e for each earlier e
        c, x = zt._cut(alpha)
        C += x / (1 - zt.ratio)
        D += c * B - (zt.first - x) / (1 - zt.ratio)
    if isinstance(bt, GeometricTail):
        # elements B − first·ratio^t < alpha ⟺ first·ratio^t > B − alpha
        c, x = bt._cut(B - alpha, strict=True)
        C += c * B - (bt.first - x) / (1 - bt.ratio)
        D += x / (1 - bt.ratio)
    if isinstance(zt, DivergentTail):
        C = INF
    if isinstance(bt, DivergentTail):
        D = INF
    return ThresholdStats(alpha, C, D)


def _trace_residue(seq: DiagonalSequence) -> Fraction:
    """(C(α) − D(α)) mod B, the same at every α: each entry adds d_i to C − D
    modulo B on either side of α, so exact 0s and Bs add nothing and a tail
    adds its distance mass (negated on the B side).  Raises DomainError on a
    divergent tail, exactly when a statistic is infinite."""
    zt, bt = seq.zero_tail, seq.b_tail
    if isinstance(zt, DivergentTail) or isinstance(bt, DivergentTail):
        raise DomainError("the trace residue needs finite threshold statistics")
    Q, _, P = seq._prefix
    total = Fraction(P[-1], Q)
    total += zt.total() if zt is not None else 0
    total -= bt.total() if bt is not None else 0
    return total % seq.B


def count_range(seq: DiagonalSequence, a: Fraction, b: Fraction):
    """Exact |{i : a ≤ d_i < b}|, possibly Infinite.

    Half-open on the right, so entries equal to B are never counted and
    entries equal to 0 are counted exactly when a = 0.
    """
    a, b = Fraction(a), Fraction(b)
    B = seq.B
    if not (0 <= a <= b <= B):
        raise DomainError(f"range bounds must satisfy 0 ≤ a ≤ b ≤ B")
    if a == b:
        return 0

    count: Count = sum(1 for v in seq.explicit if a <= v < b)
    if a == 0:
        if seq.zero_count is INF:
            return INF
        count += seq.zero_count

    zt = seq.zero_tail
    if isinstance(zt, DivergentTail):
        if a == 0:
            return INF  # infinitely many entries below any positive b
        raise UnsupportedOperationError("cannot count a divergent zero tail above a positive bound")
    if isinstance(zt, GeometricTail):
        if a == 0:
            return INF
        count += zt.count_at_least(a) - zt.count_at_least(b)

    bt = seq.b_tail
    if isinstance(bt, DivergentTail):
        if b == B:
            return INF  # infinitely many entries above any a < B
        raise UnsupportedOperationError("cannot count a divergent b-tail below an interior bound")
    if isinstance(bt, GeometricTail):
        if b == B:
            return INF
        # B − first·ratio^t ∈ [a, b) ⟺ B−b < first·ratio^t ≤ B−a
        count += bt.count_greater(B - b) - bt.count_greater(B - a)

    return count


def divergence_flags(seq: DiagonalSequence) -> DivergenceFlags:
    """Which of Σd, Σ(B−d), C(B/2), D(B/2) are infinite."""
    zero_div = isinstance(seq.zero_tail, DivergentTail)
    b_div = isinstance(seq.b_tail, DivergentTail)
    sum_d = seq.b_count is INF or seq.b_tail is not None or zero_div
    sum_Bd = seq.zero_count is INF or seq.zero_tail is not None or b_div
    return DivergenceFlags(sum_d, sum_Bd, zero_div, b_div)


def reflect(obj):
    """Reflect values v ↦ B − v; an involution.

    For sequences this swaps the endpoint counts and tails; for spectra it
    reverses the interior points about B/2.
    """
    if isinstance(obj, DiagonalSequence):
        return DiagonalSequence(
            obj.B,
            tuple(obj.B - v for v in obj.explicit),
            zero_count=obj.b_count,
            b_count=obj.zero_count,
            zero_tail=obj.b_tail,
            b_tail=obj.zero_tail,
        )
    if isinstance(obj, SpectrumSpec):
        return SpectrumSpec([0] + [obj.B - p for p in reversed(obj.interior)] + [obj.B])
    raise DomainError(f"cannot reflect {type(obj).__name__}")


def _scale_tail(tail: Optional[Tail], c: Fraction) -> Optional[Tail]:
    if isinstance(tail, GeometricTail):
        return GeometricTail(tail.first * c, tail.ratio)
    return tail


def scale(obj, c: Fraction):
    """Multiply every value (and B) by c > 0."""
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"scale factor must be positive, got {c}")
    if isinstance(obj, DiagonalSequence):
        return DiagonalSequence(
            obj.B * c,
            tuple(v * c for v in obj.explicit),
            zero_count=obj.zero_count,
            b_count=obj.b_count,
            zero_tail=_scale_tail(obj.zero_tail, c),
            b_tail=_scale_tail(obj.b_tail, c),
        )
    if isinstance(obj, SpectrumSpec):
        return SpectrumSpec([p * c for p in obj.points])
    raise DomainError(f"cannot scale {type(obj).__name__}")
