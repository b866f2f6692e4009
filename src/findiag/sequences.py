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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError
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

    def _head(self, count: int) -> List[Fraction]:
        """The first count elements, as one running Fraction product."""
        heads, x = [], self.first
        for _ in range(count):
            heads.append(x)
            x *= self.ratio
        return heads

    def _products(self) -> Iterator[Tuple[int, int]]:
        """(fn·pnᵗ, fd·pdᵗ) for t = 0, 1, … with first = fn/fd and ratio = pn/pd:
        element t as an integer pair, one running product per side."""
        (xn, xd), (pn, pd) = self.first.as_integer_ratio(), self.ratio.as_integer_ratio()
        while True:
            yield xn, xd
            xn, xd = xn * pn, xd * pd

    def _walk(self, cuts: Sequence[Tuple[int, int]], strict: bool = False) -> Tuple[List[tuple], int]:
        """([(c, head, rest) at each cut a/b], den) for cuts (a, b > 0) in
        nonincreasing order, in one walk: the c leading elements are ≥ a/b
        (> a/b if strict), and head/den and rest/den are the distance masses
        of those c elements and of all later ones."""
        products = self._products()
        c, (xn, xd) = 0, next(products)
        at = []
        for a, b in cuts:
            if a <= 0:
                raise DomainError("a tail cut must be positive")
            while xn * b > a * xd if strict else xn * b >= a * xd:
                c, (xn, xd) = c + 1, next(products)
            at.append((c, xn))
        # the rest after c elements is fn·pnᶜ/(fd·pdᶜ)·pd/(pd − pn), and the head first/(1 − ratio)
        # minus that, all over den = xd·(pd − pn) with xd = fd·pdᶜ at the last cut
        (fn, fd), (pn, pd) = self.first.as_integer_ratio(), self.ratio.as_integer_ratio()
        total = fn * (xd // fd) * pd
        rests = [(k, yn * pd ** (c - k + 1)) for k, yn in at]
        return [(k, total - rest, rest) for k, rest in rests], xd * (pd - pn)

    def count_at_least(self, cut: Fraction) -> int:
        """|{t ≥ 0 : first·ratio^t ≥ cut}| — finite for cut > 0."""
        return self._walk([cut.as_integer_ratio()])[0][0][0]

    def count_greater(self, cut: Fraction) -> int:
        """|{t ≥ 0 : first·ratio^t > cut}| — finite for cut > 0."""
        return self._walk([cut.as_integer_ratio()], strict=True)[0][0][0]

    def drop(self, count: int) -> "GeometricTail":
        return GeometricTail(self.element(count), self.ratio)


@dataclass(frozen=True)
class DivergentTail:
    """Entries accumulating at an endpoint with infinite distance mass.

    Carries no element values: only the divergence fact is ever used.  By
    convention its entries lie beyond every interior threshold, so it
    contributes Infinite to its own endpoint's statistic and nothing to the
    opposite one.
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
    run on the entries scaled to integers, which are kept with their prefix
    sums for the threshold statistics.
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
    # Q·explicit[i] for i = 0, …, m − 1, nondecreasing
    _entries: list = field(init=False, repr=False, compare=False)

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
        entries = [qv for qv, _ in interior]
        object.__setattr__(self, "_prefix", (Q, qB, list(accumulate(entries, initial=0))))
        object.__setattr__(self, "_entries", entries)


def materialize_tails(seq: DiagonalSequence, low: Fraction, high: Fraction) -> DiagonalSequence:
    """Move every zero-tail element ≥ low and every b-tail element ≤ high into explicit.

    Finitely many elements qualify (ratio < 1): on each side the integer cut
    search counts them, the tail's head of that length becomes explicit and
    the tail dropped by that count stays geometric, so the value multiset is
    preserved and no tail element straddles [low, high].
    """
    low, high = Fraction(low), Fraction(high)
    if not (0 < low <= high < seq.B):
        raise DomainError("materialization bounds must satisfy 0 < low ≤ high < B")
    if isinstance(seq.zero_tail, DivergentTail) or isinstance(seq.b_tail, DivergentTail):
        raise DomainError("divergent tails have no elements to materialize")
    explicit = list(seq.explicit)
    zero_tail, b_tail = seq.zero_tail, seq.b_tail
    if isinstance(zero_tail, GeometricTail):
        c = zero_tail.count_at_least(low)
        explicit += zero_tail._head(c)
        zero_tail = zero_tail.drop(c)
    if isinstance(b_tail, GeometricTail):
        c = b_tail.count_at_least(seq.B - high)
        explicit += (seq.B - x for x in b_tail._head(c))
        b_tail = b_tail.drop(c)
    return replace(seq, explicit=tuple(explicit), zero_tail=zero_tail, b_tail=b_tail)


def threshold_stats(seq: DiagonalSequence, alpha: Fraction) -> ThresholdStats:
    """Exact C(α) and D(α): the one-point case of _stats_pass."""
    alpha = Fraction(alpha)
    W, ((C, D),) = _stats_pass(seq, [alpha])
    return ThresholdStats(alpha, _over(C, W), _over(D, W))


def _over(x, W: int):
    """A numerator of _stats_pass as its statistic: INF or x/W."""
    return x if x is INF else Fraction(x, W)


def _stats_pass(seq: DiagonalSequence, alphas: Sequence[Fraction]) -> Tuple[int, list]:
    """(W, [(W·C(α), W·D(α)) for α in alphas]): integers over one W, INF on the
    side of a divergent tail, for α in (0, B) in any order.  In ascending α the
    explicit part is a prefix of the sorted scaled entries, found by an integer
    bisect, and each geometric tail is walked once across all the cuts."""
    order = sorted(range(len(alphas)), key=alphas.__getitem__)
    Q, qB, P = seq._prefix
    E, m = seq._entries, len(seq._entries)
    cuts = [alphas[j].as_integer_ratio() for j in order]
    for j, (an, ad) in zip(order[:1] + order[-1:], cuts[:1] + cuts[-1:]):
        if not (0 < an and an * Q < qB * ad):
            raise DomainError(f"alpha must lie in (0, B), got {alphas[j]}")
    zt, bt = seq.zero_tail, seq.b_tail
    none = ([(0, 0, 0)] * len(cuts), 1)
    # zero-tail elements first·ratio^t < α are exactly t ≥ c, with cuts
    # falling as α rises; B-tail elements B − first·ratio^t < α ⟺
    # first·ratio^t > B − α, with cuts B − α falling too
    zw, dz = zt._walk(cuts[::-1]) if isinstance(zt, GeometricTail) else none
    bcuts = [(qB * ad - an * Q, Q * ad) for an, ad in cuts]
    bw, db = bt._walk(bcuts, strict=True) if isinstance(bt, GeometricTail) else none
    out, i = [None] * len(cuts), 0
    for j, (an, ad), (cz, hz, rz), (cb, hb, rb) in zip(order, cuts, reversed(zw), bw):
        # explicit[:i] < α ≤ explicit[i:], and Q·v < Q·α ⟺ Q·v < ⌈Q·α⌉ for integer Q·v
        i = bisect_left(E, -(-an * Q // ad), i)
        # C gains the zero-tail rest and B − e for the c B-tail elements e;
        # D gains B − e for the c zero-tail elements e and the B-tail rest
        C = (P[i] * dz + rz * Q + cb * qB * dz) * db - hb * Q * dz
        D = ((m - i) * qB - P[m] + P[i] + cz * qB) * dz * db - hz * Q * db + rb * Q * dz
        out[j] = (INF if isinstance(zt, DivergentTail) else C, INF if isinstance(bt, DivergentTail) else D)
    return Q * dz * db, out


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
        return replace(obj, explicit=tuple(obj.B - v for v in obj.explicit), zero_count=obj.b_count,
                       b_count=obj.zero_count, zero_tail=obj.b_tail, b_tail=obj.zero_tail)
    if isinstance(obj, SpectrumSpec):
        return SpectrumSpec([0] + [obj.B - p for p in reversed(obj.interior)] + [obj.B])
    raise DomainError(f"cannot reflect {type(obj).__name__}")


def scale(obj, c: Fraction):
    """Multiply every value (and B) by c > 0."""
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"scale factor must be positive, got {c}")
    if isinstance(obj, DiagonalSequence):
        tails = {side: replace(t, first=t.first * c) for side in ("zero_tail", "b_tail")
                 if isinstance(t := getattr(obj, side), GeometricTail)}
        return replace(obj, B=obj.B * c, explicit=tuple(v * c for v in obj.explicit), **tails)
    if isinstance(obj, SpectrumSpec):
        return SpectrumSpec([p * c for p in obj.points])
    raise DomainError(f"cannot scale {type(obj).__name__}")
