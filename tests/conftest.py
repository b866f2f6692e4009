"""Shared generators for randomized tests.

All generators are exact (Fraction-valued) and deterministic for a given
`random.Random` instance, so failures reproduce from the seed alone.
"""

from fractions import Fraction
from random import Random
from typing import List, Optional, Tuple

import pytest

from findiag import INF, DiagonalSequence, GeometricTail, SpectrumSpec
from findiag.decide import _system
from findiag.sequences import _stats_pass


@pytest.fixture
def dyadic() -> DiagonalSequence:
    """B = 1, one entry 1/2, and 2^-k tails accumulating at both endpoints."""
    return DiagonalSequence(
        B=Fraction(1),
        explicit=(Fraction(1, 2),),
        zero_tail=GeometricTail(Fraction(1, 4), Fraction(1, 2)),
        b_tail=GeometricTail(Fraction(1, 4), Fraction(1, 2)),
    )


def witness_box(seq: DiagonalSequence, spectrum: SpectrumSpec) -> Tuple[int, ...]:
    """The per-coordinate caps on witness multiplicities that decide reads,
    from one statistics pass at B/2 and the interior points."""
    W, at = _stats_pass(seq, [spectrum.B / 2, *spectrum.interior])
    return _system(spectrum, W, at[0], at[1:]).bounds()


def random_fraction(rng: Random, lo: Fraction, hi: Fraction, den: int = 64) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator dividing den."""
    span = hi - lo
    return lo + span * Fraction(rng.randint(0, den), den)


def random_sequence(rng: Random, B: Optional[Fraction] = None) -> DiagonalSequence:
    """A sequence with divergent mass on both sides, arrangeable over ℤ.

    Each side independently gets either a geometric tail or infinitely many
    endpoint values; explicit entries sit between the tails' leading elements
    so the whole family is ordered.
    """
    if B is None:
        B = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 3)])
    low_band = B / 8
    explicit: List[Fraction] = []
    for _ in range(rng.randint(0, 4)):
        explicit.append(random_fraction(rng, low_band, B - low_band))

    if rng.random() < 0.7:
        first0 = random_fraction(rng, B / 64, low_band, den=128)
        zero_tail, zero_count = GeometricTail(first0, rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])), 0
    else:
        zero_tail, zero_count = None, INF
    if rng.random() < 0.7:
        firstB = random_fraction(rng, B / 64, low_band, den=128)
        b_tail, b_count = GeometricTail(firstB, rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(3, 7)])), 0
    else:
        b_tail, b_count = None, INF

    return DiagonalSequence(
        B=B,
        explicit=tuple(explicit),
        zero_count=zero_count,
        b_count=b_count,
        zero_tail=zero_tail,
        b_tail=b_tail,
    )


def random_spectrum(rng: Random, B: Fraction, n: Optional[int] = None) -> SpectrumSpec:
    """A spectrum 0 < A_1 < … < A_n < B with small denominators."""
    if n is None:
        n = rng.randint(1, 3)
    points = set()
    while len(points) < n:
        points.add(random_fraction(rng, B / 8, B - B / 8, den=16))
    return SpectrumSpec((Fraction(0), *sorted(points), B))


def robin_hood_pair(rng: Random, n: int) -> Tuple[List[Fraction], List[Fraction]]:
    """(lam, d) with d majorized by lam: d starts equal to lam, then repeated
    transfers move mass from larger entries to smaller ones."""
    lam = sorted(
        (Fraction(rng.randint(0, 40), rng.choice([4, 8, 16])) for _ in range(n)),
        reverse=True,
    )
    d = list(lam)
    for _ in range(rng.randint(1, 3 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if d[i] < d[j]:
            i, j = j, i
        if d[i] == d[j]:
            continue
        gap = d[i] - d[j]
        t = gap * Fraction(rng.randint(0, 8), 16)
        d[i] -= t
        d[j] += t
    return lam, d
