"""The witness search against a box-scan oracle, on a seeded corpus with planted witnesses.

The oracle tests every point of the box that witness_box gives with exact
Fraction arithmetic: the trace equation and the mass bounds (mass_bound_holds) are
written out here, independently of the package.  Randomly drawn instances
are feasible only rarely, so most of the corpus plants a witness N* by
adding one explicit entry that moves C(B/2) − D(B/2) onto Σ A_j N*_j
modulo B.
"""

import math
from fractions import Fraction
from itertools import product
from random import Random

from findiag import (
    DiagonalSequence,
    GeometricTail,
    Witness,
    enumerate_witnesses,
    threshold_stats,
)
from findiag.decide import _lattice_search

from conftest import random_fraction, random_spectrum, witness_box

F = Fraction
MAX_BOX = 2500


def weighted(spectrum, N):
    """Σ A_j N_j over the first len(N) interior points."""
    return sum((a * nj for a, nj in zip(spectrum.interior, N)), F(0))


def interior_stats(seq, spectrum):
    return {a: threshold_stats(seq, a) for a in spectrum.interior}


def mass_bound_holds(stats_at, spectrum, N, r):
    """Mass bound r (1-based) of the threshold form, for any N, from the
    statistics at the interior points."""
    B, pts = spectrum.B, spectrum.points
    a_r = pts[r]
    st = stats_at[a_r]
    lhs = (B - a_r) * st.C + a_r * st.D
    rhs = (B - a_r) * weighted(spectrum, N[:r]) + a_r * sum(
        ((B - pts[j]) * N[j - 1] for j in range(r + 1, spectrum.n + 1)), F(0)
    )
    return rhs <= lhs


def box_scan(seq, spectrum):
    """Every N in the box of witness_box that passes the trace equation and
    the mass bounds, in lexicographic order."""
    B = spectrum.B
    half = threshold_stats(seq, B / 2)
    gap = half.C - half.D
    stats_at = interior_stats(seq, spectrum)
    bounds = witness_box(seq, spectrum)
    out = []
    for N in product(*(range(1, b + 1) for b in bounds)):
        k = (gap - weighted(spectrum, N)) / B
        if k.denominator == 1 and all(
            mass_bound_holds(stats_at, spectrum, N, r) for r in range(1, spectrum.n + 1)
        ):
            out.append(Witness(N, int(k)))
    return out


def _instance(rng, n, kind):
    """(seq, spectrum, planted) with B ≠ 1 and geometric tails on both sides.

    kind "planted" adds an entry putting Σ A_j N*_j on the trace lattice;
    "off" puts the trace gap B/97 off it, so no N can balance it; "plain"
    adds nothing.
    """
    B = rng.choice([F(2), F(1, 2), F(3), F(5, 3), F(3, 2)])
    spectrum = random_spectrum(rng, B, n)
    explicit = [random_fraction(rng, B / 8, B - B / 8) for _ in range(rng.randint(n, 3 * n + 2))]
    seq = DiagonalSequence(
        B=B,
        explicit=tuple(explicit),
        zero_tail=GeometricTail(random_fraction(rng, B / 64, B / 8, den=128), F(1, rng.randint(2, 4))),
        b_tail=GeometricTail(random_fraction(rng, B / 64, B / 8, den=128), F(rng.randint(1, 2), 5)),
    )
    half = threshold_stats(seq, B / 2)
    planted = None
    if kind == "plain":
        return seq, spectrum, planted
    if kind == "planted":
        planted = tuple(rng.randint(1, 2) for _ in range(n))
        target = weighted(spectrum, planted)
    else:
        target = B / 97
    v = (target - (half.C - half.D)) % B
    if v:
        seq = DiagonalSequence(
            B=B, explicit=seq.explicit + (v,), zero_tail=seq.zero_tail, b_tail=seq.b_tail
        )
    return seq, spectrum, planted


def _corpus(seed=2024, per_n=50):
    rng = Random(seed)
    cases = []
    for n in range(1, 6):
        made = 0
        while made < per_n:
            kind = ("planted", "planted", "off", "plain")[made % 4]
            seq, spectrum, planted = _instance(rng, n, kind)
            bounds = witness_box(seq, spectrum)
            if math.prod(max(b, 0) for b in bounds) > MAX_BOX:
                continue
            cases.append((seq, spectrum, planted, kind))
            made += 1
    return cases


def test_lattice_search_matches_box_scan():
    nonempty = {n: 0 for n in range(1, 6)}
    off = 0
    for seq, spectrum, planted, kind in _corpus():
        got = enumerate_witnesses(seq, spectrum)
        assert got == box_scan(seq, spectrum), (seq, spectrum)
        if got:
            nonempty[spectrum.n] += 1
        if kind == "off":
            assert got == []
            off += 1
        stats_at = interior_stats(seq, spectrum)
        if planted is not None and all(
            mass_bound_holds(stats_at, spectrum, planted, r) for r in range(1, spectrum.n + 1)
        ):
            assert planted in [w.N for w in got]
    assert sum(nonempty.values()) >= 50
    assert all(count > 0 for count in nonempty.values()), nonempty
    assert off >= 50


def test_bounds_are_sound():
    """N = bounds with bounds[j] + 1 in slot j fails mass bound j, so no
    witness lies outside the box."""
    checked = 0
    for seq, spectrum, _, _ in _corpus(seed=7, per_n=12):
        stats_at = interior_stats(seq, spectrum)
        bounds = witness_box(seq, spectrum)
        if min(bounds) < 1:
            continue
        for j in range(spectrum.n):
            N = bounds[:j] + (bounds[j] + 1,) + bounds[j + 1 :]
            assert not mass_bound_holds(stats_at, spectrum, N, j + 1)
            checked += 1
    assert checked >= 30



def test_lattice_search_reads_every_row():
    """With more rows than coordinates, every row prunes: the search yields
    the (N, k) pairs of a box scan filtered by the congruence and every row,
    in the same order, and on some systems the rows past the n-th remove
    points that the first n rows keep."""
    rng = Random(5)
    pruned = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        qB = rng.randint(2, 12)
        qa = [rng.randint(1, 3 * qB) for _ in range(n)]
        qw = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n + rng.randint(1, 3))]
        qcap = [rng.randint(0, 80) for _ in qw]
        qgap = sum(a * rng.randint(1, 4) for a in qa) + qB * rng.randint(-3, 3)  # some N balances

        def scan(rows):
            box = [min(qcap[r] // qw[r][j] for r in rows) for j in range(n)]
            return [
                (N, (qgap - sum(a * v for a, v in zip(qa, N))) // qB)
                for N in product(*(range(1, b + 1) for b in box))
                if (qgap - sum(a * v for a, v in zip(qa, N))) % qB == 0
                and all(sum(w * v for w, v in zip(qw[r], N)) <= qcap[r] for r in rows)
            ]

        got = list(_lattice_search(qB, qgap, qa, qw, qcap))
        assert got == scan(range(len(qw))), (qB, qgap, qa, qw, qcap)
        pruned += got != scan(range(n))
    assert pruned >= 50, pruned  # 120 in this corpus
