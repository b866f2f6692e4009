"""Spectrum exploration: 3-point enumeration, 4-point grids, region output."""

import importlib
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import count
from random import Random

import pytest

from findiag import (
    INF,
    AllOfInterval,
    DiagonalSequence,
    DivergentTail,
    DomainError,
    GeometricTail,
    OutOfScopeError,
    RegionSample,
    SpectrumSpec,
    Witness,
    candidate_multiplicity_bound,
    decide,
    emit_region,
    enumerate_witnesses,
    four_point_region,
    reflect,
    threshold_stats,
    three_point_spectra,
)
from findiag.sequences import _trace_residue

F = Fraction


def test_multiplicity_bound_dyadic(dyadic):
    assert candidate_multiplicity_bound(dyadic) == 13


@pytest.mark.parametrize("ratio, cap", [(F(99, 100), 1679), (F(9, 10), 113)])
def test_multiplicity_bound_slow_tails(ratio, cap):
    seq = DiagonalSequence(
        B=F(1),
        explicit=(F(1, 2),),
        zero_tail=GeometricTail(F(1, 4), ratio),
        b_tail=GeometricTail(F(1, 4), ratio),
    )
    start = time.perf_counter()
    assert candidate_multiplicity_bound(seq) == cap
    assert time.perf_counter() - start < 1.0


def _recounted_bound(seq):
    """The multiplicity cap with Ψ(N) recounted from t = 0 at every N."""
    half = threshold_stats(seq, seq.B / 2)
    B, cmd = seq.B, half.C - half.D
    g, gp = cmd % B or B, -cmd % B or B
    tails = [t for t in (seq.zero_tail, seq.b_tail) if t is not None]
    base = len(seq.explicit) + sum(1 / (1 - t.ratio) for t in tails)
    u = sum(next(k for k in range(1, 999) if t.ratio**k <= F(1, 2)) for t in tails)
    N = 1
    while True:
        psi = base
        if seq.zero_tail is not None:
            psi += seq.zero_tail.count_at_least(g / N)
        if seq.b_tail is not None:
            psi += seq.b_tail.count_greater(gp / N)
        if N >= u and psi + u <= N:
            return N
        N += 1


def test_multiplicity_bound_matches_recount():
    # dyadic entries and ratios put tail elements exactly on the cuts g/N
    rng = Random(3)
    for _ in range(200):
        B = rng.choice((F(1), F(2)))
        seq = DiagonalSequence(
            B=B,
            explicit=tuple(B * F(rng.randint(1, 15), 16) for _ in range(rng.randint(0, 4))),
            zero_tail=GeometricTail(B * F(rng.randint(1, 4), 16), rng.choice((F(1, 2), F(1, 3), F(2, 3)))),
            b_tail=GeometricTail(B * F(rng.randint(1, 4), 16), rng.choice((F(1, 2), F(1, 4)))),
        )
        assert candidate_multiplicity_bound(seq) == _recounted_bound(seq)


def _fraction_bound(seq):
    """candidate_multiplicity_bound as it read on Fractions: the pointers read
    the closed form element(t) = first·ratio^t, not the program's walk, and
    every test compares Fractions."""
    B = seq.B
    res = _trace_residue(seq)
    g, gp = res or B, B - res
    tails = [t for t in (seq.zero_tail, seq.b_tail) if t is not None]
    base = sum((1 / (1 - t.ratio) for t in tails), F(len(seq.explicit)))
    u = sum(next(k for k in count() if GeometricTail(1, t.ratio).element(k) <= F(1, 2)) for t in tails)

    def element(tail, t):
        return tail.element(t) if tail is not None else 0

    t0 = tB = 0
    x0, xB = element(seq.zero_tail, 0), element(seq.b_tail, 0)
    N = 1
    while True:
        while x0 and x0 * N >= g:
            t0 += 1
            x0 = element(seq.zero_tail, t0)
        while xB and xB * N > gp:
            tB += 1
            xB = element(seq.b_tail, tB)
        if N >= u and base + t0 + tB + u <= N:
            return N
        N += 1


def test_multiplicity_bound_matches_the_fraction_walk():
    """Ratios up to 99/100, an absent tail on either side (infinitely many
    exact endpoints instead) and residue 0 in every third draw."""
    rng = Random(15)
    ratios = (F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(19, 20), F(99, 100))
    residues = Counter()
    for draw in range(150):
        B = rng.choice((F(1), F(2), F(5, 3)))
        tails = [
            GeometricTail(B * F(rng.randint(1, 8), 32), rng.choice(ratios + (F(rng.randint(1, 99), 100),)))
            if rng.random() < 0.75
            else None
            for _ in "zb"
        ]
        explicit = [B * F(rng.randint(1, 47), 48) for _ in range(rng.randint(0, 5))]
        counts = {"zero_count": 0 if tails[0] else INF, "b_count": 0 if tails[1] else INF}
        seq = DiagonalSequence(B, tuple(explicit), zero_tail=tails[0], b_tail=tails[1], **counts)
        if draw % 3 == 0 and _trace_residue(seq):
            explicit.append(-_trace_residue(seq) % B)  # an entry adds itself to the residue
            seq = DiagonalSequence(B, tuple(explicit), zero_tail=tails[0], b_tail=tails[1], **counts)
        residues[_trace_residue(seq) == 0] += 1
        assert candidate_multiplicity_bound(seq) == _fraction_bound(seq)
    assert residues[True] >= 50


def _sharing_corpus(seed: int, count: int, q: int):
    """Seeded sequences with tail ratios 1/3, 1/2, 2/3, 99/100 and 1–8
    explicit entries, the last one moving C(B/2) − D(B/2) onto the B/q
    lattice so that some grid spectra are feasible."""
    rng = Random(seed)
    ratios = (F(1, 3), F(1, 2), F(2, 3), F(99, 100))
    for _ in range(count):
        B = rng.choice((F(1), F(2), F(3, 2)))
        explicit = [B * F(rng.randint(1, 31), 32) for _ in range(rng.randint(0, 7))]
        tails = [GeometricTail(B * F(rng.randint(1, 8), 32), rng.choice(ratios)) for _ in "zb"]
        seq = DiagonalSequence(B=B, explicit=tuple(explicit), zero_tail=tails[0], b_tail=tails[1])
        half = threshold_stats(seq, B / 2)
        explicit.append(B / q - (half.C - half.D) % (B / q))  # an entry below B/2 adds to C
        yield DiagonalSequence(B=B, explicit=tuple(explicit), zero_tail=tails[0], b_tail=tails[1])


def test_four_point_region_shared_stats_match_fresh_decide():
    feasible = 0
    for q in (5, 6, 7, 8, 9, 10, 11, 12):
        for seq in _sharing_corpus(q, 6, q):
            rows = four_point_region(seq, q)
            assert len(rows) == (q - 1) * (q - 2) // 2
            for row in rows:
                out = decide(seq, SpectrumSpec((F(0), row.A1, row.A2, seq.B)))
                assert (row.feasible, row.witness_count) == (out.feasible, len(out.witnesses))
                feasible += row.feasible
    assert feasible >= 50


def test_three_point_shared_stats_match_fresh_decide():
    feasible = 0
    for seq in _sharing_corpus(11, 16, 4):
        half = threshold_stats(seq, seq.B / 2)
        cmd, B = half.C - half.D, seq.B
        candidates = {
            (cmd - k * B) / N
            for N in range(1, 7)
            for k in range(math.floor(cmd / B) - N, math.ceil(cmd / B) + 1)
            if 0 < (cmd - k * B) / N < B
        }
        expected = {
            a for a in candidates if decide(seq, SpectrumSpec((F(0), a, B))).feasible
        }
        assert three_point_spectra(seq, n_max=6) == expected
        feasible += len(expected)
    assert feasible >= 50


def _fresh_three_point(seq, n_max):
    """The candidates A = (C − D − kB)/N with N ≤ n_max that a fresh
    per-candidate decide finds feasible."""
    half = threshold_stats(seq, seq.B / 2)
    cmd, B = half.C - half.D, seq.B
    candidates = {
        (cmd - k * B) / N
        for N in range(1, n_max + 1)
        for k in range(math.floor(cmd / B) - N, math.ceil(cmd / B) + 1)
        if 0 < (cmd - k * B) / N < B
    }
    return {a for a in candidates if decide(seq, SpectrumSpec((F(0), a, B))).feasible}


def _on_abscissae(seed: int, count: int, ratios):
    """Seeded sequences with entries and tail elements exactly on candidate
    abscissae, the cuts between C(A) = Σ_{d<A} d and D(A) = Σ_{d≥A} (B−d)
    that the sweep's running sums must cross at the right candidate.

    An entry e adds e to C(B/2) − D(B/2) modulo B on either side of B/2, so
    e ≡ x − (C − D) makes a tail element x the N = 1 candidate; a pair of
    entries A, B − A leaves C − D unchanged modulo B, so it puts two entries
    on candidates (C − D − kB)/N without moving them.  (At A itself an entry
    at A adds A·(B−A) to the mass bound on either side of the cut.)"""
    rng = Random(seed)
    for _ in range(count):
        B = rng.choice((F(1), F(2), F(3, 2)))
        zt, bt = (GeometricTail(B * F(rng.randint(1, 8), 32), rng.choice(ratios)) for _ in "zb")
        explicit = [B * F(rng.randint(1, 31), 32) for _ in range(rng.randint(0, 3))]
        half = threshold_stats(DiagonalSequence(B, tuple(explicit), zero_tail=zt, b_tail=bt), B / 2)
        x = rng.choice((zt.element(rng.randint(0, 2)), B - bt.element(rng.randint(0, 2))))
        e = (x - (half.C - half.D)) % B
        explicit += [e] if e else []
        cmd = half.C - half.D + e
        N = rng.randint(2, 4)
        a = (cmd - (math.ceil(cmd / B) - rng.randint(1, N)) * B) / N
        explicit += [a, B - a]
        yield DiagonalSequence(B, tuple(explicit), zero_tail=zt, b_tail=bt), {x, a, B - a}


def test_three_point_sweep_matches_fresh_decide_on_abscissae():
    feasible = hits = 0
    for seq, placed in _on_abscissae(5, 40, (F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(99, 100))):
        expected = _fresh_three_point(seq, 5)
        assert three_point_spectra(seq, n_max=5) == expected
        feasible += len(expected)
        hits += len(placed & expected)
    assert feasible >= 300 and hits >= 40


def test_three_point_n_max_one_and_above_the_cap():
    for seq, _ in _on_abscissae(9, 12, (F(1, 3), F(1, 2), F(2, 3))):
        one = three_point_spectra(seq, n_max=1)
        assert one == _fresh_three_point(seq, 1) and len(one) <= 1
        cap = candidate_multiplicity_bound(seq)
        full = three_point_spectra(seq)
        assert three_point_spectra(seq, n_max=cap + 4) == full == _fresh_three_point(seq, cap + 4)
        assert one <= full


def test_three_point_extreme_candidates_at_residue_zero():
    # C − D ≡ 0 (mod B), so A = kB/N: the least candidate at n_max is B/n_max
    # and the greatest (n_max − 1)/n_max·B, both feasible here
    seq = DiagonalSequence(
        B=F(2), explicit=(F(1, 2), F(3, 2)),
        zero_tail=GeometricTail(F(1, 4), F(1, 2)), b_tail=GeometricTail(F(1, 4), F(9, 10)),
    )
    pts = three_point_spectra(seq, n_max=4)
    assert pts == _fresh_three_point(seq, 4)
    assert (min(pts), max(pts)) == (F(1, 2), F(3, 2))
    assert three_point_spectra(seq) == _fresh_three_point(seq, candidate_multiplicity_bound(seq))
    # at N = 1 the only multiple of B in (0, B) would be 0: no candidate
    assert three_point_spectra(seq, n_max=1) == frozenset() == _fresh_three_point(seq, 1)


def test_three_point_extreme_candidates_at_a_nonzero_residue():
    # C − D ≡ 4/3 (mod 3/2): the least candidate at n_max is (4/3)/n_max and
    # the greatest B − (B − 4/3)/n_max, both feasible here
    seq = DiagonalSequence(
        B=F(3, 2), explicit=(F(1, 3),),
        zero_tail=GeometricTail(F(1, 4), F(1, 2)), b_tail=GeometricTail(F(1, 4), F(9, 10)),
    )
    pts = three_point_spectra(seq, n_max=4)
    assert pts == _fresh_three_point(seq, 4)
    assert (min(pts), max(pts)) == (F(1, 3), F(35, 24))
    assert three_point_spectra(seq, n_max=1) == {F(4, 3)} == _fresh_three_point(seq, 1)


@pytest.mark.parametrize(
    "seq, feasible",
    [
        # Case I: a divergent tail makes a statistic at B/2 infinite
        (DiagonalSequence(B=F(1), explicit=(F(1, 3),), zero_tail=DivergentTail(),
                          b_tail=GeometricTail(F(1, 4), F(1, 2))), True),
        (DiagonalSequence(B=F(2), zero_tail=GeometricTail(F(1, 4), F(2, 3)), b_tail=DivergentTail()), True),
    ],
)
def test_four_point_region_outright_rows_match_decide(seq, feasible):
    rows = four_point_region(seq, 6)
    assert len(rows) == 10 and {row.feasible for row in rows} == {feasible}
    for row in rows:
        out = decide(seq, SpectrumSpec((F(0), row.A1, row.A2, seq.B)))
        assert (row.feasible, row.witness_count) == (out.feasible, len(out.witnesses)) == (feasible, 0)


@pytest.mark.parametrize(
    "seq",
    [
        # Σ d_i is finite, then both sums are
        DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_tail=GeometricTail(F(1, 4), F(1, 2))),
        DiagonalSequence(B=F(1), explicit=(F(1, 3), F(2, 3))),
    ],
)
def test_sweeps_refuse_a_summable_side(seq):
    # decide answers OUT_OF_SCOPE for every cell, so both sweeps refuse the
    # sequence with decide's note instead of reporting rows
    note = decide(seq, SpectrumSpec((F(0), F(1, 3), F(2, 3), F(1)))).note
    for sweep in (lambda: four_point_region(seq, 6), lambda: three_point_spectra(seq)):
        with pytest.raises(OutOfScopeError) as exc:
            sweep()
        assert str(exc.value) == note


@pytest.mark.parametrize("q", [7, 8])
def test_sweeps_evaluate_each_abscissa_once(dyadic, monkeypatch, q):
    # the trace congruence comes from the gap at B/q, so B/2 is evaluated only
    # when it is a grid abscissa, in the one statistics pass of explore4, and
    # explore3 evaluates none
    passes = []
    real = importlib.import_module("findiag.sequences")._stats_pass

    def counted(seq, alphas):
        passes.append(Counter(alphas))
        return real(seq, alphas)

    for name in ("findiag.decide", "findiag.explore", "findiag.sequences"):
        monkeypatch.setattr(importlib.import_module(name), "_stats_pass", counted)
    four_point_region(dyadic, q)
    assert passes == [Counter({F(p, q) for p in range(1, q)})]
    passes.clear()
    three_point_spectra(dyadic)
    assert passes == []


def test_three_point_dyadic_frozen(dyadic):
    pts = three_point_spectra(dyadic)
    assert pts == frozenset(
        {F(1, 8), F(1, 6), F(1, 4), F(1, 2), F(3, 4), F(5, 6), F(7, 8)}
    )


def test_three_point_results_are_certified(dyadic):
    for a in three_point_spectra(dyadic):
        out = decide(dyadic, SpectrumSpec((F(0), a, F(1))))
        assert out.feasible


def test_three_point_cap_override(dyadic):
    pts = three_point_spectra(dyadic, n_max=3)
    assert pts == frozenset({F(1, 6), F(1, 4), F(1, 2), F(3, 4), F(5, 6)})
    assert pts < three_point_spectra(dyadic)


def test_three_point_two_atoms():
    seq = DiagonalSequence(
        B=F(1), explicit=(F(1, 2), F(1, 2)), zero_count=INF, b_count=INF
    )
    assert three_point_spectra(seq) == frozenset({F(1, 2)})
    ws = enumerate_witnesses(seq, SpectrumSpec((F(0), F(1, 2), F(1))))
    assert ws == [Witness((2,), -2)]


def test_three_point_divergent_everything():
    seq = DiagonalSequence(B=F(1), zero_tail=DivergentTail(), b_tail=DivergentTail())
    out = three_point_spectra(seq)
    assert isinstance(out, AllOfInterval)
    assert out.B == F(1)


def test_three_point_rejects_finite_mass():
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),))
    with pytest.raises(OutOfScopeError):
        three_point_spectra(seq)


def test_four_point_region_frozen_counts(dyadic):
    rows = four_point_region(dyadic, 8)
    assert len(rows) == 21  # pairs 0 < p < r < 8
    for r in rows:
        assert 0 < r.A1 < r.A2 < F(1)
        assert r.feasible == (r.witness_count > 0)


@pytest.mark.parametrize("q, feasible, witnesses", [(8, 13, 14), (16, 45, 46), (32, 105, 106)])
def test_four_point_region_frozen_witness_counts(dyadic, q, feasible, witnesses):
    """The golden CSV pins feasibility alone; these pin the witness counts."""
    rows = four_point_region(dyadic, q)
    assert sum(r.feasible for r in rows) == feasible
    assert sum(r.witness_count for r in rows) == witnesses


def test_four_point_region_matches_decide(dyadic):
    for row in four_point_region(dyadic, 4):
        out = decide(dyadic, SpectrumSpec((F(0), row.A1, row.A2, F(1))))
        assert out.feasible == row.feasible
        assert len(out.witnesses) == row.witness_count


def test_four_point_region_reflection_symmetry(dyadic):
    # the dyadic sequence is symmetric under v ↦ 1−v, so its region is too
    assert reflect(dyadic) == dyadic
    rows = four_point_region(dyadic, 8)
    table = {(r.A1, r.A2): r.feasible for r in rows}
    for (a1, a2), feas in table.items():
        assert table[(1 - a2, 1 - a1)] == feas


def test_four_point_region_grid_validation(dyadic):
    with pytest.raises(DomainError):
        four_point_region(dyadic, 2)


def test_emit_csv_format(dyadic):
    rows = four_point_region(dyadic, 8)
    data = emit_region(rows).decode()
    lines = data.splitlines()
    assert lines[0] == "A1,A2,feasible"
    assert lines[1] == "1/8,1/4,true"
    assert len(lines) == 22
    assert data.endswith("\n")


def test_emit_csv_three_point_rows():
    rows = [RegionSample(F(1, 2), None, True, 2)]
    data = emit_region(rows).decode()
    assert data == "A1,A2,feasible\n1/2,,true\n"


def test_emit_csv_empty():
    assert emit_region([]).decode() == "A1,A2,feasible\n"


def test_emit_svg(dyadic):
    rows = four_point_region(dyadic, 8)
    svg = emit_region(rows, "svg", B=F(1)).decode()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 21
    assert "800" in svg


def test_emit_svg_empty():
    svg = emit_region([], "svg", B=F(1)).decode()
    assert svg.startswith("<svg")
    assert "<circle" not in svg


def test_emit_svg_needs_B(dyadic):
    with pytest.raises(DomainError, match="needs the grid endpoint B"):
        emit_region(four_point_region(dyadic, 8), "svg")


def test_emit_unknown_format(dyadic):
    with pytest.raises(DomainError):
        emit_region([], "png")
