"""Feasibility decisions: the projection case, witness enumeration, routing."""

import gc
import importlib
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from findiag import (
    INF,
    DiagonalSequence,
    DivergentTail,
    DomainError,
    GeometricTail,
    SpectrumSpec,
    Verdict,
    Witness,
    check_finite_majorization,
    decide,
    decide_finite,
    decide_projection,
    enumerate_witnesses,
    lebesgue_check,
    threshold_stats,
)

from conftest import random_sequence, random_spectrum, witness_box
from findiag.decide import _lattice_search, _pair_counts

F = Fraction


def test_projection_dyadic_infeasible(dyadic):
    out = decide_projection(dyadic)
    assert out.verdict is Verdict.INFEASIBLE
    assert not out.feasible
    assert "1/2" in out.note  # the fractional part that blocks feasibility


def test_projection_integer_gap_feasible():
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2), F(1, 2)), zero_count=INF)
    out = decide_projection(seq)
    assert out.verdict is Verdict.FEASIBLE_CASE_II
    assert out.witnesses == (Witness((), -1),)


def test_projection_divergent_half_stat():
    seq = DiagonalSequence(B=F(1), zero_tail=DivergentTail(), b_tail=GeometricTail(F(1, 4), F(1, 2)))
    out = decide_projection(seq)
    assert out.verdict is Verdict.FEASIBLE_CASE_I
    assert out.witnesses == ()


def test_witness_bounds_frozen(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    assert decide(dyadic, spec).bounds == witness_box(dyadic, spec) == (3,)


def test_enumerate_witnesses_frozen(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    ws = enumerate_witnesses(dyadic, spec)
    assert ws == [Witness((1,), -1), Witness((3,), -2)]


def test_enumerate_witnesses_needs_interior(dyadic):
    with pytest.raises(DomainError):
        enumerate_witnesses(dyadic, SpectrumSpec((F(0), F(1))))


def test_enumerate_witnesses_needs_finite_stats():
    seq = DiagonalSequence(B=F(1), zero_tail=DivergentTail(), b_tail=DivergentTail())
    with pytest.raises(DomainError):
        enumerate_witnesses(seq, SpectrumSpec((F(0), F(1, 2), F(1))))



def test_enumerate_witnesses_takes_no_positional_statistics(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    with pytest.raises(TypeError):
        enumerate_witnesses(dyadic, spec, [threshold_stats(dyadic, F(1, 2))])


def test_two_point_spectrum_checks_the_trace_alone():
    """n = 0: lebesgue_check is the congruence C(B/2) − D(B/2) ≡ 0 (mod B),
    the criterion of decide_projection, and the decision has no bounds."""
    rng = Random(17)
    outcomes = set()
    for _ in range(150):
        seq = random_sequence(rng)
        half = threshold_stats(seq, seq.B / 2)
        e = (half.D - half.C) % seq.B  # an entry e moves C − D by e modulo B
        for s in (seq, replace(seq, explicit=(*seq.explicit, e))):
            spec = SpectrumSpec((F(0), s.B))
            half = threshold_stats(s, s.B / 2)
            expected = (half.C - half.D) % s.B == 0
            assert lebesgue_check(s, spec, Witness((), 0)) is expected
            out = decide_projection(s)
            assert (out.verdict is Verdict.FEASIBLE_CASE_II) is expected
            assert out.bounds == ()
            outcomes.add(expected)
    assert outcomes == {True, False}
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2), F(1, 2)), zero_count=INF)
    assert lebesgue_check(seq, SpectrumSpec((F(0), F(1))), Witness((), -1))

def test_decide_dyadic(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    out = decide(dyadic, spec)
    assert out.verdict is Verdict.FEASIBLE_CASE_II
    assert out.witnesses == (Witness((1,), -1), Witness((3,), -2))
    assert out.bounds == (3,)
    assert out.feasible


def test_decide_routes_projection_spectrum(dyadic):
    out = decide(dyadic, SpectrumSpec((F(0), F(1))))
    assert out.verdict is Verdict.INFEASIBLE  # same verdict as decide_projection


def test_decide_out_of_scope_finite_mass():
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),))
    out = decide(seq, SpectrumSpec((F(0), F(1, 2), F(1))))
    assert out.verdict is Verdict.OUT_OF_SCOPE
    assert "decide_finite" in out.note


def test_decide_case_one_divergent_stat():
    seq = DiagonalSequence(
        B=F(1), zero_tail=DivergentTail(), b_tail=GeometricTail(F(1, 4), F(1, 2))
    )
    out = decide(seq, SpectrumSpec((F(0), F(1, 2), F(1))))
    assert out.verdict is Verdict.FEASIBLE_CASE_I
    assert out.witnesses == ()


def test_decide_infeasible_when_no_witness():
    # one entry at 1/3 breaks the trace congruence for every candidate N
    seq = DiagonalSequence(
        B=F(1),
        explicit=(F(1, 3),),
        zero_tail=GeometricTail(F(1, 4), F(1, 2)),
        b_tail=GeometricTail(F(1, 4), F(1, 2)),
    )
    out = decide(seq, SpectrumSpec((F(0), F(1, 2), F(1))))
    assert out.verdict is Verdict.INFEASIBLE
    assert out.witnesses == ()


def test_decide_b_mismatch(dyadic):
    with pytest.raises(DomainError):
        decide(dyadic, SpectrumSpec((F(0), F(1, 2), F(2))))


def test_decide_agrees_with_enumeration_randomized():
    rng = Random(88)
    for _ in range(80):
        seq = random_sequence(rng)
        spec = random_spectrum(rng, seq.B)
        out = decide(seq, spec)
        assert out.verdict in (Verdict.FEASIBLE_CASE_II, Verdict.INFEASIBLE)
        assert (out.verdict is Verdict.FEASIBLE_CASE_II) == bool(
            enumerate_witnesses(seq, spec)
        )


def test_decide_evaluates_bounds_and_stats_once(dyadic, monkeypatch):
    """One statistics pass (B/2 first, then the interior points) and one
    mass-bound scaling per decide: the bounds and the witness search read
    the same system."""
    mod = importlib.import_module("findiag.decide")
    calls = {"passes": [], "systems": 0, "scalings": 0}
    real_pass, real_system, real_scaled = mod._stats_pass, mod._system, mod._scaled

    def counted_pass(seq, alphas):
        calls["passes"].append(list(alphas))
        return real_pass(seq, alphas)

    def counted_system(*args):
        calls["systems"] += 1
        return real_system(*args)

    def counted_scaled(*args):
        calls["scalings"] += 1
        return real_scaled(*args)

    for name in ("findiag.decide", "findiag.sequences"):
        monkeypatch.setattr(importlib.import_module(name), "_stats_pass", counted_pass)
    monkeypatch.setattr(mod, "_system", counted_system)
    monkeypatch.setattr(mod, "_scaled", counted_scaled)
    for points, verdict in (
        ((0, F(1, 2), 1), Verdict.FEASIBLE_CASE_II),
        ((0, F(1, 4), F(3, 4), 1), Verdict.FEASIBLE_CASE_II),
        ((0, F(1, 3), 1), Verdict.INFEASIBLE),
    ):
        calls.update(passes=[], systems=0, scalings=0)
        spectrum = SpectrumSpec(points)
        out = decide(dyadic, spectrum)
        assert out.verdict is verdict
        assert calls == {"passes": [[F(1, 2), *spectrum.interior]], "systems": 1, "scalings": 1}
        assert [st.alpha for st in out.stats] == [F(1, 2)] + [a for a in spectrum.interior if a != F(1, 2)]
        assert out.bounds == witness_box(dyadic, spectrum)


def test_decide_finite_examples():
    assert decide_finite([F(1), F(1)], SpectrumSpec((F(0), F(2)))) == (True, (1, 1))
    assert decide_finite(
        [F(2, 3), F(2, 3), F(2, 3)], SpectrumSpec((F(0), F(1)))
    ) == (True, (1, 2))
    assert decide_finite([F(1, 10), F(1, 10)], SpectrumSpec((F(0), F(1)))) == (False, None)
    # not enough entries to give every level a nonzero multiplicity
    assert decide_finite([F(1, 2)], SpectrumSpec((F(0), F(1)))) == (False, None)


def test_decide_finite_lex_first_composition():
    # both (1, 3) and (2, 2)… only the lexicographically first valid split returns
    got = decide_finite([F(1, 2)] * 4, SpectrumSpec((F(0), F(1))))
    assert got == (True, (2, 2))


def test_decide_finite_interior_levels():
    ok, M = decide_finite(
        [F(1, 4), F(1, 4), F(1, 2), F(1)], SpectrumSpec((F(0), F(1, 2), F(1)))
    )
    assert ok is True
    assert sum(M) == 4 and all(m >= 1 for m in M)


def test_decide_finite_rejects_out_of_range_entries():
    with pytest.raises(DomainError):
        decide_finite([F(3, 2)], SpectrumSpec((F(0), F(1))))


def compositions(total, parts):
    """All tuples of `parts` integers ≥ 1 summing to `total`, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def finite_by_compositions(d, spectrum):
    """The reference decision: the first composition M of len(d) into n + 2
    parts whose step list majorizes d, by sorted prefix sums (a step list
    with another trace is skipped before sorting)."""
    total = sum(d, F(0))
    for M in compositions(len(d), len(spectrum.points)):
        lam = [p for p, m in zip(spectrum.points, M) for _ in range(m)]
        if sum(lam) == total and check_finite_majorization(d, lam):
            return True, M
    return False, None


def _finite_instance(rng, planted):
    """(d, spectrum) with n = 0..3 and len(d) ≤ 9.  A planted d is a step list
    of the spectrum moved by T-transforms, so d ≺ λ.  Otherwise d is, half
    the time, a planted d with one transfer that spreads two entries apart,
    which keeps the trace and may break majorization, and else a draw from
    a grid of step B/q, endpoints included."""
    B = rng.choice([F(1), F(2), F(3, 2), F(5, 3)])
    spectrum = SpectrumSpec((F(0), B)) if rng.random() < 0.2 else random_spectrum(rng, B, rng.randint(1, 3))
    L = rng.randint(len(spectrum.points) - 2, 9)
    if not planted and rng.random() < 0.5:
        q = rng.randint(2, 8)
        return [B * F(rng.randint(0, q), q) for _ in range(L)], spectrum
    L = max(L, len(spectrum.points))
    cut = sorted(rng.sample(range(1, L), len(spectrum.points) - 1))
    M = [b - a for a, b in zip([0, *cut], [*cut, L])]
    d = [p for p, m in zip(spectrum.points, M) for _ in range(m)]
    for _ in range(rng.randint(0, 2 * L)):
        i, j = rng.randrange(L), rng.randrange(L)
        t = F(rng.randint(0, 8), 8)
        d[i], d[j] = t * d[i] + (1 - t) * d[j], (1 - t) * d[i] + t * d[j]
    if not planted:
        i, j = sorted(rng.sample(range(L), 2), key=d.__getitem__, reverse=True)
        move = min(B - d[i], d[j]) * F(rng.randint(1, 8), 8)
        d[i], d[j] = d[i] + move, d[j] - move
    rng.shuffle(d)
    return d, spectrum


def least_zeros(d, spectrum):
    """lo = max(1, ⌈Σ (A_1 − d_i)₊ / A_1⌉), the least M_0 that majorization
    at t = A_1 allows."""
    A1 = spectrum.interior[0]
    return max(1, math.ceil(sum((A1 - x for x in d if x < A1), F(0)) / A1))


def test_decide_finite_matches_the_composition_scan():
    """The corpus ends the search both ways: at a vector with M_0 = lo, and
    after the whole search when the least M_0 lies above lo."""
    rng = Random(11)
    feasible = {True: 0, False: 0}
    ends = {"at lo": 0, "above lo": 0}
    for i in range(3000):
        d, spectrum = _finite_instance(rng, planted=i % 2 == 0)
        expected = finite_by_compositions(d, spectrum)
        assert decide_finite(d, spectrum) == expected, (d, spectrum)
        if i % 2 == 0:
            assert expected[0], (d, spectrum)
        feasible[expected[0]] += 1
        if expected[0] and spectrum.n:
            ends["at lo" if expected[1][0] == least_zeros(d, spectrum) else "above lo"] += 1
    assert min(feasible.values()) >= 500, feasible
    assert ends["at lo"] >= 500 and ends["above lo"] >= 100, ends


def test_decide_finite_stops_at_its_least_vector(monkeypatch):
    """[1/2]*40 against the eighths has 836,618 feasible vectors.  The least
    has M_0 = lo = 1, and the search stops there: fewer than 1% of the pairs
    are drawn.  Float and string entries give the answer of their Fractions,
    also where lo is above 1 (5 zeros, or four entries 1/16 that lie below
    A_1 = 1/8)."""
    module = sys.modules["findiag.decide"]
    search, drawn = module._lattice_search, [0]

    def counted(*args):
        for pair in search(*args):
            drawn[0] += 1
            yield pair

    monkeypatch.setattr(module, "_lattice_search", counted)
    eighths = SpectrumSpec(tuple(F(i, 8) for i in range(9)))
    assert decide_finite([F(1, 2)] * 40, eighths) == (True, (1, 1, 1, 1, 32, 1, 1, 1, 1))
    assert 0 < drawn[0] < 8367, drawn[0]
    for exact, M in (
        ([F(1, 2)] * 40, (1, 1, 1, 1, 32, 1, 1, 1, 1)),
        ([F(0)] * 5 + [F(1, 2)] * 31, (5, 1, 1, 5, 20, 1, 1, 1, 1)),
        ([F(1, 16)] * 4 + [F(1, 2)] * 12, (2, 2, 3, 4, 1, 1, 1, 1, 1)),
    ):
        for d in (exact, [float(x) for x in exact], [str(x) for x in exact]):
            assert decide_finite(d, eighths) == (True, M), d


@pytest.mark.parametrize(
    "d, points",
    [
        ([F(1, 7)] * 30, (F(0), F(1, 5), F(2, 5), F(3, 5), F(1))),  # 23,751 compositions
        ([F(1, 7)] * 24, (F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(1))),  # 33,649 compositions
    ],
)
def test_decide_finite_answers_without_scanning_compositions(d, points):
    start = time.perf_counter()
    assert decide_finite(d, SpectrumSpec(points)) == (False, None)
    assert time.perf_counter() - start < 1.0


def _searched_pairs(qB, qgap, qa, qw, qcap, pairs):
    """The oracle of _pair_counts: the N that _lattice_search yields on rows
    and columns i, j of the system, counted one by one."""
    return [
        sum(1 for _ in _lattice_search(qB, qgap, [qa[i], qa[j]], [[qw[r][c] for c in (i, j)] for r in (i, j)],
                                       [qcap[i], qcap[j]]))
        for i, j in pairs
    ]


@st.composite
def _two_coordinate_systems(draw):
    """Positive weights, qB from 1 up, qa up to qB + 50, gaps of either sign
    and caps down to −50."""
    qB = draw(st.one_of(st.just(1), st.integers(1, 60), st.integers(1, 10**6)))
    qa = [draw(st.integers(1, qB + 50)) for _ in range(2)]
    qw = [[draw(st.integers(1, 40)) for _ in range(2)] for _ in range(2)]
    qcap = [draw(st.integers(-50, 400)) for _ in range(2)]
    return qB, draw(st.integers(-10**6, 10**6)), qa, qw, qcap


@settings(max_examples=400, deadline=None)
@given(_two_coordinate_systems())
def test_pair_counts_are_the_lattice_search_counts(system):
    pairs = [(0, 1), (1, 0)]
    assert _pair_counts(*system, pairs) == _searched_pairs(*system, pairs)


@pytest.mark.parametrize(
    "system, count",
    [
        ((6, 1, [2, 4], [[1, 1], [1, 1]], [50, 50]), 0),  # qgap is odd, gcd(2, 4, 6) = 2
        ((1, 0, [1, 1], [[1, 1], [1, 1]], [1, 1]), 0),  # N_i = 1 leaves no room for N_j = 1
        ((1, 0, [1, 1], [[1, 1], [1, 1]], [5, 5]), 10),  # qB = 1: both steps 1, N_i + N_j ≤ 5
        ((6, 0, [2, 4], [[1, 1], [1, 1]], [12, 12]), 22),  # step 1 on N_i, 3 on N_j: N_i ≡ N_j (mod 3)
        ((6, 0, [3, 4], [[1, 1], [1, 1]], [12, 12]), 8),  # step 2 on N_i, 3 on N_j
    ],
)
def test_pair_counts_at_each_early_exit(system, count):
    assert _pair_counts(*system, [(0, 1)]) == _searched_pairs(*system, [(0, 1)]) == [count]


def _recursive_search(qB, qgap, qa, qw, qcap):
    """The reference for _lattice_search: its earlier form, one nested
    recursive generator that bounds coordinate i by the loads of N_1..N_{i−1}
    (used) and rest[i + 1], the load of the later coordinates all at 1."""
    n = len(qa)
    g = [qB] * (n + 1)
    for i in reversed(range(n)):
        g[i] = math.gcd(qa[i], g[i + 1])
    if qgap % g[0]:
        return
    step = [g[i + 1] // g[i] for i in range(n)]
    inv = [pow(qa[i] // g[i], -1, step[i]) for i in range(n)]
    rest = [[sum(row[i:]) for row in qw] for i in range(n + 1)]

    def search(i, N, used, res):
        hi = min((qcap[r] - used[r] - rest[i + 1][r]) // qw[r][i] for r in range(len(qw)))
        for v in range((res // g[i]) * inv[i] % step[i] or step[i], hi + 1, step[i]):
            if i == n - 1:
                yield N + (v,), (res - qa[i] * v) // qB
            else:
                yield from search(i + 1, N + (v,), [u + row[i] * v for u, row in zip(used, qw)], res - qa[i] * v)

    yield from search(0, (), [0] * len(qw), qgap)


@st.composite
def _lattice_systems(draw):
    """n = 1..4 coordinates under n..n + 2 rows of positive weights, qB from
    1 up, qa up to qB + 50, caps down to −20 and gaps of either sign."""
    n, extra = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    qB = draw(st.one_of(st.just(1), st.integers(1, 60)))
    qa = [draw(st.integers(1, qB + 50)) for _ in range(n)]
    qw = [[draw(st.integers(1, 12)) for _ in range(n)] for _ in range(n + extra)]
    qcap = [draw(st.integers(-20, 40)) for _ in range(n + extra)]
    return qB, draw(st.integers(-200, 200)), qa, qw, qcap


@settings(max_examples=400, deadline=None)
@given(_lattice_systems())
def test_lattice_search_yields_the_recursive_search_pairs(system):
    assert list(_lattice_search(*system)) == list(_recursive_search(*system))


def test_lattice_search_leaves_no_reference_cycle(dyadic, monkeypatch):
    """With the cycle collector off, gc.collect() finds nothing after the
    search is drained on the dyadic witness system and on one decide_finite
    system, or closed after its first pair: reference counting frees all it
    made."""
    systems = []
    monkeypatch.setattr(sys.modules["findiag.decide"], "_lattice_search",
                        lambda *system: systems.append(system) or iter(()))
    enumerate_witnesses(dyadic, SpectrumSpec((F(0), F(1, 2), F(1))))
    decide_finite([F(1, 16)] * 4 + [F(1, 2)] * 12, SpectrumSpec(tuple(F(i, 8) for i in range(9))))
    monkeypatch.undo()
    witness, finite = systems

    def drain(system):
        assert sum(1 for _ in _lattice_search(*system)) > 0

    def first_pair(system):
        search = _lattice_search(*system)
        next(search)
        search.close()

    gc.collect()
    gc.disable()
    try:
        for run, system in ((drain, witness), (drain, finite), (first_pair, finite)):
            run(system)
            assert gc.collect() == 0, run.__name__
    finally:
        gc.enable()
