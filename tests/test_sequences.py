"""Sequence model: tails, threshold statistics, counting, symmetries."""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import islice
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
    UnsupportedOperationError,
    Verdict,
    Witness,
    count_range,
    decide,
    divergence_flags,
    materialize_tails,
    reflect,
    scale,
    threshold_stats,
)
from findiag.sequences import _trace_residue

from conftest import random_fraction, random_sequence

F = Fraction


def oracle_stats(seq: DiagonalSequence, alpha: Fraction, terms: int = 120):
    """C(α), D(α) by brute-force term enumeration plus a hand-written
    geometric remainder; exact, independent of the library's closed forms."""
    B = seq.B
    C = sum((v for v in seq.explicit if v < alpha), F(0))
    D = sum((B - v for v in seq.explicit if v >= alpha), F(0))
    if isinstance(seq.zero_tail, GeometricTail):
        t, x = seq.zero_tail, seq.zero_tail.first
        for _ in range(terms):
            if x < alpha:
                C += x
            else:
                D += B - x
            x *= t.ratio
        assert x < alpha, "term budget too small for this alpha"
        C += x / (1 - t.ratio)
    if isinstance(seq.b_tail, GeometricTail):
        t, x = seq.b_tail, seq.b_tail.first
        for _ in range(terms):
            if B - x >= alpha:
                D += x
            else:
                C += B - x
            x *= t.ratio
        assert B - x >= alpha, "term budget too small for this alpha"
        D += x / (1 - t.ratio)
    return C, D


def test_tail_validation():
    with pytest.raises(DomainError):
        GeometricTail(F(0), F(1, 2))
    with pytest.raises(DomainError):
        GeometricTail(F(1, 4), F(1))
    with pytest.raises(DomainError):
        GeometricTail(F(1, 4), F(-1, 2))


@pytest.mark.parametrize("first, ratio", [(0.25, 0.5), ("1/4", "1/2"), (F(1, 4), "1/2")])
def test_tail_reads_float_str_and_int_inputs(first, ratio):
    tail = GeometricTail(first, ratio)
    assert tail == GeometricTail(F(1, 4), F(1, 2))
    assert type(tail.first) is Fraction and type(tail.ratio) is Fraction
    # the dyadic sequence built from such tails decides as the exact one does
    seq = DiagonalSequence(1, ("1/2",), zero_tail=tail, b_tail=GeometricTail(0.25, "1/2"))
    assert threshold_stats(seq, F(1, 2)) == (F(1, 2), F(1, 2), F(1))
    decision = decide(seq, SpectrumSpec((0, F(1, 2), 1)))
    assert decision.verdict is Verdict.FEASIBLE_CASE_II
    assert Witness((1,), -1) in decision.witnesses
    # an int is a valid first element of a tail on a wider interval
    wide = GeometricTail(1, F(1, 3))
    assert type(wide.first) is Fraction and wide.total() == F(3, 2)


@pytest.mark.parametrize(
    "first, ratio, message",
    [
        (0, 0.5, "tail first element must be positive, got 0"),
        ("1/4", 1, "tail ratio must be in (0,1), got 1"),
        (0.25, "-1/2", "tail ratio must be in (0,1), got -1/2"),
    ],
)
def test_tail_error_messages(first, ratio, message):
    with pytest.raises(DomainError) as info:
        GeometricTail(first, ratio)
    assert str(info.value) == message


def test_tail_counts_match_enumeration():
    rng = Random(11)
    for _ in range(50):
        tail = GeometricTail(
            random_fraction(rng, F(1, 64), F(1, 2), den=128),
            rng.choice([F(1, 2), F(1, 3), F(2, 5), F(3, 7)]),
        )
        elements = [tail.element(t) for t in range(64)]
        for cut in (tail.first, tail.element(3), tail.element(3) + F(1, 1000), F(1, 50)):
            assert tail.count_at_least(cut) == sum(1 for x in elements if x >= cut)
            assert tail.count_greater(cut) == sum(1 for x in elements if x > cut)


def test_tail_sums_match_enumeration():
    tail = GeometricTail(F(1, 4), F(2, 5))
    acc = F(0)
    for k in range(12):
        assert tail.head_sum(k) == acc
        assert tail.tail_sum_from(k) == tail.total() - acc
        acc += tail.element(k)
    dropped = tail.drop(5)
    assert dropped.first == tail.element(5)
    assert dropped.total() == tail.tail_sum_from(5)


_RATIOS = st.one_of(
    st.just(F(999, 1000)),
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
)


@settings(max_examples=150, deadline=None)
@given(
    first=st.fractions(min_value=F(1, 1000), max_value=F(3), max_denominator=1000),
    ratio=_RATIOS,
    at=st.integers(min_value=0, max_value=120),
    nudge=st.sampled_from((-1, 0, 1)),
)
def test_tail_walk_matches_the_element_definition(first, ratio, at, nudge):
    """Counts, strict and non-strict cuts, heads and the next element, all read
    from the one running product, agree with element(t) = first·ratio^t; the
    cut is an element exactly (nudge 0) or just beside one."""
    tail = GeometricTail(first, ratio)
    cut = tail.element(at) * (1 + F(nudge, 10**9))
    for strict in (False, True):
        c = 0
        while tail.element(c) > cut or (not strict and tail.element(c) == cut):
            c += 1
        assert tail._cut(cut, strict) == (c, tail.element(c))
        assert (tail.count_greater if strict else tail.count_at_least)(cut) == c
    assert tail.count_at_least(cut) - tail.count_greater(cut) == (nudge == 0)
    assert list(islice(tail._elements(), at + 2)) == [tail.element(t) for t in range(at + 2)]


def _head_stats(seq: DiagonalSequence, alpha: Fraction):
    """threshold_stats as it read before the walk: counts by a loop of its
    own, and sums by powers in head_sum/tail_sum_from."""

    def count(tail, cut, strict):
        n, x = 0, tail.first
        while x > cut or (not strict and x == cut):
            n, x = n + 1, x * tail.ratio
        return n

    def head_sum(tail, c):
        return tail.first * (1 - tail.ratio**c) / (1 - tail.ratio)

    def tail_sum_from(tail, c):
        return tail.first * tail.ratio**c / (1 - tail.ratio)

    B = seq.B
    i = bisect_left(seq.explicit, alpha)
    C = sum(seq.explicit[:i], F(0))
    D = sum((B - v for v in seq.explicit[i:]), F(0))
    if seq.zero_tail is not None:
        c = count(seq.zero_tail, alpha, strict=False)
        C += tail_sum_from(seq.zero_tail, c)
        D += c * B - head_sum(seq.zero_tail, c)
    if seq.b_tail is not None:
        c = count(seq.b_tail, B - alpha, strict=True)
        C += c * B - head_sum(seq.b_tail, c)
        D += tail_sum_from(seq.b_tail, c)
    return C, D


def test_threshold_stats_match_the_power_sums_on_slow_tails():
    rng = Random(1212)
    ratios = [F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(19, 20), F(99, 100)]
    for _ in range(120):
        B = rng.choice([F(1), F(2), F(3, 2)])
        tails = [
            GeometricTail(random_fraction(rng, B / 64, B / 4, den=96), rng.choice(ratios))
            if rng.random() < 0.8
            else None
            for _ in range(2)
        ]
        explicit = [random_fraction(rng, B / 4, 3 * B / 4, den=48) for _ in range(rng.randint(0, 5))]
        seq = DiagonalSequence(B=B, explicit=tuple(explicit), zero_tail=tails[0], b_tail=tails[1])
        alphas = [random_fraction(rng, B / 96, B - B / 96, den=96) for _ in range(3)]
        for tail in tails:
            if tail is not None:
                # a tail element on either side of the threshold
                alphas += [tail.element(rng.randint(0, 40)), B - tail.element(rng.randint(0, 40))]
        for alpha in alphas:
            st_ = threshold_stats(seq, alpha)
            assert (st_.C, st_.D) == _head_stats(seq, alpha)


def test_sequence_validation():
    with pytest.raises(DomainError):
        DiagonalSequence(B=F(1), explicit=(F(3, 2),))
    with pytest.raises(DomainError):
        DiagonalSequence(B=F(1), explicit=(F(-1, 4),))
    with pytest.raises(DomainError):
        DiagonalSequence(B=F(0))
    with pytest.raises(DomainError):
        DiagonalSequence(B=F(1), zero_count=-1)


def test_normalize_folds_endpoints_and_sorts():
    seq = DiagonalSequence(B=F(1), explicit=(F(3, 4), F(0), F(1), F(1, 4), F(1)))
    assert seq.explicit == (F(1, 4), F(3, 4))
    assert seq.zero_count == 1
    assert seq.b_count == 2
    # folding is idempotent: rebuilding from the fields changes nothing
    assert DiagonalSequence(seq.B, seq.explicit, seq.zero_count, seq.b_count) == seq


def test_construction_reads_str_and_int_inputs_and_keeps_fractions():
    half = F(1, 2)
    seq = DiagonalSequence("2", ("3/2", 0, half, "0", 2, 1, half, F(2)), zero_count=1, b_count=INF)
    assert type(seq.B) is Fraction and seq.B == 2
    assert seq.explicit == (half, half, F(1), F(3, 2))
    assert all(type(v) is Fraction for v in seq.explicit)
    assert seq.explicit[0] is half  # a Fraction is stored as given
    assert (seq.zero_count, seq.b_count) == (3, INF)
    # a count of INF absorbs the folded endpoints
    seq = DiagonalSequence(F(1), (F(0), F(1)), zero_count=INF, b_count=INF)
    assert (seq.explicit, seq.zero_count, seq.b_count) == ((), INF, INF)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"B": "2", "explicit": ("-1/2",)}, "explicit value -1/2 outside [0, 2]"),
        ({"B": 2, "explicit": (F(1), 3)}, "explicit value 3 outside [0, 2]"),
        ({"B": F(1, 2), "explicit": (F(1, 4), F(2, 3))}, "explicit value 2/3 outside [0, 1/2]"),
        ({"B": "0"}, "B must be positive, got 0"),
        ({"B": 1, "zero_count": -1}, "zero_count must be a nonnegative integer or INF, got -1"),
        ({"B": 1, "b_count": True}, "b_count must be a nonnegative integer or INF, got True"),
    ],
)
def test_construction_error_messages(kwargs, message):
    with pytest.raises(DomainError) as info:
        DiagonalSequence(**kwargs)
    assert str(info.value) == message


def test_dyadic_stats_frozen(dyadic):
    st = threshold_stats(dyadic, F(1, 2))
    assert st.C == F(1, 2)
    assert st.D == F(1)


def test_threshold_stats_match_oracle():
    rng = Random(202)
    for _ in range(300):
        seq = random_sequence(rng)
        alpha = random_fraction(rng, seq.B / 16, seq.B - seq.B / 16, den=48)
        st = threshold_stats(seq, alpha)
        C, D = oracle_stats(seq, alpha)
        assert st.C == C
        assert st.D == D


def test_trace_residue_matches_stats_at_every_alpha():
    # C(α) − D(α) moves by whole multiples of B as α crosses entries, and
    # exact 0s and Bs add nothing to it
    rng = Random(909)
    for _ in range(200):
        seq = random_sequence(rng)
        ends = tuple(rng.choice([F(0), seq.B]) for _ in range(rng.randint(0, 3)))
        seq = DiagonalSequence(
            seq.B, seq.explicit + ends, seq.zero_count, seq.b_count, seq.zero_tail, seq.b_tail
        )
        residue = _trace_residue(seq)
        assert 0 <= residue < seq.B
        for _ in range(4):
            alpha = random_fraction(rng, seq.B / 64, seq.B - seq.B / 64, den=96)
            st = threshold_stats(seq, alpha)
            assert residue == (st.C - st.D) % seq.B


@pytest.mark.parametrize("side", ["zero_tail", "b_tail"])
def test_trace_residue_refuses_a_divergent_tail(side):
    tails = {"zero_tail": GeometricTail(F(1, 4), F(1, 2)), "b_tail": GeometricTail(F(1, 3), F(1, 3))}
    tails[side] = DivergentTail()
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),), **tails)
    assert threshold_stats(seq, F(1, 2))[1 if side == "zero_tail" else 2] is INF
    with pytest.raises(DomainError):
        _trace_residue(seq)


def test_stats_strictness_at_a_present_value(dyadic):
    # 1/4 is a zero-tail element: it lands in D (d ≥ α), not C (strict <).
    st = threshold_stats(dyadic, F(1, 4))
    assert st.C == F(1, 4)  # 1/8 + 1/16 + … = 1/4
    assert st.D == F(3, 4) + F(1, 2) + F(1, 2)  # entries 1/4, 1/2, and the B-side tail


def test_stats_divergent_tails():
    seq = DiagonalSequence(B=F(1), zero_tail=DivergentTail(), b_tail=GeometricTail(F(1, 4), F(1, 2)))
    st = threshold_stats(seq, F(1, 2))
    assert st.C is INF
    assert st.D == F(1, 2)
    flags = divergence_flags(seq)
    assert flags.C_half_infinite and not flags.D_half_infinite
    # mirrored: D diverges, and C still takes the zero-tail remainder 1/8 + 1/16 + …
    seq = DiagonalSequence(B=F(1), zero_tail=GeometricTail(F(1, 4), F(1, 2)), b_tail=DivergentTail())
    st = threshold_stats(seq, F(1, 4))
    assert st.C == F(1, 4)
    assert st.D is INF
    flags = divergence_flags(seq)
    assert flags.D_half_infinite and not flags.C_half_infinite


def test_stats_explicit_entry_at_alpha():
    # explicit entries equal to α count in D (d ≥ α), not in C (strict <)
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 3), F(1, 2), F(1, 2), F(2, 3)), zero_count=INF, b_count=INF)
    assert threshold_stats(seq, F(1, 2)) == (F(1, 2), F(1, 3), F(1, 2) + F(1, 2) + F(1, 3))
    assert threshold_stats(seq, F(1, 3)) == (F(1, 3), F(0), F(2))


def test_stats_alpha_domain(dyadic):
    with pytest.raises(DomainError):
        threshold_stats(dyadic, F(0))
    with pytest.raises(DomainError):
        threshold_stats(dyadic, F(3, 2))


def _check_stats_at(seq: DiagonalSequence, alphas):
    """threshold_stats against both references at every α, and the prefix
    table against plain sums of the sorted explicit entries."""
    Q, qB, P = seq._prefix
    assert qB == seq.B * Q
    assert P == [Q * sum(seq.explicit[:i], F(0)) for i in range(len(seq.explicit) + 1)]
    for alpha in alphas:
        st = threshold_stats(seq, alpha)
        assert (st.C, st.D) == oracle_stats(seq, alpha) == _head_stats(seq, alpha)
        assert _trace_residue(seq) == (st.C - st.D) % seq.B


_TAILS = {"zero_tail": GeometricTail(F(1, 8), F(1, 2)), "b_tail": GeometricTail(F(1, 8), F(1, 3))}


def test_stats_table_at_repeated_entries():
    explicit = (F(1, 3), F(1, 3), F(1, 2), F(1, 2), F(1, 2), F(2, 3))
    seq = DiagonalSequence(F(1), explicit, **_TAILS)
    # every entry exactly, and points between and beyond them
    _check_stats_at(seq, sorted(set(explicit)) + [F(1, 4), F(2, 5), F(3, 5), F(3, 4)])
    assert threshold_stats(seq, F(1, 2)).C - threshold_stats(seq, F(1, 3)).C == 2 * F(1, 3)


@pytest.mark.parametrize("B", [F(1), F(5, 3), F(7, 2)])
def test_stats_table_with_mixed_denominators(B):
    explicit = (F(5, 9), F(1, 3), F(2, 7), F(5, 9) * B, B - F(1, 3))
    seq = DiagonalSequence(B, explicit, **_TAILS)
    _check_stats_at(seq, list(explicit) + [B / 2, B / 5, B - B / 7])


def test_stats_table_ignores_folded_endpoints_and_empty_explicit():
    seq = DiagonalSequence(F(3, 2), (F(0), F(1, 2), F(3, 2), F(0), F(3, 2)), **_TAILS)
    assert (seq.explicit, seq.zero_count, seq.b_count) == ((F(1, 2),), 2, 2)
    bare = DiagonalSequence(F(3, 2), (F(1, 2),), **_TAILS)
    empty = DiagonalSequence(F(3, 2), (), zero_count=3, b_count=INF, **_TAILS)
    assert empty._prefix == (2, 3, [0])
    alphas = [F(1, 4), F(1, 2), F(3, 4), F(4, 3)]
    _check_stats_at(seq, alphas)
    _check_stats_at(empty, alphas)
    for alpha in alphas:
        # an exact 0 adds 0 to C and an exact B adds B − B to D
        assert threshold_stats(seq, alpha) == threshold_stats(bare, alpha)


@settings(max_examples=100, deadline=None)
@given(
    B=st.sampled_from((F(1), F(2), F(5, 3), F(7, 4))),
    units=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24), max_size=12),
    pick=st.integers(min_value=0),
    grid=st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40),
)
def test_stats_table_matches_the_references(B, units, pick, grid):
    """Entries in [0, B], endpoints and repeats included, read at a grid
    point and at one of the interior entries, when there is one."""
    seq = DiagonalSequence(B, tuple(u * B for u in units), **_TAILS)
    alphas = [grid * B]
    if seq.explicit:
        alphas.append(seq.explicit[pick % len(seq.explicit)])
    _check_stats_at(seq, alphas)


def test_count_range_against_materialized(dyadic):
    # every dyadic entry in [1/16, 1/2): tail elements 1/4, 1/8, 1/16
    assert count_range(dyadic, F(1, 16), F(1, 2)) == 3
    # adding the midpoint: half-open keeps 1/2 out on the right …
    assert count_range(dyadic, F(1, 2), F(3, 4)) == 1  # … and in on the left
    # b-side: entries 3/4, 7/8 in [3/4, 15/16)
    assert count_range(dyadic, F(3, 4), F(15, 16)) == 2


def test_count_range_randomized_oracle():
    rng = Random(77)
    for _ in range(200):
        seq = random_sequence(rng)
        lo = random_fraction(rng, seq.B / 32, seq.B / 2, den=64)
        hi = random_fraction(rng, lo, seq.B - seq.B / 32, den=64)
        got = count_range(seq, lo, hi)
        mat = materialize_tails(seq, min(lo, seq.B / 64), max(hi, seq.B - seq.B / 64))
        expected = sum(1 for v in mat.explicit if lo <= v < hi)
        assert got == expected


def test_count_range_infinite_ends():
    seq = DiagonalSequence(B=F(1), zero_count=INF, b_count=INF)
    assert count_range(seq, F(0), F(1, 2)) is INF
    assert count_range(seq, F(1, 2), F(1)) == 0  # B entries excluded by the open right end
    tailed = DiagonalSequence(B=F(1), b_tail=GeometricTail(F(1, 4), F(1, 2)), zero_count=INF)
    assert count_range(tailed, F(1, 2), F(1)) is INF


def test_count_range_divergent_interior_unsupported():
    seq = DiagonalSequence(B=F(1), zero_tail=DivergentTail(), b_tail=DivergentTail())
    assert count_range(seq, F(0), F(1, 2)) is INF
    with pytest.raises(UnsupportedOperationError):
        count_range(seq, F(1, 4), F(1, 2))


def test_materialize_tails_preserves_stats(dyadic):
    mat = materialize_tails(dyadic, F(1, 16), F(15, 16))
    assert mat.explicit == (F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8), F(15, 16))
    assert mat.zero_tail == GeometricTail(F(1, 32), F(1, 2))
    for alpha in (F(1, 3), F(1, 2), F(9, 10)):
        assert threshold_stats(mat, alpha) == threshold_stats(dyadic, alpha)


def test_materialize_tails_keeps_the_multiset_on_a_slow_tail():
    zt, bt = GeometricTail(F(1, 4), F(99, 100)), GeometricTail(F(1, 5), F(49, 50))
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_tail=zt, b_tail=bt)
    mat = materialize_tails(seq, F(1, 16), F(7, 8))
    c0, cB = zt.count_at_least(F(1, 16)), bt.count_at_least(F(1, 8))
    assert c0 > 100 and cB > 20
    moved = [zt.element(t) for t in range(c0)] + [1 - bt.element(t) for t in range(cB)]
    assert Counter(mat.explicit) == Counter([F(1, 2)] + moved)
    assert mat.zero_tail == zt.drop(c0) and mat.b_tail == bt.drop(cB)
    for alpha in (F(1, 20), F(1, 16), F(1, 3), F(7, 8), F(19, 20)):
        assert threshold_stats(mat, alpha) == threshold_stats(seq, alpha)


def test_reflect_involution_and_stats():
    rng = Random(5)
    for _ in range(60):
        seq = random_sequence(rng)
        assert reflect(reflect(seq)) == seq
        alpha = random_fraction(rng, seq.B / 16, seq.B - seq.B / 16, den=32)
        eq = sum(1 for v in seq.explicit if v == alpha)
        for tail, low_side in ((seq.zero_tail, True), (seq.b_tail, False)):
            if isinstance(tail, GeometricTail):
                cut = alpha if low_side else seq.B - alpha
                eq += tail.count_at_least(cut) - tail.count_greater(cut)
        st = threshold_stats(seq, alpha)
        rt = threshold_stats(reflect(seq), seq.B - alpha)
        # Reflection swaps the two statistics up to boundary terms: entries
        # equal to α change buckets between the strict and weak side.
        assert rt.C == st.D - eq * (seq.B - alpha)
        assert rt.D == st.C + eq * alpha


def test_reflect_spectrum():
    spec = SpectrumSpec((F(0), F(1, 4), F(1, 2), F(1)))
    assert reflect(spec).points == (F(0), F(1, 2), F(3, 4), F(1))


def test_scale_commutes_with_stats():
    rng = Random(6)
    for _ in range(60):
        seq = random_sequence(rng)
        c = rng.choice([F(1, 3), F(2), F(7, 5)])
        alpha = random_fraction(rng, seq.B / 16, seq.B - seq.B / 16, den=32)
        st = threshold_stats(seq, alpha)
        sc = threshold_stats(scale(seq, c), alpha * c)
        assert sc.C == (INF if st.C is INF else st.C * c)
        assert sc.D == (INF if st.D is INF else st.D * c)


def test_divergence_flags_cases(dyadic):
    flags = divergence_flags(dyadic)
    assert flags == (True, True, False, False)
    finite = DiagonalSequence(B=F(1), explicit=(F(1, 2),))
    assert divergence_flags(finite) == (False, False, False, False)
    zeros = DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_count=INF)
    assert divergence_flags(zeros) == (False, True, False, False)
