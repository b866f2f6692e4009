"""Feasibility decisions: the projection case, witness enumeration, routing."""

import importlib
from fractions import Fraction
from random import Random

import pytest

from findiag import (
    INF,
    DiagonalSequence,
    DivergentTail,
    DomainError,
    GeometricTail,
    SpectrumSpec,
    Verdict,
    Witness,
    decide,
    decide_finite,
    decide_projection,
    enumerate_witnesses,
    threshold_stats,
    witness_bounds,
)

from conftest import random_sequence, random_spectrum

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
    stats = [threshold_stats(dyadic, F(1, 2))]
    assert witness_bounds(stats, spec) == (3,)


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
    mod = importlib.import_module("findiag.decide")
    calls = {"bounds": 0, "stats": []}
    real_bounds, real_stats = mod.witness_bounds, mod.threshold_stats

    def counted_bounds(stats, spectrum):
        calls["bounds"] += 1
        return real_bounds(stats, spectrum)

    def counted_stats(seq, alpha):
        calls["stats"].append(alpha)
        return real_stats(seq, alpha)

    monkeypatch.setattr(mod, "witness_bounds", counted_bounds)
    monkeypatch.setattr(mod, "threshold_stats", counted_stats)
    for points, verdict in (
        ((0, F(1, 2), 1), Verdict.FEASIBLE_CASE_II),
        ((0, F(1, 4), F(3, 4), 1), Verdict.FEASIBLE_CASE_II),
        ((0, F(1, 3), 1), Verdict.INFEASIBLE),
    ):
        calls["bounds"], calls["stats"] = 0, []
        out = decide(dyadic, SpectrumSpec(points))
        assert out.verdict is verdict
        assert calls["bounds"] == 1
        assert sorted(calls["stats"]) == sorted({F(1, 2), *points[1:-1]})


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
