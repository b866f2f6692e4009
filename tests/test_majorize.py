"""Majorization checks: step sequences, partial-sum tests, finite variants."""

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
    StepSequence,
    Witness,
    canonical_shift,
    check_finite_majorization,
    check_finite_rank_tail,
    count_range,
    delta_range,
    lebesgue_check,
    riemann_check,
    threshold_stats,
)

from conftest import random_sequence, random_spectrum, robin_hood_pair

F = Fraction


def test_witness_validation():
    with pytest.raises(DomainError):
        Witness((0,), 0)
    with pytest.raises(DomainError):
        Witness((1, -2), 0)
    w = Witness((2, 3), -1)
    assert w.sigma_total == 5
    assert w.sigma(1) == 2
    assert w.sigma(2) == 5


def test_step_sequence_blocks():
    spec = SpectrumSpec((F(0), F(1, 4), F(1, 2), F(1)))
    lam = StepSequence(spec, Witness((2, 3), 0))
    values = [lam.value(i) for i in range(1, 8)]
    assert values == [F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1), F(1)]
    assert lam.value(0) == 0
    assert lam.value(-5) == 0
    # prefix(m) = Σ_{i ≤ m} λ_i matches direct accumulation
    acc = F(0)
    for i in range(1, 8):
        acc += lam.value(i)
        assert lam.prefix(i) == acc
    assert lam.prefix(0) == 0
    assert lam.prefix(-3) == 0
    assert lam.first_b_index == 6


def test_lebesgue_frozen_dyadic(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    # the k in the witness is ignored by the Lebesgue-style test; k0 is
    # recomputed from the trace identity
    assert lebesgue_check(dyadic, spec, Witness((1,), 99)) is True
    assert lebesgue_check(dyadic, spec, Witness((3,), 0)) is True  # equality case
    assert lebesgue_check(dyadic, spec, Witness((5,), 0)) is False
    assert lebesgue_check(dyadic, spec, Witness((2,), 0)) is False  # k0 not an integer


def test_lebesgue_rejects_malformed_input(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    with pytest.raises(DomainError):  # spectrum endpoint B differs from the sequence's
        lebesgue_check(dyadic, SpectrumSpec((F(0), F(1, 2), F(2))), Witness((1,), 0))
    with pytest.raises(DomainError):  # two multiplicities for one interior point
        lebesgue_check(dyadic, spec, Witness((1, 1), 0))
    divergent = DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_tail=DivergentTail(), b_count=INF)
    with pytest.raises(DomainError):  # C is infinite at every threshold
        lebesgue_check(divergent, spec, Witness((1,), 0))


def test_canonical_shift_frozen(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    assert canonical_shift(dyadic, spec, (1,)) == 0
    assert canonical_shift(dyadic, spec, (3,)) == -1
    assert canonical_shift(dyadic, spec, (5,)) == -2
    assert canonical_shift(dyadic, spec, (2,)) is None


def test_riemann_frozen_profiles(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    ok, prof = riemann_check(dyadic, spec, Witness((1,), 0))
    assert ok is True
    assert prof.checked_indices == ((0, F(1, 2)), (1, F(1, 2)))
    assert prof.trace_residual == 0
    assert prof.min_delta == F(1, 2)

    ok, prof = riemann_check(dyadic, spec, Witness((3,), -1))
    assert ok is True
    assert prof.checked_indices == ((-1, F(1, 4)), (0, F(0)), (1, F(0)), (2, F(1, 4)))

    # off-canonical shift: the trace residual is off by one full B
    ok, prof = riemann_check(dyadic, spec, Witness((1,), 1))
    assert ok is False
    assert prof.trace_residual == F(1)

    # balanced trace but negative partial sums
    ok, prof = riemann_check(dyadic, spec, Witness((5,), -2))
    assert ok is False
    assert prof.trace_residual == 0
    assert prof.min_delta == F(-1, 2)


def test_delta_range_wide_window(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    deltas = delta_range(dyadic, spec, Witness((1,), 0), -4, 5)
    assert deltas == tuple(
        (m, d)
        for m, d in zip(
            range(-4, 6),
            [F(1, 32), F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)],
        )
    )


def _planted_instance(rng: Random):
    """A feasible (seq, spec, N) built by Robin-Hood-perturbing the step
    arrangement itself, so the partial-sum test is known to pass."""
    B = rng.choice([F(1), F(2), F(3, 2)])
    spec = random_spectrum(rng, B)
    N = tuple(rng.randint(1, 3) for _ in spec.interior)
    d = [a for a, cnt in zip(spec.interior, N) for _ in range(cnt)]
    for _ in range(6):
        i, j = rng.randrange(len(d)), rng.randrange(len(d))
        if d[i] > d[j]:
            i, j = j, i
        t = (d[j] - d[i]) * F(rng.randint(0, 4), 16)
        d[i] += t
        d[j] -= t
    seq = DiagonalSequence(B=B, explicit=tuple(d), zero_count=INF, b_count=INF)
    return seq, spec, N


def test_riemann_window_reduction_is_sound():
    """Whenever the windowed check passes, every partial sum over a much wider
    index range is nonnegative too (the window is where the minimum can live)."""
    rng = Random(31)
    for _ in range(60):
        seq, spec, N = _planted_instance(rng)
        shift = canonical_shift(seq, spec, N)
        assert shift is not None
        w = Witness(N, shift)
        ok, _ = riemann_check(seq, spec, w)
        assert ok is True
        assert lebesgue_check(seq, spec, w) is True
        wide = delta_range(seq, spec, w, -30, 30)
        assert all(d >= 0 for _, d in wide)


def test_anti_transfer_breaks_majorization():
    """Moving any mass from a smaller entry to a larger one in the pure step
    arrangement drives some partial sum negative."""
    rng = Random(32)
    for _ in range(60):
        B = rng.choice([F(1), F(2)])
        spec = random_spectrum(rng, B)
        N = (2, *(rng.randint(1, 3) for _ in spec.interior[1:]))
        d = [a for a, cnt in zip(spec.interior, N) for _ in range(cnt)]
        i, j = rng.sample(range(len(d)), 2)
        if d[i] > d[j]:
            i, j = j, i
        t = B / 64
        d[i] -= t
        d[j] += t
        seq = DiagonalSequence(B=B, explicit=tuple(d), zero_count=INF, b_count=INF)
        w = Witness(N, 0)
        assert lebesgue_check(seq, spec, w) is False
        shift = canonical_shift(seq, spec, N)
        assert shift is not None  # the trace is still balanced …
        ok, prof = riemann_check(seq, spec, Witness(N, shift))
        assert ok is False  # … but a partial sum dips below zero
        assert prof.min_delta < 0


def test_riemann_equals_lebesgue_randomized():
    rng = Random(402)
    for trial in range(250):
        seq = random_sequence(rng)
        spec = random_spectrum(rng, seq.B)
        N = tuple(rng.randint(1, 4) for _ in spec.interior)
        shift = canonical_shift(seq, spec, N)
        leb = lebesgue_check(seq, spec, Witness(N, 0))
        if shift is None:
            assert leb is False
            # no shift can balance the trace, so every Riemann attempt fails
            for s in (-1, 0, 1):
                ok, prof = riemann_check(seq, spec, Witness(N, s))
                assert ok is False
        else:
            ok, _ = riemann_check(seq, spec, Witness(N, shift))
            assert ok == leb, f"trial {trial}: riemann {ok} != lebesgue {leb}"


def anchored_lebesgue(seq, spec, N):
    """Test-only oracle: the threshold-statistic form anchored at A_n.

    Needs an integer k_0 with C(A_n) − D(A_n) = Σ A_j N_j + k_0 B, and for
    each r the mass bound
      C(A_r) ≥ Σ_{j≤r} A_j N_j + A_r·(k_0 − |{i : A_r ≤ d_i < A_n}| + Σ_{j>r} N_j).
    """
    pts, a_top = spec.points, spec.points[-2]
    top = threshold_stats(seq, a_top)
    k0 = (top.C - top.D - sum(a * nj for a, nj in zip(spec.interior, N))) / spec.B
    if k0.denominator != 1:
        return False
    for r in range(1, spec.n + 1):
        a_r = pts[r]
        lower = sum(a * nj for a, nj in zip(spec.interior[:r], N))
        rhs = lower + a_r * (k0 - count_range(seq, a_r, a_top) + sum(N[r:]))
        if threshold_stats(seq, a_r).C < rhs:
            return False
    return True


def test_equivalent_form_matches_lebesgue():
    """lebesgue_check (trace at B/2, symmetric mass bounds) agrees with the
    form anchored at A_n, on random sequences and on feasible and
    near-feasible planted instances."""
    rng = Random(91)
    verdicts = []
    for trial in range(300):
        if trial % 3:
            seq = random_sequence(rng)
            spec = random_spectrum(rng, seq.B)
            N = tuple(rng.randint(1, 4) for _ in spec.interior)
        else:
            seq, spec, N = _planted_instance(rng)
            N = tuple(nj + rng.choice((0, 0, 1)) for nj in N)
        got = lebesgue_check(seq, spec, Witness(N, 0))
        assert got == anchored_lebesgue(seq, spec, N), (seq, spec, N)
        verdicts.append(got)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_finite_majorization_examples():
    assert check_finite_majorization([F(1), F(1)], [F(0), F(2)]) is True
    assert check_finite_majorization([F(2, 3)] * 3, [F(0), F(1), F(1)]) is True
    assert check_finite_majorization([F(0), F(2)], [F(1), F(1)]) is False
    # unequal totals fail regardless of ordering
    assert check_finite_majorization([F(1)], [F(2)]) is False


def test_finite_majorization_robin_hood():
    rng = Random(14)
    for _ in range(150):
        n = rng.randint(2, 8)
        lam, d = robin_hood_pair(rng, n)
        assert check_finite_majorization(d, lam) is True
        if sorted(lam) != sorted(d):
            # majorization is antisymmetric off the diagonal orbit
            assert check_finite_majorization(lam, d) is False


def test_finite_rank_tail():
    seq = DiagonalSequence(
        B=F(1), explicit=(F(1, 2),), zero_tail=GeometricTail(F(1, 4), F(1, 2))
    )
    # total diagonal mass is 1; candidate spectra must match it exactly
    assert check_finite_rank_tail(seq, [F(1, 2), F(1, 2)]) is True
    assert check_finite_rank_tail(seq, [F(3, 4), F(1, 4)]) is True
    assert check_finite_rank_tail(seq, [F(1, 4), F(3, 4)]) is True
    assert check_finite_rank_tail(seq, [F(9, 20), F(9, 20), F(1, 10)]) is False
    assert check_finite_rank_tail(seq, [F(1)]) is True
    assert check_finite_rank_tail(seq, [F(2, 3), F(1, 2)]) is False  # totals differ


def test_finite_rank_tail_rejects_divergent_side():
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),), b_count=INF)
    with pytest.raises(DomainError):
        check_finite_rank_tail(seq, [F(1, 2)])
