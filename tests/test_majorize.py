"""Majorization checks: partial-sum tests against step sequences, finite variants."""

from collections import Counter
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
    Witness,
    canonical_shift,
    check_finite_majorization,
    check_finite_rank_tail,
    lebesgue_check,
    materialize_tails,
    realize_truncated,
    riemann_check,
    threshold_stats,
)
from findiag.majorize import _ZLayout

from conftest import random_sequence, random_spectrum, robin_hood_pair

F = Fraction


def test_witness_validation():
    with pytest.raises(DomainError):
        Witness((0,), 0)
    with pytest.raises(DomainError):
        Witness((1, -2), 0)
    w = Witness((2, 3), -1)
    assert w.sigma_total == 5


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
    assert min(d for _, d in prof.checked_indices) == F(1, 2)

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
    assert min(d for _, d in prof.checked_indices) == F(-1, 2)


def step_prefix(spectrum, witness, m):
    """Σ_{i≤m} λ_i for the step sequence λ of (spectrum, witness): 0 up to
    index k, then A_r on the next N_r indices for each r in turn, then B."""
    total, before = F(0), witness.k
    for a, nr in zip(spectrum.interior, witness.N):
        total += a * min(max(m - before, 0), nr)
        before += nr
    return total + spectrum.B * max(m - before, 0)


def delta_range(seq, spectrum, witness, lo, hi):
    """Exact δ_m for m = lo, …, hi, on any index range, each from the two
    prefix sums in closed form: the wide-window companion of the running sum
    riemann_check reads."""
    layout = _ZLayout(seq)
    return tuple((m, layout.prefix(m) - step_prefix(spectrum, witness, m)) for m in range(lo, hi + 1))


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


def test_riemann_window_is_the_closed_form_delta():
    """riemann_check's running sum equals δ_m from the two closed-form prefix
    sums at every window index, at shifts |k| ≤ 25 and on planted feasible
    instances at their canonical shift: windows inside the zero tail or the
    b tail, across the explicit entries, and over exact 0s or Bs."""
    rng = Random(77)
    seen = Counter()
    for draw in range(600):
        if draw % 4:
            seq = random_sequence(rng)
            spec = random_spectrum(rng, seq.B)
            w = Witness(tuple(rng.randint(1, 4) for _ in spec.interior), rng.randint(-25, 25))
        else:
            seq, spec, N = _planted_instance(rng)
            w = Witness(N, canonical_shift(seq, spec, N))
        ok, prof = riemann_check(seq, spec, w)
        top = w.k + w.sigma_total
        assert prof.checked_indices == delta_range(seq, spec, w, w.k, top)
        assert ok == (prof.trace_residual == 0 and min(d for _, d in prof.checked_indices) >= 0)
        M = len(seq.explicit)
        exact = seq.zero_tail is None if top <= 0 else seq.b_tail is None if w.k > M else None
        seen["left" if top <= 0 else "right" if w.k > M else "across", exact] += 1
        seen[ok] += 1
    assert min(seen[side, exact] for side in ("left", "right") for exact in (True, False)) >= 40
    assert seen["across", None] >= 150 and seen[True] >= 100


def test_layout_entries_are_prefix_differences():
    """_ZLayout.entries(start, count) is d_start, …, d_{start+count−1}, each
    entry the difference of two consecutive closed-form prefix sums, for
    ranges on either side, across the explicit entries, and empty ones."""
    rng = Random(78)
    for _ in range(300):
        layout = _ZLayout(random_sequence(rng))
        start, count = rng.randint(-30, 30), rng.randint(0, 20)
        expected = [layout.prefix(i) - layout.prefix(i - 1) for i in range(start, start + count)]
        assert layout.entries(start, count) == expected


def test_riemann_rejects_a_witness_of_the_wrong_length(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    with pytest.raises(DomainError, match=r"^witness has 2 multiplicities for 1 interior spectrum points$"):
        riemann_check(dyadic, spec, Witness((1, 1), 0))
    # the sequence is checked first: a side with exact zeros and a tail has no ℤ layout
    both = DiagonalSequence(
        B=F(1), explicit=(F(1, 2),), zero_count=3, zero_tail=GeometricTail(F(1, 4), F(1, 2)), b_count=INF
    )
    with pytest.raises(DomainError, match="both exact zeros and a zero tail"):
        riemann_check(both, spec, Witness((1, 1), 0))


def test_every_check_rejects_a_witness_of_the_wrong_length(dyadic):
    """The partial-sum, threshold-statistic and realization entry points give
    a wrong-length witness one message."""
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    for N in ((1, 1), ()):
        message = rf"^witness has {len(N)} multiplicities for 1 interior spectrum points$"
        for check in (
            lambda: canonical_shift(dyadic, spec, N),
            lambda: lebesgue_check(dyadic, spec, Witness(N, 0)),
            lambda: realize_truncated(dyadic, spec, Witness(N, 0), 4),
        ):
            with pytest.raises(DomainError, match=message):
                check()


def test_canonical_shift_refuses_what_witness_refuses(dyadic):
    """canonical_shift takes a bare N and refuses a multiplicity that is not
    an integer ≥ 1 with Witness's message; the checks that take a Witness
    keep their messages."""
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    for nj in (-1, 0, True, 1.0):
        message = rf"^witness multiplicities must be integers ≥ 1, got {nj!r}$"
        with pytest.raises(DomainError, match=message):
            canonical_shift(dyadic, spec, (nj,))
        with pytest.raises(DomainError, match=message):
            Witness((nj,), 0)
    assert canonical_shift(dyadic, spec, (1,)) == canonical_shift(dyadic, spec, [1]) == 0
    message = r"^witness has 2 multiplicities for 1 interior spectrum points$"
    for check in (riemann_check, lebesgue_check, lambda *args: realize_truncated(*args, 4)):
        with pytest.raises(DomainError, match=message):
            check(dyadic, spec, Witness((1, 1), 0))


def test_canonical_shift_refuses_a_sequence_with_no_layout():
    """The layout is read before the trace: a trace with no integer solution
    (N = 2 here) does not hide a sequence that has no ℤ arrangement."""
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    finite = DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_tail=GeometricTail(F(1, 4), F(1, 2)), b_count=5)
    for N in ((1,), (2,)):
        with pytest.raises(DomainError, match="the b side must be"):
            canonical_shift(finite, spec, N)
    divergent = DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_tail=DivergentTail(), b_count=INF)
    with pytest.raises(DomainError, match="the zero side must be"):
        canonical_shift(divergent, spec, (1,))


def test_layout_excess_frozen(dyadic):
    # the zero tail's 1/2 plus the entry 1/2, less B·M = 1 and the b tail's 1/2
    assert _ZLayout(dyadic).excess == F(-1, 2)


def test_layout_excess_is_the_limit_of_the_prefix_defect():
    """For every m > M, Σ_{i≤m} d_i − B·m is the excess plus the b tail's
    distance mass after its first m − M elements, or the excess itself over
    exact Bs."""
    rng = Random(30)
    for _ in range(200):
        seq = random_sequence(rng)
        layout, M = _ZLayout(seq), len(seq.explicit)
        for m in range(M + 1, M + 12):
            rest = seq.b_tail.tail_sum_from(m - M) if seq.b_tail is not None else 0
            assert layout.prefix(m) - seq.B * m == layout.excess + rest


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
        assert min(d for _, d in prof.checked_indices) < 0


@pytest.mark.parametrize("point, split", [(F(1, 8), -2), (F(7, 8), 2)])
def test_split_index_inside_a_tail(dyadic, point, split):
    spec = SpectrumSpec((F(0), point, F(1)))
    # the one interior point lies inside a tail: d_split < A_1 ≤ d_{split+1}
    below, above = _ZLayout(dyadic).entries(split, 2)
    assert below < point <= above
    outcomes = []
    for n in range(1, 30):
        shift = canonical_shift(dyadic, spec, (n,))
        if shift is None:
            assert lebesgue_check(dyadic, spec, Witness((n,), 0)) is False
            continue
        w = Witness((n,), shift)
        ok, prof = riemann_check(dyadic, spec, w)
        assert prof.trace_residual == 0
        assert ok == lebesgue_check(dyadic, spec, w)
        wide = dict(delta_range(dyadic, spec, w, shift - 12, shift + n + 12))
        assert all(wide[m] == d for m, d in prof.checked_indices)
        assert ok == (min(wide.values()) >= 0)
        outcomes.append((n, ok))
    assert outcomes == [(4, True), (12, False), (20, False), (28, False)]


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
      C(A_r) ≥ Σ_{j≤r} A_j N_j + A_r·(k_0 − |{i : A_r ≤ d_i < A_n}| + Σ_{j>r} N_j),
    counting the entries in [A_r, A_n) among the explicit ones once the tails
    are materialized down to A_r and up to A_n.
    """
    pts, a_top = spec.points, spec.points[-2]
    top = threshold_stats(seq, a_top)
    k0 = (top.C - top.D - sum(a * nj for a, nj in zip(spec.interior, N))) / spec.B
    if k0.denominator != 1:
        return False
    for r in range(1, spec.n + 1):
        a_r = pts[r]
        lower = sum(a * nj for a, nj in zip(spec.interior[:r], N))
        between = sum(1 for v in materialize_tails(seq, a_r, a_top).explicit if a_r <= v < a_top)
        rhs = lower + a_r * (k0 - between + sum(N[r:]))
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


def _finite_rank_oracle(seq, lam, tail_elements=None):
    """Totals agree and every m < n prefix of the sorted explicit entries plus
    the tail's first n elements, element(t) for t < n, is at most the same
    prefix of λ; tail_elements overrides how many tail elements take part."""
    n = len(lam)
    tail = seq.zero_tail
    count = n if tail_elements is None else tail_elements
    d = sorted([*seq.explicit, *map(tail.element, range(count))], reverse=True)
    ll = sorted(lam, reverse=True)
    if sum(seq.explicit, tail.total()) != sum(ll):
        return False
    return all(sum(d[:m]) <= sum(ll[:m]) for m in range(1, n))


def test_finite_rank_tail_reads_elements_past_the_explicit_entries():
    """Ratios 1/2 to 9/10 and up to 8 eigenvalues, against the oracle; in
    some draws the tail's first element exceeds every explicit entry, and in
    some the verdict differs from one that leaves the tail elements out."""
    rng = Random(16)
    ratios = (F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(9, 10))
    verdicts, decided_by_tail, tail_on_top = Counter(), 0, 0
    for draw in range(300):
        explicit = tuple(F(rng.randint(1, 31), 32) for _ in range(rng.randint(0, 3)))
        tail = GeometricTail(F(rng.randint(1, 31), 32), rng.choice(ratios))
        seq = DiagonalSequence(B=F(1), explicit=explicit, zero_tail=tail)
        total = sum(explicit, tail.total())
        n = rng.randint(1, 8)
        top = sorted([*explicit, *map(tail.element, range(n))], reverse=True)
        kind = draw % 4
        if kind == 0:  # random weights
            w = [rng.randint(1, 20) for _ in range(n)]
            lam = [total * x / sum(w) for x in w]
        elif kind == 1:  # an even split
            lam = [total / n] * n
        elif kind == 2:  # the n − 1 largest entries and the rest lumped, then nudged
            lam = top[: n - 1] + [total - sum(top[: n - 1])]
            eps = F(rng.randint(0, 3), 256)
            if n > 1 and lam[0] > eps:
                lam[0], lam[-1] = lam[0] - eps, lam[-1] + eps
        else:  # the j − 1 largest entries, the rest spread evenly: entry j decides
            j = rng.randint(1, n)
            lam = top[: j - 1] + [(total - sum(top[: j - 1])) / (n - j + 1)] * (n - j + 1)
        verdict = check_finite_rank_tail(seq, lam)
        assert verdict is _finite_rank_oracle(seq, lam)
        verdicts[verdict] += 1
        decided_by_tail += verdict is not _finite_rank_oracle(seq, lam, tail_elements=0)
        tail_on_top += tail.first > max(explicit, default=0)
    assert verdicts[True] >= 30 and verdicts[False] >= 30
    assert decided_by_tail >= 30 and tail_on_top >= 30
    # 1/8 and the tail 1/2, 1/4, 1/8, …: the first tail element alone exceeds 3/8
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 8),), zero_tail=GeometricTail(F(1, 2), F(1, 2)))
    assert check_finite_rank_tail(seq, [F(1, 2), F(1, 2), F(1, 8)]) is True
    assert check_finite_rank_tail(seq, [F(3, 8)] * 3) is False
    # the tail 1/2, 1/4, 1/8, … alone: its third element breaks the third prefix
    seq = DiagonalSequence(B=F(1), zero_tail=GeometricTail(F(1, 2), F(1, 2)))
    assert check_finite_rank_tail(seq, [F(1, 2), F(1, 4), F(7, 64), F(7, 64), F(1, 32)]) is False


def test_finite_rank_tail_rejects_divergent_side():
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),), b_count=INF)
    with pytest.raises(DomainError):
        check_finite_rank_tail(seq, [F(1, 2)])
