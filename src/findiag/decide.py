"""Feasibility decisions: which spectra admit the given diagonal.

The doubly infinite setting splits into a divergence case (feasible outright),
an exact lattice-plus-majorization case decided by witness enumeration, and
everything else (infeasible).  Compact/finite settings get their own entry
points (decide_projection for two-point spectra, decide_finite for finite
matrices, on the same lattice search).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .majorize import Witness, _require_compatible
from .scalars import INF, _scaled
from .sequences import (
    DiagonalSequence,
    SpectrumSpec,
    ThresholdStats,
    _over,
    _stats_pass,
    divergence_flags,
)


class Verdict(str, Enum):
    FEASIBLE_CASE_I = "FeasibleCaseI"
    FEASIBLE_CASE_II = "FeasibleCaseII"
    INFEASIBLE = "Infeasible"
    OUT_OF_SCOPE = "OutOfTheoremScope"


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    witnesses: Tuple[Witness, ...] = ()
    stats: Tuple[ThresholdStats, ...] = ()
    bounds: Tuple[int, ...] = ()
    note: str = ""

    @property
    def feasible(self) -> bool:
        return self.verdict in (Verdict.FEASIBLE_CASE_I, Verdict.FEASIBLE_CASE_II)


class _System(NamedTuple):
    """The Case II system in integers: N passes the trace congruence iff
    (qgap − Σ_j qa_j·N_j) % qB == 0, and the mass bounds iff
    Σ_j qw[r][j]·N_j ≤ qcap[r] for every r (_system: one row per coordinate,
    which bounds reads; rows given to _lattice_search may outnumber them)."""

    qB: int
    qgap: int
    qa: List[int]
    qw: List[List[int]]
    qcap: List[int]

    def bounds(self) -> Tuple[int, ...]:
        """N_j ≤ qcap[j] // qw[j][j]: mass bound j with every other term dropped."""
        return tuple(cap // row[j] for j, (row, cap) in enumerate(zip(self.qw, self.qcap)))


def _system(spectrum: SpectrumSpec, W: int, gap: Tuple, at: Sequence[Tuple]) -> _System:
    """The system in one integer scale from (C, D) numerators over W (_stats_pass)
    at each interior point (at) and at the α of the trace gap C(α) − D(α) (gap):
    C − D moves by multiples of B as α crosses entries, so only k reads α.
    Mass bound r, (B−A_r)·Σ_{j≤r} A_j N_j + A_r·Σ_{j>r} (B−A_j) N_j ≤
    (B−A_r)·C(A_r) + A_r·D(A_r), is Σ_j qw[r][j]·N_j ≤ qcap[r] (every qw[r][j]
    > 0); a subset of the interior points keeps its rows and columns."""
    if any(x is INF for pair in (gap, *at) for x in pair):
        raise DomainError(
            "the threshold-statistic form needs finite threshold statistics; "
            "divergent inputs are feasible without a witness"
        )
    _, (k, qB, *qa) = _scaled(Fraction(1, W), spectrum.B, *spectrum.interior)
    qw = [
        [(qB - ar) * aj if j <= r else ar * (qB - aj) for j, aj in enumerate(qa)]
        for r, ar in enumerate(qa)
    ]
    qcap = [((qB - a) * C + a * D) * k for a, (C, D) in zip(qa, at)]
    return _System(qB, (gap[0] - gap[1]) * k, qa, qw, qcap)


def lebesgue_check(seq: DiagonalSequence, spectrum: SpectrumSpec, witness: Witness) -> bool:
    """Decide interior majorization from threshold statistics alone.

    True iff witness.N satisfies the trace congruence and every mass bound of
    the system that enumerate_witnesses searches (_System), built from the
    statistics at the interior points; its gap is read at A_1, or at B/2
    for a two-point spectrum.  witness.k is ignored: k is determined by the
    trace equation.  The partial-sum form is riemann_check.
    """
    _require_compatible(seq, spectrum, witness.N)
    N = witness.N
    W, at = _stats_pass(seq, spectrum.interior or (spectrum.B / 2,))
    qB, qgap, qa, qw, qcap = _system(spectrum, W, at[0], at[: spectrum.n])
    if (qgap - sum(a * nj for a, nj in zip(qa, N))) % qB:
        return False
    return all(sum(w * nj for w, nj in zip(row, N)) <= cap for row, cap in zip(qw, qcap))


def enumerate_witnesses(
    seq: DiagonalSequence, spectrum: SpectrumSpec, *, system: Optional[_System] = None
) -> List[Witness]:
    """All witnesses within the multiplicity bounds, in lexicographic N order.

    N is kept iff it passes the trace congruence and every mass bound of
    lebesgue_check; the search is _lattice_search, which stays inside the
    box of _System.bounds.  system, keyword-only and private to decide, is
    the _System with the gap at B/2, built here when left out.
    """
    _require_compatible(seq, spectrum)
    if spectrum.n == 0:
        raise DomainError("witness enumeration needs at least one interior spectrum point")
    if system is None:
        W, at = _stats_pass(seq, [spectrum.B / 2, *spectrum.interior])
        system = _system(spectrum, W, at[0], at[1:])  # raises on infinite statistics
    return [Witness(N, k) for N, k in _lattice_search(*system)]


def _lattice_search(
    qB: int, qgap: int, qa: Sequence[int], qw: List[List[int]], qcap: List[int]
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Every N ≥ 1 with (qgap − Σ_j qa_j·N_j) % qB == 0 and
    Σ_j qw[r][j]·N_j ≤ qcap[r] for every r, yielded lazily as integer pairs
    (N, k) with k the quotient, in lexicographic N order.  The trace and the
    mass bounds may be scaled by different factors, and rows may outnumber
    coordinates: every row bounds every coordinate.

    The bounds have positive coefficients, so a depth-first search over N_1,
    N_2, … stops each coordinate at the largest value that still fits with
    all later N_j = 1 (Fincke–Pohst pruning); coordinates i.. can balance
    only multiples of gcd(A_i, …, A_n, B), so each runs over one arithmetic
    progression.  The search is one stack of prefixes (i, N, room, res):
    room[r] is what mass bound r leaves after N with every later N_j = 1.
    """
    n = len(qa)
    # coordinates i.. can balance exactly the multiples of g[i]
    g = [qB] * (n + 1)
    for i in reversed(range(n)):
        g[i] = math.gcd(qa[i], g[i + 1])
    if qgap % g[0]:
        return
    # N_i must leave a multiple of g[i+1]: one residue class modulo step[i]
    step = [g[i + 1] // g[i] for i in range(n)]
    inv = [pow(qa[i] // g[i], -1, step[i]) for i in range(n)]
    stack = [(0, (), [cap - sum(row) for row, cap in zip(qw, qcap)], qgap)]
    while stack:
        i, N, room, res = stack.pop()
        values = range((res // g[i]) * inv[i] % step[i] or step[i],
                       2 + min(left // row[i] for left, row in zip(room, qw)), step[i])
        if i == n - 1:
            for v in values:
                yield N + (v,), (res - qa[i] * v) // qB
        else:  # the least prefix on top keeps the order lexicographic
            stack += [(i + 1, N + (v,), [left - row[i] * (v - 1) for left, row in zip(room, qw)],
                       res - qa[i] * v) for v in reversed(values)]


def _pair_counts(qB: int, qgap: int, qa: Sequence[int], qw: List[List[int]], qcap: List[int],
                 pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """How many N _lattice_search yields on rows and columns i, j of the
    system, in that order, for each (i, j) in pairs, without enumerating them.

    Each quantity is _lattice_search's for n = 2: g = (gcd(qa_i, g_1),
    g_1 = gcd(qa_j, qB), qB) with its steps and inverses; N_i from the residue
    that leaves a multiple of g_1 up to the largest value that fits with
    N_j = 1; and for each N_i, N_j from the residue that leaves a multiple of
    qB up to the largest that fits, one progression whose length is a closed
    form.  g_1, its step and its inverse depend on j alone: once per column."""
    column = {}
    for j in {j for _, j in pairs}:
        g1 = math.gcd(qa[j], qB)
        column[j] = g1, qB // g1, pow(qa[j] // g1, -1, qB // g1)
    counts = []
    for i, j in pairs:
        (g1, s1, inv1), ai, ci, cj = column[j], qa[i], qcap[i], qcap[j]
        (wii, wij), (wji, wjj) = (qw[i][i], qw[i][j]), (qw[j][i], qw[j][j])
        g0, count = math.gcd(ai, g1), 0
        if qgap % g0 == 0:
            s0 = g1 // g0
            start = (qgap // g0) * pow(ai // g0, -1, s0) % s0 or s0
            for v in range(start, min((ci - wij) // wii, (cj - wjj) // wji) + 1, s0):
                lo = (qgap - ai * v) // g1 * inv1 % s1 or s1
                hi = min((ci - wii * v) // wij, (cj - wji * v) // wjj)
                if hi >= lo:
                    count += (hi - lo) // s1 + 1
        counts.append(count)
    return counts


_OUT_OF_SCOPE_NOTE = ("requires infinite mass on both sides: Σ d_i and Σ (B − d_i) must both diverge; "
                      "for summable diagonals see decide_finite or check_finite_rank_tail")


def _case(seq: DiagonalSequence) -> Optional[Verdict]:
    """The theorem's case split, read from divergence_flags with no statistic
    evaluated: FEASIBLE_CASE_I when C(B/2) or D(B/2) diverges (a divergent
    tail makes Σ d_i and Σ (B − d_i) both diverge), else OUT_OF_SCOPE unless
    both sums diverge, and None for Case II, where the trace congruence and
    mass bounds decide."""
    flags = divergence_flags(seq)
    if flags.C_half_infinite or flags.D_half_infinite:
        return Verdict.FEASIBLE_CASE_I
    return None if flags.sum_d_infinite and flags.sum_Bd_infinite else Verdict.OUT_OF_SCOPE


def decide(seq: DiagonalSequence, spectrum: SpectrumSpec) -> Decision:
    """Full feasibility decision for a diagonal against a finite spectrum set.

    Routing: _case first, so a divergent C(B/2) or D(B/2) is Case I for
    every spectrum; two-point spectra then go to the projection criterion,
    and in Case II feasibility is equivalent to a nonempty witness list.  The statistics at B/2 and at the interior points come
    from one _stats_pass, and in Case II one _System is built from them,
    read for the bounds and handed to enumerate_witnesses.
    """
    _require_compatible(seq, spectrum)
    return _decide(seq, spectrum, *_stats_pass(seq, [spectrum.B / 2, *spectrum.interior]))


def _subset_decisions(seq: DiagonalSequence, spectrum: SpectrumSpec) -> List[Tuple[tuple, Decision]]:
    """(interior, decide(seq, {0, *interior, B})) for every proper subset of
    the interior points (the empty one included), by size then order, from
    one statistics pass over B/2 and the interior points."""
    _require_compatible(seq, spectrum)
    points, n = spectrum.interior, spectrum.n
    W, (half, *at) = _stats_pass(seq, [spectrum.B / 2, *points])
    out = []
    for s in (s for r in range(n) for s in itertools.combinations(range(n), r)):
        sub = SpectrumSpec((0, *(points[i] for i in s), spectrum.B))
        out.append((sub.interior, _decide(seq, sub, W, [half, *(at[i] for i in s)])))
    return out


def _decide(seq: DiagonalSequence, spectrum: SpectrumSpec, W: int, at: Sequence[Tuple]) -> Decision:
    """decide from the numerators over W (_stats_pass) of C and D at B/2 and
    at each interior point, in that order."""
    alphas = (spectrum.B / 2, *spectrum.interior)
    kept = [(a, C, D) for i, (a, (C, D)) in enumerate(zip(alphas, at)) if i == 0 or a != alphas[0]]
    stats = tuple(ThresholdStats(a, _over(C, W), _over(D, W)) for a, C, D in kept)
    half = stats[0]
    case = _case(seq)
    if case is Verdict.FEASIBLE_CASE_I:
        note = f"{'C(B/2)' if half.C is INF else 'D(B/2)'} diverges"
        if spectrum.n:
            note += "; every interior multiplicity choice is realizable"
        return Decision(case, stats=stats, note=note)
    if spectrum.n == 0:  # decide_projection, whatever the sums do
        k = (half.C - half.D) / spectrum.B
        if k.denominator == 1:
            return Decision(Verdict.FEASIBLE_CASE_II, (Witness((), int(k)),), stats)
        note = f"C(B/2) − D(B/2) = {half.C - half.D} is not an integer multiple of B"
        return Decision(Verdict.INFEASIBLE, stats=stats, note=note)
    if case is Verdict.OUT_OF_SCOPE:
        return Decision(case, stats=stats, note=_OUT_OF_SCOPE_NOTE)
    system = _system(spectrum, W, at[0], at[1:])
    bounds = system.bounds()
    witnesses = enumerate_witnesses(seq, spectrum, system=system)
    if witnesses:
        return Decision(Verdict.FEASIBLE_CASE_II, tuple(witnesses), stats, bounds)
    note = "no multiplicity vector satisfies the trace equation and mass bounds"
    return Decision(Verdict.INFEASIBLE, stats=stats, bounds=bounds, note=note)


def decide_projection(seq: DiagonalSequence) -> Decision:
    """Feasibility for the two-point spectrum {0, B} (diagonals of projections).

    Feasible iff a statistic at B/2 diverges or C(B/2) − D(B/2) is an exact
    integer multiple of B.  Applies regardless of which sums converge.
    """
    return _decide(seq, SpectrumSpec((0, seq.B)), *_stats_pass(seq, [seq.B / 2]))


def decide_finite(
    d: Sequence, spectrum: SpectrumSpec
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Finite Schur-Horn search: can a symmetric matrix with eigenvalues drawn
    from the spectrum (every point used at least once) have diagonal d?

    Returns (feasible, M) with M the lexicographically-first multiplicity
    vector (M_0, …, M_{n+1}), each ≥ 1, summing to len(d); (False, None) when
    no vector works or len(d) < n + 2.

    d ≺ λ iff Σd = Σλ and Σ(t − d_i)₊ ≤ Σ(t − λ_i)₊ for every t (Hardy–
    Littlewood–Pólya); the right side is linear between spectrum points and
    the left convex, so t = A_1, …, A_n suffice.  The trace gives M_B, and
    eliminating M_0 by L and #{d_i < A_r} by the trace turns the inequality
    at A_r into mass bound r of _System.  So this is _lattice_search on the
    _System of d with the gap Σd (k = M_B) and two more rows, M_B ≥ 1 and
    M_0 ≥ 1: Σ A_j N_j ≤ Σd − B and Σ (B − A_j)·N_j ≤ (L − 1)·B − Σd.  It
    stops at the first N with M_0 = lo = max(1, ⌈Σ (A_1 − d_i)₊ / A_1⌉): only
    the M_0 zeros of λ lie below A_1, so the inequality at t = A_1 reads
    Σ (A_1 − d_i)₊ ≤ M_0·A_1 and no M_0 is below lo; N comes in lexicographic
    order and fixes M_B, so the first N at the least M_0 gives the least M.
    """
    seq = DiagonalSequence(spectrum.B, tuple(d))  # raises on an entry outside [0, B]
    _, qB, P = seq._prefix
    L, total = len(d), P[-1] + seq.b_count * qB  # Q·Σd, with the entries at B counted apart
    if spectrum.n == 0:
        k, r = divmod(total, qB)
        return (True, (L - k, k)) if r == 0 and 0 < k < L else (False, None)
    W, at = _stats_pass(seq, spectrum.interior)  # W == Q: d has no tails
    qB, qgap, qa, qw, qcap = _system(spectrum, W, (total, 0), at)
    rows, caps = qw + [qa, [qB - a for a in qa]], qcap + [qgap - qB, (L - 1) * qB - qgap]
    A1, M = spectrum.interior[0], None
    lo = max(1, math.ceil(sum((A1 - x for x in seq.explicit if x < A1), seq.zero_count * A1) / A1))
    for N, k in _lattice_search(qB, qgap, qa, rows, caps):
        if M is None or L - sum(N) - k < M[0]:
            M = (L - sum(N) - k, *N, k)
            if M[0] == lo:
                break
    return M is not None, M
