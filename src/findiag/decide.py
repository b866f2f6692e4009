"""Feasibility decisions: which spectra admit the given diagonal.

The doubly infinite setting splits into a divergence case (feasible outright),
an exact lattice-plus-majorization case decided by witness enumeration, and
everything else (infeasible).  Compact/finite settings get their own entry
points (decide_projection for two-point spectra, decide_finite for finite
matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError
from .majorize import Witness, _require_compatible, check_finite_majorization
from .scalars import INF, _scaled
from .sequences import (
    DiagonalSequence,
    SpectrumSpec,
    ThresholdStats,
    _trace_residue,
    divergence_flags,
    threshold_stats,
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


def _scaled_trace(gap: Fraction, spectrum: SpectrumSpec) -> Tuple[int, int, List[int]]:
    """The trace equation gap = Σ A_j N_j + kB in integers.

    With B, the gap and the A_j scaled by the lcm of their denominators, N
    admits an integer k iff (qgap − Σ_j qa_j·N_j) % qB == 0.  The gap is
    C(B/2) − D(B/2) when k matters, else the trace residue: C − D moves by
    exact multiples of B as the threshold crosses entries, so every gap
    C(α) − D(α) gives the same congruence.
    """
    _, (qB, qgap, *qa) = _scaled(spectrum.B, gap, *spectrum.interior)
    return qB, qgap, qa


def _scaled_mass_bounds(
    stats: Sequence[ThresholdStats], spectrum: SpectrumSpec
) -> Tuple[List[List[int]], List[int]]:
    """The mass bounds of the threshold-statistic form in integers (_mass_bounds),
    with B, the A_j and the statistics at the interior points (looked up in
    stats by α) scaled by the lcm of their denominators."""
    by_alpha = {st.alpha: st for st in stats}
    at = [by_alpha[a] for a in spectrum.interior]
    if any(st.C is INF or st.D is INF for st in at):
        raise DomainError(
            "the threshold-statistic form needs finite threshold statistics; "
            "divergent inputs are feasible without a witness"
        )
    n = spectrum.n
    _, (qB, *scaled) = _scaled(spectrum.B, *spectrum.interior, *(st.C for st in at), *(st.D for st in at))
    return _mass_bounds(qB, scaled[:n], scaled[n : 2 * n], scaled[2 * n :])


def _mass_bounds(
    qB: int, qa: Sequence[int], qC: Sequence[int], qD: Sequence[int]
) -> Tuple[List[List[int]], List[int]]:
    """For each r, N must satisfy
      (B−A_r)·Σ_{j≤r} A_j N_j + A_r·Σ_{j>r} (B−A_j) N_j ≤ (B−A_r)·C(A_r) + A_r·D(A_r),
    that is Σ_j qw[r][j]·N_j ≤ qcap[r], given B, the A_j and C, D at the A_j
    as integers in one scale Q (each side then scales by Q²).  Every
    qw[r][j] is positive.
    """
    qw = [
        [(qB - ar) * aj if j <= r else ar * (qB - aj) for j, aj in enumerate(qa)]
        for r, ar in enumerate(qa)
    ]
    qcap = [(qB - a) * c + a * d for a, c, d in zip(qa, qC, qD)]
    return qw, qcap


def witness_bounds(stats: Sequence[ThresholdStats], spectrum: SpectrumSpec) -> Tuple[int, ...]:
    """Per-coordinate caps on candidate multiplicities.

    Dropping all but the j-th term from the r=j mass bound (_mass_bounds)
    gives N_j ≤ ((B−A_j)·C(A_j) + A_j·D(A_j)) / ((B−A_j)·A_j); any witness
    violating this fails the mass bound at r=j.  Requires finite statistics.
    """
    qw, qcap = _scaled_mass_bounds(stats, spectrum)
    return tuple(cap // row[j] for j, (row, cap) in enumerate(zip(qw, qcap)))


def _stats_for(seq: DiagonalSequence, spectrum: SpectrumSpec) -> Tuple[ThresholdStats, ...]:
    """Statistics at B/2 and at each interior point, in that order (deduped)."""
    alphas = [spectrum.B / 2]
    for a in spectrum.interior:
        if a not in alphas:
            alphas.append(a)
    return tuple(threshold_stats(seq, a) for a in alphas)


def lebesgue_check(seq: DiagonalSequence, spectrum: SpectrumSpec, witness: Witness) -> bool:
    """Decide interior majorization from threshold statistics alone.

    True iff witness.N satisfies the trace congruence (_scaled_trace of the
    trace residue) and every mass bound (_scaled_mass_bounds, on the
    statistics at the interior points), the system that enumerate_witnesses
    searches.  witness.k is ignored: k is determined by the trace equation.
    The partial-sum form is riemann_check.
    """
    _require_compatible(seq, spectrum, witness)
    N = witness.N
    qB, qres, qa = _scaled_trace(_trace_residue(seq), spectrum)
    if (qres - sum(a * nj for a, nj in zip(qa, N))) % qB:
        return False
    qw, qcap = _scaled_mass_bounds([threshold_stats(seq, a) for a in spectrum.interior], spectrum)
    return all(sum(w * nj for w, nj in zip(row, N)) <= cap for row, cap in zip(qw, qcap))


def enumerate_witnesses(
    seq: DiagonalSequence, spectrum: SpectrumSpec, stats: Optional[Sequence[ThresholdStats]] = None
) -> List[Witness]:
    """All witnesses within the multiplicity bounds, in lexicographic N order.

    N is kept iff it passes the trace congruence and every mass bound of
    lebesgue_check; the search is _lattice_search, which stays inside the
    box of witness_bounds.  stats are the statistics of _stats_for, computed
    here unless the caller already holds them.
    """
    _require_compatible(seq, spectrum)
    if spectrum.n == 0:
        raise DomainError("witness enumeration needs at least one interior spectrum point")
    if stats is None:
        stats = _stats_for(seq, spectrum)
    qw, qcap = _scaled_mass_bounds(stats, spectrum)  # raises first on infinite statistics
    half = stats[0]
    qB, qgap, qa = _scaled_trace(half.C - half.D, spectrum)
    return _lattice_search(qB, qgap, qa, qw, qcap)


def _lattice_search(
    qB: int, qgap: int, qa: Sequence[int], qw: List[List[int]], qcap: List[int]
) -> List[Witness]:
    """Every N ≥ 1 with (qgap − Σ_j qa_j·N_j) % qB == 0 and
    Σ_j qw[r][j]·N_j ≤ qcap[r] for every r, as Witness(N, k) with k the
    quotient, in lexicographic N order.  The trace and the mass bounds may
    be scaled by different factors.

    The bounds have positive coefficients, so a depth-first search over N_1,
    N_2, … stops each coordinate at the largest value that still fits with
    all later N_j = 1 (Fincke–Pohst pruning); coordinates i.. can balance
    only multiples of gcd(A_i, …, A_n, B), so each runs over one arithmetic
    progression.
    """
    n = len(qa)
    # coordinates i.. can balance exactly the multiples of g[i]
    g = [qB] * (n + 1)
    for i in reversed(range(n)):
        g[i] = math.gcd(qa[i], g[i + 1])
    if qgap % g[0]:
        return []
    # N_i must leave a multiple of g[i+1]: one residue class modulo step[i]
    step = [g[i + 1] // g[i] for i in range(n)]
    inv = [pow(qa[i] // g[i], -1, step[i]) for i in range(n)]
    # rest[i][r]: the load of coordinates i.. on mass bound r, all at 1
    rest = [[sum(row[i:]) for row in qw] for i in range(n + 1)]
    found: List[Witness] = []

    def search(i: int, N: Tuple[int, ...], used: List[int], res: int) -> None:
        hi = min((qcap[r] - used[r] - rest[i + 1][r]) // qw[r][i] for r in range(n))
        for v in range((res // g[i]) * inv[i] % step[i] or step[i], hi + 1, step[i]):
            left = res - qa[i] * v
            if i == n - 1:
                found.append(Witness(N + (v,), left // qB))
            else:
                search(i + 1, N + (v,), [u + row[i] * v for u, row in zip(used, qw)], left)

    search(0, (), [0] * n, qgap)
    return found


def _case(seq: DiagonalSequence) -> Optional[Verdict]:
    """The theorem's case split, read from divergence_flags with no statistic
    evaluated: OUT_OF_SCOPE unless Σ d_i and Σ (B − d_i) both diverge,
    FEASIBLE_CASE_I when C(B/2) or D(B/2) diverges, and None for Case II,
    where the trace congruence and mass bounds decide."""
    flags = divergence_flags(seq)
    if not (flags.sum_d_infinite and flags.sum_Bd_infinite):
        return Verdict.OUT_OF_SCOPE
    return Verdict.FEASIBLE_CASE_I if flags.C_half_infinite or flags.D_half_infinite else None


def decide(seq: DiagonalSequence, spectrum: SpectrumSpec) -> Decision:
    """Full feasibility decision for a diagonal against a finite spectrum set.

    Routing: two-point spectra go to the projection criterion; the rest
    follow _case, and in Case II feasibility is equivalent to a nonempty
    witness list.  Statistics and witness bounds are computed once per
    call, and the statistics are handed to enumerate_witnesses.
    """
    _require_compatible(seq, spectrum)
    if spectrum.n == 0:
        return decide_projection(seq)
    case = _case(seq)
    stats = _stats_for(seq, spectrum)
    if case is None:
        bounds = witness_bounds(stats, spectrum)
        witnesses = enumerate_witnesses(seq, spectrum, stats)
    if case is Verdict.OUT_OF_SCOPE:
        return Decision(
            case,
            stats=stats,
            note=(
                "requires infinite mass on both sides: Σ d_i and Σ (B − d_i) "
                "must both diverge; for summable diagonals see decide_finite "
                "or check_finite_rank_tail"
            ),
        )
    if case is Verdict.FEASIBLE_CASE_I:
        which = "C(B/2)" if stats[0].C is INF else "D(B/2)"
        return Decision(
            case,
            stats=stats,
            note=f"{which} diverges; every interior multiplicity choice is realizable",
        )
    if witnesses:
        return Decision(Verdict.FEASIBLE_CASE_II, tuple(witnesses), stats, bounds)
    return Decision(
        Verdict.INFEASIBLE,
        stats=stats,
        bounds=bounds,
        note="no multiplicity vector satisfies the trace equation and mass bounds",
    )


def decide_projection(seq: DiagonalSequence) -> Decision:
    """Feasibility for the two-point spectrum {0, B} (diagonals of projections).

    Feasible iff a statistic at B/2 diverges or C(B/2) − D(B/2) is an exact
    integer multiple of B.  Applies regardless of which sums converge.
    """
    half = threshold_stats(seq, seq.B / 2)
    stats = (half,)
    if half.C is INF or half.D is INF:
        which = "C(B/2)" if half.C is INF else "D(B/2)"
        return Decision(
            Verdict.FEASIBLE_CASE_I,
            stats=stats,
            note=f"{which} diverges",
        )
    k = (half.C - half.D) / seq.B
    if k.denominator == 1:
        return Decision(Verdict.FEASIBLE_CASE_II, (Witness((), int(k)),), stats)
    return Decision(
        Verdict.INFEASIBLE,
        stats=stats,
        note=f"C(B/2) − D(B/2) = {half.C - half.D} is not an integer multiple of B",
    )


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of `parts` integers ≥ 1 summing to `total`, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def decide_finite(
    d: Sequence, spectrum: SpectrumSpec
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Finite Schur-Horn search: can a symmetric matrix with eigenvalues drawn
    from the spectrum (every point used at least once) have diagonal d?

    Returns (feasible, M) with M the lexicographically-first multiplicity
    vector (M_0, …, M_{n+1}), each ≥ 1, summing to len(d); (False, None) when
    no vector works or len(d) < n + 2.
    """
    values = [Fraction(x) for x in d]
    B = spectrum.B
    for v in values:
        if v < 0 or v > B:
            raise DomainError(f"diagonal entry {v} outside [0, {B}]")
    L = len(values)
    parts = len(spectrum.points)
    if L < parts:
        return False, None
    for M in _compositions(L, parts):
        lam = [p for p, m in zip(spectrum.points, M) for _ in range(m)]
        if check_finite_majorization(values, lam):
            return True, M
    return False, None
