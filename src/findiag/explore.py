"""Spectrum exploration: sweep interior spectrum points (or pairs) against a
fixed diagonal sequence and map out the feasible region."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .decide import Verdict, _case, _lattice_search, _mass_bounds
from .errors import DomainError
from .scalars import _scaled, format_rational
from .sequences import DiagonalSequence, GeometricTail, _trace_residue, materialize_tails, threshold_stats


@dataclass(frozen=True)
class AllOfInterval:
    """Marker result: every interior point of (0, B) yields a feasible spectrum."""

    B: Fraction


@dataclass(frozen=True)
class RegionSample:
    """One decided grid point; A2 is None for single-interior-point sweeps."""

    A1: Fraction
    A2: Optional[Fraction]
    feasible: bool
    witness_count: int


def candidate_multiplicity_bound(seq: DiagonalSequence) -> int:
    """A sound cap on the multiplicity N of any feasible single interior point.

    For a witness at point A with multiplicity N, the trace equation forces
    N·A ≡ C(B/2) − D(B/2) (mod B), so A ≥ g/N and B − A ≥ g'/N with g, g'
    the positive residues of ±(C − D) mod B, read from the trace residue.
    The r=1 mass bound gives N ≤ C(A)/A + D(A)/(B−A), where every entry
    weighs in at most 1; entries below g/N (a geometric-tail suffix) weigh
    < 1/(1−ρ0) in total, entries within g'/N of B weigh ≤ 1/(1−ρB), and
    what remains is counted by
    Ψ(N) = m_explicit + 1/(1−ρ0) + 1/(1−ρB) + T0(N) + SB(N)
    with T0/SB the per-tail counts of elements at least g/N (resp. above
    g'/N).  Since a tail of ratio ρ has at most u_ρ (its halving steps)
    elements per factor-2 band, Ψ(2N) ≤ Ψ(N) + u with u = u0 + uB; scanning
    for the first N with N ≥ u and Ψ(N) + u ≤ N therefore bounds every feasible
    multiplicity (dyadic induction pushes Ψ(M) ≤ M to all larger M, and a
    present tail makes the weight bound strict).  Ψ is monotone in N, so
    each tail's count advances with N instead of being recounted.
    """
    B = seq.B
    res = _trace_residue(seq)
    g, gp = res or B, B - res

    # a unit tail 1, ρ, ρ², … has mass 1/(1−ρ) and u = count_greater(1/2)
    # elements per factor-2 band; u sums u0 + uB over the present tails
    zt = seq.zero_tail if isinstance(seq.zero_tail, GeometricTail) else None
    bt = seq.b_tail if isinstance(seq.b_tail, GeometricTail) else None
    units = [GeometricTail(Fraction(1), tail.ratio) for tail in (zt, bt) if tail is not None]
    base = sum((unit.total() for unit in units), Fraction(len(seq.explicit)))
    u = sum(unit.count_greater(Fraction(1, 2)) for unit in units)

    # T0(N) = t0 with x0 the zero-tail element after the counted ones, and
    # SB(N) = tB with xB likewise; an absent tail walks zeros
    walk0 = zt._elements() if zt is not None else repeat(0)
    walkB = bt._elements() if bt is not None else repeat(0)
    t0 = tB = 0
    x0, xB = next(walk0), next(walkB)
    N = 1
    while True:
        while x0 and x0 * N >= g:
            t0, x0 = t0 + 1, next(walk0)
        while xB and xB * N > gp:
            tB, xB = tB + 1, next(walkB)
        if N >= u and base + t0 + tB + u <= N:
            return N
        N += 1


def three_point_spectra(
    seq: DiagonalSequence, n_max: Optional[int] = None
) -> Union[AllOfInterval, FrozenSet[Fraction]]:
    """The exact set of interior points A making {0, A, B} feasible.

    Returns AllOfInterval when a statistic at B/2 diverges (then every A
    works).  Otherwise the candidates are A = (C − D − kB)/N for N up to the
    multiplicity cap (n_max overrides it), so the returned set is exact: no
    tolerance, no sampling.  For {0, A, B} the system has one congruence,
    N·A ≡ C − D (mod B), read from the trace residue, and one mass bound,
    N·A·(B−A) ≤ (B−A)·C(A) + A·D(A), whose left side alone grows with N;
    so A is feasible iff some N that produces it meets the bound.  Each pair
    (N, A) is tested once against the prefix table of the sequence with its
    tails materialized past the extreme candidates, at an entry pointer
    that advances with A, and every test is an integer comparison.
    """
    case = _case(seq)
    if case is Verdict.OUT_OF_SCOPE:
        raise DomainError("three-point exploration needs Σ d_i and Σ (B − d_i) both infinite")
    if case is Verdict.FEASIBLE_CASE_I:
        return AllOfInterval(seq.B)
    cap = n_max if n_max is not None else candidate_multiplicity_bound(seq)
    if cap < 1:
        raise DomainError(f"multiplicity cap must be ≥ 1, got {cap}")

    Q, (qB, qres) = _scaled(seq.B, _trace_residue(seq))
    # A = m/(N·Q) with m ≡ qres (mod qB) and 0 < m < N·qB; at N = cap lie
    # the least candidate m0/(cap·Q) and the greatest, (cap·qB − qB + qres)/(cap·Q)
    m0 = qres or qB
    if cap * qB <= m0:
        return frozenset()
    # every tail element left behind lies below (zero side) or above (B side)
    # all candidates
    mat = materialize_tails(seq, Fraction(m0, cap * Q), Fraction((cap - 1) * qB + qres, cap * Q))
    below = mat.zero_tail.total() if mat.zero_tail is not None else Fraction(0)
    above = mat.b_tail.total() if mat.b_tail is not None else Fraction(0)
    R, rB, P = mat._prefix
    del mat  # only its prefix table is read below: free the entries
    M = len(P) - 1
    # Q·T·C(A) and Q·T·D(A) while the first i entries lie below A, with
    # T = k·R a common denominator of the entries and the tails left behind
    T, (k, tbelow, tabove) = _scaled(Fraction(1, R), below, above)
    QC = [Q * (tbelow + k * p) for p in P]
    QD = [Q * (tabove + k * ((M - i) * rB - P[M] + p)) for i, p in enumerate(P)]
    # R times each entry, closed by R·B, which no candidate reaches
    entries = [b - a for a, b in zip(P, P[1:])] + [rB]
    feasible = set()
    for N in range(1, cap + 1):
        NQ, NqB, i = N * Q, N * qB, 0
        for m in range(m0, NqB, qB):
            mR = m * R  # entry i lies below A ⟺ R·entry·N·Q < m·R
            while entries[i] * NQ < mR:
                i += 1
            # the mass bound at A, times N·Q²·T
            t = NqB - m
            if m * t * T <= t * QC[i] + m * QD[i]:
                feasible.add(Fraction(m, NQ))
    return frozenset(feasible)


def four_point_region(seq: DiagonalSequence, grid: int) -> List[RegionSample]:
    """Decide every spectrum {0, p·B/q, r·B/q, B} with 0 < p < r < q on the
    q-division grid, in lexicographic (p, r) order, with the verdict and
    witness count that decide gives.

    Out-of-scope sequences give infeasible rows and a divergent statistic
    at B/2 feasible rows, without witnesses.  Otherwise each abscissa p·B/q
    is evaluated once, everything is scaled to integers by one lcm, and
    each cell runs the witness search of enumerate_witnesses on its two
    rows of the table, with the trace residue in place of C(B/2) − D(B/2):
    that moves only the k of each witness, and only the count is kept.
    """
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < 3:
        raise DomainError(f"grid must be an integer ≥ 3, got {grid!r}")
    B = seq.B
    abscissae = [Fraction(p, grid) * B for p in range(grid)]
    cells = [(p, r) for p in range(1, grid - 1) for r in range(p + 1, grid)]

    def rows(verdict) -> List[RegionSample]:
        return [RegionSample(abscissae[p], abscissae[r], *verdict(p, r)) for p, r in cells]

    case = _case(seq)
    if case is not None:
        return rows(lambda p, r: (case is Verdict.FEASIBLE_CASE_I, 0))
    at = [threshold_stats(seq, a) for a in abscissae[1:]]
    _, (qB, qres, *scaled) = _scaled(
        B, _trace_residue(seq), *abscissae[1:], *(st.C for st in at), *(st.D for st in at)
    )
    m = grid - 1
    # (A, C(A), D(A)) at A = p·B/q, scaled by one Q
    table = dict(enumerate(zip(scaled[:m], scaled[m : 2 * m], scaled[2 * m :]), 1))

    def cell(p: int, r: int) -> Tuple[bool, int]:
        qa, qC, qD = zip(table[p], table[r])
        count = len(_lattice_search(qB, qres, qa, *_mass_bounds(qB, qa, qC, qD)))
        return count > 0, count

    return rows(cell)


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------

def _svg_scatter(rows: Sequence[RegionSample], B: Optional[Fraction]) -> str:
    size, margin = 800, 60
    span = size - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    if rows:
        if B is None:
            B = max(
                [s.A1 for s in rows] + [s.A2 for s in rows if s.A2 is not None]
            )
        bf = float(B)

        def sx(a: Fraction) -> float:
            return margin + float(a) / bf * span

        def sy(a: Fraction) -> float:
            return size - margin - float(a) / bf * span

        parts.append(
            f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
            f'fill="none" stroke="#888" stroke-width="1"/>'
        )
        denom = 1
        for s in rows:
            denom = max(denom, s.A1.denominator if s.A1 != 0 else 1)
            if s.A2 is not None:
                denom = max(denom, s.A2.denominator)
        ticks = denom if denom <= 32 else 16
        for i in range(1, ticks):
            pos = margin + span * i / ticks
            parts.append(
                f'<line x1="{pos:.2f}" y1="{size - margin}" x2="{pos:.2f}" '
                f'y2="{size - margin + 6}" stroke="#555" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{margin - 6}" y1="{pos:.2f}" x2="{margin}" '
                f'y2="{pos:.2f}" stroke="#555" stroke-width="1"/>'
            )
        one_dim = all(s.A2 is None for s in rows)
        for s in rows:
            x = sx(s.A1)
            y = size / 2 if one_dim else sy(s.A2)
            if s.feasible:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="#1a6"/>')
            else:
                parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="none" '
                    f'stroke="#bbb" stroke-width="1"/>'
                )
        if one_dim:
            parts.append(
                f'<line x1="{margin}" y1="{size / 2}" x2="{size - margin}" '
                f'y2="{size / 2}" stroke="#ddd" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_region(
    rows: Sequence[RegionSample], format: str = "csv", B: Optional[Fraction] = None
) -> bytes:
    """Serialize region samples: ``csv`` (columns A1,A2,feasible; A2 empty for
    single-point sweeps) or ``svg`` (scatter on the grid square, feasible
    points filled; single-point sweeps render on a midline).  Empty input
    gives a header-only CSV or an empty canvas."""
    if format == "csv":
        lines = ["A1,A2,feasible"]
        for s in rows:
            a2 = format_rational(s.A2) if s.A2 is not None else ""
            lines.append(
                f"{format_rational(s.A1)},{a2},{'true' if s.feasible else 'false'}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "svg":
        return _svg_scatter(rows, B).encode("utf-8")
    raise DomainError(f"unknown emission format {format!r} (expected csv or svg)")
