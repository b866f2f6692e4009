"""Majorization predicates: finite Schur-Horn, finite-rank tails, and the
partial-sum form of interior majorization for doubly infinite diagonals.

The partial-sum (Riemann) form compares a nondecreasing ℤ-indexed
arrangement of the diagonal against a step sequence taking each spectrum
value on a block of indices.  It is decided in exact rational arithmetic:
the limit condition reduces to the closed-form trace residual
excess − Σ A_j N_j + B·(k + σ), where excess = lim_m (Σ_{i≤m} d_i − B·m) is
read from the ℤ layout itself, and the partial-sum condition needs checking
only on a finite index window.  The threshold-statistic (Lebesgue) form is
decide.lebesgue_check, written once in integers and shared with the witness
search.  The two forms are written independently, sharing no statistic or
tail cut search; riemann_check at canonical_shift agrees with it on every
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError
from .scalars import INF
from .sequences import DiagonalSequence, DivergentTail, GeometricTail, SpectrumSpec


@dataclass(frozen=True)
class Witness:
    """Multiplicities N_j ≥ 1 for the interior spectrum points, plus an integer shift k.

    In trace-equation contexts k is the integer balancing
    C − D = Σ A_j N_j + kB; in step-sequence contexts it is the index shift
    placing the first interior block at k+1.  The two are related through the
    canonical alignment (see canonical_shift).
    """

    N: Tuple[int, ...]
    k: int

    def __post_init__(self):
        N = tuple(self.N)
        for nj in N:
            if not isinstance(nj, int) or isinstance(nj, bool) or nj < 1:
                raise DomainError(f"witness multiplicities must be integers ≥ 1, got {nj!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise DomainError(f"witness k must be an integer, got {self.k!r}")
        object.__setattr__(self, "N", N)

    @property
    def sigma_total(self) -> int:
        return sum(self.N)


def _require_compatible(
    seq: DiagonalSequence, spectrum: SpectrumSpec, N: Optional[Sequence[int]] = None
) -> None:
    """The sequence and the spectrum share B, and the witness multiplicities
    N, when given, are one per interior spectrum point, each an integer ≥ 1."""
    if seq.B != spectrum.B:
        raise DomainError(
            f"sequence endpoint B={seq.B} differs from spectrum endpoint {spectrum.B}"
        )
    if N is not None and len(N) != spectrum.n:
        raise DomainError(
            f"witness has {len(N)} multiplicities for {spectrum.n} interior spectrum points"
        )
    if N is not None:
        Witness(N, 0)  # Witness's check and message for each multiplicity


@dataclass(frozen=True)
class DeltaProfile:
    """Exact partial-sum gaps δ_m on the checked window, plus the trace residual."""

    checked_indices: Tuple[Tuple[int, Fraction], ...]
    trace_residual: Fraction


# --------------------------------------------------------------------------
# ℤ-indexed layout of a diagonal sequence
# --------------------------------------------------------------------------

class _ZLayout:
    """A diagonal sequence arranged nondecreasing over ℤ.

    Alignment convention: the explicit entries (as represented, after
    normalization) sit at indices 1..M ascending.  The zero side fills
    indices ≤ 0 — exact zeros, or the geometric tail with element t at index
    −t.  The b side fills indices > M — exact Bs, or tail element t at index
    M+1+t.  The representation is the alignment: materializing tail elements
    into the explicit part shifts the indexing, and witnesses are relative to
    the representation they were computed against.

    excess = lim_m (Σ_{i≤m} d_i − B·m): the zero side's mass plus Σ explicit,
    minus B·M and the b side's distance mass.
    """

    def __init__(self, seq: DiagonalSequence):
        self.B = seq.B
        self.mid = seq.explicit
        self.sums = seq._prefix
        M = len(self.mid)

        if isinstance(seq.zero_tail, GeometricTail):
            if seq.zero_count != 0:
                raise DomainError(
                    "a sequence with both exact zeros and a zero tail has no "
                    "nondecreasing ℤ-indexed arrangement"
                )
            self.left: Optional[GeometricTail] = seq.zero_tail
            if M and seq.zero_tail.first > self.mid[0]:
                raise DomainError(
                    f"zero-tail element {seq.zero_tail.first} exceeds the smallest "
                    f"explicit entry {self.mid[0]}; materialize the tail first"
                )
        elif seq.zero_tail is None and seq.zero_count is INF:
            self.left = None
        else:
            raise DomainError(
                "the zero side must be a geometric tail (with zero_count 0) or "
                "infinitely many exact zeros (with no tail) to index over ℤ"
            )

        if isinstance(seq.b_tail, GeometricTail):
            if seq.b_count != 0:
                raise DomainError(
                    "a sequence with both exact Bs and a b-tail has no "
                    "nondecreasing ℤ-indexed arrangement"
                )
            self.right: Optional[GeometricTail] = seq.b_tail
            if M and self.B - seq.b_tail.first < self.mid[-1]:
                raise DomainError(
                    f"b-tail element {self.B - seq.b_tail.first} is below the largest "
                    f"explicit entry {self.mid[-1]}; materialize the tail first"
                )
            if not M and self.left is not None and seq.zero_tail.first > self.B - seq.b_tail.first:
                raise DomainError("zero-tail elements exceed b-tail elements")
        elif seq.b_tail is None and seq.b_count is INF:
            self.right = None
        else:
            raise DomainError(
                "the b side must be a geometric tail (with b_count 0) or "
                "infinitely many exact Bs (with no tail) to index over ℤ"
            )
        self.excess = self.prefix(M) - self.B * M - (self.right.total() if self.right is not None else 0)

    def prefix(self, m: int) -> Fraction:
        """Σ_{i≤m} d_i, exact; the explicit part is read from the sequence's
        integer prefix sums and each tail contributes a closed form."""
        if m <= 0:
            return self.left.tail_sum_from(-m) if self.left is not None else Fraction(0)
        (Q, _, P), M = self.sums, len(self.mid)
        total = self.prefix(0) + Fraction(P[min(m, M)], Q)
        if m > M:
            count = m - M
            total += self.B * count
            if self.right is not None:
                total -= self.right.head_sum(count)
        return total

    def entries(self, start: int, count: int) -> List[Fraction]:
        """d_start, …, d_{start+count−1}, exact.  A tail is read from its first
        element in the range on, and exact 0s and Bs are constants."""
        M, stop = len(self.mid), start + count
        low = max(0, min(stop, 1) - start)  # indices start … start+low−1 are ≤ 0
        high = max(0, stop - max(start, M + 1))  # the last `high` indices are > M
        zeros, bs = [Fraction(0)] * low, [self.B] * high
        if self.left is not None and low:
            # index i ≤ 0 holds element −i, so these are elements 1−start−low … −start reversed
            zeros = self.left.drop(1 - start - low)._head(low)[::-1]
        if self.right is not None and high:
            bs = [self.B - x for x in self.right.drop(max(start - M - 1, 0))._head(high)]
        return [*zeros, *self.mid[max(start, 1) - 1 : max(0, min(stop - 1, M))], *bs]


def _weighted_sum(spectrum: SpectrumSpec, N: Sequence[int]) -> Fraction:
    return sum(
        (a * nj for a, nj in zip(spectrum.interior, N)), Fraction(0)
    )


# --------------------------------------------------------------------------
# Interior majorization, partial-sum (Riemann) form
# --------------------------------------------------------------------------

def riemann_check(
    seq: DiagonalSequence, spectrum: SpectrumSpec, witness: Witness
) -> Tuple[bool, DeltaProfile]:
    """Decide δ_m = Σ_{i≤m}(d_i − λ_i) ≥ 0 for all m with lim δ_m = 0, exactly.

    λ is the nondecreasing step sequence of (spectrum, witness): λ_i = 0 for
    i ≤ k, then A_r on N_r indices for r = 1, …, n in turn, then λ_i = B for
    i > k+σ_n.  witness.k is its shift in the canonical alignment (explicit
    entries at indices 1..M).  The limit condition is the vanishing of the
    closed-form trace residual; the sign condition is checked on the window
    m ∈ {k, …, k+σ_n} only, which suffices:

      * left of the window λ_i = 0, so δ_m = Σ_{i≤m} d_i ≥ 0 holds for free;
      * right of the window λ_i = B, so δ_m = residual + Σ_{i>m}(B − d_i),
        which is ≥ 0 for every m exactly when the residual is ≥ 0 — and the
        residual must be 0 anyway for the limit condition.

    Right of the window Σ_{i≤m} λ_i = Σ A_j N_j + B·(m − k − σ_n), so the
    limit of δ_m, the trace residual, is excess − Σ A_j N_j + B·(k + σ_n)
    with the layout's excess.  The window is one running sum:
    δ_k = Σ_{i≤k} d_i, and each later δ_m adds d_m − λ_m.  A randomized
    full-window cross-check of this reduction lives in the tests.
    """
    _require_compatible(seq, spectrum)
    layout = _ZLayout(seq)  # a sequence with no ℤ layout is refused before a wrong-length witness
    _require_compatible(seq, spectrum, witness.N)

    k, sigma = witness.k, witness.sigma_total
    residual = layout.excess - _weighted_sum(spectrum, witness.N) + seq.B * (k + sigma)

    lam = [a for a, nr in zip(spectrum.interior, witness.N) for _ in range(nr)]
    steps = (d - a for d, a in zip(layout.entries(k + 1, sigma), lam))
    checked = tuple(zip(range(k, k + sigma + 1), accumulate(steps, initial=layout.prefix(k))))
    ok = residual == 0 and all(d >= 0 for _, d in checked)
    return ok, DeltaProfile(checked, residual)


def canonical_shift(
    seq: DiagonalSequence, spectrum: SpectrumSpec, N: Sequence[int]
) -> Optional[int]:
    """The unique step-sequence shift making the trace residual vanish:
    k = (Σ A_j N_j − excess)/B − σ_n, with the excess of the ℤ layout.

    Returns None when that k is not an integer (then riemann_check fails at
    every shift: a shift moves the residual by a multiple of B, and the
    residual is not one).
    """
    _require_compatible(seq, spectrum)
    layout = _ZLayout(seq)
    _require_compatible(seq, spectrum, N)
    k = (_weighted_sum(spectrum, N) - layout.excess) / seq.B - sum(N)
    return k.numerator if k.denominator == 1 else None


# --------------------------------------------------------------------------
# Finite majorization
# --------------------------------------------------------------------------

def check_finite_majorization(d: Sequence, lam: Sequence) -> bool:
    """Classical majorization: equal totals and, after sorting both
    nonincreasing, every prefix sum of d bounded by the prefix sum of λ."""
    if len(d) != len(lam):
        raise DomainError(f"length mismatch: {len(d)} diagonal vs {len(lam)} eigenvalues")
    run_d = list(accumulate(sorted((Fraction(x) for x in d), reverse=True)))
    run_l = list(accumulate(sorted((Fraction(x) for x in lam), reverse=True)))
    return all(x <= y for x, y in zip(run_d, run_l)) and run_d[-1:] == run_l[-1:]


def check_finite_rank_tail(seq: DiagonalSequence, lam: Sequence) -> bool:
    """Majorization for a summable diagonal against finitely many positive
    eigenvalues.

    True iff the totals agree and, for every m < len(lam), the m largest
    diagonal entries sum to at most the m largest eigenvalues — the finite-
    rank analogue of the prefix condition, stated equivalently through tail
    sums.  Only the multiset of λ matters, not its order.
    """
    if seq.b_count != 0 or seq.b_tail is not None:
        raise DomainError("finite-rank test needs a sequence with no mass at B")
    if isinstance(seq.zero_tail, DivergentTail):
        raise DomainError("finite-rank test needs a summable diagonal")
    ll = sorted((Fraction(x) for x in lam), reverse=True)
    if any(x <= 0 for x in ll):
        raise DomainError("eigenvalues must be positive")
    n_eigs = len(ll)

    total_d = sum(seq.explicit, Fraction(0))
    if isinstance(seq.zero_tail, GeometricTail):
        total_d += seq.zero_tail.total()
    if total_d != sum(ll, Fraction(0)):
        return False

    # Only the n_eigs largest diagonal entries matter; a geometric tail's
    # largest elements are its first ones.
    head = list(seq.explicit)
    if isinstance(seq.zero_tail, GeometricTail):
        head += seq.zero_tail._head(n_eigs)
    head.sort(reverse=True)
    run_d, run_l = Fraction(0), Fraction(0)
    for m in range(n_eigs - 1):
        run_d += head[m] if m < len(head) else Fraction(0)
        run_l += ll[m]
        if run_d > run_l:
            return False
    return True
