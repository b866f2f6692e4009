"""Constructive realizations: symmetric matrices with prescribed spectrum and
diagonal.

The finite engine is the classical Givens-rotation construction (Chan-Li):
repeatedly rotate a 2x2 block so one coordinate lands exactly on its target
diagonal value.  All diagonal bookkeeping is exact integers over one common
denominator Q per finite problem, and every float is one correctly rounded
int division (v / Q), so it equals the float of the same rational.  Floats
enter only through rotation cosines, and every finished diagonal entry is
assigned from its exact value, so diagonals of constructed matrices match
their targets bit for bit.

Truncated realizations of doubly infinite diagonals materialize tail
prefixes, pack the remaining tail mass into interior-safe entries, balance
with exact 0/B entries, and split the finite problem along a minimizing
partial-sum index; a water-fill mass move makes the split exact and is then
undone by explicit 2x2 rotations mixing the finished blocks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .errors import ConstructionError, DomainError, OutOfScopeError, TruncationTooSmallError
from .majorize import Witness, _require_compatible, _weighted_sum, check_finite_majorization
from .scalars import INF, _scaled
from .sequences import (
    DiagonalSequence,
    DivergentTail,
    GeometricTail,
    SpectrumSpec,
    _trace_residue,
)


def _require(ok: bool, message: str) -> None:
    """Check a construction invariant; unlike assert, kept under python -O."""
    if not ok:
        raise ConstructionError(message)


@dataclass(frozen=True)
class GivensRotation:
    """Record of one applied rotation: coordinates (p, q) and cosine/sine."""

    p: int
    q: int
    c: float
    s: float


class SymmetricMatrix:
    """A real symmetric matrix with provenance and an exact diagonal record.

    entries is finite float64 and symmetric by value (0.0 may face -0.0);
    exact_diagonal, when present, holds the rational values the float
    diagonal was assigned from.
    """

    def __init__(
        self,
        entries,
        provenance: Tuple[GivensRotation, ...] = (),
        exact_diagonal: Optional[Tuple[Fraction, ...]] = None,
    ):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise DomainError("matrix entries are not symmetric")
        if exact_diagonal is not None and len(exact_diagonal) != arr.shape[0]:
            raise DomainError("exact diagonal length differs from matrix dimension")
        self._entries = arr
        self.provenance = tuple(provenance)
        self.exact_diagonal = None if exact_diagonal is None else tuple(exact_diagonal)

    @property
    def dimension(self) -> int:
        return self._entries.shape[0]

    def entry(self, i: int, j: int) -> float:
        return float(self._entries[i, j])

    def as_array(self) -> np.ndarray:
        return self._entries.copy()

    def text_grid(self) -> str:
        """Aligned fixed-point grid for human inspection."""
        cells = [[f"{v: .8f}" for v in row] for row in self._entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


@dataclass(frozen=True)
class RealizationReport:
    diagonal_exact_match: bool
    eigenvalues: Tuple[float, ...]
    spectrum_distance: float
    multiplicities: Tuple[int, ...]
    within_tolerance: bool
    witness_multiplicities_ok: Optional[bool] = None


def _apply_rotation(arr: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    """Conjugate by the rotation acting as [[c, -s], [s, c]] on coordinates (p, q).

    arr must be bitwise symmetric, as every matrix construct builds is: it
    starts from np.zeros and every step keeps mirrored entries equal bit for
    bit.  So the column update of each entry outside the 2x2 block would
    repeat the row update of its mirror: each new row is written as a row and
    a column, and the block gets the rows-then-columns arithmetic in scalar
    floats, with (q, p) set to (p, q), so the result stays bitwise symmetric.
    """
    app, apq, aqq = arr.item(p, p), arr.item(p, q), arr.item(q, q)
    rp = c * arr[p] - s * arr[q]
    rq = s * arr[p] + c * arr[q]
    arr[p] = arr[:, p] = rp
    arr[q] = arr[:, q] = rq
    rpp, rpq = c * app - s * apq, c * apq - s * aqq
    rqp, rqq = s * app + c * apq, s * apq + c * aqq
    arr[p, p] = c * rpp - s * rpq
    arr[p, q] = arr[q, p] = s * rpp + c * rpq
    arr[q, q] = s * rqp + c * rqq


def horn_construct(lam: Sequence, d: Sequence) -> SymmetricMatrix:
    """A symmetric matrix with eigenvalues lam and diagonal exactly d.

    Requires lam to majorize d (checked).  At most len(d) - 1 rotations; each
    step fixes the largest outstanding target either by removing an exactly
    matching working value or by rotating the tightest bracketing pair, whose
    fresh off-diagonal coupling has the exact square c^2 s^2 (alpha - beta)^2
    and is written as a single square root.  Couplings between still-active
    coordinates stay exactly zero throughout.  The result is permuted so the
    diagonal follows d in the caller's order.
    """
    lam = [Fraction(x) for x in lam]
    d = [Fraction(x) for x in d]
    if not check_finite_majorization(d, lam):
        raise DomainError("eigenvalues do not majorize the requested diagonal")
    Q, scaled = _scaled(*lam, *d)
    entries, rotations = _horn(scaled[: len(lam)], scaled[len(lam) :], Q)
    return SymmetricMatrix(entries, tuple(rotations), tuple(d))


def _descending(item: Tuple[int, int]) -> Tuple[int, int]:
    """The sort key of _horn's working list: larger values first, ties by coordinate."""
    return -item[0], item[1]


def _horn(lam: Sequence[int], d: Sequence[int], Q: int) -> Tuple[np.ndarray, List[GivensRotation]]:
    """horn_construct on eigenvalues and targets given as integers over Q:
    the entries and the rotations.  Every float is one int division, so it
    equals the float of the same rational."""
    size = len(d)
    work = sorted(lam, reverse=True)
    entries = np.zeros((size, size))
    for coord, v in enumerate(work):
        entries[coord, coord] = v / Q
    active: List[Tuple[int, int]] = [(v, coord) for coord, v in enumerate(work)]
    order = sorted(range(size), key=lambda i: d[i], reverse=True)
    rotations: List[GivensRotation] = []
    coord_of_position = [0] * size

    for pos in order:
        target = d[pos]
        # active is sorted by (−value, coord): the first working value ≤ target
        below = bisect.bisect_left(active, (-target, -1), key=_descending)
        if below < len(active) and active[below][0] == target:
            _, coord = active.pop(below)
            coord_of_position[pos] = coord
            continue
        # the remaining working values majorize the remaining targets, so a
        # bracketing pair exists whenever there is no exact hit
        _require(0 < below < len(active), "majorization invariant violated")
        alpha, pa = active[below - 1]
        beta, pb = active[below]
        # c² = (τ − β)/(α − β), s² = 1 − c², and the coupling c·s·(α − β)
        c = math.sqrt((target - beta) / (alpha - beta))
        s = math.sqrt((alpha - target) / (alpha - beta))
        _apply_rotation(entries, pa, pb, c, s)
        merged = alpha + beta - target
        entries[pa, pa] = target / Q
        entries[pb, pb] = merged / Q
        off = math.sqrt((target - beta) * (alpha - target) / (Q * Q))
        entries[pa, pb] = off
        entries[pb, pa] = off
        rotations.append(GivensRotation(pa, pb, c, s))
        active.pop(below)
        active.pop(below - 1)
        bisect.insort(active, (merged, pb), key=_descending)
        coord_of_position[pos] = pa
    _require(not active, "working multiset should be exhausted")

    perm = np.array(coord_of_position, dtype=int)
    out_index = {coord: i for i, coord in enumerate(coord_of_position)}
    remapped = [GivensRotation(out_index[r.p], out_index[r.q], r.c, r.s) for r in rotations]
    return entries[np.ix_(perm, perm)], remapped


# --------------------------------------------------------------------------
# Water-fill mass moves
# --------------------------------------------------------------------------

Exact = TypeVar("Exact", int, Fraction)


def _water_fill(
    values: Sequence[Exact],
    B: Exact,
    donors: Sequence[int],
    recipients: Sequence[int],
    eta: Exact,
) -> Tuple[List[Exact], List[Tuple[int, int, Exact]]]:
    """Move total mass eta out of donor positions (taken in the given order,
    each emptied to 0 before the next) into recipient positions (each filled
    to B before the next).  Returns the new values and the transfer list
    [(donor, recipient, amount)] in event order.  The assembly runs it on
    integers over one denominator; on rationals it moves the same mass."""
    new = list(values)
    transfers: List[Tuple[int, int, Exact]] = []
    _require(eta >= 0, "mass to move must be nonnegative")
    if eta == 0:
        return new, transfers
    _require(eta <= sum(new[i] for i in donors), "donor entries cannot supply the requested mass")
    _require(eta <= sum(B - new[j] for j in recipients), "recipient entries cannot absorb the requested mass")
    remaining = eta
    di, ri = 0, 0
    while remaining > 0:
        while new[donors[di]] == 0:
            di += 1
        while new[recipients[ri]] == B:
            ri += 1
        i, j = donors[di], recipients[ri]
        amt = min(new[i], B - new[j], remaining)
        new[i] -= amt
        new[j] += amt
        transfers.append((i, j, amt))
        remaining -= amt
    return new, transfers


# --------------------------------------------------------------------------
# Steering rotations (exact diagonal targets in the presence of couplings)
# --------------------------------------------------------------------------

def _steer(
    arr: np.ndarray,
    p: int,
    q: int,
    x: int,
    y: int,
    target: int,
    Q: int,
) -> GivensRotation:
    """Rotate coordinates (p, q) so the (p, p) entry becomes target and the
    (q, q) entry becomes x + y − target, with x, y the current exact diagonal
    values, all integers over Q.  Unlike the fresh-pair case, the (p, q)
    coupling β = bn/bd (the float's exact ratio) may be nonzero; the rotation
    parameter solves t²(y−τ) − 2βt + (x−τ) = 0, whose discriminant
    β² − (y−τ)(x−τ) = (bn²Q² − a·b·bd²)/(bd²Q²) has an exact integer
    numerator, positive because x < τ < y (a > 0 > b; anything else raises
    ConstructionError before arr is touched).  Both new diagonal entries are
    assigned exactly.

    _assemble_split meets x < τ < y: it undoes a water fill from donors i
    into recipients j > i of an ascending diagonal, each transfer moving
    amt > 0, in reverse order.  So at each undo x = x₀ − amt, y = y₀ + amt
    and τ = x₀ with x₀ ≤ G_i ≤ G_j ≤ y₀ (donors only lose mass, recipients
    only gain it), which gives b = −amt < 0 and a = y₀ − x₀ + amt > 0.
    """
    bn, bd = arr[p, q].as_integer_ratio()
    a = y - target
    b = x - target
    _require(a > 0 > b, "a steering target must lie strictly between the two diagonal values")
    root = math.sqrt((bn * bn * Q * Q - a * b * bd * bd) / (bd * bd * Q * Q))
    af, bf = a / Q, bn / bd
    t1 = (bf + root) / af
    t2 = (bf - root) / af
    t = t1 if abs(t1) <= abs(t2) else t2
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    _apply_rotation(arr, p, q, c, s)
    arr[p, p] = target / Q
    arr[q, q] = (x + y - target) / Q
    return GivensRotation(p, q, c, s)


# --------------------------------------------------------------------------
# Truncated realization of doubly infinite diagonals
# --------------------------------------------------------------------------

@dataclass
class _FiniteProblem:
    Q: int                     # common denominator of B, G, Lam and deltas
    B: int                     # B·Q
    G: List[int]               # target diagonal ·Q, ascending
    Lam: List[int]             # eigenvalue list ·Q, ascending
    M0: int                    # zero-block length in Lam
    sigma: int                 # total interior multiplicity
    deltas: List[int]          # deltas[m] = sum_{i<=m} (G_i - Lam_i), m = 0..L
    exact: Tuple[Fraction, ...] = ()  # G/Q as rationals, the record of the matrix


def _pack(tail: GeometricTail, T: int, cap: Fraction) -> List[Fraction]:
    """Distances from the tail's endpoint: its first T elements, then the
    remaining mass split evenly over the fewest entries of at most cap."""
    heads = tail._head(T + 1)
    rem = GeometricTail(heads.pop(), tail.ratio).total()  # first·ratio^T / (1 − ratio)
    count = -(-rem // cap)  # ceil
    return heads + [rem / count] * count


def _build_problem(
    seq: DiagonalSequence,
    spectrum: SpectrumSpec,
    witness: Witness,
    T: int,
    lowcut: Fraction,
    highcut: Fraction,
) -> Optional[_FiniteProblem]:
    """Assemble the exact finite majorization problem at truncation level T,
    for a witness that balances the trace and a level at which every tail
    element left out lies below the packing cutoff (lowcut from 0, B −
    highcut from B), scaled to integers by the lcm Q of the denominators of
    B, the spectrum points and the packed diagonal.  Returns None when a
    partial-sum gap is negative.
    """
    B = seq.B
    sigma = witness.sigma_total
    Y: List[Fraction] = list(seq.explicit)
    if isinstance(seq.zero_tail, GeometricTail):
        Y += _pack(seq.zero_tail, T, lowcut / 2)
    if isinstance(seq.b_tail, GeometricTail):
        Y += [B - v for v in _pack(seq.b_tail, T, (B - highcut) / 2)]
    Q, (qB, *scaled) = _scaled(B, *spectrum.interior, *Y)
    qa, qY = scaled[: spectrum.n], scaled[spectrum.n :]
    order = sorted(range(len(Y)), key=qY.__getitem__)
    kappa = (sum(qY) - sum(a * nj for a, nj in zip(qa, witness.N))) // qB

    zmin = seq.zero_count if seq.zero_count is not INF else 0
    wmin = seq.b_count if seq.b_count is not INF else 0
    z = max(zmin, 1 - (len(Y) - sigma - kappa), 0)
    w = max(wmin, 1 - kappa, 0)
    M0 = z + len(Y) - sigma - kappa
    M_top = w + kappa
    _require(M0 >= 1 and M_top >= 1, "both endpoint blocks must be nonempty")

    G = [0] * z + [qY[i] for i in order] + [qB] * w
    Lam = [0] * M0 + [a for a, nj in zip(qa, witness.N) for _ in range(nj)] + [qB] * M_top
    L = len(G)
    _require(len(Lam) == L, "eigenvalue list must match the diagonal length")

    deltas = [0, *accumulate(g - l for g, l in zip(G, Lam))]
    _require(deltas[L] == 0, "totals must balance by construction")
    if any(dm < 0 for dm in deltas):
        return None
    exact = (Fraction(0),) * z + tuple(Y[i] for i in order) + (B,) * w
    return _FiniteProblem(Q, qB, G, Lam, M0, sigma, deltas, exact)


def _assemble_split(prob: _FiniteProblem, m0: int) -> Tuple[np.ndarray, List[GivensRotation]]:
    """Window minimum at m0: drain delta_{m0} from the bottom into the top,
    split into two finite constructions at m0, undo the move.  At the right
    end m0 = M0 + sigma the top block fills to exact Bs, and _horn builds it
    with no rotation."""
    L = len(prob.G)
    Q = prob.Q
    donors = list(range(prob.M0))
    recipients = list(range(L - 1, prob.M0 + prob.sigma - 1, -1))
    newG, transfers = _water_fill(prob.G, prob.B, donors, recipients, prob.deltas[m0])

    entries = np.zeros((L, L))
    entries[:m0, :m0], rotations = _horn(prob.Lam[:m0], newG[:m0], Q)
    entries[m0:, m0:], upper = _horn(prob.Lam[m0:], newG[m0:], Q)
    rotations += [GivensRotation(r.p + m0, r.q + m0, r.c, r.s) for r in upper]
    exact = list(newG)
    for i, j, amt in reversed(transfers):
        x, y = exact[i], exact[j]
        rotations.append(_steer(entries, i, j, x, y, x + amt, Q))
        exact[i] = x + amt
        exact[j] = y - amt
    _require(exact == prob.G, "undoing the transfers must restore the diagonal")
    return entries, rotations


def _assemble(prob: _FiniteProblem) -> SymmetricMatrix:
    window = prob.deltas[prob.M0 : prob.M0 + prob.sigma + 1]
    m0_off = min(range(len(window)), key=lambda i: (window[i], i))
    m0 = prob.M0 + m0_off
    if prob.deltas[m0] == prob.deltas[prob.M0 + prob.sigma]:
        entries, rotations = _assemble_split(prob, prob.M0 + prob.sigma)
    elif m0 == prob.M0:
        # minimum at the left end only: reflect d_i -> B - d_{-i}, which sends
        # delta_m to delta_{L-m} and the left end to the right end, solve at
        # the right end, and pull back through M -> B·I − M.
        L = len(prob.G)
        refl = replace(
            prob,
            G=[prob.B - g for g in reversed(prob.G)],
            Lam=[prob.B - l for l in reversed(prob.Lam)],
            M0=L - prob.M0 - prob.sigma,
            deltas=[prob.deltas[L - m] for m in range(L + 1)],
        )
        rwindow = refl.deltas[refl.M0 : refl.M0 + refl.sigma + 1]
        _require(
            refl.deltas[refl.M0 + refl.sigma] == min(rwindow),
            "the reflected window minimum must sit at its right end",
        )
        mirrored, reflected = _assemble_split(refl, refl.M0 + refl.sigma)
        rev = np.arange(L - 1, -1, -1)
        entries = (prob.B / prob.Q * np.eye(L) - mirrored)[np.ix_(rev, rev)]
        for i, g in enumerate(prob.G):
            entries[i, i] = g / prob.Q
        rotations = [GivensRotation(L - 1 - r.p, L - 1 - r.q, r.c, r.s) for r in reflected]
    else:
        entries, rotations = _assemble_split(prob, m0)
    return SymmetricMatrix(entries, tuple(rotations), prob.exact)


def realize_truncated(
    seq: DiagonalSequence, spectrum: SpectrumSpec, witness: Witness, T: int
) -> SymmetricMatrix:
    """A finite symmetric matrix whose eigenvalues all lie in the spectrum set
    (interior points with exactly the witness multiplicities) and whose
    diagonal consists of the explicit entries, the first T elements of each
    geometric tail, the remaining tail mass packed into interior-safe
    entries, and balancing exact 0/B entries.

    Builds one finite problem, at level max(T, first): first is the least
    level whose left-out tail elements all lie below the packing cutoff
    (lowcut = A_1 from 0, B − highcut = B − A_n from B), read in closed form.
    That build decides every level ≥ first.  There each packed or left-out
    element lies below the cutoff, and the packed entries carry the left-out
    mass, so C(a) and D(a) at each interior spectrum point a are those of
    the infinite sequence; finite Schur–Horn for a step eigenvalue list
    (Chan–Li 1983) reduces to the same threshold inequalities.  So the
    partial-sum gaps are nonnegative at one such level iff at all of them,
    iff lebesgue_check holds.

    Raises OutOfScopeError on a divergent tail, and TruncationTooSmallError
    when level T does not suffice: ``minimal`` is first when that build
    succeeds above T, and None when the trace congruence or a mass bound fails.
    """
    _require_compatible(seq, spectrum, witness.N)
    if not isinstance(T, int) or isinstance(T, bool) or T < 0:
        raise DomainError(f"truncation level must be an integer ≥ 0, got {T!r}")
    if isinstance(seq.zero_tail, DivergentTail) or isinstance(seq.b_tail, DivergentTail):
        raise OutOfScopeError("divergent tails admit no finite truncation")

    lowcut = spectrum.points[1] if spectrum.n >= 1 else spectrum.B / 2
    highcut = spectrum.points[-2] if spectrum.n >= 1 else spectrum.B / 2

    if (_trace_residue(seq) - _weighted_sum(spectrum, witness.N)) % seq.B:
        raise TruncationTooSmallError(
            "the trace equation has no integer solution for this sequence and "
            "witness; no truncation level can balance it",
            minimal=None,
        )
    level = T
    if isinstance(seq.zero_tail, GeometricTail):
        level = max(level, seq.zero_tail.count_at_least(lowcut))
    if isinstance(seq.b_tail, GeometricTail):
        level = max(level, seq.b_tail.count_at_least(seq.B - highcut))
    prob = _build_problem(seq, spectrum, witness, level, lowcut, highcut)
    if prob is None:
        raise TruncationTooSmallError(
            "the witness fails a mass bound for this sequence; no truncation "
            "level can realize it",
            minimal=None,
        )
    if level > T:
        raise TruncationTooSmallError(
            f"truncation level T={T} is too small for an exact realization; "
            f"the smallest sufficient level is T={level}",
            minimal=level,
        )
    return _assemble(prob)


def verify_realization(
    matrix: SymmetricMatrix,
    spectrum: SpectrumSpec,
    expected_diagonal: Sequence,
    witness: Optional[Witness] = None,
    tol: float = 1e-8,
) -> RealizationReport:
    """Check a realization numerically: diagonal match (bitwise on floats, and
    exact against the record when the matrix carries one), eigenvalue
    distance to the spectrum set, and per-point multiplicities by nearest
    spectrum point.  With a witness, interior multiplicities must equal its N
    and both endpoint multiplicities must be positive."""
    diag_ok = _diagonal_matches(matrix, expected_diagonal)
    return _spectrum_report(matrix.as_array(), spectrum, diag_ok, witness, tol)


def _diagonal_matches(matrix: SymmetricMatrix, expected_diagonal: Sequence) -> bool:
    expected = tuple(expected_diagonal)  # rationals, or floats as verify reads them
    if len(expected) != matrix.dimension:
        raise DomainError("expected diagonal length differs from matrix dimension")
    # every entry is converted, so one past the float range raises wherever it is
    floats_ok = np.array_equal(np.array([float(e) for e in expected]), np.diagonal(matrix._entries))
    return floats_ok and matrix.exact_diagonal in (None, expected)


def _spectrum_report(arr, spectrum: SpectrumSpec, diag_ok: bool, witness, tol) -> RealizationReport:
    """The eigenvalue checks of verify_realization on arr, in the frame of the
    spectrum, with the diagonal verdict carried through."""
    eigs = np.linalg.eigvalsh(arr) if len(arr) else np.zeros(0)
    pts = np.array([float(p) for p in spectrum.points])
    # nearest point per eigenvalue; argmin sends a tie to the lower point
    gaps = np.abs(eigs[:, None] - pts)
    mult = np.bincount(gaps.argmin(axis=1), minlength=len(pts)).tolist()
    dist = float(gaps.min(axis=1).max(initial=0.0))
    witness_ok = None if witness is None else (
        tuple(mult[1:-1]) == witness.N and mult[0] >= 1 and mult[-1] >= 1
    )
    eigenvalues = tuple(float(e) for e in eigs)
    return RealizationReport(diag_ok, eigenvalues, dist, tuple(mult), dist <= tol, witness_ok)
