"""Matrix constructions: Schur-Horn assembly, mass moves, truncations."""

import bisect
import functools
import hashlib
import math
from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from findiag import (
    INF,
    ConstructionError,
    DiagonalSequence,
    DivergentTail,
    DomainError,
    GeometricTail,
    GivensRotation,
    OutOfScopeError,
    SpectrumSpec,
    SymmetricMatrix,
    TruncationTooSmallError,
    Witness,
    horn_construct,
    lebesgue_check,
    realize_truncated,
    verify_realization,
)
from findiag.cli import main
from findiag.construct import _apply_rotation, _build_problem, _horn, _steer, _water_fill
from findiag.scalars import _scaled
from findiag.sequences import _trace_residue

from conftest import random_fraction, random_spectrum, robin_hood_pair

F = Fraction


def test_symmetric_matrix_validation():
    with pytest.raises(DomainError):
        SymmetricMatrix(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        SymmetricMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(DomainError):
        SymmetricMatrix(np.eye(2), exact_diagonal=(F(1),))


@pytest.mark.parametrize(
    "rows", [[[np.nan]], [[np.inf, 0.0], [0.0, 1.0]], [[0.0, -np.inf], [-np.inf, 1.0]]]
)
def test_symmetric_matrix_rejects_non_finite_entries(rows):
    # checked before symmetry: NaN faces itself, but the fault is its value
    with pytest.raises(DomainError, match="finite"):
        SymmetricMatrix(rows)


def test_symmetric_matrix_text_grid():
    m = SymmetricMatrix(np.array([[1.0, 0.5], [0.5, 0.25]]))
    grid = m.text_grid()
    assert "1.00000000" in grid and "0.25000000" in grid
    assert len(grid.splitlines()) == 2


def test_horn_two_by_two_exact():
    m = horn_construct([F(0), F(2)], [F(1), F(1)])
    assert m.as_array().tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert m.exact_diagonal == (F(1), F(1))


def test_horn_three_equal_targets():
    m = horn_construct([F(0), F(1), F(1)], [F(2, 3)] * 3)
    assert m.exact_diagonal == (F(2, 3),) * 3
    assert np.allclose(np.diag(m.as_array()), 2 / 3, atol=0)
    eigs = np.linalg.eigvalsh(m.as_array())
    assert np.allclose(sorted(eigs), [0.0, 1.0, 1.0], atol=1e-10)


def test_horn_identity_when_targets_equal_spectrum():
    lam = [F(1, 4), F(1, 2), F(3, 4)]
    m = horn_construct(lam, lam)
    assert m.provenance == ()
    assert np.array_equal(m.as_array(), np.diag([0.25, 0.5, 0.75]))


def test_horn_requires_majorization():
    with pytest.raises(DomainError):
        horn_construct([F(1), F(1)], [F(0), F(2)])
    with pytest.raises(DomainError):
        horn_construct([F(0), F(2)], [F(1)])  # length mismatch


def test_horn_randomized_against_eigensolver():
    rng = Random(1234)
    for _ in range(120):
        n = rng.randint(2, 8)
        lam, d = robin_hood_pair(rng, n)
        m = horn_construct(lam, d)
        assert m.exact_diagonal == tuple(d)
        assert sum(m.exact_diagonal) == sum(lam)  # trace is exact
        arr = m.as_array()
        assert np.array_equal(arr, arr.T)
        np.testing.assert_allclose(np.diag(arr), [float(x) for x in d], atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(arr))
        np.testing.assert_allclose(
            eigs, np.sort([float(x) for x in lam]), atol=1e-8
        )


def test_horn_order_of_targets_is_respected():
    # caller's diagonal order is preserved, not sorted
    d = [F(3, 4), F(1, 4), F(1, 2)]
    m = horn_construct([F(0), F(1, 2), F(1)], d)
    assert m.exact_diagonal == tuple(d)


def rows_then_columns(arr, p, q, c, s):
    """The rotation update _apply_rotation replaced, kept as its oracle: new
    rows, then new columns from them, then (q, p) mirrored from (p, q)."""
    rp = c * arr[p] - s * arr[q]
    rq = s * arr[p] + c * arr[q]
    arr[p] = rp
    arr[q] = rq
    cp = c * arr[:, p] - s * arr[:, q]
    cq = s * arr[:, p] + c * arr[:, q]
    arr[:, p] = cp
    arr[:, q] = cq
    arr[q, p] = arr[p, q]


# Entries of the seeded matrices: signed zeros, subnormals, values in the
# band dump_json respells (1e-9 <= |v| < 1e-4, |v| >= 1e16), and ordinary ones.
_ROTATION_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.1e-308, 3.2e-7, -1e-9, 9.99e-5, -2.5e17, 0.5, -0.1, 1.0]


def _bitwise_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Upper triangle drawn from _ROTATION_ENTRIES and random normals, copied
    bit for bit below the diagonal, so -0.0 faces -0.0."""
    pool = np.array(_ROTATION_ENTRIES + rng.normal(size=8).tolist())
    upper = rng.choice(pool, size=(n, n))
    return np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)


def _rotation_pairs(rng: np.random.Generator, n: int):
    """(p, q) at both ends, adjacent in both orders, and one random pair."""
    p, q = rng.choice(n, size=2, replace=False).tolist()
    return [(0, n - 1), (n - 1, 0), (0, 1), (1, 0), (n - 2, n - 1), (n - 1, n - 2), (p, q)]


def test_rotation_matches_the_rows_then_columns_update_bit_for_bit():
    rng = np.random.default_rng(33)
    checked = 0
    for n in (2, 3, 4, 7, 12):
        for _ in range(40):
            arr = _bitwise_symmetric(rng, n)
            oracle = arr.copy()
            for p, q in _rotation_pairs(rng, n):
                theta = rng.uniform(-math.pi, math.pi)
                c, s = math.cos(theta), math.sin(theta)
                _apply_rotation(arr, p, q, c, s)
                rows_then_columns(oracle, p, q, c, s)
                assert arr.tobytes() == oracle.tobytes()
                assert arr.tobytes() == arr.T.copy().tobytes()
                checked += 1
    # the rotation by c = 1, s = 0 and by a quarter turn, on signed zeros
    arr = np.array([[-0.0, 0.0, -0.0], [0.0, 5e-324, -0.0], [-0.0, -0.0, 0.0]])
    oracle = arr.copy()
    for c, s in [(1.0, 0.0), (0.0, 1.0), (1.0, -0.0), (-0.0, -1.0)]:
        _apply_rotation(arr, 0, 2, c, s)
        rows_then_columns(oracle, 0, 2, c, s)
        assert arr.tobytes() == oracle.tobytes()
    assert checked == 5 * 40 * 7


# The rational construction the integer one replaced, kept as the oracle for
# it: the same steps with every quantity a Fraction and every float taken
# through float(Fraction).


def rational_horn(lam, d):
    """horn_construct in Fraction arithmetic: the entries and the rotations."""
    lam = [F(x) for x in lam]
    d = [F(x) for x in d]
    size = len(d)
    work = sorted(lam, reverse=True)
    entries = np.zeros((size, size))
    for coord, v in enumerate(work):
        entries[coord, coord] = float(v)
    active = [(v, coord) for coord, v in enumerate(work)]
    order = sorted(range(size), key=lambda i: d[i], reverse=True)
    rotations = []
    coord_of_position = [0] * size
    for pos in order:
        target = d[pos]
        hit = next((idx for idx, (v, _) in enumerate(active) if v == target), None)
        if hit is not None:
            _, coord = active.pop(hit)
            coord_of_position[pos] = coord
            continue
        below = next(idx for idx, (v, _) in enumerate(active) if v < target)
        alpha, pa = active[below - 1]
        beta, pb = active[below]
        c2 = (target - beta) / (alpha - beta)
        c = math.sqrt(float(c2))
        s = math.sqrt(float(1 - c2))
        _apply_rotation(entries, pa, pb, c, s)
        merged = alpha + beta - target
        entries[pa, pa] = float(target)
        entries[pb, pb] = float(merged)
        off = math.sqrt(float(c2 * (1 - c2) * (alpha - beta) * (alpha - beta)))
        entries[pa, pb] = off
        entries[pb, pa] = off
        rotations.append(GivensRotation(pa, pb, c, s))
        active.pop(below)
        active.pop(below - 1)
        bisect.insort(active, (merged, pb), key=lambda t: (-t[0], t[1]))
        coord_of_position[pos] = pa
    perm = np.array(coord_of_position, dtype=int)
    out_index = {int(coord): i for i, coord in enumerate(perm)}
    remapped = [GivensRotation(out_index[r.p], out_index[r.q], r.c, r.s) for r in rotations]
    return entries[np.ix_(perm, perm)], remapped


def rational_steer(arr, p, q, x, y, target):
    """_steer in Fraction arithmetic, with the coupling read as Fraction(float)."""
    beta = Fraction(float(arr[p, q]))
    a = y - target
    b = x - target
    root = math.sqrt(float(beta * beta - a * b))
    af, bf = float(a), float(beta)
    t1 = (bf + root) / af
    t2 = (bf - root) / af
    t = t1 if abs(t1) <= abs(t2) else t2
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    _apply_rotation(arr, p, q, c, s)
    arr[p, p] = float(target)
    arr[q, q] = float(x + y - target)
    return GivensRotation(p, q, c, s)


def _bits(rotations):
    return [(r.p, r.q, r.c.hex(), r.s.hex()) for r in rotations]


def _majorization_pairs(seed: int, count: int):
    """(lam, d) with lam majorizing d, in the caller's order: sizes 0 and 1,
    denominators 64·10^t and 4^t, and transfers of whole gaps, which leave
    targets that hit a working value exactly."""
    rng = Random(seed)
    pairs = [([], []), ([F(3, 7)], [F(3, 7)])]
    while len(pairs) < count:
        n = rng.randint(1, 9)
        den = rng.choice([64 * 10 ** rng.randint(0, 3), 4 ** rng.randint(1, 12)])
        lam = [F(rng.randint(-den, 3 * den), den) for _ in range(n)]
        d = list(lam)
        for _ in range(rng.randint(0, 3 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if d[i] < d[j]:
                i, j = j, i
            share = rng.choice([F(0), F(1), F(1, 2), F(rng.randint(1, den), den)])
            d[i], d[j] = d[i] - (d[i] - d[j]) * share, d[j] + (d[i] - d[j]) * share
        rng.shuffle(d)
        pairs.append((lam, d))
    return pairs


def test_horn_matches_the_rational_construction_bit_for_bit():
    rotated = hits = 0
    for lam, d in _majorization_pairs(seed=31, count=300):
        m = horn_construct(lam, d)
        entries, rotations = rational_horn(lam, d)
        assert m.as_array().tobytes() == entries.tobytes()
        assert _bits(m.provenance) == _bits(rotations)
        assert m.exact_diagonal == tuple(d)
        rotated += bool(rotations)
        hits += len(rotations) < len(d) - 1
    assert rotated >= 150 and hits >= 50


def _steer_case(rng: Random, branch: str):
    """(x, y, τ, β): τ strictly between x and y for "positive", and for the
    other names a target that _steer refuses."""
    den = rng.choice([64 * 10 ** rng.randint(0, 4), 4 ** rng.randint(1, 12), 3 ** rng.randint(1, 9)])
    lo, mid, hi = sorted(F(v, den) for v in rng.sample(range(-den, 2 * den), 3))
    beta = rng.choice([-1, 1]) * rng.random() * 2.0 ** -rng.randint(0, 30)
    if branch == "identity":
        return mid, mid, mid, 0.0
    if branch in ("swap", "coupled"):
        return lo, mid, mid, (0.0 if branch == "swap" else beta)
    if branch == "clipped":  # τ < x < y and β² < (y − τ)(x − τ)
        return mid, hi, lo, beta * float(mid - lo) / 2
    return lo, hi, mid, beta  # x < τ < y


def _steer_start(x, y, beta):
    return np.array([[float(x), beta, 0.25], [beta, float(y), -0.5], [0.25, -0.5, 0.75]])


@pytest.mark.parametrize("branch", ["positive"])
def test_steer_matches_the_rational_steering_bit_for_bit(branch):
    rng = Random(f"steer:{branch}")
    for _ in range(60):
        x, y, target, beta = _steer_case(rng, branch)
        assert x < target < y
        start = _steer_start(x, y, beta)
        ref = start.copy()
        want = rational_steer(ref, 0, 1, x, y, target)
        Q, (qx, qy, qt) = _scaled(x, y, target)
        for m in (1, 6):  # any common denominator gives the same floats
            arr = start.copy()
            got = _steer(arr, 0, 1, qx * m, qy * m, qt * m, Q * m)
            assert arr.tobytes() == ref.tobytes()
            assert _bits([got]) == _bits([want])


@pytest.mark.parametrize("branch", ["identity", "swap", "coupled", "clipped"])
def test_steer_refuses_a_target_outside_the_open_interval(branch):
    # y = τ with or without a coupling, or τ < x < y with a negative
    # discriminant: _assemble_split never asks for these, and _steer raises
    # before it writes anything
    rng = Random(f"steer:{branch}")
    for _ in range(60):
        x, y, target, beta = _steer_case(rng, branch)
        assert not x < target < y
        arr = _steer_start(x, y, beta)
        before = arr.tobytes()
        Q, (qx, qy, qt) = _scaled(x, y, target)
        with pytest.raises(ConstructionError, match="strictly between"):
            _steer(arr, 0, 1, qx, qy, qt, Q)
        assert arr.tobytes() == before


def test_water_fill_on_integers_is_the_rational_fill_times_q():
    rng = Random(17)
    moved = 0
    for _ in range(200):
        B = rng.choice([F(1), F(2), F(3, 2)])
        den = rng.choice([32, 640, 4**7])
        values = [B * F(rng.randint(0, den), den) for _ in range(rng.randint(2, 10))]
        cut = rng.randint(1, len(values) - 1)
        donors = rng.sample(range(len(values)), cut)
        recipients = [j for j in range(len(values)) if j not in donors]
        rng.shuffle(recipients)
        room = min(sum(values[i] for i in donors), sum(B - values[j] for j in recipients))
        eta = room * F(rng.randint(0, 8), 8)
        new, transfers = _water_fill(values, B, donors, recipients, eta)
        Q, (qB, qeta, *qv) = _scaled(B, eta, *values)
        qnew, qtransfers = _water_fill(qv, qB, donors, recipients, qeta)
        assert qnew == [v * Q for v in new]
        assert qtransfers == [(i, j, amt * Q) for i, j, amt in transfers]
        moved += bool(transfers)
    assert moved >= 100


def test_move_mass_noop_at_zero():
    values = [F(1, 4), F(3, 4)]
    assert _water_fill(values, F(1), [0], [1], F(0)) == (values, [])


def test_move_mass_single_pair():
    new, transfers = _water_fill([F(3, 10), F(4, 5)], F(1), [0], [1], F(1, 5))
    assert new == [F(1, 10), F(1)]
    assert transfers == [(0, 1, F(1, 5))]


def test_move_mass_greedy_donor_order():
    # the first donor empties before the next gives: (1/10, 3/10) → (0, 1/5)
    new, transfers = _water_fill([F(1, 10), F(3, 10), F(4, 5)], F(1), [0, 1], [2], F(1, 5))
    assert new == [F(0), F(1, 5), F(1)]
    assert transfers == [(0, 2, F(1, 10)), (1, 2, F(1, 10))]


def test_move_mass_conserves_total():
    rng = Random(9)
    for _ in range(60):
        vals = sorted(F(rng.randint(1, 31), 32) for _ in range(6))
        k = rng.randint(1, 3)
        donors, recipients = list(range(k)), list(range(5, k - 1, -1))
        cap = min(sum(vals[:k]), sum(1 - v for v in vals[k:]))
        eta = cap * F(rng.randint(0, 4), 4)
        new, transfers = _water_fill(vals, F(1), donors, recipients, eta)
        assert sum(new) == sum(vals)
        assert sum(amt for _, _, amt in transfers) == eta
        assert all(0 <= new[i] <= vals[i] for i in donors)
        assert all(vals[j] <= new[j] <= 1 for j in recipients)


def test_move_mass_precondition_errors():
    # only the assembly calls _water_fill, so a broken precondition is a defect
    values = [F(1, 4), F(3, 4)]
    with pytest.raises(ConstructionError):
        _water_fill(values, F(1), [0], [1], F(-1, 8))  # negative mass
    with pytest.raises(ConstructionError):
        _water_fill(values, F(1), [0], [1], F(1))  # exceeds donor capacity
    with pytest.raises(ConstructionError):
        _water_fill([*values, F(3, 4)], F(1), [1, 2], [0], F(1))  # exceeds recipient headroom


def test_realize_dyadic_small_truncations(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    w = Witness((1,), -1)
    for T in (0, 1, 2, 4):
        m = realize_truncated(dyadic, spec, w, T)
        rep = verify_realization(m, spec, m.exact_diagonal, w)
        assert rep.diagonal_exact_match
        assert rep.within_tolerance
        assert rep.witness_multiplicities_ok
        assert rep.spectrum_distance <= 1e-8


def test_realize_diagonal_multiset_contains_tail_heads(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    m = realize_truncated(dyadic, spec, Witness((1,), -1), 3)
    diag = sorted(m.exact_diagonal)
    for v in (F(1, 4), F(1, 8), F(1, 16), F(1, 2), F(3, 4), F(7, 8), F(15, 16)):
        assert v in diag


def test_realize_interior_minimum_case():
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    seq = DiagonalSequence(
        B=F(1), explicit=(F(1, 4), F(3, 8), F(5, 8), F(3, 4)), zero_count=INF, b_count=INF
    )
    w = Witness((2,), -1)
    m = realize_truncated(seq, spec, w, 0)
    rep = verify_realization(m, spec, m.exact_diagonal, w)
    assert m.dimension == 4
    assert rep.diagonal_exact_match and rep.within_tolerance
    assert rep.multiplicities == (1, 2, 1)


def test_realize_left_end_minimum_case():
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    seq = DiagonalSequence(
        B=F(1), explicit=(F(1, 8), F(9, 16), F(5, 8), F(11, 16)), zero_count=INF, b_count=INF
    )
    w = Witness((2,), -2)
    m = realize_truncated(seq, spec, w, 0)
    rep = verify_realization(m, spec, m.exact_diagonal, w)
    assert m.dimension == 4
    assert rep.diagonal_exact_match and rep.within_tolerance
    assert rep.multiplicities == (1, 2, 1)


def test_realize_pure_diagonal_path():
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2), F(1, 2)))
    m = realize_truncated(seq, spec, Witness((2,), -2), 0)
    assert m.exact_diagonal == (F(0), F(1, 2), F(1, 2), F(1))
    arr = m.as_array()
    assert not np.any(arr - np.diag(np.diag(arr)))


def test_realize_right_end_split_keeps_its_bits(dyadic):
    # dyadic at T = 16 splits at the right end (the window minimum sits at
    # M0 + sigma), where the top block's eigenvalues and targets are all B:
    # _horn then hits every target, rotates nothing and writes B·I; the
    # digests pin the matrix and its rotations bit for bit
    B, Q = 3, 4
    block, rotations = _horn([B] * 5, [B] * 5, Q)
    assert rotations == [] and block.tobytes() == (B / Q * np.eye(5)).tobytes()
    m = realize_truncated(dyadic, SpectrumSpec((F(0), F(1, 2), F(1))), Witness((1,), -1), 16)
    prov = repr([(r.p, r.q, r.c.hex(), r.s.hex()) for r in m.provenance]).encode()
    assert hashlib.sha256(m.as_array().tobytes()).hexdigest() == (
        "35fb197c84cd74652b7a53617a25925b9f8f80f10f910b5fb4998d92f9fcda1d"
    )
    assert hashlib.sha256(prov).hexdigest() == (
        "2f9c8c64b619fff2bf986f845275f017c87d6a3c6a9d996d23110e1c615ce3e9"
    )


def test_realize_truncation_too_small_with_minimal():
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    seq = DiagonalSequence(
        B=F(1),
        zero_tail=GeometricTail(F(1, 2), F(1, 2)),  # leading element sits at A_1
        b_tail=GeometricTail(F(1, 4), F(1, 2)),
    )
    with pytest.raises(TruncationTooSmallError) as exc:
        realize_truncated(seq, spec, Witness((1,), -1), 0)
    assert exc.value.minimal == 1
    # and the reported minimal truncation indeed works
    m = realize_truncated(seq, spec, Witness((1,), -1), 1)
    rep = verify_realization(m, spec, m.exact_diagonal, Witness((1,), -1))
    assert rep.within_tolerance and rep.diagonal_exact_match


def test_realize_trace_imbalance_has_no_minimal(dyadic):
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    with pytest.raises(TruncationTooSmallError) as exc:
        realize_truncated(dyadic, spec, Witness((2,), -1), 4)
    assert exc.value.minimal is None


def _planted_cases(seed: int, count: int, feasible: bool = True):
    """(sequence, spectrum, witness) with N passing the threshold-statistic
    check, or with feasible=False failing it: one explicit entry is chosen so
    the trace residue matches Σ A_j N_j, so an infeasible N fails a mass
    bound.  Each side has a geometric tail (ratio up to 9/10, leading element
    up to B/2, often past the packing cutoff) or infinitely many exact
    endpoints."""
    rng = Random(seed)
    found = []
    while len(found) < count:
        B = rng.choice([F(1), F(2), F(3, 2)])
        spec = random_spectrum(rng, B, rng.randint(1, 3))
        N = tuple(rng.randint(1, 2) if feasible else rng.randint(3, 8) for _ in spec.interior)
        sides = {}
        for tail, ends in (("zero_tail", "zero_count"), ("b_tail", "b_count")):
            if rng.random() < 0.25:
                sides[ends] = INF
            else:
                ratio = rng.choice([F(1, 3), F(1, 2), F(2, 3), F(4, 5), F(9, 10)])
                sides[tail] = GeometricTail(random_fraction(rng, B / 64, B / 2), ratio)
        explicit = tuple(random_fraction(rng, B / 8, B - B / 8, den=32) for _ in range(rng.randint(0, 3)))
        seq = DiagonalSequence(B, explicit, **sides)
        fix = (sum(a * n for a, n in zip(spec.interior, N)) - _trace_residue(seq)) % B
        seq = DiagonalSequence(B, explicit + (fix,), **sides)
        witness = Witness(N, 0)  # k plays no part in a realization
        if lebesgue_check(seq, spec, witness) == feasible:
            found.append((seq, spec, witness))
    return found


def _cutoff_level(seq: DiagonalSequence, spec: SpectrumSpec) -> int:
    """The least level whose left-out tail elements all lie below the
    packing cutoff (A_1 from 0, B − A_n from B)."""
    level = 0
    if isinstance(seq.zero_tail, GeometricTail):
        level = max(level, seq.zero_tail.count_at_least(spec.points[1]))
    if isinstance(seq.b_tail, GeometricTail):
        level = max(level, seq.b_tail.count_at_least(spec.B - spec.points[-2]))
    return level


@functools.lru_cache(maxsize=None)
def _builds(seq: DiagonalSequence, spec: SpectrumSpec, witness: Witness, level: int) -> bool:
    return _build_problem(seq, spec, witness, level, spec.points[1], spec.points[-2]) is not None


def scanned_level(seq: DiagonalSequence, spec: SpectrumSpec, witness: Witness, T: int):
    """Test-only oracle: the level search that realize_truncated used to run.

    For a witness that balances the trace, build the finite problem at every
    level from max(T, cutoff level) up to T + 256 and return the first level
    whose partial-sum gaps are all nonnegative, or None when none is.  Builds
    are cached, so scans from nearby T share their levels.
    """
    for level in range(max(T, _cutoff_level(seq, spec)), T + 257):
        if _builds(seq, spec, witness, level):
            return level
    return None


def _realized_level(seq: DiagonalSequence, spec: SpectrumSpec, witness: Witness, T: int):
    """T when realize_truncated returns at T, else the minimal level it reports."""
    try:
        realize_truncated(seq, spec, witness, T)
    except TruncationTooSmallError as exc:
        return exc.minimal
    return T


def _holds_tail_heads(m: SymmetricMatrix, seq: DiagonalSequence, T: int) -> bool:
    heads = Counter()
    if isinstance(seq.zero_tail, GeometricTail):
        heads.update(seq.zero_tail.element(t) for t in range(T))
    if isinstance(seq.b_tail, GeometricTail):
        heads.update(seq.B - seq.b_tail.element(t) for t in range(T))
    return not heads - Counter(m.exact_diagonal)


def test_realize_level_search_reports_the_smallest_sufficient_level():
    outcomes = Counter()
    for seq, spec, w in _planted_cases(seed=909, count=40):
        for T in (0, 1, 4, 16):
            try:
                m, level = realize_truncated(seq, spec, w, T), T
                outcomes["returned"] += 1
            except TruncationTooSmallError as exc:
                level = exc.minimal
                assert level == max(T, _cutoff_level(seq, spec)) > T
                for below in range(T + 1, level):
                    with pytest.raises(TruncationTooSmallError):
                        realize_truncated(seq, spec, w, below)
                m = realize_truncated(seq, spec, w, level)
                outcomes["raised"] += 1
            assert _holds_tail_heads(m, seq, level)
            rep = verify_realization(m, spec, m.exact_diagonal, w)
            assert rep.diagonal_exact_match and rep.within_tolerance and rep.witness_multiplicities_ok
    assert outcomes["raised"] >= 10 and outcomes["returned"] >= 10


def test_realize_one_build_matches_the_level_scan():
    """One build at max(T, cutoff level) reports what the scan over levels
    reports: the same level for witnesses that pass lebesgue_check, and None
    exactly for those that fail a mass bound."""
    cases = [(c, True) for c in _planted_cases(seed=909, count=40)]
    cases += [(c, False) for c in _planted_cases(seed=77, count=4, feasible=False)]
    for (seq, spec, w), feasible in cases:
        for T in (0, 1, 4, 16):
            level = _realized_level(seq, spec, w, T)
            assert level == scanned_level(seq, spec, w, T)
            assert (level is None) == (not feasible)


def test_realize_reports_a_minimal_level_far_above_t():
    # the zero tail 1/4·(199/200)^t reaches the packing cutoff 1/16 up to
    # level 277, more than 256 levels above T = 0
    seq = DiagonalSequence(
        B=F(1), explicit=(F(1, 16),), b_count=INF, zero_tail=GeometricTail(F(1, 4), F(199, 200))
    )
    spec = SpectrumSpec((F(0), F(1, 16), F(1)))
    w = Witness((1,), 0)
    assert lebesgue_check(seq, spec, w)
    with pytest.raises(TruncationTooSmallError) as exc:
        realize_truncated(seq, spec, w, 0)
    assert exc.value.minimal == 277
    m = realize_truncated(seq, spec, w, 277)
    rep = verify_realization(m, spec, m.exact_diagonal, w)
    assert rep.diagonal_exact_match and rep.within_tolerance and rep.witness_multiplicities_ok


def test_realize_trace_imbalance_is_reported_before_any_level(tmp_path, capsys):
    # Σ d_i is finite (nothing at B), and the zero tail reaches past the
    # packing cutoff 1/16 up to level 14; no level can balance the trace
    seq = DiagonalSequence(B=F(1), explicit=(F(1, 2),), zero_tail=GeometricTail(F(1, 4), F(9, 10)))
    spec = SpectrumSpec((F(0), F(1, 16), F(1)))
    with pytest.raises(TruncationTooSmallError) as exc:
        realize_truncated(seq, spec, Witness((1,), 0), 2)
    assert exc.value.minimal is None
    assert "no integer solution" in str(exc.value)
    path = tmp_path / "seq.json"
    path.write_text(
        '{"B": "1", "explicit": ["1/2"], "zero_tail": {"kind": "geometric", "first": "1/4", "ratio": "9/10"}}'
    )
    argv = ["realize", "--seq", str(path), "--spectrum", "0,1/16,1", "--witness", '{"N":[1],"k":0}']
    assert main(argv + ["--trunc", "2"]) == 65  # no level can realize the witness
    err = capsys.readouterr().err
    assert "no integer solution" in err and "too small" not in err


def test_realize_refuses_a_divergent_tail_as_out_of_scope():
    # Case I is feasible outright, but a divergent tail has no finite truncation
    seq = DiagonalSequence(B=F(1), zero_tail=DivergentTail(), b_tail=GeometricTail(F(1, 4), F(1, 2)))
    with pytest.raises(OutOfScopeError, match="divergent tails admit no finite truncation"):
        realize_truncated(seq, SpectrumSpec((F(0), F(1, 2), F(1))), Witness((1,), 0), 4)


def test_verify_trivial_diagonal():
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    m = SymmetricMatrix(np.diag([0.0, 0.5, 1.0]), exact_diagonal=(F(0), F(1, 2), F(1)))
    rep = verify_realization(m, spec, [F(0), F(1, 2), F(1)], Witness((1,), 0))
    assert rep.diagonal_exact_match
    assert rep.spectrum_distance == 0
    assert rep.multiplicities == (1, 1, 1)
    assert rep.witness_multiplicities_ok


def test_verify_ones_matrix():
    spec = SpectrumSpec((F(0), F(2)))
    m = SymmetricMatrix(np.ones((2, 2)), exact_diagonal=(F(1), F(1)))
    rep = verify_realization(m, spec, [F(1), F(1)])
    assert rep.spectrum_distance <= 1e-12
    assert rep.multiplicities == (1, 1)
    assert rep.witness_multiplicities_ok is None


def test_verify_flags_off_spectrum():
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    bad = np.diag([0.0, 0.47, 1.0])
    rep = verify_realization(SymmetricMatrix(bad), spec, [F(0), F(47, 100), F(1)])
    assert not rep.within_tolerance
    assert rep.spectrum_distance >= 0.02


def test_verify_flags_wrong_diagonal():
    spec = SpectrumSpec((F(0), F(1)))
    m = SymmetricMatrix(np.diag([0.0, 1.0]), exact_diagonal=(F(0), F(1)))
    rep = verify_realization(m, spec, [F(0), F(1, 2)])
    assert not rep.diagonal_exact_match


def test_verify_checks_float_diagonal_against_record():
    # the record says [1/2, 1/2] but the floats on the diagonal are [1, 1]
    spec = SpectrumSpec((F(0), F(2)))
    m = SymmetricMatrix(np.ones((2, 2)), exact_diagonal=(F(1, 2), F(1, 2)))
    rep = verify_realization(m, spec, [F(1, 2), F(1, 2)])
    assert not rep.diagonal_exact_match


def test_realize_wrong_witness_still_raises_cleanly(dyadic):
    # a witness whose trace congruence holds but whose mass bound fails:
    # N=(5) balances the trace yet is infeasible; no level can realize it
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    with pytest.raises(TruncationTooSmallError) as exc:
        realize_truncated(dyadic, spec, Witness((5,), -3), 2)
    assert exc.value.minimal is None
    assert "fails a mass bound" in str(exc.value)
