"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``criterion N: PASS`` line on success (visible with
``pytest -s``); under ``pytest -v`` the per-test PASSED/FAILED row is the
pass/fail line.  Seeds are fixed so runs are reproducible.
"""

import time
from fractions import Fraction
from random import Random

import numpy as np

from findiag import (
    INF,
    DiagonalSequence,
    GeometricTail,
    SpectrumSpec,
    Verdict,
    Witness,
    canonical_shift,
    decide,
    decide_projection,
    enumerate_witnesses,
    four_point_region,
    horn_construct,
    lebesgue_check,
    realize_truncated,
    reflect,
    riemann_check,
    scale,
    threshold_stats,
    three_point_spectra,
    verify_realization,
)

from conftest import random_fraction, random_sequence, random_spectrum, robin_hood_pair, witness_box

F = Fraction


def _dyadic() -> DiagonalSequence:
    return DiagonalSequence(
        B=F(1),
        explicit=(F(1, 2),),
        zero_tail=GeometricTail(F(1, 4), F(1, 2)),
        b_tail=GeometricTail(F(1, 4), F(1, 2)),
    )


def test_criterion_1_seven_point_reproduction():
    start = time.monotonic()
    points = three_point_spectra(_dyadic())
    elapsed = time.monotonic() - start
    expected = frozenset({F(1, 8), F(1, 6), F(1, 4), F(1, 2), F(3, 4), F(5, 6), F(7, 8)})
    assert points == expected, f"got {sorted(points)}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS — exact 7-point set in {elapsed:.2f}s")


def test_criterion_2_projection_negative_control():
    seq = _dyadic()
    out = decide_projection(seq)
    st = threshold_stats(seq, F(1, 2))
    assert out.verdict is Verdict.INFEASIBLE
    assert st.C - st.D == F(-1, 2)
    print("criterion 2: PASS — projection infeasible, C−D = −1/2 exactly")


def test_criterion_3_witness_enumeration():
    ws = enumerate_witnesses(_dyadic(), SpectrumSpec((F(0), F(1, 2), F(1))))
    assert ws == [Witness((1,), -1), Witness((3,), -2)], f"got {ws}"
    print("criterion 3: PASS — witnesses exactly {(N=(1),k=−1), (N=(3),k=−2)}")


def _criterion4_instance(rng: Random):
    """A sequence with ≤ 12 explicit entries, geometric tails on both sides,
    and a spectrum with n ≤ 3 interior points."""
    B = rng.choice([F(1), F(2), F(3, 2), F(5, 3)])
    low = B / 8
    explicit = tuple(
        random_fraction(rng, low, B - low) for _ in range(rng.randint(0, 12))
    )
    seq = DiagonalSequence(
        B=B,
        explicit=explicit,
        zero_tail=GeometricTail(
            random_fraction(rng, B / 64, low, den=128),
            rng.choice([F(1, 2), F(1, 3), F(2, 5)]),
        ),
        b_tail=GeometricTail(
            random_fraction(rng, B / 64, low, den=128),
            rng.choice([F(1, 2), F(1, 3), F(3, 7)]),
        ),
    )
    return seq, random_spectrum(rng, B, rng.randint(1, 3))


def test_criterion_4_dual_oracle_equivalence():
    rng = Random(20240)
    start = time.monotonic()
    instances = 0
    pairs = 0
    while instances < 1000:
        seq, spec = _criterion4_instance(rng)
        bounds = witness_box(seq, spec)
        if any(b < 1 for b in bounds):
            continue
        instances += 1
        for _ in range(rng.randint(1, 3)):
            N = tuple(rng.randint(1, b) for b in bounds)
            shift = canonical_shift(seq, spec, N)
            leb = lebesgue_check(seq, spec, Witness(N, 0))
            if shift is None:
                assert leb is False, f"{seq} {spec} {N}"
                for s in (-1, 0, 1):
                    ok, _ = riemann_check(seq, spec, Witness(N, s))
                    assert ok is False, f"{seq} {spec} {N} shift {s}"
            else:
                ok, _ = riemann_check(seq, spec, Witness(N, shift))
                assert ok == leb, f"{seq} {spec} {N}: riemann {ok} vs lebesgue {leb}"
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 4: PASS — {instances} instances / {pairs} witness pairs, "
        f"zero disagreements in {elapsed:.2f}s"
    )


def test_criterion_5_trace_gap_invariance():
    rng = Random(515)
    checked = 0
    for _ in range(500):
        seq = random_sequence(rng)
        gaps = []
        for _ in range(8):
            alpha = random_fraction(rng, seq.B / 16, seq.B - seq.B / 16, den=96)
            st = threshold_stats(seq, alpha)
            gaps.append(st.C - st.D)
        for i in range(len(gaps)):
            for j in range(i + 1, len(gaps)):
                diff = (gaps[i] - gaps[j]) / seq.B
                assert diff.denominator == 1, f"{seq}: {gaps[i]} vs {gaps[j]}"
                checked += 1
    print(f"criterion 5: PASS — {checked} pairwise differences all in B·ℤ")


def test_criterion_6_schur_horn_construction():
    rng = Random(606)
    for trial in range(200):
        n = rng.randint(2, 8)
        lam, d = robin_hood_pair(rng, n)
        m = horn_construct(lam, d)
        arr = m.as_array()
        np.testing.assert_allclose(
            np.diag(arr), [float(x) for x in d], atol=1e-12, err_msg=f"trial {trial}"
        )
        eigs = np.sort(np.linalg.eigvalsh(arr))
        np.testing.assert_allclose(
            eigs,
            np.sort([float(x) for x in lam]),
            atol=1e-8,
            err_msg=f"trial {trial}",
        )
    print("criterion 6: PASS — 200 constructions, diag ≤1e−12, eigenvalues ≤1e−8")


def test_criterion_7_realization_round_trip():
    seq = _dyadic()
    spec = SpectrumSpec((F(0), F(1, 2), F(1)))
    w = Witness((1,), -1)
    m = realize_truncated(seq, spec, w, 8)
    report = verify_realization(m, spec, m.exact_diagonal, w)
    assert report.diagonal_exact_match
    assert report.spectrum_distance <= 1e-8
    assert report.multiplicities[1] == 1  # multiplicity of A_1 = 1/2
    assert report.witness_multiplicities_ok
    print(
        "criterion 7: PASS — exact diagonal, spectrum_distance "
        f"{report.spectrum_distance:.2e}, mult(1/2) = 1"
    )


def test_criterion_8_metamorphic_suite():
    rng = Random(808)
    scaling = 0
    while scaling < 300:
        seq = random_sequence(rng)
        spec = random_spectrum(rng, seq.B, rng.randint(1, 2))
        c = rng.choice([F(1, 3), F(2), F(7, 5)])
        base = decide(seq, spec)
        scaled = decide(scale(seq, c), scale(spec, c))
        assert scaled.verdict == base.verdict, f"{seq} {spec} × {c}"
        assert scaled.witnesses == base.witnesses
        scaling += 1

    reflection = 0
    while reflection < 300:
        seq = random_sequence(rng)
        spec = random_spectrum(rng, seq.B, rng.randint(1, 2))
        base = decide(seq, spec)
        mirrored = decide(reflect(seq), reflect(spec))
        assert mirrored.verdict == base.verdict, f"{seq} {spec}"
        # witnesses map by reversing N; both sides enumerate sorted, so the
        # multiplicity multisets must match
        assert sorted(tuple(reversed(w.N)) for w in mirrored.witnesses) == sorted(
            w.N for w in base.witnesses
        )
        reflection += 1
    print("criterion 8: PASS — 300 scaling + 300 reflection instances, zero violations")


def test_criterion_9_region_symmetry():
    start = time.monotonic()
    rows = four_point_region(_dyadic(), 16)
    elapsed = time.monotonic() - start
    table = {(r.A1, r.A2): r.feasible for r in rows}
    assert len(table) == len(rows)
    for (a1, a2), feas in table.items():
        assert table[(1 - a2, 1 - a1)] == feas, f"asymmetry at ({a1}, {a2})"
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 9: PASS — {len(rows)} grid cells symmetric under reflection "
        f"in {elapsed:.2f}s"
    )
