"""Seeded inputs and output checks for the three benchmark workloads.

Every job is a short list of `findiag` CLI calls on generated input files.
Job ``i`` of workload ``w`` under seed ``s`` is drawn from its own
``random.Random(f"{w}:{s}:job:{i}")`` (warm-up jobs use the stream name
``warmup``), so the same (seed, index) always gives the same input bytes, and the generators use only the arithmetic in this file:
they never call the program, so a change to the program cannot change its
inputs.

Job sizes follow from input properties alone (multiplicity box, grid q, tail
ratio, truncation level T), stratified over the job index so that every run
of a few dozen jobs sees the same mix whatever the seed.

The checks re-derive what they can with this file's own exact arithmetic
(threshold statistics, the trace congruence and the mass bounds) and run the
partial-sum form `riemann_check` on listed witnesses; they never trust the
program's own verification.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Dict, List, Sequence, Tuple

B = F(1)

# --------------------------------------------------------------------------
# Exact model of a diagonal: explicit entries in (0, B) plus one geometric
# tail at each endpoint.  Written independently of findiag.sequences.
# --------------------------------------------------------------------------


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Diag:
    explicit: Tuple[F, ...]
    z_first: F
    z_ratio: F
    b_first: F
    b_ratio: F

    def json_text(self) -> str:
        doc = {
            "B": fmt(B),
            "explicit": [fmt(v) for v in self.explicit],
            "zero_tail": {"kind": "geometric", "first": fmt(self.z_first), "ratio": fmt(self.z_ratio)},
            "b_tail": {"kind": "geometric", "first": fmt(self.b_first), "ratio": fmt(self.b_ratio)},
        }
        return json.dumps(doc, sort_keys=True) + "\n"

    def with_entry(self, v: F) -> "Diag":
        return Diag(self.explicit + (v,), self.z_first, self.z_ratio, self.b_first, self.b_ratio)

    def stats(self, alpha: F) -> Tuple[F, F]:
        """C(α) = Σ_{d<α} d and D(α) = Σ_{d≥α} (B − d)."""
        C = sum((v for v in self.explicit if v < alpha), F(0))
        D = sum((B - v for v in self.explicit if v >= alpha), F(0))
        # zero tail: elements z·r^t, the first c of them are ≥ α
        c, x = 0, self.z_first
        while x >= alpha:
            D += B - x
            c += 1
            x *= self.z_ratio
        C += x / (1 - self.z_ratio)
        # b tail: elements B − b·r^t, the first c of them are < α
        c, x = 0, self.b_first
        while B - x < alpha:
            C += B - x
            c += 1
            x *= self.b_ratio
        D += x / (1 - self.b_ratio)
        return C, D

    def tail_heads(self, T: int) -> List[F]:
        """Explicit entries plus the first T elements of each tail."""
        out = list(self.explicit)
        out += [self.z_first * self.z_ratio**t for t in range(T)]
        out += [B - self.b_first * self.b_ratio**t for t in range(T)]
        return out


def spectrum_arg(interior: Sequence[F]) -> str:
    return ",".join(fmt(p) for p in (F(0), *interior, B))


def trace_residue(d: Diag) -> F:
    """C(B/2) − D(B/2)."""
    C, D = d.stats(B / 2)
    return C - D


def box_bounds(d: Diag, interior: Sequence[F]) -> Tuple[int, ...]:
    """floor(((B−A)C(A) + A·D(A)) / ((B−A)A)) per interior point A."""
    out = []
    for a in interior:
        C, D = d.stats(a)
        out.append(math.floor(((B - a) * C + a * D) / ((B - a) * a)))
    return tuple(out)


def is_witness(cmd: F, stats_at: Sequence[Tuple[F, F]], interior: Sequence[F], N: Sequence[int]) -> bool:
    """Trace congruence plus the threshold-form mass bound at every interior point."""
    if ((cmd - sum(a * n for a, n in zip(interior, N))) / B).denominator != 1:
        return False
    for r, a in enumerate(interior):
        C, D = stats_at[r]
        lhs = (B - a) * C + a * D
        rhs = (B - a) * sum(interior[j] * N[j] for j in range(r + 1)) + a * sum(
            (B - interior[j]) * N[j] for j in range(r + 1, len(interior))
        )
        if lhs < rhs:
            return False
    return True


def has_witness(d: Diag, interior: Sequence[F]) -> bool:
    """Scan the multiplicity box for any witness."""
    bounds = box_bounds(d, interior)
    if any(b < 1 for b in bounds):
        return False
    cmd = trace_residue(d)
    stats_at = [d.stats(a) for a in interior]
    box = itertools.product(*(range(1, b + 1) for b in bounds))
    return any(is_witness(cmd, stats_at, interior, N) for N in box)


def _entry(rng: random.Random) -> F:
    return F(rng.randint(1, 63), 64)


def _balance(d: Diag, target: F) -> Diag:
    """Add one explicit entry v making C(B/2) − D(B/2) ≡ target (mod B).

    An entry v below B/2 adds v to C; one at or above adds B − v to D; both
    move C − D by v modulo B.
    """
    v = (target - trace_residue(d)) % B
    return d.with_entry(v) if v else d


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------

Result = Tuple[int, bytes, bytes]  # exit code, stdout, stderr
RunCall = Callable[[List[str]], Result]


@dataclass
class Job:
    """One closed-loop job: CLI calls run in order, stopping after the first
    nonzero exit.  ``{dir}`` in an argument is the job's work directory."""

    index: int
    files: Dict[str, str]
    calls: List[List[str]]
    outputs: List[str] = field(default_factory=list)
    expect: Dict = field(default_factory=dict)

    def argv(self, call: int, workdir: str) -> List[str]:
        return [a.replace("{dir}", workdir) for a in self.calls[call]]


def _load(out: bytes):
    return json.loads(out.decode("utf-8"))


# ---- witness ---------------------------------------------------------------

BOX_BAND = (700, 1300)


def witness_job(seed: int, i: int, stream: str = "job") -> Job:
    """`findiag witnesses` on a Case II instance with n = 2..5 interior points
    and a multiplicity box of BOX_BAND candidates.  Jobs 8k..8k+3 carry a
    planted witness N* (feasible); jobs 8k+4..8k+7 put C(B/2) − D(B/2) off
    the 1/16 lattice that every Σ A_j N_j lies on (infeasible by the
    congruence)."""
    rng = random.Random(f"witness:{seed}:{stream}:{i}")
    n = 2 + i % 4
    feasible = (i // 4) % 2 == 0
    m = {2: 40, 3: 16, 4: 9, 5: 6}[n]
    while True:
        interior = [F(p, 16) for p in sorted(rng.sample(range(1, 16), n))]
        r = rng.choice([F(1, 2), F(2, 3), F(3, 4)])
        base = [_entry(rng) for _ in range(m)]
        tails = (F(rng.randint(2, 8), 64), r, F(rng.randint(2, 8), 64), r)
        for _ in range(60):
            d = Diag(tuple(base), *tails)
            if feasible:
                planted = tuple(rng.randint(1, 2) for _ in range(n))
                d = _balance(d, sum(a * k for a, k in zip(interior, planted)))
            else:
                planted = None
                d = _balance(d, F(1, 32) + F(rng.randrange(16), 16))
            bounds = box_bounds(d, interior)
            box = math.prod(bounds) if min(bounds) >= 1 else 0
            if box < BOX_BAND[0]:
                base.append(_entry(rng))
                continue
            if box > BOX_BAND[1]:
                if not base:
                    break
                base.pop(rng.randrange(len(base)))
                continue
            if planted is not None:
                stats_at = [d.stats(a) for a in interior]
                if not is_witness(trace_residue(d), stats_at, interior, planted):
                    break
            return Job(
                i,
                {"seq.json": d.json_text()},
                [["witnesses", "--seq", "{dir}/seq.json", "--spectrum", spectrum_arg(interior)]],
                expect={"diag": d, "interior": interior, "planted": planted, "bounds": bounds},
            )


def check_witness(job: Job, results: List[Result], run: RunCall, workdir: str) -> List[str]:
    from findiag.majorize import Witness, canonical_shift, riemann_check
    from findiag.sequences import DiagonalSequence, GeometricTail, SpectrumSpec, materialize_tails

    e = job.expect
    rc, out, _ = results[0]
    planted = e["planted"]
    want_rc = 0 if planted else 1
    if rc != want_rc:
        return [f"exit {rc}, expected {want_rc}"]
    doc = _load(out)
    errors = []
    if tuple(doc["bounds"]) != e["bounds"]:
        errors.append(f"bounds {doc['bounds']} != {list(e['bounds'])}")
    listed = [tuple(w["N"]) for w in doc["witnesses"]]
    if not planted:
        if listed or doc["verdict"] != "Infeasible":
            errors.append("off-lattice instance reported witnesses")
        return errors
    if doc["verdict"] != "FeasibleCaseII":
        errors.append(f"verdict {doc['verdict']}")
    if tuple(planted) not in listed:
        errors.append(f"planted witness {planted} missing")
    if listed != sorted(set(listed)):
        errors.append("witness list not sorted and unique")
    d, interior = e["diag"], e["interior"]
    cmd = trace_residue(d)
    stats_at = [d.stats(a) for a in interior]
    for w in doc["witnesses"]:
        N = tuple(w["N"])
        if any(not 1 <= x <= b for x, b in zip(N, e["bounds"])):
            errors.append(f"witness {N} outside the box")
        elif not is_witness(cmd, stats_at, interior, N):
            errors.append(f"witness {N} fails the mass bounds")
        elif w["k"] != (cmd - sum(a * x for a, x in zip(interior, N))) / B:
            errors.append(f"witness {N} has k={w['k']}")
    # exclusions: random box points the program left out must not be witnesses
    rng = random.Random(f"witness-check:{job.index}")
    listed_set = set(listed)
    for _ in range(16):
        N = tuple(rng.randint(1, b) for b in e["bounds"])
        if N not in listed_set and is_witness(cmd, stats_at, interior, N):
            errors.append(f"witness {N} missing")
    # the partial-sum form, at each witness's canonical shift, on the same
    # multiset with the tail elements that straddle the explicit entries
    # moved into them (the ℤ-indexed arrangement needs that)
    seq = materialize_tails(
        DiagonalSequence(
            B, d.explicit,
            zero_tail=GeometricTail(d.z_first, d.z_ratio),
            b_tail=GeometricTail(d.b_first, d.b_ratio),
        ),
        min(d.explicit), max(d.explicit),
    )
    spec = SpectrumSpec((F(0), *interior, B))
    sample = listed if len(listed) <= 6 else listed[:3] + listed[-3:]
    for N in sample:
        shift = canonical_shift(seq, spec, N)
        if shift is None or not riemann_check(seq, spec, Witness(N, shift))[0]:
            errors.append(f"witness {N} fails riemann_check")
    return errors


# ---- explore ---------------------------------------------------------------

RATIOS = (F(1, 3), F(1, 2), F(2, 3))


def explore_job(seed: int, i: int, stream: str = "job") -> Job:
    """Alternating `findiag explore3` and `findiag explore4 --grid q` (q = 8..12)
    on sequences with 1–8 explicit entries; the nine pairs of tail ratios from
    RATIOS and the entry count cycle over the job index.  The last entry
    balances C(B/2) − D(B/2): explore3 sequences to 1/3 with both tails
    starting at 1/8, so the multiplicity cap, and with it the candidate count,
    is set by the job index alone; explore4 sequences to a point of the 1/q
    lattice, so some cells are feasible."""
    rng = random.Random(f"explore:{seed}:{stream}:{i}")
    three = i % 2 == 0
    rz, rb = RATIOS[(i // 2) % 3], RATIOS[(i // 6) % 3]
    q = 8 + (i // 2) % 5
    m = 1 + (i // 2 + i // 18) % 8
    explicit = tuple(_entry(rng) for _ in range(m - 1))
    if three:
        d = _balance(Diag(explicit, F(1, 8), rz, F(1, 8), rb), F(1, 3))
        calls = [["explore3", "--seq", "{dir}/seq.json"]]
    else:
        d = Diag(explicit, F(rng.randint(4, 16), 64), rz, F(rng.randint(4, 16), 64), rb)
        d = _balance(d, F(rng.randrange(q), q))
        calls = [["explore4", "--seq", "{dir}/seq.json", "--grid", str(q)]]
    return Job(i, {"seq.json": d.json_text()}, calls, expect={"diag": d, "q": q, "three": three})


def check_explore(job: Job, results: List[Result], run: RunCall, workdir: str) -> List[str]:
    e = job.expect
    rc, out, _ = results[0]
    if rc != 0:
        return [f"exit {rc}"]
    d = e["diag"]
    errors = []
    if e["three"]:
        doc = _load(out)
        points = [F(p) for p in doc["points"]]
        if points != sorted(set(points)) or doc["count"] != len(points):
            errors.append("points not sorted, unique and counted")
        for a in points:
            if not 0 < a < B or not has_witness(d, [a]):
                errors.append(f"listed point {fmt(a)} is not feasible")
        listed = set(points)
        for den in range(2, 13):
            for num in range(1, den):
                a = F(num, den)
                if a.denominator == den and a not in listed and has_witness(d, [a]):
                    errors.append(f"feasible point {fmt(a)} missing")
        return errors
    q = e["q"]
    lines = out.decode("utf-8").splitlines()
    cells = [(p, r) for p in range(1, q - 1) for r in range(p + 1, q)]
    if lines[0] != "A1,A2,feasible" or len(lines) != len(cells) + 1:
        return ["csv header or row count"]
    rng = random.Random(f"explore-check:{job.index}")
    sample = set(rng.sample(range(len(cells)), 6))
    for idx, ((p, r), line) in enumerate(zip(cells, lines[1:])):
        a1, a2, flag = line.split(",")
        if (F(a1), F(a2)) != (F(p, q), F(r, q)) or flag not in ("true", "false"):
            errors.append(f"row {idx}: {line}")
            continue
        if flag == "true" or idx in sample:
            if (flag == "true") != has_witness(d, [F(p, q), F(r, q)]):
                errors.append(f"cell {line} has the wrong verdict")
    return errors


# ---- realize ---------------------------------------------------------------

T_STRATA = 7
_MINIMAL = re.compile(r"smallest sufficient level is T=(\d+)")


def realize_job(seed: int, i: int, stream: str = "job") -> Job:
    """`findiag realize --trunc T --out f` then `findiag verify --matrix f` on
    a planted witness of an instance with n = 1..3.  T takes T_STRATA
    log-spaced levels from 4 to 128, each jittered by ±2% of the log range,
    so that job sizes cluster and the median and 90th percentile each fall
    inside one level.  At the lowest level a slow zero tail puts the
    minimal truncation level above T, so those jobs exit 70 and take the
    retry loop."""
    rng = random.Random(f"realize:{seed}:{stream}:{i}")
    n = 1 + (i // T_STRATA) % 3
    level = i % T_STRATA
    T = min(128, round(4 * 32 ** ((level - 0.1 + 0.2 * rng.random()) / (T_STRATA - 1))))
    while True:
        if level == 0:
            # zero tail 1/4·(9/10)^t against A_1 = 1/16: minimal level 14
            interior = [F(1, 16)] + [F(p, 16) for p in sorted(rng.sample(range(2, 16), n - 1))]
            z_first, z_ratio = F(1, 4), F(9, 10)
        else:
            interior = [F(p, 16) for p in sorted(rng.sample(range(1, 16), n))]
            z_first, z_ratio = F(rng.randint(4, 16), 64), rng.choice([F(1, 2), F(2, 3), F(3, 4), F(9, 10)])
        N = tuple(rng.randint(1, 2) for _ in range(n))
        d = Diag(
            tuple(_entry(rng) for _ in range(rng.randint(1, 6))),
            z_first, z_ratio,
            F(rng.randint(4, 16), 64), rng.choice([F(1, 2), F(2, 3), F(3, 4)]),
        )
        d = _balance(d, sum(a * k for a, k in zip(interior, N)))
        cmd = trace_residue(d)
        if is_witness(cmd, [d.stats(a) for a in interior], interior, N):
            break
    k = (cmd - sum(a * x for a, x in zip(interior, N))) / B
    spec = spectrum_arg(interior)
    witness = json.dumps({"N": list(N), "k": int(k)})
    return Job(
        i,
        {"seq.json": d.json_text()},
        [
            ["realize", "--seq", "{dir}/seq.json", "--spectrum", spec, "--witness", witness,
             "--trunc", str(T), "--out", "{dir}/real.json"],
            ["verify", "--matrix", "{dir}/real.json", "--spectrum", spec, "--witness", witness],
        ],
        outputs=["real.json"],
        expect={"diag": d, "interior": interior, "N": N, "T": T},
    )


def check_matrix(text: str, d: Diag, interior: Sequence[F], N: Sequence[int], T: int) -> List[str]:
    """Independent checks of a realize payload: float diagonal equals
    float(exact) entry by entry, the exact diagonal holds the explicit
    entries and the first T tail elements, and the eigenvalues (own eigvalsh)
    sit within 1e-8 of the spectrum with the witness multiplicities."""
    import numpy as np

    doc = json.loads(text)
    rows = doc["matrix"]["rows"]
    exact = [F(v) for v in doc["diagonal_exact"]]
    errors = []
    if len(rows) != len(exact):
        return ["matrix and exact diagonal lengths differ"]
    if any(rows[j][j] != float(x) for j, x in enumerate(exact)):
        errors.append("float diagonal differs from float(exact)")
    remaining = {}
    for v in exact:
        remaining[v] = remaining.get(v, 0) + 1
    for v in d.tail_heads(T):
        if remaining.get(v, 0) == 0:
            errors.append(f"diagonal lacks {fmt(v)}")
            break
        remaining[v] -= 1
    arr = np.array(rows, dtype=float)
    if not np.array_equal(arr, arr.T):
        errors.append("matrix not symmetric")
    pts = np.array([0.0] + [float(a) for a in interior] + [1.0])
    eigs = np.linalg.eigvalsh(arr)
    gaps = np.abs(eigs[:, None] - pts[None, :])
    nearest = gaps.argmin(axis=1)
    if gaps.min(axis=1).max() > 1e-8:
        errors.append(f"eigenvalue distance {gaps.min(axis=1).max():.3g}")
    mult = np.bincount(nearest, minlength=len(pts))
    if tuple(int(x) for x in mult[1:-1]) != tuple(N) or mult[0] < 1 or mult[-1] < 1:
        errors.append(f"multiplicities {mult.tolist()} for N={list(N)}")
    return errors


def check_realize(job: Job, results: List[Result], run: RunCall, workdir: str) -> List[str]:
    e = job.expect
    rc, _, err = results[0]
    if rc == 70:
        found = _MINIMAL.search(err.decode("utf-8"))
        if not found or int(found.group(1)) <= e["T"]:
            return ["exit 70 without a minimal level above T"]
        argv = job.argv(0, workdir)
        argv[argv.index("--trunc") + 1] = found.group(1)
        rc2, _, _ = run(argv)
        if rc2 != 0:
            return [f"realize at the named minimal level exits {rc2}"]
        with open(f"{workdir}/real.json", encoding="utf-8") as fh:
            return check_matrix(fh.read(), e["diag"], e["interior"], e["N"], int(found.group(1)))
    if rc != 0 or len(results) != 2:
        return [f"realize exit {rc}"]
    with open(f"{workdir}/real.json", encoding="utf-8") as fh:
        errors = check_matrix(fh.read(), e["diag"], e["interior"], e["N"], e["T"])
    rc, out, _ = results[1]
    if rc != 0:
        errors.append(f"verify exit {rc}")
    else:
        report = _load(out)
        if not (report["diagonal_exact_match"] and report["within_tolerance"] and report["witness_multiplicities_ok"]):
            errors.append("verify report does not pass")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[..., Job]
    check: Callable[..., List[str]]
    trace_jobs: int  # jobs per traced pass: whole strata cycles
    warmup: Tuple[int, ...]  # indices in the warm-up stream


WORKLOADS = {
    "witness": Workload("witness", witness_job, check_witness, 24, (0, 1, 2, 3)),
    "explore": Workload("explore", explore_job, check_explore, 18, (0, 1)),
    "realize": Workload("realize", realize_job, check_realize, 21, (1, 2, 3)),
}
