"""Workload inputs and output oracles for the lieactions benchmark.

Each workload is a list of ``Invocation``s: the arguments of one
``lieact`` call (without ``--seed``, which the runner adds) and a check
that turns its exit code and standard output into ``None`` (correct) or a
one-line reason it is wrong. Every input is a pure function of the
workload seed, so a seed can be replayed exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

Check = Callable[[int, bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    verb: str  # "analyze", "obstruct", "deform", "act", "vf_verify", "vf_flow" or "catalog"
    args: tuple[str, ...]
    check: Check


# Basis-independent invariants of the catalog algebras, as
# (derived series dims, lower central series dims, center dim,
#  derivation algebra dim, contractibility status, min_effective_dim).
# The dims follow from the definitions (st(n) is the Borel subalgebra of
# sl(n), whose derivations are all inner; Der of heisenberg(2k+1) has dim
# 2k^2 + 3k + 1); they are the oracle for both exact workloads.
INVARIANTS: dict[str, tuple] = {
    "st3": ([5, 3, 1, 0], [5, 3], 0, 5, "inconclusive", 2),
    "st4": ([9, 6, 3, 0], [9, 6], 0, 9, "inconclusive", 2),
    "st5": ([14, 10, 6, 1, 0], [14, 10], 0, 14, "inconclusive", 3),
    "st6": ([20, 15, 10, 3, 0], [20, 15], 0, 20, "inconclusive", 3),
    "sl2": ([3], [3], 0, 3, "inconclusive", None),
    "sl3": ([8], [8], 0, 8, "inconclusive", None),
    "sl4": ([15], [15], 0, 15, "inconclusive", None),
    "n4": ([7, 3, 0], [7, 3, 1, 0], 2, 16, "inconclusive", 2),
    "n5": ([11, 6, 1, 0], [11, 6, 3, 1, 0], 2, 23, "inconclusive", 3),
    "n6": ([16, 10, 3, 0], [16, 10, 6, 3, 1, 0], 2, 31, "inconclusive", 3),
    "heisenberg5": ([5, 1, 0], [5, 1, 0], 1, 15, "inconclusive", 2),
    "heisenberg7": ([7, 1, 0], [7, 1, 0], 1, 28, "inconclusive", 2),
    "heisenberg9": ([9, 1, 0], [9, 1, 0], 1, 45, "inconclusive", 2),
    "heisenberg11": ([11, 1, 0], [11, 1, 0], 1, 66, "inconclusive", 2),
    "mr7": ([7, 5, 1, 0], [7, 5, 4, 3, 2, 1, 0], 1, 10, "obstructed", 3),
    "st_c2": ([4, 2, 0], [4, 2], 0, 4, "inconclusive", 1),
    "st_c3": ([10, 6, 2, 0], [10, 6], 0, 10, "inconclusive", 2),
}

# The exact_sparse size ladder. It stops at st6 and N(6): the derivation
# system of st7 alone takes about 14 s, which would dominate the pass.
SPARSE_KEYS = (
    "st3", "st4", "st5", "st6", "sl2", "sl3", "sl4", "n4", "n5", "n6",
    "heisenberg5", "heisenberg7", "heisenberg9", "heisenberg11", "mr7", "st_c2", "st_c3",
)
# Dense copies stop at st4 and N(5): a dense st5 takes about 27 s.
DENSE_KEYS = (
    "st3", "st4", "sl2", "sl3", "n4", "n5", "heisenberg5", "heisenberg7", "heisenberg9", "mr7",
)
# Algebras up to this dimension get a second copy in another random basis.
# The cheap copies average out the seed and give the pass 32 invocations,
# enough for a tail percentile well above the median.
DENSE_SECOND_COPY_MAX_DIM = 7
OBSTRUCT_DIM = 3
ACT_SAMPLES = 2000
FLOW_STEPS = 20_000
FLOW_STEP = 1e-3


# -- report checks -------------------------------------------------------------


def _report(rc: int, out: bytes, want_rc: int = 0, want_status: str = "pass"):
    """Parse a JSON report; return (report, None) or (None, reason)."""
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    try:
        rep = json.loads(out)
    except ValueError:
        return None, "report is not JSON"
    if rep.get("status") != want_status:
        return None, f"status {rep.get('status')!r}, expected {want_status!r}"
    return rep, None


def _check_pass(rc: int, out: bytes):
    return _report(rc, out)[1]


def _check_analyze(key: str) -> Check:
    derived, lower, center, der, status, _ = INVARIANTS[key]

    def check(rc: int, out: bytes):
        rep, err = _report(rc, out)
        if err:
            return err
        got = (
            rep["derived_series"]["term_dims"],
            rep["lower_central_series"]["term_dims"],
            rep["center"]["dim"],
            rep["derivations"]["dim"],
            rep["contractibility_obstruction"]["status"],
        )
        want = (derived, lower, center, der, status)
        return None if got == want else f"invariants {got} differ from {key}'s {want}"

    return check


def _check_obstruct(key: str) -> Check:
    want = INVARIANTS[key][5]
    want = "not applicable" if want is None else want

    def check(rc: int, out: bytes):
        rep, err = _report(rc, out)
        if err:
            return err
        got = rep["min_effective_dim"]
        return None if got == want else f"min_effective_dim {got!r} differs from {key}'s {want!r}"

    return check


def _check_jacobi_violation(rc: int, out: bytes):
    rep, err = _report(rc, out, want_rc=1, want_status="fail")
    if err:
        return err
    return None if rep.get("jacobi_violations") else "no Jacobi violation reported"


def _check_catalog_list(rc: int, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    listed = {}
    for line in out.decode().splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] == "dim":
            listed[parts[0]] = int(parts[2])
    for key, inv in INVARIANTS.items():
        if key in listed and listed[key] != inv[0][0]:
            return f"catalog lists {key} with dim {listed[key]}, expected {inv[0][0]}"
    return None if listed else "catalog list is empty"


def _trajectory(rc: int, out: bytes, steps: int):
    """Parse a flow CSV; return (rows, None) or (None, reason)."""
    if rc != 0:
        return None, f"exit code {rc}"
    lines = out.decode().splitlines()
    if not lines or not lines[0].startswith("t,x1"):
        return None, "missing CSV header"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if steps is not None and len(rows) != steps + 1:
        return None, f"{len(rows)} trajectory rows, expected {steps + 1}"
    if not all(math.isfinite(v) for row in rows for v in row):
        return None, "non-finite trajectory value"
    return rows, None


def _check_flow_finite(rc: int, out: bytes):
    return _trajectory(rc, out, None)[1]


def _check_circle(omega: float, radius: float, phase: float) -> Check:
    """x' = w y, y' = -w x from radius*(cos p, sin p): exact solution known."""

    def check(rc: int, out: bytes):
        rows, err = _trajectory(rc, out, FLOW_STEPS)
        if err:
            return err
        worst = max(
            math.hypot(x - radius * math.cos(phase - omega * t), y - radius * math.sin(phase - omega * t))
            for t, x, y in rows
        )
        return None if worst <= 1e-6 else f"circle flow off the exact orbit by {worst:.3g}"

    return check


def _check_energy(coeffs: tuple[Fraction, ...]) -> Check:
    """The Hamiltonian H = a x^2/2 + b y^2/2 + c x^4/4 + d y^4/4 is conserved."""
    a, b, c, d = (float(v) for v in coeffs)

    def energy(x, y):
        return a * x * x / 2 + b * y * y / 2 + c * x ** 4 / 4 + d * y ** 4 / 4

    def check(rc: int, out: bytes):
        rows, err = _trajectory(rc, out, FLOW_STEPS)
        if err:
            return err
        h0 = energy(rows[0][1], rows[0][2])
        drift = max(abs(energy(x, y) - h0) for _, x, y in rows) / h0
        return None if drift <= 1e-6 else f"Hamiltonian drifted by {drift:.3g} (relative)"

    return check


# -- generated inputs ----------------------------------------------------------


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly(nvars: int, terms: dict[tuple[int, ...], Fraction]) -> dict:
    return {
        "vars": nvars,
        "terms": [{"exponents": list(e), "coefficient": _rat(c)} for e, c in terms.items()],
    }


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[Fraction]]]:
    """P = L U with unit diagonals and half of the off-diagonal entries of
    each factor set to +-1, and its inverse. A fixed fill keeps the work of
    every seed alike while signs and positions vary."""
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    below = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(below, len(below) // 2):
        lower[i][j] = rng.choice((-1, 1))
    for i, j in rng.sample(below, len(below) // 2):
        upper[j][i] = rng.choice((-1, 1))
    p = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return p, _inverse(p)


def _inverse(m: list[list[int]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _brackets(doc: dict) -> dict[tuple[int, int], dict[int, Fraction]]:
    """0-based {(i, j): {k: c}} with antisymmetry filled in."""
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for b in doc["brackets"]:
        i, j = b["i"] - 1, b["j"] - 1
        vec = {int(k) - 1: Fraction(v) for k, v in b["result"].items()}
        out[(i, j)] = vec
        out[(j, i)] = {k: -c for k, c in vec.items()}
    return out


def change_of_basis(doc: dict, p: list[list[int]], p_inv: list[list[Fraction]], name: str) -> dict:
    """The algebra of ``doc`` in the basis f_a = sum_i P[i][a] e_i."""
    n = doc["dim"]
    table = _brackets(doc)
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            v = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    coef = p[i][a] * p[j][b]
                    if coef:
                        for k, c in table.get((i, j), {}).items():
                            v[k] += coef * c
            w = {k + 1: sum(p_inv[k][m] * v[m] for m in range(n)) for k in range(n)}
            result = {str(k): _rat(c) for k, c in w.items() if c}
            if result:
                out.append({"i": a + 1, "j": b + 1, "result": result})
    return {"name": name, "dim": n, "basis": [f"F{i + 1}" for i in range(n)], "brackets": out}


def jacobi_violations(doc: dict) -> int:
    """Number of basis triples on which the Jacobi identity fails."""
    n = doc["dim"]
    table = _brackets(doc)

    def bracket_vec(vec: dict[int, Fraction], j: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in vec.items():
            for k, d in table.get((i, j), {}).items():
                out[k] = out.get(k, Fraction(0)) + c * d
        return out

    bad = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: dict[int, Fraction] = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in bracket_vec(table.get((x, y), {}), z).items():
                        total[m] = total.get(m, Fraction(0)) + c
                bad += any(total.values())
    return bad


def _jacobi_breaker(rng: random.Random) -> dict:
    """A random 4-dimensional bracket table that violates Jacobi."""
    while True:
        brackets = []
        for i in range(1, 5):
            for j in range(i + 1, 5):
                result = {str(k): f"{rng.randint(-2, 2)}/1" for k in range(1, 5) if rng.random() < 0.4}
                result = {k: v for k, v in result.items() if v != "0/1"}
                if result:
                    brackets.append({"i": i, "j": j, "result": result})
        doc = {"name": "not-a-lie-algebra", "dim": 4, "basis": ["A", "B", "C", "D"], "brackets": brackets}
        if jacobi_violations(doc):
            return doc


def exact_sparse(rng: random.Random, work: Path, root: Path, catalog_docs: dict) -> list[Invocation]:
    calls = []
    for key in SPARSE_KEYS:
        calls.append(Invocation("analyze", ("algebra", "analyze", f"catalog:{key}"), _check_analyze(key)))
        calls.append(Invocation(
            "obstruct", ("algebra", "obstruct", f"catalog:{key}", "--dim", str(OBSTRUCT_DIM)),
            _check_obstruct(key),
        ))
    bad = _write(work / "jacobi_violation.json", _jacobi_breaker(rng))
    calls.append(Invocation("analyze", ("algebra", "analyze", bad), _check_jacobi_violation))
    return calls


def exact_dense(rng: random.Random, work: Path, root: Path, catalog_docs: dict) -> list[Invocation]:
    calls = []
    for key in DENSE_KEYS:
        doc = catalog_docs[key]
        for copy in range(2 if doc["dim"] <= DENSE_SECOND_COPY_MAX_DIM else 1):
            p, p_inv = _unimodular(rng, doc["dim"])
            dense = change_of_basis(doc, p, p_inv, f"{key} in a dense basis")
            path = _write(work / f"{key}_dense{copy}.json", dense)
            calls.append(Invocation("analyze", ("algebra", "analyze", path), _check_analyze(key)))
            calls.append(Invocation(
                "obstruct", ("algebra", "obstruct", path, "--dim", str(OBSTRUCT_DIM)), _check_obstruct(key),
            ))
    return calls


def _act_scenarios(rng: random.Random) -> list[dict]:
    out = []
    for kind in ("sphere", "ball", "multiball"):
        for group in ("ST", "U"):
            for n in (3, 5):
                sc: dict = {"action": kind, "group": group, "n": n, "samples": ACT_SAMPLES}
                if kind == "ball":
                    sc.update(_ball(rng, n, [round(rng.uniform(-2, 2), 3) for _ in range(n)]))
                elif kind == "multiball":
                    # centres 4 apart along the first axis; radii stay below 1.5
                    sc["balls"] = [_ball(rng, n, [4.0 * b] + [0.0] * (n - 1)) for b in range(rng.randint(2, 3))]
                out.append(sc)
    out.append({"action": "interval", "samples": ACT_SAMPLES})
    out.append({"action": "disk", "n": 2, "samples": ACT_SAMPLES})
    return out


def _ball(rng: random.Random, n: int, center: list[float]) -> dict:
    r0 = round(rng.uniform(0.2, 0.45), 3)
    r1 = round(rng.uniform(0.6, 0.95), 3)
    return {"center": center, "radius": round(rng.uniform(0.5, 1.5), 3), "annulus": [r0, r1]}


def _small_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def _commuting_family(rng: random.Random) -> dict:
    f = _poly(2, {(2, 0): _small_positive(rng), (0, 2): _small_positive(rng)})
    profiles = [_poly(1, {(0,): Fraction(1)})]
    for deg in (1, 2, 3):
        profiles.append(_poly(1, {(deg,): Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))}))
    angle = rng.uniform(0, 2 * math.pi)
    point = [round(0.8 * math.cos(angle), 6), round(0.8 * math.sin(angle), 6)]
    return {"check": "commuting_family", "f": f, "field": "hamiltonian", "profiles": profiles,
            "flow": {"point": point, "s": 0.3, "t": 0.3, "h": 0.001}}


def numeric_mix(rng: random.Random, work: Path, root: Path, catalog_docs: dict) -> list[Invocation]:
    calls = []
    for family in ("st", "st-prime", "concat"):
        for n in range(3, 7):
            calls.append(Invocation("deform", ("deform", "verify", "--family", family, "--n", str(n)), _check_pass))
    for i, sc in enumerate(_act_scenarios(rng)):
        path = _write(work / f"act_{i}_{sc['action']}.json", sc)
        calls.append(Invocation("act", ("act", "verify", "--scenario", path), _check_pass))

    omega = float(Fraction(rng.randint(1, 6), 2))
    radius = round(rng.uniform(0.5, 2.0), 6)
    phase = round(rng.uniform(0, 2 * math.pi), 6)
    circle = {
        "field": {"components": [
            _poly(2, {(0, 1): Fraction(omega)}), _poly(2, {(1, 0): -Fraction(omega)}),
        ]},
        "point": [radius * math.cos(phase), radius * math.sin(phase)],
        "duration": FLOW_STEPS * FLOW_STEP, "step": FLOW_STEP,
    }
    path = _write(work / "flow_circle.json", circle)
    calls.append(Invocation("vf_flow", ("vf", "flow", "--scenario", path), _check_circle(omega, radius, phase)))
    # x' = dH/dy, y' = -dH/dx for a coercive quartic H: a bounded cubic field
    coeffs = tuple(_small_positive(rng) for _ in range(4))
    a, b, c, d = coeffs
    cubic = {
        "field": {"components": [
            _poly(2, {(0, 1): b, (0, 3): d}), _poly(2, {(1, 0): -a, (3, 0): -c}),
        ]},
        "point": [round(rng.uniform(0.3, 1.0), 6), round(rng.uniform(-1.0, 1.0), 6)],
        "duration": FLOW_STEPS * FLOW_STEP, "step": FLOW_STEP,
    }
    path = _write(work / "flow_cubic.json", cubic)
    calls.append(Invocation("vf_flow", ("vf", "flow", "--scenario", path), _check_energy(coeffs)))

    path = _write(work / "commuting_family.json", _commuting_family(rng))
    calls.append(Invocation("vf_verify", ("vf", "verify", "--scenario", path), _check_pass))
    for n in (2, 3, 4):
        path = _write(work / f"projective_{n}.json", {"check": "projective", "n": n, "samples": 50})
        calls.append(Invocation("vf_verify", ("vf", "verify", "--scenario", path), _check_pass))

    for path in sorted((root / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        if "action" in doc:
            calls.append(Invocation("act", ("act", "verify", "--scenario", str(path)), _check_pass))
        elif "check" in doc:
            calls.append(Invocation("vf_verify", ("vf", "verify", "--scenario", str(path)), _check_pass))
        else:
            calls.append(Invocation("vf_flow", ("vf", "flow", "--scenario", str(path)), _check_flow_finite))
    calls.append(Invocation("catalog", ("catalog", "list"), _check_catalog_list))
    return calls


# name -> (generator, catalog keys whose interchange JSON the generator needs)
WORKLOADS = {
    "exact_sparse": (exact_sparse, ()),
    "exact_dense": (exact_dense, DENSE_KEYS),
    "numeric_mix": (numeric_mix, ()),
}
