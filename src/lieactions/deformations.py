"""One-parameter deformations and contractions of triangular algebras.

An algebra deformation here is a time-indexed family of diagonal
scalings of a fixed basis: basis element k is multiplied by sigma(t)^e_k
for a nonnegative integer exponent e_k, where sigma is a smooth
transition profile equal to 1 for t <= 0 and 0 for t >= 1 and flat at
both ends. On the unimodular triangular algebra the exponent j - i on
the entry (i, j) is a grading, so the endomorphism law holds as an
algebraic identity for every t simultaneously; floats enter only as
cross-checks.

Group-level families act on the matrix groups themselves through two
kinds of stage: entrywise scaling of the (i, j) entry by s^(j-i) (a
group endomorphism for every s, because the exponents add along matrix
products) and, once the off-diagonal part has been projected away,
entrywise powers of the positive diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Sequence

import numpy as np

from .algebra import LieAlgebra
from .catalog import catalog
from .constants import DEFAULT_SEED
from .matrixgroups import random_element

__all__ = [
    "TransitionProfile",
    "standard_profile",
    "cocycle_check",
    "Stage",
    "AlgebraDeformation",
    "st_deformation",
    "st_prime_deformation",
    "diag_contraction",
    "concatenate",
    "GroupStage",
    "GroupDeformation",
    "group_contraction_ST",
    "bump_group_deformation",
    "verify_deformation",
]


# -- transition profile -------------------------------------------------


@dataclass(frozen=True)
class TransitionProfile:
    """Smooth nonincreasing step: 1 for t <= 0, 0 for t >= 1, flat ends."""

    kind: str

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        if t >= 1.0:
            return 0.0
        # exp(-exp(-1/t)/(1-t)): value and all derivatives match the
        # clamped branches at both endpoints.
        return math.exp(-math.exp(-1.0 / t) / (1.0 - t))


def standard_profile() -> TransitionProfile:
    return TransitionProfile("smooth_step")


def cocycle_check(n: int, exponents: dict[tuple[int, int], int] | None = None) -> bool:
    """Exact multiplicativity of the scaling factors s_ij = sigma^e(i,j).

    With the default exponents e(i, j) = j - i this is the identity
    (j - i) + (k - j) = (k - i); a corrupted exponent table fails.
    Indices are 1-based with 1 <= i <= j <= n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")

    def expo(i: int, j: int) -> int:
        if exponents is not None and (i, j) in exponents:
            return exponents[(i, j)]
        return j - i

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                if expo(i, j) + expo(j, k) != expo(i, k):
                    return False
    return True


# -- algebra-level deformations ------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One scaling stage active on the window [t0, t1]."""

    t0: float
    t1: float
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class AlgebraDeformation:
    """Piecewise family of diagonal scalings of parent's basis.

    domain_indices restricts the family to the coordinate subalgebra
    spanned by those basis vectors (None means all of parent).
    """

    label: str
    parent: LieAlgebra
    profile: TransitionProfile
    stages: tuple[Stage, ...]
    domain_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        prev_end = None
        for s in self.stages:
            if len(s.exponents) != self.parent.dim:
                raise ValueError("stage exponent count != algebra dimension")
            if not s.t1 > s.t0:
                raise ValueError("stage window must have positive length")
            if prev_end is not None and s.t0 < prev_end:
                raise ValueError("stage windows must not overlap")
            prev_end = s.t1
            if any(e < 0 for e in s.exponents):
                raise ValueError("exponents must be nonnegative")

    @staticmethod
    def single_stage(
        label: str,
        parent: LieAlgebra,
        exponents: Sequence[int],
        domain_indices: Sequence[int] | None = None,
    ) -> "AlgebraDeformation":
        return AlgebraDeformation(
            label,
            parent,
            standard_profile(),
            (Stage(0.0, 1.0, tuple(exponents)),),
            tuple(domain_indices) if domain_indices is not None else None,
        )

    def factors(self, t: float) -> list[float]:
        """Per-basis scaling factors at time t (exact 0/1 at the clamps)."""
        out = [1.0] * self.parent.dim
        for stage in self.stages:
            if t >= stage.t1:
                for k, e in enumerate(stage.exponents):
                    if e:
                        out[k] = 0.0
                continue
            if t <= stage.t0:
                break
            tau = (t - stage.t0) / (stage.t1 - stage.t0)
            s = self.profile(tau)
            for k, e in enumerate(stage.exponents):
                if e:
                    out[k] *= s ** e
            break
        return out

    def apply(self, t: float, x: Sequence) -> list[float]:
        f = self.factors(t)
        return [f[k] * float(x[k]) for k in range(self.parent.dim)]

    def domain(self) -> tuple[int, ...]:
        if self.domain_indices is None:
            return tuple(range(self.parent.dim))
        return self.domain_indices

    def is_contraction_at_one(self) -> bool:
        f = self.factors(1.0)
        return all(f[k] == 0.0 for k in self.domain())

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "algebra": self.parent.name,
            "profile": self.profile.kind,
            "stages": [
                {"t0": s.t0, "t1": s.t1, "exponents": list(s.exponents)}
                for s in self.stages
            ],
            "domain": None if self.domain_indices is None else list(self.domain_indices),
        }


def _st_exponents(n: int) -> list[int]:
    # catalog st(n) layout: H_1..H_{n-1}, then strict uppers by distance
    expo = [0] * (n - 1)
    for dist in range(1, n):
        expo.extend([dist] * (n - dist))
    return expo


def st_deformation(n: int) -> AlgebraDeformation:
    """Scale the entry at distance d from the diagonal by sigma(t)^d.

    Fixes the traceless diagonal pointwise; at t = 1 it is the projection
    onto the diagonal subalgebra, and restricted to the commutator ideal
    it is a contraction onto zero.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return AlgebraDeformation.single_stage(
        f"st({n}) graded scaling", catalog("st", n), _st_exponents(n)
    )


def st_prime_deformation(n: int) -> AlgebraDeformation:
    """The same graded scaling on the strictly upper triangular algebra,
    where it is already a contraction onto zero."""
    if n < 2:
        raise ValueError("n must be at least 2")
    expo = []
    for dist in range(1, n):
        expo.extend([dist] * (n - dist))
    return AlgebraDeformation.single_stage(
        f"st_prime({n}) graded contraction", catalog("st_prime", n), expo
    )


def diag_contraction(n: int) -> AlgebraDeformation:
    """Contraction of the diagonal subalgebra of st(n): every diagonal
    basis vector is scaled by sigma(t)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    parent = catalog("st", n)
    return AlgebraDeformation.single_stage(
        f"d({n}) contraction",
        parent,
        [1] * parent.dim,
        domain_indices=tuple(range(n - 1)),
    )


def concatenate(psi: AlgebraDeformation, theta: AlgebraDeformation) -> AlgebraDeformation:
    """Run theta on [0, 1/2], then psi composed with theta's endpoint.

    Requires theta to retract its parent into psi's domain: the image of
    theta at t = 1 must lie in the coordinate span psi is defined on.
    If psi ends at zero, the concatenation is a contraction of the whole
    parent algebra.
    """
    if psi.parent != theta.parent:
        raise ValueError("deformations must live on the same algebra")
    end = theta.factors(1.0)
    image = {k for k, f in enumerate(end) if f != 0.0}
    domain = set(psi.domain())
    if not image <= domain:
        missing = sorted(image - domain)
        raise ValueError(
            f"not a retraction into the target subalgebra: endpoint image "
            f"keeps coordinates {missing} outside it"
        )
    stages = [Stage(s.t0 / 2.0, s.t1 / 2.0, s.exponents) for s in theta.stages]
    stages += [Stage(0.5 + s.t0 / 2.0, 0.5 + s.t1 / 2.0, s.exponents) for s in psi.stages]
    return AlgebraDeformation(
        f"{psi.label} # {theta.label}",
        theta.parent,
        theta.profile,
        tuple(stages),
        theta.domain_indices,
    )


# -- group-level deformations ---------------------------------------------


@lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major indices of the entries (i, j), j >= i, of an n x n
    matrix, and their distances j - i from the diagonal."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    flat = np.array([i * n + j for i, j in pairs], dtype=np.intp)
    dist = np.array([j - i for i, j in pairs], dtype=np.intp)
    flat.flags.writeable = dist.flags.writeable = False  # shared by every caller
    return flat, dist


@dataclass(frozen=True)
class GroupStage:
    """Stage of a group family: parameter runs start -> end over [t0, t1]."""

    t0: float
    t1: float
    kind: str  # "offdiag" (scale entry (i,j) by p^(j-i)) or "diagpow" (d -> d^p)
    start: float
    end: float


@dataclass(frozen=True)
class GroupDeformation:
    """Piecewise path of endomorphisms of a triangular matrix group.

    Every fixed-t map is multiplicative: off-diagonal cocycle scaling for
    any parameter because the exponents add along products, and diagonal
    entrywise powers after the off-diagonal part has been projected away.
    Consecutive stages agree at their junction, so the path is continuous
    and (with the flat profile) smooth in t.
    """

    label: str
    group: str  # "ST" or "U"
    n: int
    stages: tuple[GroupStage, ...]
    profile: TransitionProfile

    def state_at(self, t: float) -> tuple[str, float]:
        stages = self.stages
        if t <= stages[0].t0:
            return stages[0].kind, stages[0].start
        for stage in stages:
            if t <= stage.t0:
                return stage.kind, stage.start
            if t < stage.t1:
                tau = (t - stage.t0) / (stage.t1 - stage.t0)
                s = self.profile(tau)
                return stage.kind, stage.start * s + stage.end * (1.0 - s)
        last = stages[-1]
        return last.kind, last.end

    def apply(self, t: float, g: np.ndarray) -> np.ndarray:
        """The endomorphism at time t applied to g: each entry (i, j), j >= i,
        times p^(j - i) ("offdiag"), or each diagonal entry d raised to d^p
        ("diagpow"); every other entry is +0.0."""
        kind, p = self.state_at(t)
        n = self.n
        out = np.zeros(n * n)
        if kind == "offdiag":
            upper, dist = _upper_indices(n)
            powers = np.array([p ** k for k in range(n)])  # scalar ** for each weight
            out[upper] = np.ravel(g)[upper] * powers[dist]
        elif kind == "diagpow":
            for i in range(n):
                out[i * (n + 1)] = g[i, i] ** p
        else:
            raise ValueError(f"unknown stage kind {kind!r}")
        return out.reshape(n, n)

    def induced_algebra_factors(self, t: float) -> list[float]:
        """Derivative of the family at the identity, as scaling factors on
        the st(n) basis (traceless diagonal first, then graded uppers)."""
        kind, p = self.state_at(t)
        n = self.n
        diag_part = [1.0] * (n - 1) if kind == "offdiag" else [p] * (n - 1)
        upper_part: list[float] = []
        for dist in range(1, n):
            val = p ** dist if kind == "offdiag" else 0.0
            upper_part.extend([val] * (n - dist))
        return diag_part + upper_part

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "group": self.group,
            "n": self.n,
            "profile": self.profile.kind,
            "stages": [
                {"t0": s.t0, "t1": s.t1, "kind": s.kind, "start": s.start, "end": s.end}
                for s in self.stages
            ],
        }


def group_contraction_ST(n: int) -> GroupDeformation:
    """Contraction of ST(n): scale away the off-diagonal part on
    [0, 1/2], then drive the diagonal to the identity on [1/2, 1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    stages = (
        GroupStage(0.0, 0.5, "offdiag", 1.0, 0.0),
        GroupStage(0.5, 1.0, "diagpow", 1.0, 0.0),
    )
    return GroupDeformation(f"ST({n}) contraction", "ST", n, stages, standard_profile())


def bump_group_deformation(group: str, n: int) -> GroupDeformation:
    """Family that is the trivial endomorphism outside (0, 1) and the
    identity automorphism on a middle interval.

    For the unitriangular group a single off-diagonal bump suffices; for
    ST the path detours through the diagonal projection on both sides.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if group == "U":
        stages = (
            GroupStage(0.05, 0.35, "offdiag", 0.0, 1.0),
            GroupStage(0.65, 0.95, "offdiag", 1.0, 0.0),
        )
        return GroupDeformation(f"U({n}) bump", "U", n, stages, standard_profile())
    if group == "ST":
        stages = (
            GroupStage(0.05, 0.25, "diagpow", 0.0, 1.0),
            GroupStage(0.25, 0.45, "offdiag", 0.0, 1.0),
            GroupStage(0.55, 0.75, "offdiag", 1.0, 0.0),
            GroupStage(0.75, 0.95, "diagpow", 1.0, 0.0),
        )
        return GroupDeformation(f"ST({n}) bump", "ST", n, stages, standard_profile())
    raise ValueError(f"unsupported group tag {group!r}")


# -- verification ---------------------------------------------------------


def max_residual(best: float, *residuals: float) -> float:
    """max(best, *residuals), except that it is NaN once any of them is NaN
    (the builtin max drops a NaN that does not come first), so that a
    `<= tolerance` test on the result fails."""
    for r in residuals:
        if not r <= best and best == best:  # r is larger, or r is NaN
            best = r
    return best


@dataclass(frozen=True)
class DeformationReport:
    label: str
    kind: str  # "algebra" or "group"
    d1_identity_exact: bool
    d2_constant_exact: bool
    contraction_at_one: bool
    trivial_outside_unit: bool  # bump families: trivial at both ends
    flatness_max_quotient: float
    law_max_residual: float  # endomorphism / homomorphism residual
    extra: dict

    def passed(self, law_tol: float) -> bool:
        return (
            self.d1_identity_exact
            and self.d2_constant_exact
            and self.law_max_residual <= law_tol
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "d1_identity_exact": self.d1_identity_exact,
            "d2_constant_exact": self.d2_constant_exact,
            "contraction_at_one": self.contraction_at_one,
            "trivial_outside_unit": self.trivial_outside_unit,
            "flatness_max_quotient": self.flatness_max_quotient,
            "law_max_residual": self.law_max_residual,
            **self.extra,
        }


def _sample_rational_vector(rng, dim: int, support: Sequence[int]) -> list[Fraction]:
    v = [Fraction(0)] * dim
    for k in support:
        v[k] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
    return v


_CHECK_TIMES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _verify_algebra(d: AlgebraDeformation, samples: int, seed: int) -> DeformationReport:
    rng = np.random.default_rng(seed)
    support = d.domain()
    dim = d.parent.dim

    d1 = d.factors(-1.0) == [1.0] * dim and d.factors(0.0) == [1.0] * dim
    d2 = d.factors(1.0) == d.factors(2.0)
    contraction = d.is_contraction_at_one()

    flat = _flatness_quotient(lambda t: d.factors(t), [0.0, 1.0])

    law = 0.0
    ts = list(_CHECK_TIMES) + list(rng.uniform(0.0, 1.0, size=5))
    # d.apply(t, v) at every check time, with the factors and the floats of v worked out once
    factors = [d.factors(t) for t in ts]
    for _ in range(samples):
        x = _sample_rational_vector(rng, dim, support)
        y = _sample_rational_vector(rng, dim, support)
        xy = d.parent.bracket(x, y)
        xf, yf, xyf = ([float(c) for c in v] for v in (x, y, xy))
        for f in factors:
            lhs = [a * b for a, b in zip(f, xyf)]
            rhs = d.parent.bracket_numeric([a * b for a, b in zip(f, xf)], [a * b for a, b in zip(f, yf)])
            law = max_residual(law, *map(abs, map(sub, lhs, rhs)))
    return DeformationReport(
        d.label, "algebra", d1, d2, contraction, False, flat, law, {"samples": samples, "seed": seed}
    )


def _verify_group(gd: GroupDeformation, samples: int, seed: int) -> DeformationReport:
    rng = np.random.default_rng(seed)
    n = gd.n
    eye = np.eye(n)

    def equal(a, b):
        return bool(np.array_equal(a, b))

    probes = [random_element(rng, gd.group, n) for _ in range(8)]
    d1 = all(equal(gd.apply(t, g), g) for g in probes for t in (-1.0, 0.0))
    d2 = all(equal(gd.apply(1.0, g), gd.apply(2.0, g)) for g in probes)
    contraction = all(equal(gd.apply(1.0, g), eye) for g in probes)
    trivial_ends = all(
        equal(gd.apply(t, g), eye) for g in probes for t in (-1.0, 2.0)
    )

    g0 = probes[0]
    flat = _flatness_quotient(lambda t: gd.apply(t, g0).ravel().tolist(), [0.0, 1.0])

    law = tri_res = 0.0
    ts = list(_CHECK_TIMES) + list(rng.uniform(0.0, 1.0, size=5))
    for _ in range(samples):
        g = random_element(rng, gd.group, n)
        h = random_element(rng, gd.group, n)
        gh = g @ h
        for t in ts:
            lhs = gd.apply(t, gh)
            rhs = gd.apply(t, g) @ gd.apply(t, h)
            law = max_residual(law, float(np.abs(lhs - rhs).max()))
            tri_res = max_residual(tri_res, *(abs(lhs[i, j]) for i in range(n) for j in range(i)))
    det_max = 0.0
    for g in probes:
        for t in ts:
            det_max = max_residual(det_max, abs(float(np.linalg.det(gd.apply(t, g))) - 1.0))
    return DeformationReport(
        gd.label,
        "group",
        d1,
        d2,
        contraction,
        trivial_ends,
        flat,
        law,
        {
            "samples": samples,
            "seed": seed,
            "det_max_residual": det_max,
            "below_diagonal_max": tri_res,
        },
    )


def _flatness_quotient(values, boundary_times: list[float], h: float = 1e-3) -> float:
    """Max of the first three one-sided difference quotients at each
    boundary; flat profiles make these vanish."""
    worst = 0.0
    for t0 in boundary_times:
        for sign in (+1.0, -1.0):
            f0 = np.asarray(values(t0), dtype=float)
            f1 = np.asarray(values(t0 + sign * h), dtype=float)
            f2 = np.asarray(values(t0 + 2 * sign * h), dtype=float)
            f3 = np.asarray(values(t0 + 3 * sign * h), dtype=float)
            q1 = np.max(np.abs(f1 - f0)) / h
            q2 = np.max(np.abs(f2 - 2 * f1 + f0)) / h ** 2
            q3 = np.max(np.abs(f3 - 3 * f2 + 3 * f1 - f0)) / h ** 3
            worst = max(worst, float(q1), float(q2), float(q3))
    return worst


def verify_deformation(
    d: AlgebraDeformation | GroupDeformation,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> DeformationReport:
    """Check D1/D2 exactly, the endomorphism law on seeded samples, the
    contraction endpoint, and flatness of the time dependence."""
    if isinstance(d, AlgebraDeformation):
        return _verify_algebra(d, samples, seed)
    if isinstance(d, GroupDeformation):
        return _verify_group(d, samples, seed)
    raise TypeError("expected an AlgebraDeformation or GroupDeformation")
