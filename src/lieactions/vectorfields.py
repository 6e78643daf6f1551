"""Polynomial vector fields: exact brackets, commuting families,
infinitesimal projective actions, and numerical flows.

The commuting-family construction takes a function f, a field X that
annihilates df, and univariate profiles u_1, ..., u_n; the fields
L_j = u_j(f) X then commute pairwise, and the certificates (pairwise
brackets expand to the zero polynomial, the u_j are linearly
independent) are exact. Flows are only a numerical cross-check of the
same facts on bounded time windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import LieAlgebra
from .catalog import catalog, catalog_matrices
from .linalg import RatMatrix, Subspace, nullspace
from .polynomials import Poly, eval_compiled

__all__ = [
    "PolyVectorField",
    "vf_bracket",
    "hamiltonian_field",
    "annihilation_check",
    "annihilation_residual",
    "AnnihilationError",
    "CommutingFamilyCertificate",
    "commuting_family",
    "projective_infinitesimal",
    "projective_kernel",
    "VFAction",
    "HomomorphismCheck",
    "action_homomorphism_check",
    "make_projective_action",
    "FlowBlowUpError",
    "MAX_FLOW_STEPS",
    "flow_steps",
    "flow",
    "flow_checks",
    "orbit_dimension",
    "orbit_info",
    "fixed_point_check",
]


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on R^n whose components are polynomials in n variables."""

    components: tuple[Poly, ...]

    def __post_init__(self):
        n = len(self.components)
        for c in self.components:
            if c.nvars != n:
                raise ValueError("component variable count must equal the dimension")

    @property
    def nvars(self) -> int:
        return len(self.components)

    @staticmethod
    def make(polys: Sequence[Poly]) -> "PolyVectorField":
        return PolyVectorField(tuple(polys))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField(tuple(-a for a in self.components))

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(tuple(a.scale(c) for a in self.components))

    def scale_by_poly(self, p: Poly) -> "PolyVectorField":
        return PolyVectorField(tuple(p * a for a in self.components))

    def eval_float(self, x: Sequence[float]) -> np.ndarray:
        return np.array(eval_compiled([c.float_terms for c in self.components], x))


def vf_bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Exact Lie bracket [V, W] = (DW)V - (DV)W."""
    if v.nvars != w.nvars:
        raise ValueError("dimension mismatch")
    n = v.nvars
    comps = []
    for k in range(n):
        total = Poly.zero(n)
        wk = w.components[k]
        vk = v.components[k]
        for i in range(n):
            total = total + v.components[i] * wk.diff(i) - w.components[i] * vk.diff(i)
        comps.append(total)
    return PolyVectorField(tuple(comps))


def hamiltonian_field(f: Poly) -> PolyVectorField:
    """In two variables: Y = (df/dx2, -df/dx1); annihilates df exactly."""
    if f.nvars != 2:
        raise ValueError("hamiltonian fields require exactly two variables")
    return PolyVectorField((f.diff(1), -f.diff(0)))


def annihilation_residual(f: Poly, v: PolyVectorField) -> Poly:
    if f.nvars != v.nvars:
        raise ValueError("dimension mismatch")
    total = Poly.zero(f.nvars)
    for i in range(f.nvars):
        total = total + f.diff(i) * v.components[i]
    return total


def annihilation_check(f: Poly, v: PolyVectorField) -> bool:
    """True iff the derivative of f along v is the zero polynomial."""
    return annihilation_residual(f, v).is_zero()


class AnnihilationError(ValueError):
    """Raised when a field fails to annihilate df; carries the residual."""

    def __init__(self, residual: Poly):
        self.residual = residual
        super().__init__(f"field does not annihilate df; residual polynomial {residual}")


@dataclass(frozen=True)
class CommutingFamilyCertificate:
    pairwise_brackets_zero: bool
    pairs_checked: int
    independent: bool

    @property
    def valid(self) -> bool:
        return self.pairwise_brackets_zero and self.independent


def commuting_family(
    f: Poly, x_field: PolyVectorField, profiles: Sequence[Poly]
) -> tuple[list[PolyVectorField], CommutingFamilyCertificate]:
    """Fields L_j = u_j(f) X with exact commutation and independence
    certificates. Requires annihilation_check(f, x_field)."""
    residual = annihilation_residual(f, x_field)
    if not residual.is_zero():
        raise AnnihilationError(residual)
    for u in profiles:
        if u.nvars != 1:
            raise ValueError("profiles must be univariate polynomials")
    fields = [x_field.scale_by_poly(u.substitute(f)) for u in profiles]
    pairs = 0
    all_zero = True
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            pairs += 1
            if not vf_bracket(fields[a], fields[b]).is_zero():
                all_zero = False
    max_deg = max((u.degree() for u in profiles), default=0)
    coeff_rows = [u.coefficient_vector(max_deg) for u in profiles]
    independent = RatMatrix(coeff_rows).rank() == len(profiles) if profiles else True
    return fields, CommutingFamilyCertificate(all_zero, pairs, independent)


def projective_infinitesimal(a: RatMatrix) -> PolyVectorField:
    """Vector field on R^n induced by a matrix in gl(n+1) acting on the
    affine chart of projective space.

    With blocks a = [[M, b], [c^T, d]], the field is
    X(x) = M x + b - x (c^T x + d); it is linear in a and its kernel is
    the scalar matrices.
    """
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    n = a.rows - 1
    if n < 1:
        raise ValueError("matrix must be at least 2x2")
    comps = []
    for i in range(n):
        coeffs: dict[tuple[int, ...], Fraction] = {}

        def bump(exp: tuple[int, ...], c: Fraction):
            if c:
                coeffs[exp] = coeffs.get(exp, Fraction(0)) + c

        zero_exp = (0,) * n
        bump(zero_exp, a.entry(i, n))  # b_i
        for j in range(n):
            e = list(zero_exp)
            e[j] += 1
            bump(tuple(e), a.entry(i, j))  # (M x)_i
        e = list(zero_exp)
        e[i] += 1
        bump(tuple(e), -a.entry(n, n))  # -d x_i
        for j in range(n):
            e = list(zero_exp)
            e[i] += 1
            e[j] += 1
            bump(tuple(e), -a.entry(n, j))  # -(c^T x) x_i
        comps.append(Poly.make(n, coeffs))
    return PolyVectorField(tuple(comps))


def projective_kernel(n: int) -> Subspace:
    """Kernel of A -> X_A on gl(n+1), as a subspace of the flattened
    matrices; equals the scalar matrices."""
    size = n + 1
    basis_fields = []
    monomials: list[tuple[int, tuple[int, ...]]] = []
    seen = set()
    for a in range(size):
        for b in range(size):
            m = RatMatrix.zeros(size, size)
            rows = m.to_lists()
            rows[a][b] = Fraction(1)
            field = projective_infinitesimal(RatMatrix(rows))
            basis_fields.append(field)
            for k, comp in enumerate(field.components):
                for e, _ in comp.terms:
                    if (k, e) not in seen:
                        seen.add((k, e))
                        monomials.append((k, e))
    monomials.sort()
    # rows: one per matrix unit; columns: coefficient on each monomial slot
    rows = []
    for field in basis_fields:
        row = []
        for k, e in monomials:
            c = Fraction(0)
            for ee, cc in field.components[k].terms:
                if ee == e:
                    c = cc
                    break
            row.append(c)
        rows.append(row)
    return nullspace(RatMatrix(rows).transpose())


@dataclass(frozen=True)
class VFAction:
    """Linear map from an algebra to polynomial vector fields, with the
    measured bracket-compatibility sign."""

    algebra: LieAlgebra
    images: tuple[PolyVectorField, ...]
    sign: int | None = None

    def image_of(self, x: Sequence) -> PolyVectorField:
        out = PolyVectorField(tuple(Poly.zero(self.images[0].nvars) for _ in range(self.images[0].nvars)))
        for c, field in zip(x, self.images):
            c = Fraction(c)
            if c:
                out = out + field.scale(c)
        return out


@dataclass(frozen=True)
class HomomorphismCheck:
    sign: int | None  # +1 or -1 when exact, None when neither works
    exact: bool
    violations: tuple[tuple[int, int], ...]


def action_homomorphism_check(action: VFAction) -> HomomorphismCheck:
    """Determine the sign eps with rho[x, y] = eps [rho x, rho y] for all
    basis pairs, exactly; report violating pairs otherwise (those of the
    sign with fewer, +1 on a tie). Each pair is bracketed once and tested
    against both signs."""
    g = action.algebra
    if len(action.images) != g.dim:
        raise ValueError("one image field per basis element required")
    violations: dict[int, list[tuple[int, int]]] = {1: [], -1: []}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = action.image_of(g.bracket(g.basis_vector(i), g.basis_vector(j)))
            rhs = vf_bracket(action.images[i], action.images[j])
            if not (lhs - rhs).is_zero():
                violations[1].append((i, j))
            if not (lhs + rhs).is_zero():
                violations[-1].append((i, j))
    fewer = min(violations, key=lambda s: len(violations[s]))
    if not violations[fewer]:
        return HomomorphismCheck(fewer, True, ())
    return HomomorphismCheck(None, False, tuple(violations[fewer]))


def make_projective_action(n: int) -> VFAction:
    """The infinitesimal action of sl(n+1) on the affine chart R^n, with
    its measured sign."""
    algebra = catalog("sl", n + 1)
    mats = catalog_matrices("sl", n + 1)
    images = tuple(projective_infinitesimal(m) for m in mats)
    action = VFAction(algebra, images)
    check = action_homomorphism_check(action)
    return VFAction(algebra, images, check.sign)


# -- flows ------------------------------------------------------------------


class FlowBlowUpError(RuntimeError):
    def __init__(self, time: float):
        self.time = time
        super().__init__(f"flow left the finite range at t = {time}")


# The trajectory is held in memory, one row per step, so the step count is bounded.
MAX_FLOW_STEPS = 10**6


def flow_steps(duration: float, h: float) -> int:
    """The number of steps of size h that cover |duration|: ceil(|duration| / h),
    at least 1 unless duration is 0. Raises ValueError for a step that is not
    positive or a count that is not finite or exceeds MAX_FLOW_STEPS."""
    if not h > 0:
        raise ValueError("step must be positive")
    ratio = abs(duration) / h
    if not ratio <= MAX_FLOW_STEPS:
        raise ValueError(
            f"a flow of duration {duration} with step {h} needs more than "
            f"{MAX_FLOW_STEPS} steps"
        )
    return max(1, math.ceil(ratio)) if duration else 0


def flow(v: PolyVectorField, p: Sequence[float], duration: float, h: float) -> np.ndarray:
    """Classical fourth-order one-step integration with fixed step h > 0.

    Returns the trajectory including the start point, one row per step;
    raises FlowBlowUpError at the first non-finite state.

    The field is compiled once (`Poly.float_terms`) and the steps run on
    Python floats: stage points x + (step/2) k, then
    x + (step/6) (((k1 + 2 k2) + 2 k3) + k4), component by component.
    """
    steps = flow_steps(duration, h)
    step = h if duration >= 0 else -h
    half, sixth = 0.5 * step, step / 6.0
    field = [c.float_terms for c in v.components]
    x = [float(c) for c in p]
    traj = [x]
    for i in range(steps):
        try:
            k1 = eval_compiled(field, x)
            k2 = eval_compiled(field, [a + half * b for a, b in zip(x, k1)])
            k3 = eval_compiled(field, [a + half * b for a, b in zip(x, k2)])
            k4 = eval_compiled(field, [a + step * b for a, b in zip(x, k3)])
        except OverflowError:  # a power beyond the float range: inf in numpy arithmetic
            raise FlowBlowUpError((i + 1) * step) from None
        x = [
            a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, x)):
            raise FlowBlowUpError((i + 1) * step)
        traj.append(x)
    return np.array(traj)


@dataclass(frozen=True)
class FlowCheckReport:
    commutation_residual: float
    level_residual: float | None


def flow_checks(
    v: PolyVectorField,
    w: PolyVectorField,
    p: Sequence[float],
    s: float,
    t: float,
    h: float,
    level_function: Poly | None = None,
) -> FlowCheckReport:
    """Residual of flowing v then w against w then v, plus drift of a
    conserved function along all four legs."""
    for duration in (s, t):  # bound every leg before running any
        flow_steps(duration, h)
    leg_vw_1 = flow(v, p, s, h)
    leg_vw_2 = flow(w, leg_vw_1[-1], t, h)
    leg_wv_1 = flow(w, p, t, h)
    leg_wv_2 = flow(v, leg_wv_1[-1], s, h)
    comm = float(np.max(np.abs(leg_vw_2[-1] - leg_wv_2[-1])))
    level = None
    if level_function is not None:
        value = level_function.eval_float
        level = 0.0
        try:
            base = value([float(c) for c in p])
            for leg in (leg_vw_1, leg_vw_2, leg_wv_1, leg_wv_2):
                for row in leg.tolist():
                    level = max(level, abs(value(row) - base))
        except OverflowError:  # the function itself leaves the float range
            level = math.inf
    return FlowCheckReport(comm, level)


# -- orbit diagnostics -------------------------------------------------------


def _orbit_singular_values(action: VFAction, p: Sequence[float]) -> np.ndarray:
    rows = np.array([f.eval_float([float(c) for c in p]) for f in action.images])
    if rows.size == 0:
        return np.zeros(0)
    return np.linalg.svd(rows, compute_uv=False)


def orbit_dimension(action: VFAction, p: Sequence[float], rel_threshold: float = 1e-9) -> int:
    """Numerical rank of the evaluation matrix of the image fields at p."""
    sv = _orbit_singular_values(action, p)
    if sv.size == 0 or sv[0] <= 1e-300:
        return 0
    return int(np.sum(sv > rel_threshold * sv[0]))


def orbit_info(action: VFAction, p: Sequence[float]) -> dict:
    """Orbit dimension plus a flag for nearly rank-deficient evaluations."""
    sv = _orbit_singular_values(action, p)
    dim = orbit_dimension(action, p)
    near = False
    if sv.size and sv[0] > 0:
        rel = sv / sv[0]
        near = bool(np.any((rel > 1e-9) & (rel < 1e-6)))
    return {"dimension": dim, "near_degenerate": near}


def fixed_point_check(action: VFAction, p: Sequence[float]) -> bool:
    return orbit_dimension(action, p) == 0
