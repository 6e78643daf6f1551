"""Polynomial vector fields: exact brackets, commuting families,
infinitesimal projective actions, and numerical flows.

The commuting-family construction takes a function f, a field X that
annihilates df, and univariate profiles u_1, ..., u_n; the fields
L_j = u_j(f) X then commute pairwise, and the certificates (X(f) = 0
expands to the zero polynomial, which makes every pairwise bracket zero;
the u_j are linearly independent) are exact. Flows are only a numerical
cross-check of the same facts on bounded time windows.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from fractions import Fraction
from operator import sub
from typing import TYPE_CHECKING, Sequence

from .constants import MAX_FLOW_STEPS, max_residual
from .polynomials import Poly, eval_compiled

if TYPE_CHECKING:
    from .linalg import RatMatrix, Subspace

# The exact layer is imported inside the functions that run it: `linalg` by
# the rank and kernel computations, `catalog` by `make_projective_action`; so
# is numpy, by the functions that build arrays. `vf flow` loads none of them.

__all__ = [
    "PolyVectorField",
    "vf_bracket",
    "hamiltonian_field",
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
    "Trajectory",
    "flow_steps",
    "flow",
    "flow_checks",
    "orbit_info",
]


class PolyVectorField(namedtuple("PolyVectorField", "components")):
    """Vector field on R^n whose components are a tuple of n Polys in n
    variables."""

    # A tuple would repeat itself under `field * 2` and `2 * field`.
    __mul__ = __rmul__ = None

    _make = classmethod(lambda cls, fields: cls(*fields))  # run the checks of __new__ in _make and _replace too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.components)
        for c in self.components:
            if c.nvars != n:
                raise ValueError("component variable count must equal the dimension")
        return self

    @property
    def nvars(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(tuple(a.scale(c) for a in self.components))

    def scale_by_poly(self, p: Poly) -> "PolyVectorField":
        return PolyVectorField(tuple(p * a for a in self.components))

    def eval_float(self, x: Sequence[float]) -> np.ndarray:
        import numpy as np

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


class AnnihilationError(ValueError):
    """Raised when a field fails to annihilate df; carries the residual."""

    def __init__(self, residual: Poly):
        self.residual = residual
        super().__init__(f"field does not annihilate df; residual polynomial {residual}")


class CommutingFamilyCertificate(namedtuple(
    "CommutingFamilyCertificate", "pairwise_brackets_zero pairs_checked independent"
)):
    """The exact certificates of a commuting family."""

    @property
    def valid(self) -> bool:
        return self.pairwise_brackets_zero and self.independent


def commuting_family(
    f: Poly, x_field: PolyVectorField, profiles: Sequence[Poly]
) -> tuple[list[PolyVectorField], CommutingFamilyCertificate]:
    """Fields L_j = u_j(f) X with exact commutation and independence
    certificates. Requires X(f) = 0; raises AnnihilationError otherwise.

    The commutation certificate is proved, not computed: for univariate u
    and v, [u(f) X, v(f) X] = u(f) X(v(f)) X - v(f) X(u(f)) X
    = (u(f) v'(f) - v(f) u'(f)) X(f) X, which is identically zero once
    X(f) = 0 has been checked exactly. So all C(k, 2) pairs of the k fields
    are reported checked and zero without expanding a bracket.
    """
    from .linalg import RatMatrix

    residual = annihilation_residual(f, x_field)
    if not residual.is_zero():
        raise AnnihilationError(residual)
    for u in profiles:
        if u.nvars != 1:
            raise ValueError("profiles must be univariate polynomials")
    fields = [x_field.scale_by_poly(u.substitute(f)) for u in profiles]
    pairs = len(fields) * (len(fields) - 1) // 2
    max_deg = max((u.degree() for u in profiles), default=0)
    coeff_rows = [u.coefficient_vector(max_deg) for u in profiles]
    independent = RatMatrix(coeff_rows).rank() == len(profiles) if profiles else True
    return fields, CommutingFamilyCertificate(True, pairs, independent)


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
    from .linalg import RatMatrix, nullspace

    size = n + 1
    units = [
        RatMatrix([[Fraction(int((i, j) == (a, b))) for j in range(size)] for i in range(size)])
        for a in range(size)
        for b in range(size)
    ]
    terms = [[dict(comp.terms) for comp in projective_infinitesimal(u).components] for u in units]
    # rows: one per monomial slot (component k, exponent e); columns: the matrix units
    slots = sorted({(k, e) for t in terms for k, comp in enumerate(t) for e in comp})
    rows = [[t[k].get(e, Fraction(0)) for t in terms] for k, e in slots]
    return nullspace(RatMatrix(rows))


class VFAction(namedtuple("VFAction", "algebra images sign", defaults=(None,))):
    """Linear map from an algebra (a LieAlgebra) to polynomial vector
    fields (`images`, one per basis vector), with the measured
    bracket-compatibility sign, or None."""

    def image_of(self, x: Sequence) -> PolyVectorField:
        out = PolyVectorField(tuple(Poly.zero(self.images[0].nvars) for _ in range(self.images[0].nvars)))
        for c, field in zip(x, self.images):
            c = Fraction(c)
            if c:
                out = out + field.scale(c)
        return out


class HomomorphismCheck(namedtuple("HomomorphismCheck", "sign exact violations")):
    """`sign` is +1 or -1 when exact, None when neither works; `violations`
    is a tuple of basis index pairs."""


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
    from .catalog import catalog, catalog_matrices

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


class Trajectory:
    """The `rows` states of a flow in `n` variables, the start point first,
    held in `data`, one flat array('d') of 8 bytes a coordinate. A row reads
    back, by index (negative too) or in order, as a tuple of n floats."""

    def __init__(self, n: int, rows: int, data: array):
        self.n, self.rows, self.data = n, rows, data

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, i: int) -> tuple[float, ...]:
        k = i + self.rows if i < 0 else i
        if not 0 <= k < self.rows:
            raise IndexError("trajectory index out of range")
        return tuple(self.data[k * self.n:(k + 1) * self.n])

    def __iter__(self):
        if not self.n:
            return iter([()] * self.rows)
        return zip(*[iter(self.data)] * self.n)  # n at a time, as tuples


def flow(v: PolyVectorField, p: Sequence[float], duration: float, h: float) -> Trajectory:
    """Classical fourth-order one-step integration with fixed step h > 0.

    Returns the trajectory including the start point, one row of floats per
    step; raises FlowBlowUpError at the first non-finite state.

    The field is compiled once (`Poly.float_terms`) and the steps run on
    Python floats: stage points x + (step/2) k, then
    x + (step/6) (((k1 + 2 k2) + 2 k3) + k4), component by component.
    """
    steps = flow_steps(duration, h)
    step = h if duration >= 0 else -h
    half, sixth = 0.5 * step, step / 6.0
    field = [c.float_terms for c in v.components]
    x = [float(c) for c in p]
    data = array("d", x)
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
        data.fromlist(x)
    return Trajectory(len(x), steps + 1, data)


class FlowCheckReport(namedtuple("FlowCheckReport", "commutation_residual level_residual")):
    """The residuals of `flow_checks`; `level_residual` is None without a
    level function."""


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
    conserved function along all four legs. Each residual is NaN once any
    of the differences it takes is NaN (`max_residual`)."""
    for duration in (s, t):  # bound every leg before running any
        flow_steps(duration, h)
    leg_vw_1 = flow(v, p, s, h)
    leg_vw_2 = flow(w, leg_vw_1[-1], t, h)
    leg_wv_1 = flow(w, p, t, h)
    leg_wv_2 = flow(v, leg_wv_1[-1], s, h)
    comm = max_residual(0.0, *map(abs, map(sub, leg_vw_2[-1], leg_wv_2[-1])))
    level = None
    if level_function is not None:
        value = level_function.eval_float
        level = 0.0
        try:
            base = value([float(c) for c in p])
            for leg in (leg_vw_1, leg_vw_2, leg_wv_1, leg_wv_2):
                for row in leg:
                    level = max_residual(level, abs(value(row) - base))
        except OverflowError:  # the function itself leaves the float range
            level = math.inf
    return FlowCheckReport(comm, level)


# -- orbit diagnostics -------------------------------------------------------


def orbit_info(action: VFAction, p: Sequence[float]) -> dict:
    """Orbit dimension, the numerical rank of the evaluation matrix of the
    image fields at p, plus a flag for nearly rank-deficient evaluations;
    one SVD gives both."""
    import numpy as np

    rows = np.array([f.eval_float([float(c) for c in p]) for f in action.images])
    sv = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(0)
    dim = 0 if sv.size == 0 or sv[0] <= 1e-300 else int(np.sum(sv > 1e-9 * sv[0]))
    rel = sv / sv[0] if sv.size and sv[0] > 0 else sv
    return {"dimension": dim, "near_degenerate": bool(np.any((rel > 1e-9) & (rel < 1e-6)))}
