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
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cached_property
from operator import add, sub

from .constants import MAX_FLOW_STEPS, compile_function, max_residual
from .polynomials import Poly, compile_float

TYPE_CHECKING = False  # true to a type checker only: `typing` is not loaded at run time
if TYPE_CHECKING:
    from .linalg import PairRows, Subspace

# The exact layer is imported inside the functions that run it: `linalg` by
# the rank and kernel computations, `catalog` by `make_projective_action` and
# `projective_kernel`. `vf flow` loads neither, and no function here uses numpy.

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

    # A tuple would join under `field + field` and repeat under `field * 2` and `2 * field`.
    __add__ = __mul__ = __rmul__ = None

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

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(tuple(a.scale(c) for a in self.components))

    def scale_by_poly(self, p: Poly) -> "PolyVectorField":
        """The field p X. A constant p (u(f) for a constant f, say) scales
        each component's coefficients in their term order, as the product
        would, without adding up exponent tuples term by term."""
        if p.nvars == self.nvars and p.degree() == 0:
            return self.scale(p.terms[0][1] if p.terms else 0)
        return PolyVectorField(tuple(p * a for a in self.components))

    @cached_property
    def evaluator(self):
        """f(x0, ..., x{n-1}), the tuple of this field's components at a
        point of floats, compiled once on first use (`compile_float`)."""
        return compile_float(self.components)


def vf_bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Exact Lie bracket [V, W] = (DW)V - (DV)W.

    Component k is sum_i V_i d_i W_k - W_i d_i V_k, gathered term by term in
    one dict and sorted once."""
    if v.nvars != w.nvars:
        raise ValueError("dimension mismatch")
    n = v.nvars
    comps = []
    for k in range(n):
        acc: dict[tuple[int, ...], Fraction] = {}
        for a, b, sign in ((v, w, 1), (w, v, -1)):
            for i in range(n):
                for e2, c2 in b.components[k].terms:
                    if not e2[i]:
                        continue
                    d = list(e2)
                    d[i] -= 1
                    c = sign * e2[i] * c2  # c x^d is the term of d_i b_k, signed
                    for e1, c1 in a.components[i].terms:
                        e = tuple(map(add, e1, d))
                        acc[e] = acc.get(e, 0) + c1 * c
        comps.append(Poly(n, tuple(sorted((e, c) for e, c in acc.items() if c))))
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


def projective_infinitesimal(a: PairRows) -> PolyVectorField:
    """Vector field on R^n induced by a matrix in gl(n+1) acting on the
    affine chart of projective space.

    With blocks a = [[M, b], [c^T, d]], the field is
    X(x) = M x + b - x (c^T x + d); it is linear in a and its kernel is
    the scalar matrices.
    """
    if any(not 0 <= j < len(a) for row in a for j, _ in row):
        raise ValueError("matrix must be square")
    n = len(a) - 1
    if n < 1:
        raise ValueError("matrix must be at least 2x2")

    def monomial(*ks: int) -> tuple[int, ...]:
        """The exponent of the product of the x_k; k = n stands for 1."""
        return tuple(ks.count(v) for v in range(n))

    comps = []
    for i in range(n):
        # with x_n = 1: sum_j a_ij x_j - x_i sum_j a_nj x_j, read off the nonzero entries
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for e, c in [(monomial(j), c) for j, c in a[i]] + [(monomial(i, j), -c) for j, c in a[n]]:
            coeffs[e] = coeffs.get(e, 0) + c
        comps.append(Poly.make(n, coeffs))
    return PolyVectorField(tuple(comps))


def projective_kernel(n: int) -> Subspace:
    """Kernel of A -> X_A on gl(n+1), as a subspace of the flattened
    matrices; equals the scalar matrices."""
    from .catalog import _unit_matrix
    from .linalg import RatMatrix, nullspace

    size = n + 1
    units = [_unit_matrix(size, a, b) for a in range(size) for b in range(size)]
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
        """sum_j x_j images[j], gathered in one dict per component and sorted once."""
        n = self.images[0].nvars
        accs: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(n)]
        for c, field in zip(x, self.images):
            if c:  # a zero coordinate adds nothing
                c = Fraction(c)
                for acc, comp in zip(accs, field.components):
                    for e, k in comp.terms:
                        acc[e] = acc.get(e, 0) + c * k
        return PolyVectorField(tuple(Poly(n, tuple(sorted((e, c) for e, c in acc.items() if c))) for acc in accs))


class HomomorphismCheck(namedtuple("HomomorphismCheck", "sign exact violations")):
    """`sign` is +1 or -1 when exact, None when neither works; `violations`
    is a tuple of basis index pairs."""


def action_homomorphism_check(action: VFAction) -> HomomorphismCheck:
    """Determine the sign eps with rho[x, y] = eps [rho x, rho y] for all
    basis pairs, exactly; report violating pairs otherwise (those of the
    sign with fewer, +1 on a tie). Each pair is bracketed once and tested
    against both signs; [e_i, e_j] is read from the algebra's sparse table,
    where a pair that is absent brackets to zero."""
    g = action.algebra
    if len(action.images) != g.dim:
        raise ValueError("one image field per basis element required")
    table = dict(g.table)
    violations: dict[int, list[tuple[int, int]]] = {1: [], -1: []}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coords = [0] * g.dim
            for k, c in table.get((i, j), ()):
                coords[k] = c
            lhs = action.image_of(coords)
            rhs = vf_bracket(action.images[i], action.images[j])
            # the terms of a field are canonical, so equal fields are equal tuples
            if lhs != rhs:
                violations[1].append((i, j))
            if lhs != rhs.scale(-1):
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

    The steps run in the driver of the dimension (`_rk4_driver`), which
    calls the field's evaluator four times a step on Python floats: stage
    points x + (step/2) k, then x + (step/6) (((k1 + 2 k2) + 2 k3) + k4),
    component by component.
    """
    steps = flow_steps(duration, h)
    if len(p) != v.nvars:
        raise ValueError("point dimension mismatch")
    step = h if duration >= 0 else -h
    x = [float(c) for c in p]
    data = array("d", x)
    _rk4_driver(len(x))(v.evaluator, x, steps, step, 0.5 * step, step / 6.0, data)
    return Trajectory(len(x), steps + 1, data)


@cache
def _rk4_driver(n: int):
    """The RK4 loop of `flow` in n variables as straight-line code, compiled
    once per n: run(f, x, steps, step, half, sixth, data) takes `steps`
    steps of the evaluator f from the point x (a list of floats) and
    appends each new state to the array `data`. An OverflowError of f, and
    a state that is not finite, end the loop as FlowBlowUpError((i + 1) * step)
    at step i."""
    def unpack(names: list[str], value: str) -> str:
        return f"{', '.join(names)}, = {value}" if names else value

    def stage(k: int, at: str) -> str:
        """k{k}_0, k{k}_1, ... = f at the point `at`."""
        return unpack([f"k{k}_{j}" for j in range(n)], f"f({at})")

    def point(k: int, factor: str) -> str:
        return ", ".join(f"x{j} + {factor} * k{k}_{j}" for j in range(n))

    body = [stage(1, ", ".join(f"x{j}" for j in range(n))), stage(2, point(1, "half")),
            stage(3, point(2, "half")), stage(4, point(3, "step"))]
    body += [f"x{j} = x{j} + sixth * (((k1_{j} + 2.0 * k2_{j}) + 2.0 * k3_{j}) + k4_{j})" for j in range(n)]
    body += [f"if not isfinite(x{j}): raise FlowBlowUpError((i + 1) * step)" for j in range(n)]
    body += [f"append(x{j})" for j in range(n)]
    lines = ["def run(f, x, steps, step, half, sixth, data):"]
    head = [unpack([f"x{j}" for j in range(n)], "x"), "append = data.append", "try:", "    for i in range(steps):"]
    lines += [f"    {line}" for line in head]
    lines += [f"            {line}" for line in body]
    lines += ["    except OverflowError:", "        raise FlowBlowUpError((i + 1) * step) from None"]
    return compile_function(lines, "run", "<rk4 driver>", isfinite=math.isfinite, FlowBlowUpError=FlowBlowUpError)


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
        value = compile_float((level_function,))
        level = 0.0
        try:
            base, = value(*map(float, p))
            for leg in (leg_vw_1, leg_vw_2, leg_wv_1, leg_wv_2):
                for row in leg:
                    level = max_residual(level, abs(value(*row)[0] - base))
        except OverflowError:  # the function itself leaves the float range
            level = math.inf
    return FlowCheckReport(comm, level)


# -- orbit diagnostics -------------------------------------------------------


def orbit_info(action: VFAction) -> int:
    """The dimension n of every orbit of an action on R^n whose images
    include the n unit fields d/dx_i, as the images of E(i, n+1) under
    `projective_infinitesimal` are; checked exactly on the polynomial
    images, with a ValueError when one is missing.

    At each point the unit fields evaluate to the n rows of the identity,
    so the evaluation matrix A of the images has rank n and A^T A >= I:
    its smallest singular value is at least 1 everywhere."""
    if not action.images:
        raise ValueError("the action has no image fields")
    n = action.images[0].nvars
    images = set(action.images)
    for i in range(n):
        if PolyVectorField(tuple(Poly.constant(n, int(i == j)) for j in range(n))) not in images:
            raise ValueError(f"the unit field d/dx{i + 1} is not among the images")
    return n
