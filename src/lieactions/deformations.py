"""One-parameter deformations and contractions of triangular algebras.

An algebra deformation here is a time-indexed family of diagonal
scalings of a fixed basis: basis element k is multiplied by sigma(t)^e_k
for a nonnegative integer exponent e_k, where sigma is `smooth_step`, the
one transition profile: equal to 1 for t <= 0 and 0 for t >= 1, and flat
at both ends. On the unimodular triangular algebra the exponent j - i on
the entry (i, j) is a grading, so the endomorphism law holds as an
algebraic identity for every t simultaneously; floats enter only as
cross-checks.

Group-level bump families act on the matrix groups themselves through
two kinds of stage: entrywise scaling of the (i, j) entry by s^(j-i) (a
group endomorphism for every s, because the exponents add along matrix
products) and, once the off-diagonal part has been projected away,
entrywise powers of the positive diagonal. The ball actions are built
from them; `verify_deformation` checks the algebra families.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from operator import mul, sub

from .constants import DEFAULT_SEED, compile_function, max_residual

TYPE_CHECKING = False  # true to a type checker only: `typing` is not loaded at run time
if TYPE_CHECKING:
    from .algebra import LieAlgebra
    from .pcg64 import DefaultRNG

# The exact layer (`algebra`, `catalog`) is imported only by the builders
# that take an algebra from the catalog, so the group families that the ball
# actions use load none of it; `matrixgroups` is imported only by the
# group-level code, and `pcg64` only by the algebra law check.

__all__ = [
    "smooth_step",
    "Stage",
    "AlgebraDeformation",
    "st_deformation",
    "st_prime_deformation",
    "diag_contraction",
    "concatenate",
    "GroupStage",
    "GroupDeformation",
    "bump_group_deformation",
    "verify_deformation",
]


# -- transition profile -------------------------------------------------


def smooth_step(t: float) -> float:
    """The transition profile of every family: a smooth nonincreasing step,
    1 for t <= 0, 0 for t >= 1, flat at both ends."""
    if t <= 0.0:
        return 1.0
    if t >= 1.0:
        return 0.0
    # exp(-exp(-1/t)/(1-t)): value and all derivatives match the
    # clamped branches at both endpoints.
    return math.exp(-math.exp(-1.0 / t) / (1.0 - t))


# -- algebra-level deformations ------------------------------------------


class Stage(namedtuple("Stage", "t0 t1 exponents")):
    """One scaling stage active on the window [t0, t1]; `exponents` is a
    tuple of ints, one per basis vector."""


class AlgebraDeformation(namedtuple(
    "AlgebraDeformation", "label parent stages domain_indices", defaults=(None,)
)):
    """Piecewise family of diagonal scalings of parent's basis (a
    LieAlgebra), through a tuple of Stages, each run by `smooth_step`.

    domain_indices restricts the family to the coordinate subalgebra
    spanned by those basis vectors (None means all of parent).
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # run the checks of __new__ in _make and _replace too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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
            s = smooth_step(tau)
            for k, e in enumerate(stage.exponents):
                if e:
                    out[k] *= s ** e
            break
        return out

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
            "profile": "smooth_step",
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
    from .catalog import catalog

    if n < 2:
        raise ValueError("n must be at least 2")
    return AlgebraDeformation.single_stage(
        f"st({n}) graded scaling", catalog("st", n), _st_exponents(n)
    )


def st_prime_deformation(n: int) -> AlgebraDeformation:
    """The same graded scaling on the strictly upper triangular algebra,
    where it is already a contraction onto zero."""
    from .catalog import catalog

    if n < 2:
        raise ValueError("n must be at least 2")
    return AlgebraDeformation.single_stage(
        f"st_prime({n}) graded contraction", catalog("st_prime", n), _st_exponents(n)[n - 1:]
    )


def diag_contraction(n: int) -> AlgebraDeformation:
    """Contraction of the diagonal subalgebra of st(n): every diagonal
    basis vector is scaled by sigma(t)."""
    from .catalog import catalog

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
        tuple(stages),
        theta.domain_indices,
    )


# -- group-level deformations ---------------------------------------------


@lru_cache(maxsize=None)
def _endomorphism_kernel(n: int):
    """apply_many(state_at, ts, gs) of GroupDeformation for n x n matrices,
    compiled once per n: the state at each time, then the image of the flat
    matrix as straight-line code."""
    from .matrixgroups import unpack

    offdiag = ", ".join("0.0" if j < i else f"g{i}_{j}" if j == i else f"g{i}_{j} * p{j - i}"
                        for i in range(n) for j in range(n))
    diagpow = ", ".join(f"g{i}_{i} ** p" if j == i else "0.0" for i in range(n) for j in range(n))
    lines = ["def apply_many(state_at, ts, gs):", "    out = []", "    append = out.append",
             "    for t, g in zip(ts, gs):", "        kind, p = state_at(t)", f"        {unpack('g', n)} = g",
             "        if kind == 'offdiag':", *[f"            p{k} = p ** {k}" for k in range(1, n)],
             f"            append(({offdiag},))", "        elif kind == 'diagpow':",
             f"            append(({diagpow},))", "        else:",
             "            raise ValueError(f'unknown stage kind {kind!r}')", "    return out"]
    return compile_function(lines, "apply_many", f"<endomorphisms {n}>")


class GroupStage(namedtuple("GroupStage", "t0 t1 kind start end")):
    """Stage of a group family: parameter runs start -> end over [t0, t1].
    `kind` is "offdiag" (scale entry (i,j) by p^(j-i)) or "diagpow" (d -> d^p)."""


class GroupDeformation(namedtuple("GroupDeformation", "label group n stages")):
    """Piecewise path of endomorphisms of a triangular matrix group
    (`group` is "ST" or "U"), through a tuple of GroupStages.

    Every fixed-t map is multiplicative: off-diagonal cocycle scaling for
    any parameter because the exponents add along products, and diagonal
    entrywise powers after the off-diagonal part has been projected away.
    Consecutive stages agree at their junction, so the path is continuous,
    and smooth in t since `smooth_step` is flat at both ends.
    """

    def state_at(self, t: float) -> tuple[str, float]:
        stages = self.stages
        for stage in stages:
            if t <= stage.t0:
                return stage.kind, stage.start
            if t < stage.t1:
                tau = (t - stage.t0) / (stage.t1 - stage.t0)
                s = smooth_step(tau)
                return stage.kind, stage.start * s + stage.end * (1.0 - s)
        last = stages[-1]
        return last.kind, last.end

    def apply_many(self, ts: Sequence[float], gs: Sequence[tuple]) -> list[tuple]:
        """The endomorphism at time ts[s] applied to gs[s], for flat row-major
        n x n matrices: each entry (i, j), j > i, times p ** (j - i)
        ("offdiag"), or each diagonal entry d raised to d ** p ("diagpow");
        every entry below the diagonal, and in "diagpow" above it, is +0.0."""
        return _endomorphism_kernel(self.n)(self.state_at, ts, gs)


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
        return GroupDeformation(f"U({n}) bump", "U", n, stages)
    if group == "ST":
        stages = (
            GroupStage(0.05, 0.25, "diagpow", 0.0, 1.0),
            GroupStage(0.25, 0.45, "offdiag", 0.0, 1.0),
            GroupStage(0.55, 0.75, "offdiag", 1.0, 0.0),
            GroupStage(0.75, 0.95, "diagpow", 1.0, 0.0),
        )
        return GroupDeformation(f"ST({n}) bump", "ST", n, stages)
    raise ValueError(f"unsupported group tag {group!r}")


# -- verification ---------------------------------------------------------


class DeformationReport(namedtuple("DeformationReport", (
    "label d1_identity_exact d2_constant_exact contraction_at_one flatness_max_quotient law_max_residual extra"
))):
    """The checks of one algebra family: `law_max_residual` is the
    endomorphism residual; `extra` is a dict of further entries for the
    report. The report's "kind" is "algebra" and its "trivial_outside_unit"
    is false, since an algebra family is the identity at t <= 0."""

    def passed(self, law_tol: float) -> bool:
        return (
            self.d1_identity_exact
            and self.d2_constant_exact
            and self.law_max_residual <= law_tol
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": "algebra",
            "d1_identity_exact": self.d1_identity_exact,
            "d2_constant_exact": self.d2_constant_exact,
            "contraction_at_one": self.contraction_at_one,
            "trivial_outside_unit": False,
            "flatness_max_quotient": self.flatness_max_quotient,
            "law_max_residual": self.law_max_residual,
            **self.extra,
        }


def _sample_vector(rng: DefaultRNG, dim: int, support: Sequence[int]) -> tuple[list[int], list[float]]:
    """A vector x whose support coordinates are each p/q, p drawn from
    [-3, 4) and then q from [1, 3), as (2 x, an integer vector since q is 1
    or 2; x as floats, each the int/int division p / q, which is
    float(Fraction(p, q)))."""
    doubled, floats = [0] * dim, [0.0] * dim
    for k in support:
        p = rng.integers(-3, 4)
        q = rng.integers(1, 3)
        doubled[k] = 2 * p // q
        floats[k] = p / q
    return doubled, floats


def _half_bracket(g: LieAlgebra, x: list[int], y: list[int]) -> list[float]:
    """[x/2, y/2] as floats for integer vectors x and y: the integer kernel
    gives 4 den times it, and the int/int division of each coordinate by
    4 den is float(Fraction) of the exact value."""
    scale = 4 * g.integer_table[0]
    return [v / scale for v in g._integer_kernel(x, y)]


_CHECK_TIMES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def verify_deformation(d: AlgebraDeformation, samples: int = 100, seed: int = DEFAULT_SEED) -> DeformationReport:
    """Check D1/D2 exactly, the endomorphism law on seeded samples, the
    contraction endpoint, and flatness of the time dependence."""
    from .pcg64 import DefaultRNG

    rng = DefaultRNG(seed)  # the draws of numpy.random.default_rng(seed), without numpy
    support = d.domain()
    parent = d.parent
    dim = parent.dim

    d1 = d.factors(-1.0) == [1.0] * dim and d.factors(0.0) == [1.0] * dim
    d2 = d.factors(1.0) == d.factors(2.0)
    contraction = d.is_contraction_at_one()

    flat = _flatness_quotient(lambda t: d.factors(t), [0.0, 1.0])

    law = 0.0
    ts = _CHECK_TIMES + rng.uniform(0.0, 1.0, 5)
    # the scaling at every check time, with its factors and the floats of x, y and [x, y] worked out once
    factors = [d.factors(t) for t in ts]
    for _ in range(samples):
        x2, xf = _sample_vector(rng, dim, support)
        y2, yf = _sample_vector(rng, dim, support)
        xyf = _half_bracket(parent, x2, y2)
        for f in factors:
            rhs = parent.bracket_numeric(list(map(mul, f, xf)), list(map(mul, f, yf)))
            law = max_residual(law, *map(abs, map(sub, map(mul, f, xyf), rhs)))
    return DeformationReport(d.label, d1, d2, contraction, flat, law, {"samples": samples, "seed": seed})


def _flatness_quotient(values, boundary_times: list[float], h: float = 1e-3) -> float:
    """Max of the first three one-sided difference quotients at each
    boundary; flat profiles make these vanish. `values(t)` is a list of
    floats; each quotient's maximum over the components is NaN once one of
    them is NaN, as numpy's `np.max` is, and the builtin max over the
    quotients then passes over it."""
    worst = 0.0
    for t0 in boundary_times:
        for sign in (+1.0, -1.0):
            f0 = values(t0)
            f1 = values(t0 + sign * h)
            f2 = values(t0 + 2 * sign * h)
            f3 = values(t0 + 3 * sign * h)
            q1 = max_residual(0.0, *(abs(b - a) for b, a in zip(f1, f0))) / h
            q2 = max_residual(0.0, *(abs(c - 2 * b + a) for c, b, a in zip(f2, f1, f0))) / h ** 2
            q3 = max_residual(0.0, *(abs(d - 3 * c + 3 * b - a) for d, c, b, a in zip(f3, f2, f1, f0))) / h ** 3
            worst = max(worst, q1, q2, q3)
    return worst
