"""One-parameter deformations and contractions of triangular algebras.

An algebra deformation here is a time-indexed family of diagonal
scalings of a fixed basis: basis element k is multiplied by sigma(t)^e_k
for a nonnegative integer exponent e_k, where sigma is a smooth
transition profile equal to 1 for t <= 0 and 0 for t >= 1 and flat at
both ends. On the unimodular triangular algebra the exponent j - i on
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
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import TYPE_CHECKING, Sequence

from .constants import DEFAULT_SEED, max_residual

if TYPE_CHECKING:
    import numpy as np

    from .algebra import LieAlgebra
    from .pcg64 import DefaultRNG

# The exact layer (`algebra`, `catalog`) is imported only by the builders
# that take an algebra from the catalog, so the group families that the ball
# actions use load none of it; numpy is imported only by the group-level
# code, and `pcg64` only by the algebra law check.

__all__ = [
    "TransitionProfile",
    "standard_profile",
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


class TransitionProfile(namedtuple("TransitionProfile", "kind")):
    """Smooth nonincreasing step: 1 for t <= 0, 0 for t >= 1, flat ends."""

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


# -- algebra-level deformations ------------------------------------------


class Stage(namedtuple("Stage", "t0 t1 exponents")):
    """One scaling stage active on the window [t0, t1]; `exponents` is a
    tuple of ints, one per basis vector."""


class AlgebraDeformation(namedtuple(
    "AlgebraDeformation", "label parent profile stages domain_indices", defaults=(None,)
)):
    """Piecewise family of diagonal scalings of parent's basis (a
    LieAlgebra), with a TransitionProfile and a tuple of Stages.

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
        theta.profile,
        tuple(stages),
        theta.domain_indices,
    )


# -- group-level deformations ---------------------------------------------


@lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major indices of the entries (i, j), j >= i, of an n x n
    matrix, and their distances j - i from the diagonal."""
    import numpy as np

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    flat = np.array([i * n + j for i, j in pairs], dtype=np.intp)
    dist = np.array([j - i for i, j in pairs], dtype=np.intp)
    flat.flags.writeable = dist.flags.writeable = False  # shared by every caller
    return flat, dist


class GroupStage(namedtuple("GroupStage", "t0 t1 kind start end")):
    """Stage of a group family: parameter runs start -> end over [t0, t1].
    `kind` is "offdiag" (scale entry (i,j) by p^(j-i)) or "diagpow" (d -> d^p)."""


class GroupDeformation(namedtuple("GroupDeformation", "label group n stages profile")):
    """Piecewise path of endomorphisms of a triangular matrix group
    (`group` is "ST" or "U"), through a tuple of GroupStages.

    Every fixed-t map is multiplicative: off-diagonal cocycle scaling for
    any parameter because the exponents add along products, and diagonal
    entrywise powers after the off-diagonal part has been projected away.
    Consecutive stages agree at their junction, so the path is continuous
    and (with the flat profile) smooth in t.
    """

    def state_at(self, t: float) -> tuple[str, float]:
        stages = self.stages
        for stage in stages:
            if t <= stage.t0:
                return stage.kind, stage.start
            if t < stage.t1:
                tau = (t - stage.t0) / (stage.t1 - stage.t0)
                s = self.profile(tau)
                return stage.kind, stage.start * s + stage.end * (1.0 - s)
        last = stages[-1]
        return last.kind, last.end

    def apply_many(self, ts: Sequence[float], gs: np.ndarray) -> np.ndarray:
        """The endomorphism at time ts[s] applied to gs[s], for a stack gs of
        shape (b, n, n): each entry (i, j), j >= i, times p^(j - i)
        ("offdiag"), or each diagonal entry d raised to d^p ("diagpow"); every
        other entry is +0.0. The state at each time and every power are
        worked out one sample at a time; the off-diagonal scalings are one
        product over the block."""
        import numpy as np

        n = self.n
        flat = gs.reshape(len(ts), n * n)
        out = np.zeros(flat.shape)
        diag = range(0, n * n, n + 1)
        offdiag, powers = [], []
        for s, t in enumerate(ts):
            kind, p = self.state_at(t)
            if kind == "offdiag":
                offdiag.append(s)
                powers.append([p ** k for k in range(n)])
            elif kind == "diagpow":
                for i in diag:
                    out[s, i] = flat[s, i] ** p
            else:
                raise ValueError(f"unknown stage kind {kind!r}")
        if offdiag:
            upper, dist = _upper_indices(n)
            rows = np.array(offdiag)[:, None]
            out[rows, upper] = flat[rows, upper] * np.array(powers)[:, dist]
        return out.reshape(gs.shape)


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


def _sample_rational_vector(rng: DefaultRNG, dim: int, support: Sequence[int]) -> list[Fraction]:
    v = [Fraction(0)] * dim
    for k in support:
        v[k] = Fraction(rng.integers(-3, 4), rng.integers(1, 3))
    return v


_CHECK_TIMES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def verify_deformation(d: AlgebraDeformation, samples: int = 100, seed: int = DEFAULT_SEED) -> DeformationReport:
    """Check D1/D2 exactly, the endomorphism law on seeded samples, the
    contraction endpoint, and flatness of the time dependence."""
    from .pcg64 import DefaultRNG

    rng = DefaultRNG(seed)  # the draws of numpy.random.default_rng(seed), without numpy
    support = d.domain()
    dim = d.parent.dim

    d1 = d.factors(-1.0) == [1.0] * dim and d.factors(0.0) == [1.0] * dim
    d2 = d.factors(1.0) == d.factors(2.0)
    contraction = d.is_contraction_at_one()

    flat = _flatness_quotient(lambda t: d.factors(t), [0.0, 1.0])

    law = 0.0
    ts = _CHECK_TIMES + rng.uniform(0.0, 1.0, 5)
    # the scaling at every check time, with its factors and the floats of x, y and [x, y] worked out once
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
