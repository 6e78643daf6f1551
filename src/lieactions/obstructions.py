"""Minimum-dimension verdicts for effective solvable actions.

For a solvable algebra of derived length l, an effective local action
on an n-manifold forces n >= l - 1, and n >= l in the nilpotent case
(the Epstein-Thurston bound). In the borderline dimension, if the last
nonzero derived term sits inside a center of dimension > 1, every
analytic action is degenerate: its kernel contains a one-dimensional
central subalgebra. Everything here is the soundness direction only;
no existence claims are made.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import LieAlgebra
from .linalg import Subspace

__all__ = [
    "ObstructionReport",
    "ActionVerdict",
    "min_effective_action_dim",
    "borderline_analysis",
    "n_action_verdict",
    "VERDICT_IMPOSSIBLE",
    "VERDICT_DEGENERATE",
    "VERDICT_NONE",
]

VERDICT_IMPOSSIBLE = "impossible (below Epstein-Thurston bound)"
VERDICT_DEGENERATE = "degenerate (central kernel)"
VERDICT_NONE = "no verdict"


class ObstructionReport(namedtuple("ObstructionReport", (
    "algebra solvable nilpotent derived_length nilpotency_class min_effective_dim "
    "last_derived_term center last_term_central center_dim verdicts"
))):
    """The borderline analysis of a solvable algebra. `min_effective_dim` is
    None when it does not apply (not solvable); `last_derived_term` is the
    Subspace g^(l-1) and `center` the center; `verdicts` is a tuple of strings."""

    def to_dict(self) -> dict:
        def subspace_dict(s: Subspace | None):
            if s is None:
                return None
            return {
                "dim": s.dim,
                "basis": [list(row) for row in s.basis_vectors()],
            }

        return {
            "algebra": self.algebra,
            "solvable": self.solvable,
            "nilpotent": self.nilpotent,
            "derived_length": "infinite" if self.derived_length is None else self.derived_length,
            "nilpotency_class": "infinite" if self.nilpotency_class is None else self.nilpotency_class,
            "min_effective_dim": (
                "not applicable" if self.min_effective_dim is None else self.min_effective_dim
            ),
            "last_derived_term": subspace_dict(self.last_derived_term),
            "center": subspace_dict(self.center),
            "center_dim": self.center_dim,
            "last_term_central": self.last_term_central,
            "verdicts": list(self.verdicts),
        }


class ActionVerdict(namedtuple("ActionVerdict", "algebra manifold_dim verdict detail")):
    """The verdict on actions of an algebra on a manifold of dimension `manifold_dim`."""


def min_effective_action_dim(g: LieAlgebra) -> int | None:
    """Lower bound for the dimension of a manifold with an effective
    action of g: l-1 for solvable, l for nilpotent, None otherwise."""
    length = g.derived_length()
    if length is None:
        return None
    if g.nilpotency_class() is not None:
        return length
    return length - 1


def borderline_analysis(g: LieAlgebra) -> ObstructionReport:
    """Center/last-term analysis in the borderline dimension.

    Requires g solvable. Emits a degeneracy verdict when the last
    nonzero derived term is central and the center has dimension > 1.
    """
    series = g.derived
    length = series.length
    if length is None:
        raise ValueError(f"{g.name} is not solvable; borderline analysis does not apply")
    borderline = min_effective_action_dim(g)
    center = g.center_space
    last_term = series.terms[length - 1] if length >= 1 else Subspace.zero(g.dim)
    last_central = center.contains_subspace(last_term)
    verdicts: list[str] = []
    if last_central and center.dim > 1:
        verdicts.append(
            f"every analytic action in the borderline dimension {borderline} has "
            f"kernel containing a 1-dimensional central subalgebra; every such "
            f"action is degenerate"
        )
    elif last_central and center.dim == 1:
        verdicts.append("no central obstruction")
    return ObstructionReport(
        algebra=g.name,
        solvable=True,
        nilpotent=g.nilpotency_class() is not None,
        derived_length=length,
        nilpotency_class=g.nilpotency_class(),
        min_effective_dim=borderline,
        last_derived_term=last_term,
        center=center,
        last_term_central=last_central,
        center_dim=center.dim,
        verdicts=tuple(verdicts),
    )


def n_action_verdict(
    g: LieAlgebra, n: int, borderline: ObstructionReport | None = None
) -> ActionVerdict:
    """Verdict for actions of g on an n-manifold: impossibility below the
    bound, degeneracy at a central borderline, otherwise none.

    `borderline` is `borderline_analysis(g)` when the caller already has
    it; otherwise it is computed here if the verdict needs it."""
    bound = min_effective_action_dim(g)
    if bound is None:
        return ActionVerdict(
            g.name, n, VERDICT_NONE, "not solvable; the dimension bound does not apply"
        )
    if n < bound:
        return ActionVerdict(
            g.name,
            n,
            VERDICT_IMPOSSIBLE,
            f"no effective action exists: n = {n} < {bound} = minimum effective dimension",
        )
    report = borderline if borderline is not None else borderline_analysis(g)
    if n == report.min_effective_dim and report.last_term_central and report.center_dim > 1:
        return ActionVerdict(
            g.name,
            n,
            VERDICT_DEGENERATE,
            f"last derived term lies in the {report.center_dim}-dimensional center; "
            f"every analytic {n}-action has a central 1-dimensional kernel",
        )
    return ActionVerdict(g.name, n, VERDICT_NONE, "no obstruction detected at this dimension")
