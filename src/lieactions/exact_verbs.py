"""The handlers of the exact verbs: `catalog list`, `algebra analyze` and
`algebra obstruct`.

`cli.VERBS` describes each verb and its arguments; `cli.main` loads this
module only to run one of these verbs, and calls `HANDLERS["group verb"]`
as handler({"seed": ..., "output": ...}, **its arguments). Every layer is
imported inside the handler that runs it: `algebra` only where an
algebra is loaded, `catalog` only for a catalog key, its notes or
`catalog list`, `derivations` only in `algebra analyze` and
`obstructions` only in `algebra obstruct`; no module of the numerical
layer ever.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING

from .serialize import FormatError, _emit, _input_error, _json_file, _write, format_rational

if TYPE_CHECKING:
    from .algebra import LieAlgebra


def _load_algebra(source: str) -> tuple[LieAlgebra, str | None]:
    """Load from 'catalog:KEY' or a JSON file; returns (algebra, catalog key)."""
    from .algebra import from_json_dict

    if source.startswith("catalog:"):
        from .catalog import catalog

        key = source.split(":", 1)[1]
        try:
            return catalog(key), key
        except ValueError as exc:
            _input_error(str(exc))
    data = _json_file(source)
    try:
        return from_json_dict(data), None
    except FormatError as exc:
        _input_error(f"bad algebra document: {exc}")


_NAME_RE = re.compile(r"^(st|N)\((\d+)\)$")


def _notes_for(alg: LieAlgebra, derived_length) -> list[str]:
    m = _NAME_RE.match(alg.name)
    if not m:
        return []
    from .catalog import convention_notes

    return convention_notes(m.group(1), int(m.group(2)), derived_length)


def _series_dict(report) -> dict:
    return {
        "term_dims": list(report.term_dims),
        "length": "infinite" if report.length is None else report.length,
    }


def _row_strings(pairs, ncols: int) -> list[str]:
    """A row of `ncols` entries given by its (column, value) pairs, as "p/q" texts: "0/1" elsewhere."""
    out = ["0/1"] * ncols
    for j, x in pairs:
        out[j] = format_rational(x)
    return out


def catalog_list(obj):
    from .catalog import _FAMILIES, DEFAULT_CATALOG, parse_catalog_key

    # each dimension by its family's formula (mueller_roemer7 has the one size 7): nothing is built
    keys = [parse_catalog_key(key) for key, _ in DEFAULT_CATALOG]
    dims = [7 if family == "mueller_roemer" else _FAMILIES[family.lower()][0](size) for family, size in keys]
    lines = [f"{key:<16} dim {dim:>3}  {desc}" for (key, desc), dim in zip(DEFAULT_CATALOG, dims)]
    lines += [
        "",
        "Families accept any size: abelian(m), heisenberg(2k+1), t(n), d(n),",
        "st(n), st_prime(n), sl(n), N(n), st_c(n), sl_c(n), mueller_roemer7.",
        "Use catalog:KEY (for example catalog:st3) wherever a file is accepted.",
    ]
    _write(obj, ["\n".join(lines) + "\n"])


def algebra_analyze(obj, source):
    from .derivations import contractibility_obstruction

    alg, _ = _load_algebra(source)
    violations = alg.jacobi_check()
    if violations:
        body = {
            "algebra": alg.name,
            "dim": alg.dim,
            "jacobi_violations": [[i + 1, j + 1, k + 1] for i, j, k in violations],
            "status": "fail",
        }
        _emit(obj, "algebra analyze", body)
        sys.exit(1)

    derived = alg.derived
    lower = alg.lower_central
    preds = alg.predicates()
    center = alg.center_space
    der = alg.derivation_algebra
    obstruction = contractibility_obstruction(alg)
    n = alg.dim
    body = {
        "algebra": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "jacobi_violations": [],
        "predicates": {"is_solvable": preds.is_solvable, "is_nilpotent": preds.is_nilpotent},
        "derived_series": _series_dict(derived),
        "lower_central_series": _series_dict(lower),
        "center": {"dim": center.dim, "basis": [_row_strings(enumerate(row), n) for row in center.basis_vectors()]},
        "derivations": {
            "dim": der.dim,
            "basis": [[_row_strings(row, n) for row in m] for m in der.basis],
        },
        "contractibility_obstruction": {
            "status": obstruction.status,
            "flag_dims": None if obstruction.flag is None else [s.dim for s in obstruction.flag],
            "witness": None if obstruction.witness is None else [_row_strings(row, n) for row in obstruction.witness],
        },
        "notes": _notes_for(alg, derived.length),
        "status": "pass",
    }
    _emit(obj, "algebra analyze", body)


def algebra_obstruct(obj, source, dim_):
    from .obstructions import borderline_analysis, min_effective_action_dim, n_action_verdict

    if dim_ is not None and dim_ < 0:
        _input_error("--dim must be a nonnegative manifold dimension")
    alg, _ = _load_algebra(source)
    if alg.jacobi_check():
        _input_error(f"{alg.name} is not a Lie algebra (Jacobi fails); run analyze for details")
    bound = min_effective_action_dim(alg)
    body: dict = {
        "algebra": alg.name,
        "dim": alg.dim,
        "min_effective_dim": "not applicable" if bound is None else bound,
    }
    borderline = None
    if bound is not None:
        borderline = borderline_analysis(alg)
        body["borderline"] = borderline.to_dict()
    if dim_ is not None:
        verdict = n_action_verdict(alg, dim_, borderline)
        body["action_verdict"] = {
            "manifold_dim": dim_,
            "verdict": verdict.verdict,
            "detail": verdict.detail,
        }
    body["notes"] = _notes_for(alg, alg.derived_length())
    body["status"] = "pass"
    _emit(obj, "algebra obstruct", body)


HANDLERS = {"catalog list": catalog_list, "algebra analyze": algebra_analyze, "algebra obstruct": algebra_obstruct}
