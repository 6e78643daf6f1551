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

from .serialize import FormatError, _emit, _input_error, _json_file, _quoted, _write, rational_row, read_int

TYPE_CHECKING = False  # true to a type checker only: `typing` is not loaded at run time
if TYPE_CHECKING:
    from .algebra import LieAlgebra


def _load_algebra(source: str) -> LieAlgebra:
    """Load from 'catalog:KEY' or a JSON file."""
    from .algebra import from_json_dict

    if source.startswith("catalog:"):
        from .catalog import catalog

        try:
            return catalog(source.split(":", 1)[1])
        except ValueError as exc:
            _input_error(str(exc))
    try:
        return from_json_dict(_json_file(source))
    except FormatError as exc:
        _input_error(f"bad algebra document: {exc}")


_NAME_RE = re.compile(r"(st|N)\(([0-9]+)\)")


def _notes_for(alg: LieAlgebra, derived_length) -> list[str]:
    m = _NAME_RE.fullmatch(alg.name)
    if not m:
        return []
    from .catalog import convention_notes

    size = read_int(m.group(2), f"the size in algebra name {_quoted(alg.name)}")
    return convention_notes(m.group(1), size, derived_length)


def _series_dict(report) -> dict:
    return {
        "term_dims": list(report.term_dims),
        "length": "infinite" if report.length is None else report.length,
    }


def catalog_list(obj):
    from .catalog import DEFAULT_CATALOG, catalog_dimension

    lines = [f"{key:<16} dim {catalog_dimension(key):>3}  {desc}" for key, desc in DEFAULT_CATALOG]
    lines += [
        "",
        "Families accept any size: abelian(m), heisenberg(2k+1), t(n), d(n),",
        "st(n), st_prime(n), sl(n), N(n), st_c(n), sl_c(n), mueller_roemer7.",
        "Use catalog:KEY (for example catalog:st3) wherever a file is accepted.",
    ]
    _write(obj, ["\n".join(lines) + "\n"])


def algebra_analyze(obj, source):
    from .derivations import contractibility_obstruction

    alg = _load_algebra(source)
    violations = alg.jacobi_check()
    if violations:
        body = {
            "algebra": alg.name,
            "dim": alg.dim,
            "jacobi_violations": [[i + 1, j + 1, k + 1] for i, j, k in violations],
        }
        _emit(obj, "algebra analyze", body, False)

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
        "center": {"dim": center.dim, "basis": [rational_row(enumerate(row), n) for row in center.basis_vectors()]},
        "derivations": {
            "dim": der.dim,
            "basis": [[rational_row(row, n) for row in m] for m in der.basis],
        },
        "contractibility_obstruction": {
            "status": obstruction.status,
            "flag_dims": None if obstruction.flag is None else [s.dim for s in obstruction.flag],
            "witness": None if obstruction.witness is None else [rational_row(row, n) for row in obstruction.witness],
        },
        "notes": _notes_for(alg, derived.length),
    }
    _emit(obj, "algebra analyze", body, True)


def algebra_obstruct(obj, source, dim_):
    from .obstructions import borderline_analysis, min_effective_action_dim, n_action_verdict

    alg = _load_algebra(source)
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
    _emit(obj, "algebra obstruct", body, True)


HANDLERS = {"catalog list": catalog_list, "algebra analyze": algebra_analyze, "algebra obstruct": algebra_obstruct}
