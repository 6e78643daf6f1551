"""Run one ``lieact`` command with spans and counts around the public
functions of each ``lieactions`` module.

Usage: python perfbench/traced_cli.py SPANS_JSON INVOCATION_ID LIEACT_ARGS...

The wrappers live here, not in the program: after ``lieactions.cli`` is
imported, every module-level name and class attribute that refers to a
traced function is replaced by a wrapper that records a span
``(id, parent, name, start, end, outermost)``. Spans nest under one root,
``cli.verb``, around the whole command; ``outermost`` is false when a span
of the same name is already open, so recursive time is not counted twice.
Observers that inspect arguments or results run in their own
``trace.observe`` span, so their cost is charged to tracing and the self
times of all spans still add up to the root. Functions called per sample
(action applications, bracket evaluations) are counted, not spanned; their
cost shows in the enclosing span per call. ``Poly.eval_float`` is neither:
at four calls per RK4 step per component, a wrapper would dominate the
trace, so its cost shows through ``vectorfields.flow`` per step.
The spans and counts are written to SPANS_JSON when the command exits.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}

    def wrap(self, name: str, fn, observe=None):
        spans, stack, open_names, clock = self.spans, self.stack, self.open_names, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            outermost = not open_names[name]
            open_names[name] += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names[name] -= 1
                spans[sid] = (sid, parent, name, start, end, outermost)
            if observe is not None:
                oid = len(spans)
                spans.append(None)
                ostart = clock()
                observe(self, args, result)
                spans[oid] = (oid, parent, "trace.observe", ostart, clock(), True)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def distinct(self, name: str, key) -> None:
        self.seen.setdefault(name, set()).add(key)

    def dump(self, path: str, invocation: str) -> None:
        counts = dict(self.counts)
        counts.update({f"{name}.distinct": len(keys) for name, keys in self.seen.items()})
        doc = {"invocation": invocation, "counts": counts, "spans": [s for s in self.spans if s]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- observers -------------------------------------------------------------------


def _observe_span(rec: Recorder, args, result) -> None:
    """Largest numerator or denominator bit length in a returned Subspace basis."""
    bits = max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in result.basis._data for x in row),
        default=0,
    )
    rec.counts["linalg.max_coeff_bits"] = max(rec.counts["linalg.max_coeff_bits"], bits)


def _observe_nullspace(rec: Recorder, args, result) -> None:
    m = args[0]
    rec.counts["linalg.nullspace_entries"] += m.rows * m.cols
    rec.counts["linalg.nullspace_nonzeros"] += sum(1 for row in m._data for x in row if x)
    _observe_span(rec, args, result)


def _invariant(name: str):
    def observe(rec: Recorder, args, result) -> None:
        # args[0] is the LieAlgebra; its hash covers the structure constants
        rec.distinct("algebra.invariant", (hash(args[0]), name))

    return observe


def _observe_derivations(rec: Recorder, args, result) -> None:
    rec.distinct("derivations.derivation_algebra", hash(args[0]))


def _observe_dumps(rec: Recorder, args, result) -> None:
    rec.counts["serialize.report_bytes"] += len(result.encode())


def _observe_flow(rec: Recorder, args, result) -> None:
    rec.counts["vectorfields.rk4_steps"] += len(result) - 1


# (module, attribute path, span name, observer)
SPANS = (
    ("serialize", "dumps", "serialize.dumps", _observe_dumps),
    ("catalog", "catalog", "catalog.build", None),
    ("algebra", "LieAlgebra.from_matrix_basis", "algebra.from_matrix_basis", None),
    ("algebra", "LieAlgebra.jacobi_check", "algebra.jacobi", None),
    ("algebra", "LieAlgebra.derived_series", "algebra.derived_series", _invariant("derived_series")),
    ("algebra", "LieAlgebra.lower_central_series", "algebra.lower_central_series", _invariant("lower_central_series")),
    ("algebra", "LieAlgebra.center", "algebra.center", _invariant("center")),
    ("derivations", "derivation_algebra", "derivations.derivation_algebra", _observe_derivations),
    ("derivations", "engel_flag", "derivations.engel_flag", None),
    ("derivations", "find_non_nilpotent", "derivations.find_non_nilpotent", None),
    ("derivations", "contractibility_obstruction", "derivations.contractibility", None),
    ("linalg", "nullspace", "linalg.nullspace", _observe_nullspace),
    ("linalg", "Subspace.span", "linalg.span", _observe_span),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "RatMatrix.rank", "linalg.rank", None),
    ("obstructions", "min_effective_action_dim", "obstructions.min_dim", None),
    ("obstructions", "borderline_analysis", "obstructions.borderline", None),
    ("obstructions", "n_action_verdict", "obstructions.verdict", None),
    ("deformations", "st_deformation", "deformations.build", None),
    ("deformations", "st_prime_deformation", "deformations.build", None),
    ("deformations", "diag_contraction", "deformations.build", None),
    ("deformations", "concatenate", "deformations.build", None),
    ("deformations", "verify_deformation", "deformations.verify", None),
    ("actions", "make_ball_action", "actions.make_ball", None),
    ("matrixgroups", "random_element", "matrixgroups.random_element", None),
    ("vectorfields", "flow", "vectorfields.flow", _observe_flow),
    ("vectorfields", "commuting_family", "vectorfields.commuting_family", None),
    ("vectorfields", "make_projective_action", "vectorfields.projective", None),
    ("vectorfields", "action_homomorphism_check", "vectorfields.projective", None),
    ("vectorfields", "projective_kernel", "vectorfields.projective", None),
    ("vectorfields", "orbit_info", "vectorfields.orbit_info", None),
)
# one endomorphism-law evaluation of deform verify = one numeric bracket
COUNTS = (("algebra", "LieAlgebra.bracket_numeric", "deformations.law_evals"),)


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name) for 'Class.attr' or 'attr'."""
    import importlib

    owner = importlib.import_module(f"lieactions.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _install(rec: Recorder) -> None:
    replaced = {}
    for module, path, name, observe in SPANS:
        owner, attr = _owner(module, path)
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(rec.wrap(name, raw.__func__, observe)))
        elif isinstance(owner, type):
            setattr(owner, attr, rec.wrap(name, raw, observe))
        else:
            replaced[id(raw)] = (raw, rec.wrap(name, raw, observe))
    for module, path, name in COUNTS:
        owner, attr = _owner(module, path)
        setattr(owner, attr, rec.counted(name, getattr(owner, attr)))

    # actions.verify_action: span it, and count every application of the
    # action it is handed
    from lieactions import actions

    verify = actions.verify_action

    def verify_counted(act, *args, **kwargs):
        return verify(rec.counted("actions.apply_calls", act), *args, **kwargs)

    replaced[id(verify)] = (verify, rec.wrap("actions.verify", verify_counted))

    # module-level functions are also bound by `from x import f` elsewhere
    for mod in [m for n, m in sys.modules.items() if n == "lieactions" or n.startswith("lieactions.")]:
        for attr, value in list(vars(mod).items()):
            original, wrapper = replaced.get(id(value), (None, None))
            if original is value:
                setattr(mod, attr, wrapper)


def main(argv: list[str]) -> None:
    spans_path, invocation, *args = argv
    import lieactions.cli

    rec = Recorder()
    _install(rec)
    try:
        rec.wrap("cli.verb", lieactions.cli.main.main)(args=args, prog_name="lieact")
    finally:
        rec.dump(spans_path, invocation)


if __name__ == "__main__":
    main(sys.argv[1:])
