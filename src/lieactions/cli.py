"""Command-line front end: analyze/verify/simulate with JSON reports.

Exit codes: 0 all checks pass, 1 a verification found a violation,
2 input or usage error. Reports are deterministic: same inputs and seed
give byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .constants import DEFAULT_SEED, MAX_ACTION_N, MAX_BALLS, MAX_EXPONENT, MAX_FIELD_TERMS, MAX_PROFILES, MAX_SAMPLES
from .serialize import POSITIVE, REQUIRED, FormatError, dumps, format_rational, parse_rational, read_object, read_value

if TYPE_CHECKING:
    from .algebra import LieAlgebra

# Every layer is imported inside the functions that run it, so each verb
# loads only its own: the numerical layer (numpy, actions, deformations,
# matrixgroups, vectorfields, polynomials) never on an exact verb or
# `catalog list`; `algebra` only where an algebra is loaded, and `catalog`
# only for a catalog key, its notes or `catalog list`; `derivations` only
# in `algebra analyze`, and `obstructions` only in `algebra obstruct`.

SEED_ENV_VAR = "LIEACTIONS_SEED"


def _input_error(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(2)


def _check_output(path: str) -> None:
    """An input error unless the --output file `path` can be written, found
    before the verb runs and without opening the file, so an existing file
    is left as it is when the verb then fails; `_write` reports the rest."""
    if os.path.isdir(path):
        _input_error(f"cannot write {path}: it is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            _input_error(f"cannot write {path}: the file is not writable")
        return
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        _input_error(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        _input_error(f"cannot write {path}: directory {parent} is not writable")


def _write(ctx_obj: dict, chunks: Iterable[str]) -> None:
    """Write the strings `chunks`, as they come, to the --output file, or to
    stdout without one."""
    path = ctx_obj.get("output")
    if path:
        try:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            _input_error(f"cannot write {path}: {exc}")
    else:
        sys.stdout.writelines(chunks)


def _emit(ctx_obj: dict, command: str, body: dict, tolerances: dict | None = None) -> None:
    """Write the JSON report of `command`: tool, command, seed, tolerances (if any), body."""
    head = {
        "tool": {"name": "lieactions", "version": __version__},
        "command": command,
        "seed": ctx_obj["seed"],
    }
    if tolerances:
        head["tolerances"] = tolerances
    head.update(body)
    _write(ctx_obj, [dumps(head)])


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook: a key given twice in one object is malformed JSON
    here, not a silent last-one-wins."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc}")
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        _input_error(f"malformed JSON in {path}: {exc}")


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


def _matrix_strings(m) -> list[list[str]]:
    return [[format_rational(x) for x in m.row(i)] for i in range(m.rows)]


# -- catalog ------------------------------------------------------------


def catalog_list(obj):
    """List the built-in algebras."""
    from .catalog import DEFAULT_CATALOG, catalog

    lines = [f"{key:<16} dim {catalog(key).dim:>3}  {desc}" for key, desc in DEFAULT_CATALOG]
    lines += [
        "",
        "Families accept any size: abelian(m), heisenberg(2k+1), t(n), d(n),",
        "st(n), st_prime(n), sl(n), N(n), st_c(n), sl_c(n), mueller_roemer7.",
        "Use catalog:KEY (for example catalog:st3) wherever a file is accepted.",
    ]
    _write(obj, ["\n".join(lines) + "\n"])


# -- algebra ------------------------------------------------------------


def algebra_analyze(obj, source):
    """Full invariants report: series, center, predicates, derivations."""
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
    body = {
        "algebra": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "jacobi_violations": [],
        "predicates": {"is_solvable": preds.is_solvable, "is_nilpotent": preds.is_nilpotent},
        "derived_series": _series_dict(derived),
        "lower_central_series": _series_dict(lower),
        "center": {"dim": center.dim, "basis": _matrix_strings(center.basis)},
        "derivations": {
            "dim": der.dim,
            "basis": [_matrix_strings(m) for m in der.basis],
        },
        "contractibility_obstruction": {
            "status": obstruction.status,
            "flag_dims": None if obstruction.flag is None else [s.dim for s in obstruction.flag],
            "witness": None if obstruction.witness is None else _matrix_strings(obstruction.witness),
        },
        "notes": _notes_for(alg, derived.length),
        "status": "pass",
    }
    _emit(obj, "algebra analyze", body)


def algebra_obstruct(obj, source, dim_):
    """Minimum-dimension and borderline-degeneracy verdicts."""
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


# -- deformations --------------------------------------------------------


def deform_verify(obj, family, n_, samples):
    """Check D1/D2 exactly and the endomorphism law on seeded samples."""
    from .deformations import (
        concatenate,
        diag_contraction,
        st_deformation,
        st_prime_deformation,
        verify_deformation,
    )

    read_value(n_, int, "--n", 2)
    read_value(samples, int, "--samples", 0, MAX_SAMPLES)
    build, needs_contraction = {
        "st": (st_deformation, False),
        "st-prime": (st_prime_deformation, True),
        "concat": (lambda n: concatenate(diag_contraction(n), st_deformation(n)), True),
    }[family]
    try:
        dfm = build(n_)
    except FormatError as exc:  # the algebra is above the catalog's bound, found before it is built
        _input_error(f"--n {n_}: {exc}")
    law_tol = 1e-9
    report = verify_deformation(dfm, samples=samples, seed=obj["seed"])
    ok = report.passed(law_tol) and (report.contraction_at_one or not needs_contraction)
    body = {
        "family": family,
        "n": n_,
        "descriptor": dfm.to_dict(),
        "checks": report.to_dict(),
        "status": "pass" if ok else "fail",
    }
    _emit(obj, "deform verify", body, {"endomorphism_law": law_tol})
    sys.exit(0 if ok else 1)


# -- actions --------------------------------------------------------------

ACT_KEYS = {"action": (str, REQUIRED, None), "samples": (int, 200, 1, MAX_SAMPLES), "seed": (int, None, 0),
            "tolerances": (dict, {}, None)}
TOLERANCE_KEYS = {"composition": (float, 1e-6, 0.0), "identity": (float, 1e-9, 0.0), "move": (float, 1e-6, 0.0)}
MATRIX_KEYS = {"group": (("ST", "U"), REQUIRED, None), "n": (int, REQUIRED, 1, MAX_ACTION_N)}
PLACEMENT_KEYS = {"center": ([float], REQUIRED, None), "radius": (float, 1.0, POSITIVE),
                  "annulus": ([float], [0.3, 0.9], None)}

# An action kind's function returns the arguments of `verify_action` (action, identity,
# sampler, named generators) and the witness rule; it imports when run. The sphere, ball and
# multiball kinds draw and evaluate stacks of samples; the interval and disk kinds draw and
# act one sample at a time (`random_sl2` rejects on `det`; `math.atan2`, `log` and `exp` do
# not batch bit for bit).


def _unit_vector(r, n: int):
    v = r.normal(size=n)
    return v / math.sqrt(v.dot(v))  # the Euclidean norm, as np.linalg.norm computes it


def _make_ball(group: str, n: int, placement: dict):
    from .actions import make_ball_action

    try:
        r0, r1 = placement["annulus"]
        return make_ball_action(group, n, r0, r1, placement["center"], placement["radius"])
    except ValueError as exc:
        _input_error(f"bad ball placement: {exc}")


def _matrix_action(v: dict) -> tuple:
    """The sphere and ball kinds: the matrix group `group` of size n acting
    on the unit sphere or inside one ball."""
    import numpy as np

    from .actions import StackedSampler, sphere_action
    from .matrixgroups import generators

    group, n = v["group"], v["n"]
    balls = (_make_ball(group, n, v),) if v["action"] == "ball" else ()
    action = balls[0].apply if balls else sphere_action
    return action, np.eye(n), StackedSampler(group, (n, n), balls), generators(group, n), "all"


def _multiball(v: dict) -> tuple:
    """The multiball kind: one factor of the group per ball."""
    import numpy as np

    from .actions import MultiBall, StackedSampler
    from .matrixgroups import generators

    group, n = v["group"], v["n"]
    balls = tuple(_make_ball(group, n, read_object(b, PLACEMENT_KEYS, "a ball placement")) for b in v["balls"])
    try:
        multiball = MultiBall(balls)
    except ValueError as exc:
        _input_error(f"bad ball placements: {exc}")
    k = len(balls)
    identity = tuple(np.eye(n) for _ in range(k))
    gens = [
        (f"ball{j + 1}.{name}", identity[:j] + (g,) + identity[j + 1:])
        for j in range(k) for name, g in generators(group, n)
    ]
    return multiball.apply, identity, StackedSampler(group, (k, n, n), balls), gens, "all"


def _circle_action(v: dict) -> tuple:
    """The interval and disk kinds: the lifted circle action of the universal
    cover of SL(2, R); some generator must move some point ("any")."""
    import numpy as np

    from .actions import CoverElement, OneAtATimeSampler, cover_identity, disk_action, interval_action, looped
    from .matrixgroups import generators, random_sl2

    if v["action"] == "disk":
        action, sample_pt = looped(disk_action), lambda r: _unit_vector(r, v["n"]) * r.uniform(0.0, 1.0)
    else:
        action = looped(lambda a, y: np.array([interval_action(a, float(y[0]))]))
        sample_pt = lambda r: np.array([r.uniform(0.01, 0.99)])
    sample_el = lambda r: CoverElement.of(random_sl2(r), int(r.integers(-1, 2)))
    gens = [(name, CoverElement.of(g)) for name, g in generators("SL2", 2)]
    return action, cover_identity(), OneAtATimeSampler(sample_el, sample_pt), gens, "any"


# action kind -> (its keys besides ACT_KEYS, the function that sets it up)
ACTIONS = {
    "sphere": (MATRIX_KEYS, _matrix_action),
    "ball": ({**MATRIX_KEYS, "variant": (("compact",), "compact", None), **PLACEMENT_KEYS,
              "center": ([float], None, None)}, _matrix_action),
    "multiball": ({**MATRIX_KEYS, "balls": ([dict], REQUIRED, 1, MAX_BALLS)}, _multiball),
    "interval": ({}, _circle_action),
    "disk": ({"n": (int, 2, 1, MAX_ACTION_N)}, _circle_action),
}


def act_verify(obj, scenario):
    """Verify the action axioms for a scenario file."""
    from .actions import verify_action

    sc = read_value(_json_file(scenario), dict, "the scenario")
    kind = read_value(sc.get("action"), tuple(ACTIONS), "'action' in the scenario")
    keys, setup = ACTIONS[kind]
    v = read_object(sc, {**ACT_KEYS, **keys}, "the scenario")
    tols = read_object(v["tolerances"], TOLERANCE_KEYS, "'tolerances'")
    *parts, witness_rule = setup(v)
    seed = obj["seed"] if v["seed"] is None else v["seed"]
    report = verify_action(*parts, samples=v["samples"], seed=seed, move_threshold=tols["move"])
    effective = (all if witness_rule == "all" else any)(w is not None for w in report.witnesses.values())
    ok = (effective and report.max_identity_residual <= tols["identity"]
          and report.max_composition_residual <= tols["composition"])
    body = {
        "action": kind,
        "scenario": sc,
        "report": report.to_dict(),
        "witness_rule": witness_rule,
        "status": "pass" if ok else "fail",
    }
    _emit(obj, "act verify", body, tols)
    sys.exit(0 if ok else 1)


# -- vector fields ----------------------------------------------------------

POLY_KEYS = {"vars": (int, REQUIRED, 0), "terms": ([dict], REQUIRED, None)}
TERM_KEYS = {"exponents": ([int, 0, MAX_EXPONENT], REQUIRED, None), "coefficient": (str, REQUIRED, None)}
FIELD_KEYS = {"components": ([dict], REQUIRED, 1)}
COMMUTING_KEYS = {"check": (str, REQUIRED, None), "f": (dict, REQUIRED, None),
                  "field": (object, "hamiltonian", None), "profiles": ([dict], REQUIRED, None, MAX_PROFILES),
                  "flow": (dict, None, None)}
FLOW_CHECK_KEYS = {"point": ([float], [1.0, 0.0], None), "s": (float, 0.3, None), "t": (float, 0.3, None),
                   "h": (float, 1e-3, POSITIVE), "commutation_tolerance": (float, 1e-5, 0.0),
                   "level_tolerance": (float, 1e-8, 0.0)}
PROJECTIVE_KEYS = {"check": (str, REQUIRED, None), "n": (int, REQUIRED, 1), "samples": (int, 50, 0, MAX_SAMPLES),
                   "seed": (int, None, 0)}
CHECKS = {"commuting_family": COMMUTING_KEYS, "projective": PROJECTIVE_KEYS}
FLOW_KEYS = {"field": (dict, REQUIRED, None), "point": ([float], REQUIRED, None), "duration": (float, 1.0, None),
             "step": (float, 1e-3, POSITIVE)}


def _flow_steps(duration: float, step: float, what: str) -> None:
    """An input error unless a flow of `duration` in steps of `step` stays
    within constants.MAX_FLOW_STEPS; checked before anything is allocated."""
    from .vectorfields import flow_steps

    try:
        flow_steps(duration, step)
    except ValueError as exc:
        _input_error(f"{exc} in {what}")


def _parse_poly(data, what: str):
    from .polynomials import Poly

    poly = read_object(data, POLY_KEYS, what)
    terms = [read_object(t, TERM_KEYS, f"a term of {what}") for t in poly["terms"]]
    try:
        return Poly.make(poly["vars"], {tuple(t["exponents"]): parse_rational(t["coefficient"]) for t in terms})
    except ValueError as exc:
        _input_error(f"bad polynomial in {what}: {exc}")


def _parse_field(data, what: str):
    from .vectorfields import PolyVectorField

    comps = [_parse_poly(c, what) for c in read_object(data, FIELD_KEYS, what)["components"]]
    try:
        return PolyVectorField(tuple(comps))
    except ValueError as exc:
        _input_error(f"bad vector field in {what}: {exc}")


def vf_verify(obj, scenario):
    """Exact certificates for a vector-field scenario."""
    from .vectorfields import (
        FlowBlowUpError,
        commuting_family,
        flow_checks,
        hamiltonian_field,
        make_projective_action,
        orbit_info,
        projective_kernel,
    )

    sc = read_value(_json_file(scenario), dict, "the scenario")
    check = read_value(sc.get("check"), tuple(CHECKS), "'check' in the scenario")
    v = read_object(sc, CHECKS[check], "the scenario")
    if check == "commuting_family":
        f = _parse_poly(v["f"], "'f'")
        profiles = [_parse_poly(p, "'profiles'") for p in v["profiles"]]
        # an empty "flow" object, like a missing one, asks for no flow check
        fl = read_object(v["flow"], FLOW_CHECK_KEYS, "'flow'") if v["flow"] else None
        if fl and len(fl["point"]) != f.nvars:
            _input_error(f"'point' in 'flow' has {len(fl['point'])} coordinates, 'f' has {f.nvars} variables")
        if fl:
            _flow_steps(fl["s"], fl["h"], "'flow'")
            _flow_steps(fl["t"], fl["h"], "'flow'")
        try:
            base = hamiltonian_field(f) if v["field"] == "hamiltonian" else _parse_field(v["field"], "'field'")
            # the fields u(f) X have degree at most d = deg u * deg f + deg X, so at
            # most C(d + n, n) terms each; checked before any u(f) is built
            degree = max((u.degree() for u in profiles), default=0) * f.degree()
            degree += max(c.degree() for c in base.components)
            terms = math.comb(degree + base.nvars, base.nvars)
            if terms > MAX_FIELD_TERMS:
                _input_error(f"the fields u(f) X may have degree {degree} in {base.nvars} variables, so {terms} "
                             f"terms, above the bound {MAX_FIELD_TERMS}")
            fields, cert = commuting_family(f, base, profiles)
        except ValueError as exc:  # no annihilation, non-univariate profiles, mismatched dimensions
            _input_error(str(exc))
        body = {
            "check": check,
            "certificate": {
                "pairwise_brackets_zero": cert.pairwise_brackets_zero,
                "pairs_checked": cert.pairs_checked,
                "independent": cert.independent,
            },
        }
        tols = {}
        ok = cert.valid
        if fl and len(fields) >= 2:
            try:
                fr = flow_checks(fields[0], fields[1], fl["point"], fl["s"], fl["t"], fl["h"], level_function=f)
            except FlowBlowUpError as exc:
                sys.stderr.write(f"flow failed: {exc}\n")
                sys.exit(1)
            body["flow"] = {
                "commutation_residual": fr.commutation_residual,
                "level_residual": fr.level_residual,
            }
            tols = {"commutation": fl["commutation_tolerance"], "level": fl["level_tolerance"]}
            ok = ok and fr.commutation_residual <= tols["commutation"] and fr.level_residual <= tols["level"]
        body["status"] = "pass" if ok else "fail"
        _emit(obj, "vf verify", body, tols)
        sys.exit(0 if ok else 1)

    import numpy as np

    n = v["n"]
    # make_projective_action ran the homomorphism check; the sign it
    # recorded is None exactly when the check failed
    try:
        action = make_projective_action(n)
    except FormatError as exc:  # sl(n + 1) is above the catalog's bound, found before it is built
        _input_error(f"'n' in the scenario: {exc}")
    exact = action.sign is not None
    kernel = projective_kernel(n)
    ident = [Fraction(int(i == j)) for i in range(n + 1) for j in range(n + 1)]
    kernel_is_scalars = kernel.dim == 1 and kernel.contains(ident)
    rng = np.random.default_rng(obj["seed"] if v["seed"] is None else v["seed"])
    infos = [orbit_info(action, rng.normal(size=n)) for _ in range(v["samples"])]
    dims = sorted({info["dimension"] for info in infos})
    body = {
        "check": check,
        "n": n,
        "homomorphism": {"sign": action.sign, "exact": exact},
        "kernel_is_scalars": kernel_is_scalars,
        "orbit_dimensions_sampled": dims,
        "near_degenerate_points": sum(1 for i in infos if i["near_degenerate"]),
        "status": "pass" if (exact and kernel_is_scalars) else "fail",
    }
    _emit(obj, "vf verify", body)
    sys.exit(0 if exact and kernel_is_scalars else 1)


def vf_flow(obj, scenario):
    """Integrate a field and emit the trajectory as CSV (t, x1..xn)."""
    from .vectorfields import FlowBlowUpError, flow

    v = read_object(_json_file(scenario), FLOW_KEYS, "the scenario")
    field = _parse_field(v["field"], "'field'")
    if len(v["point"]) != field.nvars:
        _input_error(f"'point' has {len(v['point'])} coordinates, 'field' has {field.nvars} variables")
    duration, step = v["duration"], v["step"]
    _flow_steps(duration, step, "the scenario")
    try:
        traj = flow(field, v["point"], duration, step)
    except FlowBlowUpError as exc:
        sys.stderr.write(f"flow failed: {exc}\n")
        sys.exit(1)
    sign = 1.0 if duration >= 0 else -1.0
    row_format = ",".join(["%.17g"] * (field.nvars + 1)) + "\n"  # what format(x, ".17g") writes
    header = "t," + ",".join(f"x{i + 1}" for i in range(field.nvars)) + "\n"
    # one row at a time: the CSV text is never held whole
    _write(obj, itertools.chain([header], (row_format % (sign * i * step, *row) for i, row in enumerate(traj))))


# -- command line ------------------------------------------------------------


def _seed(text: str) -> int:
    """A seed given by --seed or LIEACTIONS_SEED: a nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """A parser of `arguments` that takes no abbreviated options and reports
    a usage error like any input error: one `error:` line and exit code 2."""

    def __init__(self, prog: str, description: str | None, arguments, epilog: str | None = None):
        super().__init__(prog=prog, description=description, epilog=epilog, allow_abbrev=False,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
        for name, kwargs in arguments:
            self.add_argument(name, **kwargs)

    def error(self, message: str):
        _input_error(f"{self.prog}: {message}")


# An argument is (name, add_argument keywords). --seed and --output are declared once:
# the top parser takes them with a default of None, and every verb that emits a report
# takes them too, with no default, so a value given before the verb survives and one
# given after it wins.
OPTIONS = (
    ("--seed", {"type": _seed, "help": f"PRNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR})."}),
    ("--output", {"help": "Write the report here instead of stdout."}),
)
REPORT = tuple((name, {**kwargs, "default": argparse.SUPPRESS}) for name, kwargs in OPTIONS)
SOURCE = ("source", {"help": "catalog:KEY or an algebra JSON file."})
SCENARIO = ("--scenario", {"required": True, "help": "Scenario JSON file."})

# group -> verb -> (handler, its arguments). The handler's docstring is the verb's
# help, and it is called as handler({"seed": ..., "output": ...}, **its arguments).
VERBS = {
    "catalog": {"list": (catalog_list, ())},
    "algebra": {
        "analyze": (algebra_analyze, (SOURCE, *REPORT)),
        "obstruct": (algebra_obstruct, (
            SOURCE,
            ("--dim", {"dest": "dim_", "type": int, "metavar": "DIM", "help": "Manifold dimension to judge."}),
            *REPORT,
        )),
    },
    "deform": {"verify": (deform_verify, (
        ("--family", {"choices": ("st", "st-prime", "concat"), "required": True}),
        ("--n", {"dest": "n_", "type": int, "required": True, "metavar": "N"}),
        ("--samples", {"type": int, "default": 100, "help": "(default: 100)"}),
        *REPORT,
    ))},
    "act": {"verify": (act_verify, (SCENARIO, *REPORT))},
    "vf": {"verify": (vf_verify, (SCENARIO, *REPORT)), "flow": (vf_flow, (SCENARIO, *REPORT))},
}


def main(args: list[str] | None = None, prog_name: str = "lieact") -> None:
    """Exact Lie-algebra invariants, contractions, and constructed actions."""
    verbs = "\n".join(f"  {f'{group} {verb}':<18}{handler.__doc__.splitlines()[0]}"
                      for group, table in VERBS.items() for verb, (handler, _) in table.items())
    top = _Parser(prog_name, main.__doc__, OPTIONS, epilog=f"verbs:\n{verbs}")
    top.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    top.add_argument("group", choices=VERBS, metavar="GROUP", help=f"one of {', '.join(VERBS)}")
    top.add_argument("verb", metavar="VERB", help="one of the verbs below")
    top.add_argument("rest", nargs=argparse.REMAINDER, metavar="ARGS",
                     help=f"the verb's arguments and options ({prog_name} GROUP VERB --help)")
    ns = top.parse_args(sys.argv[1:] if args is None else args)
    if ns.verb not in VERBS[ns.group]:
        choices = ", ".join(map(repr, VERBS[ns.group]))
        top.error(f"argument VERB: invalid choice: {ns.verb!r} (choose from {choices})")
    # only the parser of the verb being run is built
    handler, arguments = VERBS[ns.group][ns.verb]
    values = vars(_Parser(f"{prog_name} {ns.group} {ns.verb}", handler.__doc__, arguments).parse_args(ns.rest))
    obj = {key: values.pop(key, getattr(ns, key)) for key in ("seed", "output")}
    if obj["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            obj["seed"] = _seed(env)
        except argparse.ArgumentTypeError as exc:
            _input_error(f"{SEED_ENV_VAR} {exc}")
    if obj["output"]:
        _check_output(obj["output"])
    try:
        handler(obj, **values)
    except FormatError as exc:  # raised by the reader of a scenario or an algebra document
        _input_error(str(exc))


# The benchmark's traced runner calls main.main(args=..., prog_name=...).
main.main = main

if __name__ == "__main__":
    main()
