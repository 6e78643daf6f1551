"""Command-line front end: analyze/verify/simulate with JSON reports.

Exit codes: 0 all checks pass, 1 a verification found a violation,
2 input or usage error. Reports are deterministic: same inputs and seed
give byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction

import click

from . import __version__
from .algebra import FormatError, LieAlgebra, from_json_dict
from .catalog import DEFAULT_CATALOG, catalog, convention_notes
from .constants import DEFAULT_SEED
from .obstructions import borderline_analysis, min_effective_action_dim, n_action_verdict
from .serialize import dumps, format_rational, parse_rational

# The numerical layer (numpy, actions, deformations, matrixgroups,
# vectorfields, polynomials) is imported inside the verbs that run it, so
# the exact verbs and `catalog list` never pay for loading it; so is
# `derivations`, which only `algebra analyze` runs.

SEED_ENV_VAR = "LIEACTIONS_SEED"


def _input_error(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write(ctx_obj: dict, text: str) -> None:
    """Write `text` to the --output file, or to stdout without one."""
    path = ctx_obj.get("output")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


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
    _write(ctx_obj, dumps(head))


def _json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc}")
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        _input_error(f"malformed JSON in {path}: {exc}")


def _load_algebra(source: str) -> tuple[LieAlgebra, str | None]:
    """Load from 'catalog:KEY' or a JSON file; returns (algebra, catalog key)."""
    if source.startswith("catalog:"):
        key = source.split(":", 1)[1]
        try:
            return catalog(key), key
        except ValueError as exc:
            _input_error(str(exc))
    data = _json_file(source)
    try:
        return from_json_dict(data, validate=False), None
    except FormatError as exc:
        _input_error(f"bad algebra document: {exc}")


_NAME_RE = re.compile(r"^(st|N)\((\d+)\)$")


def _notes_for(alg: LieAlgebra, derived_length) -> list[str]:
    m = _NAME_RE.match(alg.name)
    if not m:
        return []
    return convention_notes(m.group(1), int(m.group(2)), derived_length)


def _series_dict(report) -> dict:
    return {
        "term_dims": list(report.term_dims),
        "length": "infinite" if report.length is None else report.length,
    }


def _matrix_strings(m) -> list[list[str]]:
    return [[format_rational(x) for x in m.row(i)] for i in range(m.rows)]


def _store(ctx, param, value) -> None:
    """Keep a given --seed/--output in the context object that every
    subcommand shares; one given after the verb is parsed last and wins."""
    if value is not None:
        ctx.ensure_object(dict)[param.name] = value


# Both options are declared once, for the group and for every verb that emits a report.
SEED_OPTION = click.option("--seed", type=click.IntRange(min=0), callback=_store, expose_value=False,
                           help=f"PRNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR}).")
OUTPUT_OPTION = click.option("--output", type=click.Path(dir_okay=False), callback=_store, expose_value=False,
                             help="Write the report here instead of stdout.")


@click.group()
@SEED_OPTION
@OUTPUT_OPTION
@click.version_option(__version__)
@click.pass_context
def main(ctx):
    """Exact Lie-algebra invariants, contractions, and constructed actions."""
    obj = ctx.ensure_object(dict)
    if "seed" not in obj:
        env = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            obj["seed"] = click.IntRange(min=0).convert(env, None, None)
        except click.BadParameter:
            _input_error(f"{SEED_ENV_VAR} must be a nonnegative integer, got {env!r}")


# -- catalog ------------------------------------------------------------


@main.group(name="catalog")
def catalog_cmd():
    """Named algebras."""


@catalog_cmd.command("list")
@click.pass_obj
def catalog_list(obj):
    """List the built-in algebras."""
    lines = [f"{key:<16} dim {catalog(key).dim:>3}  {desc}" for key, desc in DEFAULT_CATALOG]
    lines += [
        "",
        "Families accept any size: abelian(m), heisenberg(2k+1), t(n), d(n),",
        "st(n), st_prime(n), sl(n), N(n), st_c(n), sl_c(n), mueller_roemer7.",
        "Use catalog:KEY (for example catalog:st3) wherever a file is accepted.",
    ]
    _write(obj, "\n".join(lines) + "\n")


# -- algebra ------------------------------------------------------------


@main.group()
def algebra():
    """Structure-constant invariants."""


@algebra.command("analyze")
@click.argument("source")
@SEED_OPTION
@OUTPUT_OPTION
@click.pass_obj
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


@algebra.command("obstruct")
@click.argument("source")
@click.option("--dim", "dim_", type=int, default=None, help="Manifold dimension to judge.")
@SEED_OPTION
@OUTPUT_OPTION
@click.pass_obj
def algebra_obstruct(obj, source, dim_):
    """Minimum-dimension and borderline-degeneracy verdicts."""
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


@main.group()
def deform():
    """Deformation and contraction families."""


@deform.command("verify")
@click.option("--family", type=click.Choice(["st", "st-prime", "concat"]), required=True)
@click.option("--n", "n_", type=int, required=True)
@click.option("--samples", type=int, default=100, show_default=True)
@SEED_OPTION
@OUTPUT_OPTION
@click.pass_obj
def deform_verify(obj, family, n_, samples):
    """Check D1/D2 exactly and the endomorphism law on seeded samples."""
    from .deformations import (
        concatenate,
        diag_contraction,
        st_deformation,
        st_prime_deformation,
        verify_deformation,
    )

    if n_ < 2:
        _input_error("--n must be at least 2")
    if family == "st":
        dfm = st_deformation(n_)
        needs_contraction = False
    elif family == "st-prime":
        dfm = st_prime_deformation(n_)
        needs_contraction = True
    else:
        dfm = concatenate(diag_contraction(n_), st_deformation(n_))
        needs_contraction = True
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


# -- scenario files ---------------------------------------------------------

# A key rule is (kind, default, low). kind is int, float (a finite number, read as a
# float), str, dict, object (anything), [kind] (a list of such values) or a tuple of
# the allowed values; default is REQUIRED for a key that must be given; low is an
# inclusive lower bound on the value, or on the length of a list, or None.
REQUIRED = object()
POSITIVE = math.ulp(0.0)  # the bound of a number that must be above 0
_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}


def _value(value, kind, low, label: str):
    """`value` if it keeps the rule (kind, low), else an input error."""
    if isinstance(kind, list):
        items = [_value(x, kind[0], None, f"each entry of {label}") for x in _value(value, list, None, label)]
        if low is not None and len(items) < low:
            _input_error(f"{label} must have at least {low} entries")
        return items
    if isinstance(kind, tuple):
        ok, what = value in kind, "one of " + ", ".join(map(repr, kind))
    elif kind is float:
        ok, what = type(value) in (int, float) and abs(value) <= sys.float_info.max, "a finite number"
    else:  # bool is an int subclass, so int is checked by exact type
        ok, what = (type(value) is int if kind is int else isinstance(value, kind)), _KIND_NAMES.get(kind)
    if not ok:
        _input_error(f"{label} must be {what}, got {value!r}")
    value = float(value) if kind is float else value
    if low is not None and value < low:
        _input_error(f"{label} must be {'positive' if low is POSITIVE else f'at least {low}'}, got {value!r}")
    return value


def _read(doc, spec: dict, what: str) -> dict:
    """Every key of `spec` read from the JSON object `doc` by its rule, or its
    default; unknown keys and missing required keys are input errors."""
    _value(doc, dict, None, what)
    unknown = [key for key in doc if key not in spec]
    if unknown:
        _input_error(f"unknown key {unknown[0]!r} in {what}; allowed: {', '.join(spec)}")
    values = {}
    for key, (kind, default, low) in spec.items():
        if key in doc:
            values[key] = _value(doc[key], kind, low, f"{key!r} in {what}")
        elif default is REQUIRED:
            _input_error(f"{what} is missing {key!r}")
        else:
            values[key] = default
    return values


# -- actions --------------------------------------------------------------

ACT_KEYS = {"action": (str, REQUIRED, None), "samples": (int, 200, 1), "seed": (int, None, 0),
            "tolerances": (dict, {}, None)}
TOLERANCE_KEYS = {"composition": (float, 1e-6, 0.0), "identity": (float, 1e-9, 0.0), "move": (float, 1e-6, 0.0)}
MATRIX_KEYS = {"group": (("ST", "U"), REQUIRED, None), "n": (int, REQUIRED, 1)}
PLACEMENT_KEYS = {"center": ([float], REQUIRED, None), "radius": (float, 1.0, POSITIVE),
                  "annulus": ([float], [0.3, 0.9], None)}

# An action kind's function returns the arguments of `verify_action` (action, identity,
# element sampler, point sampler, named generators) and the witness rule; it imports when run.


def _ball_points(n: int, balls=()):
    """Point sampler: a random unit vector of R^n or, given balls, a point of a
    random one at relative radius in [0.05, 1.3), around and across its annulus."""
    import numpy as np

    def sample(r):
        if len(balls) > 1:
            ball = balls[int(r.integers(0, len(balls)))]
        else:  # integers(0, 1) would draw nothing, so one ball is taken as it is
            ball = balls[0] if balls else None
        v = r.normal(size=n)
        v = v / math.sqrt(v.dot(v))  # the Euclidean norm, as np.linalg.norm computes it
        return v if ball is None else ball.center_array + v * r.uniform(0.05, 1.3) * ball.radius

    return sample


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

    from .actions import sphere_action
    from .matrixgroups import generators, random_element

    group, n = v["group"], v["n"]
    balls = [_make_ball(group, n, v)] if v["action"] == "ball" else []
    action = balls[0].apply if balls else sphere_action
    sample_el = lambda r: random_element(r, group, n)
    return action, np.eye(n), sample_el, _ball_points(n, balls), generators(group, n), "all"


def _multiball(v: dict) -> tuple:
    """The multiball kind: one factor of the group per ball."""
    import numpy as np

    from .actions import MultiBall
    from .matrixgroups import generators, random_element

    group, n = v["group"], v["n"]
    balls = [_make_ball(group, n, _read(b, PLACEMENT_KEYS, "a ball placement")) for b in v["balls"]]
    try:
        multiball = MultiBall(tuple(balls))
    except ValueError as exc:
        _input_error(f"bad ball placements: {exc}")
    k = len(balls)
    identity = tuple(np.eye(n) for _ in range(k))
    gens = [
        (f"ball{j + 1}.{name}", identity[:j] + (g,) + identity[j + 1:])
        for j in range(k) for name, g in generators(group, n)
    ]
    sample_el = lambda r: tuple(random_element(r, group, n) for _ in range(k))
    return multiball.apply, identity, sample_el, _ball_points(n, balls), gens, "all"


def _circle_action(v: dict) -> tuple:
    """The interval and disk kinds: the lifted circle action of the universal
    cover of SL(2, R); some generator must move some point ("any")."""
    import numpy as np

    from .actions import CoverElement, cover_identity, disk_action, interval_action
    from .matrixgroups import generators, random_sl2

    if v["action"] == "disk":
        unit = _ball_points(v["n"])
        action, sample_pt = disk_action, lambda r: unit(r) * r.uniform(0.0, 1.0)
    else:
        action = lambda a, y: np.array([interval_action(a, float(y[0]))])
        sample_pt = lambda r: np.array([r.uniform(0.01, 0.99)])
    sample_el = lambda r: CoverElement.of(random_sl2(r), int(r.integers(-1, 2)))
    gens = [(name, CoverElement.of(g)) for name, g in generators("SL2", 2)]
    return action, cover_identity(), sample_el, sample_pt, gens, "any"


# action kind -> (its keys besides ACT_KEYS, the function that sets it up)
ACTIONS = {
    "sphere": (MATRIX_KEYS, _matrix_action),
    "ball": ({**MATRIX_KEYS, "variant": (("compact",), "compact", None), **PLACEMENT_KEYS,
              "center": ([float], None, None)}, _matrix_action),
    "multiball": ({**MATRIX_KEYS, "balls": ([dict], REQUIRED, 1)}, _multiball),
    "interval": ({}, _circle_action),
    "disk": ({"n": (int, 2, 1)}, _circle_action),
}


@main.group()
def act():
    """Constructed group actions."""


@act.command("verify")
@click.option("--scenario", type=click.Path(exists=False), required=True)
@SEED_OPTION
@OUTPUT_OPTION
@click.pass_obj
def act_verify(obj, scenario):
    """Verify the action axioms for a scenario file."""
    from .actions import verify_action

    sc = _value(_json_file(scenario), dict, None, "the scenario")
    kind = _value(sc.get("action"), tuple(ACTIONS), None, "'action' in the scenario")
    keys, setup = ACTIONS[kind]
    v = _read(sc, {**ACT_KEYS, **keys}, "the scenario")
    tols = _read(v["tolerances"], TOLERANCE_KEYS, "'tolerances'")
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
TERM_KEYS = {"exponents": ([int], REQUIRED, None), "coefficient": (str, REQUIRED, None)}
FIELD_KEYS = {"components": ([dict], REQUIRED, 1)}
COMMUTING_KEYS = {"check": (str, REQUIRED, None), "f": (dict, REQUIRED, None),
                  "field": (object, "hamiltonian", None), "profiles": ([dict], REQUIRED, None),
                  "flow": (dict, None, None)}
FLOW_CHECK_KEYS = {"point": ([float], [1.0, 0.0], None), "s": (float, 0.3, None), "t": (float, 0.3, None),
                   "h": (float, 1e-3, POSITIVE), "commutation_tolerance": (float, 1e-5, 0.0),
                   "level_tolerance": (float, 1e-8, 0.0)}
PROJECTIVE_KEYS = {"check": (str, REQUIRED, None), "n": (int, REQUIRED, 1), "samples": (int, 50, 0),
                   "seed": (int, None, 0)}
CHECKS = {"commuting_family": COMMUTING_KEYS, "projective": PROJECTIVE_KEYS}
FLOW_KEYS = {"field": (dict, REQUIRED, None), "point": ([float], REQUIRED, None), "duration": (float, 1.0, None),
             "step": (float, 1e-3, POSITIVE)}


def _flow_steps(duration: float, step: float, what: str) -> None:
    """An input error unless a flow of `duration` in steps of `step` stays
    within vectorfields.MAX_FLOW_STEPS; checked before anything is allocated."""
    from .vectorfields import flow_steps

    try:
        flow_steps(duration, step)
    except ValueError as exc:
        _input_error(f"{exc} in {what}")


def _parse_poly(data, what: str):
    from .polynomials import Poly

    poly = _read(data, POLY_KEYS, what)
    terms = [_read(t, TERM_KEYS, f"a term of {what}") for t in poly["terms"]]
    try:
        return Poly.make(poly["vars"], {tuple(t["exponents"]): parse_rational(t["coefficient"]) for t in terms})
    except ValueError as exc:
        _input_error(f"bad polynomial in {what}: {exc}")


def _parse_field(data, what: str):
    from .vectorfields import PolyVectorField

    comps = [_parse_poly(c, what) for c in _read(data, FIELD_KEYS, what)["components"]]
    try:
        return PolyVectorField(tuple(comps))
    except ValueError as exc:
        _input_error(f"bad vector field in {what}: {exc}")


@main.group()
def vf():
    """Polynomial vector fields."""


@vf.command("verify")
@click.option("--scenario", type=click.Path(exists=False), required=True)
@SEED_OPTION
@OUTPUT_OPTION
@click.pass_obj
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

    sc = _value(_json_file(scenario), dict, None, "the scenario")
    check = _value(sc.get("check"), tuple(CHECKS), None, "'check' in the scenario")
    v = _read(sc, CHECKS[check], "the scenario")
    if check == "commuting_family":
        f = _parse_poly(v["f"], "'f'")
        profiles = [_parse_poly(p, "'profiles'") for p in v["profiles"]]
        # an empty "flow" object, like a missing one, asks for no flow check
        fl = _read(v["flow"], FLOW_CHECK_KEYS, "'flow'") if v["flow"] else None
        if fl and len(fl["point"]) != f.nvars:
            _input_error(f"'point' in 'flow' has {len(fl['point'])} coordinates, 'f' has {f.nvars} variables")
        if fl:
            _flow_steps(fl["s"], fl["h"], "'flow'")
            _flow_steps(fl["t"], fl["h"], "'flow'")
        try:
            base = hamiltonian_field(f) if v["field"] == "hamiltonian" else _parse_field(v["field"], "'field'")
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
                click.echo(f"flow failed: {exc}", err=True)
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
    action = make_projective_action(n)
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


@vf.command("flow")
@click.option("--scenario", type=click.Path(exists=False), required=True)
@SEED_OPTION
@OUTPUT_OPTION
@click.pass_obj
def vf_flow(obj, scenario):
    """Integrate a field and emit the trajectory as CSV (t, x1..xn)."""
    from .vectorfields import FlowBlowUpError, flow

    v = _read(_json_file(scenario), FLOW_KEYS, "the scenario")
    field = _parse_field(v["field"], "'field'")
    if len(v["point"]) != field.nvars:
        _input_error(f"'point' has {len(v['point'])} coordinates, 'field' has {field.nvars} variables")
    duration, step = v["duration"], v["step"]
    _flow_steps(duration, step, "the scenario")
    try:
        traj = flow(field, v["point"], duration, step)
    except FlowBlowUpError as exc:
        click.echo(f"flow failed: {exc}", err=True)
        sys.exit(1)
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(field.nvars))]
    sign = 1.0 if duration >= 0 else -1.0
    row_format = ",".join(["%.17g"] * (field.nvars + 1))  # what format(x, ".17g") writes
    for i, row in enumerate(traj.tolist()):
        lines.append(row_format % (sign * i * step, *row))
    _write(obj, "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
