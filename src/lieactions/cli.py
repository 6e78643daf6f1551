"""Command-line front end: analyze/verify/simulate with JSON reports.

Exit codes: 0 all checks pass, 1 a verification found a violation,
2 input or usage error. Reports are deterministic: same inputs and seed
give byte-identical output.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

import click

from . import __version__
from .algebra import FormatError, LieAlgebra, from_json_dict
from .catalog import DEFAULT_CATALOG, catalog, convention_notes
from .constants import DEFAULT_SEED
from .derivations import contractibility_obstruction
from .obstructions import borderline_analysis, min_effective_action_dim, n_action_verdict
from .serialize import dumps, format_rational, parse_rational

# The numerical layer (numpy, actions, deformations, matrixgroups,
# vectorfields, polynomials) is imported inside the verbs that run it, so
# the exact verbs and `catalog list` never pay for loading it.

SEED_ENV_VAR = "LIEACTIONS_SEED"


def _resolve_seed(option_value: int | None) -> int:
    if option_value is not None:
        return option_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _input_error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_SEED


def _input_error(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _emit(ctx_obj: dict, payload: dict) -> None:
    text = dumps(payload)
    path = ctx_obj.get("output")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _report(ctx_obj: dict, command: str, body: dict, tolerances: dict | None = None) -> dict:
    head = {
        "tool": {"name": "lieactions", "version": __version__},
        "command": command,
        "seed": ctx_obj["seed"],
    }
    if tolerances:
        head["tolerances"] = tolerances
    head.update(body)
    return head


def _load_algebra(source: str) -> tuple[LieAlgebra, str | None]:
    """Load from 'catalog:KEY' or a JSON file; returns (algebra, catalog key)."""
    if source.startswith("catalog:"):
        key = source.split(":", 1)[1]
        try:
            return catalog(key), key
        except ValueError as exc:
            _input_error(str(exc))
    try:
        with open(source) as fh:
            data = json.load(fh)
    except OSError as exc:
        _input_error(f"cannot read {source}: {exc}")
    except json.JSONDecodeError as exc:
        _input_error(f"malformed JSON in {source}: {exc}")
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


def _common_options(fn):
    """--seed/--output accepted on every emitting subcommand as well as
    at the group level."""
    fn = click.option(
        "--seed", "seed_", type=int, default=None,
        help=f"PRNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR}).",
    )(fn)
    fn = click.option(
        "--output", "output_", type=click.Path(dir_okay=False), default=None,
        help="Write the report here instead of stdout.",
    )(fn)
    return fn


def _apply_common(ctx, seed_, output_):
    if seed_ is not None:
        ctx.obj["seed"] = seed_
    if output_ is not None:
        ctx.obj["output"] = output_


@click.group()
@click.option("--seed", type=int, default=None, help=f"PRNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR}).")
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
@click.version_option(__version__)
@click.pass_context
def main(ctx, seed, output):
    """Exact Lie-algebra invariants, contractions, and constructed actions."""
    ctx.obj = {"seed": _resolve_seed(seed), "output": output}


# -- catalog ------------------------------------------------------------


@main.group(name="catalog")
def catalog_cmd():
    """Named algebras."""


@catalog_cmd.command("list")
def catalog_list():
    """List the built-in algebras."""
    for key, desc in DEFAULT_CATALOG:
        alg = catalog(key)
        click.echo(f"{key:<16} dim {alg.dim:>3}  {desc}")
    click.echo()
    click.echo("Families accept any size: abelian(m), heisenberg(2k+1), t(n), d(n),")
    click.echo("st(n), st_prime(n), sl(n), N(n), st_c(n), sl_c(n), mueller_roemer7.")
    click.echo("Use catalog:KEY (for example catalog:st3) wherever a file is accepted.")


# -- algebra ------------------------------------------------------------


@main.group()
def algebra():
    """Structure-constant invariants."""


@algebra.command("analyze")
@click.argument("source")
@_common_options
@click.pass_context
def algebra_analyze(ctx, source, seed_, output_):
    """Full invariants report: series, center, predicates, derivations."""
    _apply_common(ctx, seed_, output_)
    alg, _ = _load_algebra(source)
    violations = alg.jacobi_check()
    if violations:
        body = {
            "algebra": alg.name,
            "dim": alg.dim,
            "jacobi_violations": [[i + 1, j + 1, k + 1] for i, j, k in violations],
            "status": "fail",
        }
        _emit(ctx.obj, _report(ctx.obj, "algebra analyze", body))
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
    _emit(ctx.obj, _report(ctx.obj, "algebra analyze", body))


@algebra.command("obstruct")
@click.argument("source")
@click.option("--dim", "dim_", type=int, default=None, help="Manifold dimension to judge.")
@_common_options
@click.pass_context
def algebra_obstruct(ctx, source, dim_, seed_, output_):
    """Minimum-dimension and borderline-degeneracy verdicts."""
    _apply_common(ctx, seed_, output_)
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
    _emit(ctx.obj, _report(ctx.obj, "algebra obstruct", body))


# -- deformations --------------------------------------------------------


@main.group()
def deform():
    """Deformation and contraction families."""


@deform.command("verify")
@click.option("--family", type=click.Choice(["st", "st-prime", "concat"]), required=True)
@click.option("--n", "n_", type=int, required=True)
@click.option("--samples", type=int, default=100, show_default=True)
@_common_options
@click.pass_context
def deform_verify(ctx, family, n_, samples, seed_, output_):
    """Check D1/D2 exactly and the endomorphism law on seeded samples."""
    from .deformations import (
        concatenate,
        diag_contraction,
        st_deformation,
        st_prime_deformation,
        verify_deformation,
    )

    _apply_common(ctx, seed_, output_)
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
    report = verify_deformation(dfm, samples=samples, seed=ctx.obj["seed"])
    ok = report.passed(law_tol) and (report.contraction_at_one or not needs_contraction)
    body = {
        "family": family,
        "n": n_,
        "descriptor": dfm.to_dict(),
        "checks": report.to_dict(),
        "status": "pass" if ok else "fail",
    }
    _emit(ctx.obj, _report(ctx.obj, "deform verify", body, {"endomorphism_law": law_tol}))
    sys.exit(0 if ok else 1)


# -- actions --------------------------------------------------------------


def _scenario_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _input_error(f"malformed JSON in {path}: {exc}")


def _scenario_get(sc: dict, key: str, default=None, required: bool = False):
    if key not in sc:
        if required:
            _input_error(f"scenario is missing {key!r}")
        return default
    return sc[key]


def _scenario_number(sc: dict, key: str, kind: type, default=None, required: bool = False):
    """`kind(sc[key])` for kind int or float; a value that does not
    convert is an input error."""
    value = _scenario_get(sc, key, default, required)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        _input_error(f"{key!r} must be {what}, got {value!r}")


@main.group()
def act():
    """Constructed group actions."""


@act.command("verify")
@click.option("--scenario", type=click.Path(exists=False), required=True)
@_common_options
@click.pass_context
def act_verify(ctx, scenario, seed_, output_):
    """Verify the action axioms for a scenario file."""
    import numpy as np

    from .actions import (
        CoverElement,
        MultiBall,
        cover_identity,
        disk_action,
        interval_action,
        make_ball_action,
        sphere_action,
        verify_action,
    )
    from .matrixgroups import generators, random_element, random_sl2

    _apply_common(ctx, seed_, output_)
    sc = _scenario_file(scenario)
    kind = _scenario_get(sc, "action", required=True)
    samples = _scenario_number(sc, "samples", int, 200)
    if samples < 1:
        _input_error("'samples' must be at least 1")
    seed = _scenario_number(sc, "seed", int, ctx.obj["seed"])
    tol = sc.get("tolerances", {})
    comp_tol = _scenario_number(tol, "composition", float, 1e-6)
    id_tol = _scenario_number(tol, "identity", float, 1e-9)
    move_tol = _scenario_number(tol, "move", float, 1e-6)

    if kind in ("sphere", "ball", "multiball"):
        group = _scenario_get(sc, "group", required=True)
        n = _scenario_number(sc, "n", int, required=True)
        if group not in ("ST", "U"):
            _input_error(f"unsupported group tag {group!r} for {kind}")
        gens = generators(group, n)
        sample_el = lambda r: random_element(r, group, n)
        if kind == "sphere":
            def sample_pt(r):
                v = r.normal(size=n)
                return v / np.linalg.norm(v)
            action_fn = sphere_action
            identity = np.eye(n)
            witness_rule = "all"
        elif kind == "ball":
            annulus = _scenario_get(sc, "annulus", [0.3, 0.9])
            center = _scenario_get(sc, "center", [0.0] * n)
            radius = _scenario_number(sc, "radius", float, 1.0)
            try:
                ball = make_ball_action(group, n, float(annulus[0]), float(annulus[1]), center, radius)
            except (ValueError, TypeError) as exc:
                _input_error(str(exc))
            def sample_pt(r):
                v = r.normal(size=n)
                v /= np.linalg.norm(v)
                return np.asarray(center) + v * r.uniform(0.05, 1.3) * radius
            action_fn = ball.apply
            identity = np.eye(n)
            witness_rule = "all"
        else:
            ball_specs = _scenario_get(sc, "balls", required=True)
            if not isinstance(ball_specs, list) or not ball_specs:
                _input_error("'balls' must be a non-empty list of placements")
            try:
                balls = [
                    make_ball_action(
                        group,
                        n,
                        float(b.get("annulus", [0.3, 0.9])[0]),
                        float(b.get("annulus", [0.3, 0.9])[1]),
                        b["center"],
                        float(b.get("radius", 1.0)),
                    )
                    for b in ball_specs
                ]
                mb = MultiBall(tuple(balls))
            except (ValueError, TypeError, KeyError) as exc:
                _input_error(f"bad ball placements: {exc}")
            k = len(balls)
            identity = tuple(np.eye(n) for _ in range(k))
            base_gens = gens
            gens = []
            for j in range(k):
                for name, gmat in base_gens:
                    element = [np.eye(n)] * k
                    element[j] = gmat
                    gens.append((f"ball{j + 1}.{name}", tuple(element)))
            def sample_el(r, _k=k, _group=group, _n=n):
                return tuple(random_element(r, _group, _n) for _ in range(_k))
            centers = [np.asarray(b.center) for b in balls]
            radii = [b.radius for b in balls]
            def sample_pt(r):
                j = int(r.integers(0, len(centers)))
                v = r.normal(size=n)
                v /= np.linalg.norm(v)
                return centers[j] + v * r.uniform(0.05, 1.3) * radii[j]
            action_fn = mb.apply
            witness_rule = "all"
    elif kind in ("interval", "disk"):
        def sample_el(r):
            return CoverElement.of(random_sl2(r), int(r.integers(-1, 2)))
        gens = [
            (name, CoverElement.of(g)) for name, g in generators("SL2", 2)
        ]
        identity = cover_identity()
        witness_rule = "any"
        if kind == "interval":
            def sample_pt(r):
                return np.array([r.uniform(0.01, 0.99)])
            def action_fn(a, y):
                return np.array([interval_action(a, float(y[0]))])
        else:
            n = _scenario_number(sc, "n", int, 2)
            def sample_pt(r):
                v = r.normal(size=n)
                v /= np.linalg.norm(v)
                return v * r.uniform(0.0, 1.0)
            action_fn = disk_action
    else:
        _input_error(f"unknown action kind {kind!r}")

    report = verify_action(
        action_fn, identity, sample_el, sample_pt, gens,
        samples=samples, seed=seed, move_threshold=move_tol,
    )
    effective = (
        report.all_generators_effective
        if witness_rule == "all"
        else any(w is not None for w in report.witnesses.values())
    )
    ok = (
        report.max_identity_residual <= id_tol
        and report.max_composition_residual <= comp_tol
        and effective
    )
    body = {
        "action": kind,
        "scenario": sc,
        "report": report.to_dict(),
        "witness_rule": witness_rule,
        "status": "pass" if ok else "fail",
    }
    tols = {"composition": comp_tol, "identity": id_tol, "move": move_tol}
    _emit(ctx.obj, _report(ctx.obj, "act verify", body, tols))
    sys.exit(0 if ok else 1)


# -- vector fields ----------------------------------------------------------


def _parse_poly(data, what: str):
    from .polynomials import Poly

    try:
        nvars = int(data["vars"])
        terms = {}
        for t in data["terms"]:
            exp = tuple(int(e) for e in t["exponents"])
            terms[exp] = parse_rational(t["coefficient"])
        return Poly.make(nvars, terms)
    except (KeyError, TypeError, ValueError) as exc:
        _input_error(f"bad polynomial in {what}: {exc}")


def _parse_field(data, what: str):
    from .vectorfields import PolyVectorField

    try:
        comps = [_parse_poly(c, what) for c in data["components"]]
        return PolyVectorField(tuple(comps))
    except (KeyError, TypeError, ValueError) as exc:
        _input_error(f"bad vector field in {what}: {exc}")


@main.group()
def vf():
    """Polynomial vector fields."""


@vf.command("verify")
@click.option("--scenario", type=click.Path(exists=False), required=True)
@_common_options
@click.pass_context
def vf_verify(ctx, scenario, seed_, output_):
    """Exact certificates for a vector-field scenario."""
    from .vectorfields import (
        annihilation_check,
        commuting_family,
        flow_checks,
        hamiltonian_field,
        make_projective_action,
        orbit_info,
        projective_kernel,
    )

    _apply_common(ctx, seed_, output_)
    sc = _scenario_file(scenario)
    check = _scenario_get(sc, "check", required=True)
    if check == "commuting_family":
        f = _parse_poly(_scenario_get(sc, "f", required=True), "'f'")
        field_spec = _scenario_get(sc, "field", "hamiltonian")
        if field_spec == "hamiltonian":
            base = hamiltonian_field(f)
        else:
            base = _parse_field(field_spec, "'field'")
        prof_specs = _scenario_get(sc, "profiles", required=True)
        profiles = [_parse_poly(p, "'profiles'") for p in prof_specs]
        if not annihilation_check(f, base):
            _input_error("the base field does not annihilate df")
        fields, cert = commuting_family(f, base, profiles)
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
        flow_spec = sc.get("flow")
        if flow_spec and len(fields) >= 2:
            s = float(flow_spec.get("s", 0.3))
            t = float(flow_spec.get("t", 0.3))
            h = float(flow_spec.get("h", 1e-3))
            p = [float(c) for c in flow_spec.get("point", [1.0, 0.0])]
            comm_tol = float(flow_spec.get("commutation_tolerance", 1e-5))
            level_tol = float(flow_spec.get("level_tolerance", 1e-8))
            fr = flow_checks(fields[0], fields[1], p, s, t, h, level_function=f)
            body["flow"] = {
                "commutation_residual": fr.commutation_residual,
                "level_residual": fr.level_residual,
            }
            tols = {"commutation": comm_tol, "level": level_tol}
            ok = ok and fr.commutation_residual <= comm_tol and fr.level_residual <= level_tol
        body["status"] = "pass" if ok else "fail"
        _emit(ctx.obj, _report(ctx.obj, "vf verify", body, tols))
        sys.exit(0 if ok else 1)
    elif check == "projective":
        import numpy as np

        n = _scenario_number(sc, "n", int, required=True)
        if n < 1:
            _input_error("'n' must be at least 1")
        # make_projective_action ran the homomorphism check; the sign it
        # recorded is None exactly when the check failed
        action = make_projective_action(n)
        exact = action.sign is not None
        kernel = projective_kernel(n)
        ident = [Fraction(int(i == j)) for i in range(n + 1) for j in range(n + 1)]
        kernel_is_scalars = kernel.dim == 1 and kernel.contains(ident)
        rng = np.random.default_rng(_scenario_number(sc, "seed", int, ctx.obj["seed"]))
        sample_count = _scenario_number(sc, "samples", int, 50)
        infos = [orbit_info(action, rng.normal(size=n)) for _ in range(sample_count)]
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
        _emit(ctx.obj, _report(ctx.obj, "vf verify", body))
        sys.exit(0 if exact and kernel_is_scalars else 1)
    else:
        _input_error(f"unknown check {check!r}")


@vf.command("flow")
@click.option("--scenario", type=click.Path(exists=False), required=True)
@_common_options
@click.pass_context
def vf_flow(ctx, scenario, seed_, output_):
    """Integrate a field and emit the trajectory as CSV (t, x1..xn)."""
    from .vectorfields import flow

    _apply_common(ctx, seed_, output_)
    sc = _scenario_file(scenario)
    field = _parse_field(_scenario_get(sc, "field", required=True), "'field'")
    point = [float(c) for c in _scenario_get(sc, "point", required=True)]
    duration = float(_scenario_get(sc, "duration", 1.0))
    step = float(_scenario_get(sc, "step", 1e-3))
    if step <= 0:
        _input_error("'step' must be positive")
    try:
        traj = flow(field, point, duration, step)
    except Exception as exc:
        click.echo(f"flow failed: {exc}", err=True)
        sys.exit(1)
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(field.nvars))]
    sign = 1.0 if duration >= 0 else -1.0
    for i, row in enumerate(traj):
        vals = ",".join(format(v, ".17g") for v in row)
        lines.append(f"{format(sign * i * step, '.17g')},{vals}")
    text = "\n".join(lines) + "\n"
    path = ctx.obj.get("output")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
