"""The handlers of `vf verify` and `vf flow`, with the key tables of their
scenario files.

`cli.VERBS` describes each verb and its arguments; `cli.main` loads this
module only to run one of these verbs, and calls `HANDLERS["group verb"]`
as handler({"seed": ..., "output": ...}, **its arguments). Every layer is
imported inside the function that runs it; README's Start-up table lists
what each verb loads.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .constants import MAX_EXPONENT, MAX_FIELD_TERMS, MAX_PROFILES, MAX_SAMPLES
from .serialize import (
    POSITIVE,
    REQUIRED,
    FormatError,
    _emit,
    _input_error,
    _json_file,
    _violation,
    _write,
    parse_rational,
    read_object,
    read_value,
)

POLY_KEYS = {"vars": (int, REQUIRED, 0), "terms": ([dict], REQUIRED, None, MAX_FIELD_TERMS)}
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
                _violation(f"flow failed: {exc}")
            body["flow"] = {
                "commutation_residual": fr.commutation_residual,
                "level_residual": fr.level_residual,
            }
            tols = {"commutation": fl["commutation_tolerance"], "level": fl["level_tolerance"]}
            ok = ok and fr.commutation_residual <= tols["commutation"] and fr.level_residual <= tols["level"]
        _emit(obj, "vf verify", body, ok, tols)

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
    # every point of the chart has orbit dimension n (orbit_info), and no
    # point that numpy's default_rng(seed).normal(size=(samples, n)) can
    # draw is near-degenerate (README, "Numerical layer"), so no point is
    # drawn: 'samples' only says whether any was asked for, and the
    # scenario's 'seed' is read and bounded as before but never used
    body = {
        "check": check,
        "n": n,
        "homomorphism": {"sign": action.sign, "exact": exact},
        "kernel_is_scalars": kernel_is_scalars,
        "orbit_dimensions_sampled": [orbit_info(action)] if v["samples"] else [],
        "near_degenerate_points": 0,
    }
    _emit(obj, "vf verify", body, exact and kernel_is_scalars)


def vf_flow(obj, scenario):
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
        _violation(f"flow failed: {exc}")
    sign = 1.0 if duration >= 0 else -1.0
    header = "t," + ",".join(f"x{i + 1}" for i in range(field.nvars)) + "\n"
    _write(obj, itertools.chain([header], _csv_chunks(traj, sign, step)))


CSV_CHUNK = 512  # the rows of `vf flow`'s CSV formatted by one `%`


def _csv_chunks(traj, sign: float, step: float):
    """The CSV rows of a trajectory, t = sign * i * step and then the
    coordinates, each value as format(x, ".17g") writes it; CSV_CHUNK rows
    are formatted by one `%`, so the text is never held whole."""
    n, data = traj.n, traj.data
    width = n + 1
    row_format = ",".join(["%.17g"] * width) + "\n"
    for start in range(0, traj.rows, CSV_CHUNK):
        stop = min(start + CSV_CHUNK, traj.rows)
        values = [0.0] * ((stop - start) * width)
        values[::width] = [sign * i * step for i in range(start, stop)]
        for j in range(n):
            values[j + 1::width] = data[start * n + j:stop * n:n]
        yield row_format * (stop - start) % tuple(values)


HANDLERS = {"vf verify": vf_verify, "vf flow": vf_flow}
