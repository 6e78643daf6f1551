"""The handler of `act verify`, with the key tables of its scenario files
and its action kinds.

`cli.VERBS` describes each verb and its arguments; `cli.main` loads this
module only to run this verb, and calls `HANDLERS["act verify"]` as
handler({"seed": ..., "output": ...}, **its arguments). Every layer is
imported inside the function that runs it; README's Start-up table lists
what each kind loads.
"""

from __future__ import annotations

from .constants import MAX_ACTION_N, MAX_BALLS, MAX_SAMPLES
from .serialize import POSITIVE, REQUIRED, _emit, _input_error, _json_file, read_object, read_value

ACT_KEYS = {"action": (str, REQUIRED, None), "samples": (int, 200, 1, MAX_SAMPLES), "seed": (int, None, 0),
            "tolerances": (dict, {}, None)}
TOLERANCE_KEYS = {"composition": (float, 1e-6, 0.0), "identity": (float, 1e-9, 0.0), "move": (float, 1e-6, POSITIVE)}
MATRIX_KEYS = {"group": (("ST", "U"), REQUIRED, None), "n": (int, REQUIRED, 1, MAX_ACTION_N)}
PLACEMENT_KEYS = {"center": ([float], REQUIRED, None), "radius": (float, 1.0, POSITIVE),
                  "annulus": ([float], [0.3, 0.9], 2, 2)}

# An action kind's function returns the arguments of `verify_action` (action, identity,
# sampler, named generators) and the witness rule; it imports when run. Every kind draws and
# evaluates a block of samples at a time.


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
    from .actions import StackedSampler, sphere_action
    from .matrixgroups import generators, identity

    group, n = v["group"], v["n"]
    balls = (_make_ball(group, n, v),) if v["action"] == "ball" else ()
    action = balls[0].apply if balls else sphere_action
    return action, identity(n), StackedSampler(group, (n, n), balls), generators(group, n), "all"


def _multiball(v: dict) -> tuple:
    """The multiball kind: one factor of the group per ball."""
    from .actions import MultiBall, StackedSampler
    from .matrixgroups import generators, identity

    group, n = v["group"], v["n"]
    balls = tuple(_make_ball(group, n, read_object(b, PLACEMENT_KEYS, "a ball placement")) for b in v["balls"])
    try:
        multiball = MultiBall(balls)
    except ValueError as exc:
        _input_error(f"bad ball placements: {exc}")
    k = len(balls)
    unit = (identity(n),) * k
    gens = [
        (f"ball{j + 1}.{name}", unit[:j] + (g,) + unit[j + 1:])
        for j in range(k) for name, g in generators(group, n)
    ]
    return multiball.apply, unit, StackedSampler(group, (k, n, n), balls), gens, "all"


def _circle_action(v: dict) -> tuple:
    """The interval and disk kinds: the lifted circle action of the universal
    cover of SL(2, R); some generator must move some point ("any")."""
    from .actions import CoverElement, CoverSampler, cover_identity, disk_block, interval_block
    from .matrixgroups import generators

    disk = v["action"] == "disk"
    sampler = CoverSampler(disk, v["n"] if disk else 1)
    gens = [(name, CoverElement.of(g)) for name, g in generators("SL2", 2)]
    return disk_block if disk else interval_block, cover_identity(), sampler, gens, "any"


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
    }
    _emit(obj, "act verify", body, ok, tols)


HANDLERS = {"act verify": act_verify}
