"""CLI contract: subcommands, exit codes, report determinism."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions.algebra import to_json_dict
from lieactions.catalog import catalog
from lieactions.cli import main

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def corrupted_h3_doc():
    doc = to_json_dict(catalog("heisenberg3"))
    doc["brackets"] = doc["brackets"] + [{"i": 1, "j": 3, "result": {"1": "1/1"}}]
    doc["name"] = "bad_h3"
    return doc


# -- catalog -------------------------------------------------------------------


def test_catalog_list():
    result = run("catalog", "list")
    assert result.exit_code == 0
    assert "mueller_roemer7" in result.output
    assert "st3" in result.output


def test_catalog_list_output_file(tmp_path):
    out = tmp_path / "catalog.txt"
    result = run("--output", str(out), "catalog", "list")
    assert result.exit_code == 0
    assert result.output == ""
    assert out.read_text() == run("catalog", "list").output


# -- algebra analyze ------------------------------------------------------------


def test_analyze_catalog_st3():
    result = run("algebra", "analyze", "catalog:st3")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["derived_series"]["length"] == 3
    assert report["lower_central_series"]["length"] == "infinite"
    assert report["predicates"] == {"is_solvable": True, "is_nilpotent": False}
    assert report["notes"], "convention flag expected for the st family"


def test_analyze_mueller_roemer():
    result = run("algebra", "analyze", "catalog:mr7")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["contractibility_obstruction"]["status"] == "obstructed"
    assert report["contractibility_obstruction"]["flag_dims"] == [1, 2, 3, 4, 5, 6, 7]


def test_analyze_corrupted_file_exits_1(tmp_path):
    path = write_json(tmp_path, "bad.json", corrupted_h3_doc())
    result = run("algebra", "analyze", path)
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["status"] == "fail"
    assert report["jacobi_violations"]


def test_analyze_valid_file(tmp_path):
    path = write_json(tmp_path, "h3.json", to_json_dict(catalog("heisenberg3")))
    result = run("algebra", "analyze", path)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["center"]["dim"] == 1


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = run("algebra", "analyze", str(path))
    assert result.exit_code == 2


def test_bad_algebra_document_exits_2(tmp_path):
    path = write_json(
        tmp_path, "bad.json", {"name": "x", "dim": 2, "basis": ["a", "b"],
                               "brackets": [{"i": 2, "j": 1, "result": {}}]},
    )
    result = run("algebra", "analyze", str(path))
    assert result.exit_code == 2


def test_unknown_catalog_exits_2():
    assert run("algebra", "analyze", "catalog:nosuch9").exit_code == 2


def test_unknown_subcommand_exits_2():
    assert run("algebra", "frobnicate").exit_code == 2


# -- algebra obstruct --------------------------------------------------------------


def test_obstruct_n3():
    result = run("algebra", "obstruct", "catalog:n3", "--dim", "2")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["action_verdict"]["verdict"] == "degenerate (central kernel)"
    assert report["borderline"]["center_dim"] == 2


def test_obstruct_heisenberg_impossible():
    result = run("algebra", "obstruct", "catalog:heisenberg3", "--dim", "1")
    report = json.loads(result.output)
    assert report["action_verdict"]["verdict"].startswith("impossible")


def test_obstruct_nonsolvable():
    result = run("algebra", "obstruct", "catalog:sl2")
    assert result.exit_code == 0
    assert json.loads(result.output)["min_effective_dim"] == "not applicable"


# -- deform verify -------------------------------------------------------------------


@pytest.mark.parametrize("family", ["st", "st-prime", "concat"])
def test_deform_verify_families(family):
    result = run("deform", "verify", "--family", family, "--n", "3")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["status"] == "pass"
    assert report["checks"]["d1_identity_exact"] is True


def test_deform_verify_bad_n():
    assert run("deform", "verify", "--family", "st", "--n", "1").exit_code == 2


# -- act verify ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario",
    ["ball_st3.json", "ball_u3.json", "multiball_st3.json", "sphere_st3.json",
     "interval.json", "disk2.json"],
)
def test_act_scenarios_pass(scenario):
    result = run("act", "verify", "--scenario", os.path.join(SCENARIOS, scenario))
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["status"] == "pass"


def test_act_overlapping_balls_exit_2(tmp_path):
    path = write_json(
        tmp_path,
        "overlap.json",
        {
            "action": "multiball",
            "group": "ST",
            "n": 3,
            "balls": [
                {"center": [0.0, 0.0, 0.0], "radius": 1.0},
                {"center": [1.0, 0.0, 0.0], "radius": 1.0},
            ],
        },
    )
    assert run("act", "verify", "--scenario", path).exit_code == 2


def test_act_unknown_kind_exit_2(tmp_path):
    path = write_json(tmp_path, "x.json", {"action": "torus"})
    assert run("act", "verify", "--scenario", path).exit_code == 2


# -- vf ----------------------------------------------------------------------------------


def test_vf_commuting_family_scenario():
    result = run("vf", "verify", "--scenario", os.path.join(SCENARIOS, "commuting_family.json"))
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["certificate"]["pairwise_brackets_zero"] is True
    assert report["flow"]["commutation_residual"] <= 1e-5


def test_vf_projective_scenario():
    result = run("vf", "verify", "--scenario", os.path.join(SCENARIOS, "projective2.json"))
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["homomorphism"]["exact"] is True
    assert report["kernel_is_scalars"] is True
    assert report["orbit_dimensions_sampled"] == [2]


def test_vf_dependent_profiles_fail(tmp_path):
    path = write_json(
        tmp_path,
        "dep.json",
        {
            "check": "commuting_family",
            "f": {"vars": 2, "terms": [{"exponents": [2, 0], "coefficient": "1/1"},
                                        {"exponents": [0, 2], "coefficient": "1/1"}]},
            "field": "hamiltonian",
            "profiles": [
                {"vars": 1, "terms": [{"exponents": [0], "coefficient": "1/1"}]},
                {"vars": 1, "terms": [{"exponents": [0], "coefficient": "1/1"}]},
            ],
        },
    )
    result = run("vf", "verify", "--scenario", path)
    assert result.exit_code == 1
    assert json.loads(result.output)["status"] == "fail"


def test_vf_flow_csv():
    result = run("vf", "flow", "--scenario", os.path.join(SCENARIOS, "flow_circle.json"))
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1].startswith("0,1,0")
    assert len(lines) == 1002


def test_vf_bad_scenario_exits_2(tmp_path):
    path = write_json(tmp_path, "bad.json", {"check": "commuting_family"})
    assert run("vf", "verify", "--scenario", path).exit_code == 2
    path2 = write_json(tmp_path, "bad2.json", {"check": "nosuch"})
    assert run("vf", "verify", "--scenario", path2).exit_code == 2


# -- determinism and seeds -------------------------------------------------------------------


def test_reports_byte_identical_across_runs():
    commands = [
        ("algebra", "analyze", "catalog:st3"),
        ("deform", "verify", "--family", "concat", "--n", "3"),
        ("act", "verify", "--scenario", os.path.join(SCENARIOS, "ball_st3.json")),
        ("vf", "verify", "--scenario", os.path.join(SCENARIOS, "projective2.json")),
    ]
    for cmd in commands:
        first = run(*cmd)
        second = run(*cmd)
        assert first.output == second.output, cmd
        assert first.exit_code == second.exit_code == 0


def test_seed_option_and_env(tmp_path):
    base = run("deform", "verify", "--family", "st", "--n", "2")
    seeded = run("--seed", "42", "deform", "verify", "--family", "st", "--n", "2")
    assert json.loads(base.output)["seed"] == 1729
    assert json.loads(seeded.output)["seed"] == 42
    env_run = run("deform", "verify", "--family", "st", "--n", "2",
                  env={"LIEACTIONS_SEED": "7"})
    assert json.loads(env_run.output)["seed"] == 7


def test_output_file_option(tmp_path):
    out = tmp_path / "report.json"
    result = run("--output", str(out), "algebra", "analyze", "catalog:heisenberg3")
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["algebra"] == "heisenberg(3)"


def test_seed_and_output_accepted_after_subcommand(tmp_path):
    out = tmp_path / "report.json"
    result = run("algebra", "analyze", "catalog:heisenberg3", "--output", str(out))
    assert result.exit_code == 0
    assert json.loads(out.read_text())["algebra"] == "heisenberg(3)"
    seeded = run("deform", "verify", "--family", "st", "--n", "2", "--seed", "5")
    assert json.loads(seeded.output)["seed"] == 5
    csv_out = tmp_path / "traj.csv"
    result = run(
        "vf", "flow", "--scenario", os.path.join(SCENARIOS, "flow_circle.json"),
        "--output", str(csv_out),
    )
    assert result.exit_code == 0
    assert csv_out.read_text().startswith("t,x1,x2")


def test_obstruct_negative_dim_exits_2():
    result = run("algebra", "obstruct", "catalog:st3", "--dim", "-3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


# -- malformed scenario values are input errors ----------------------------------------


ACT = ["act", "verify"]
VF = ["vf", "verify"]
FLOW = ["vf", "flow"]


def _poly(nvars, *terms):
    return {"vars": nvars,
            "terms": [{"exponents": list(e), "coefficient": c} for e, c in terms]}


CIRCLE_F = _poly(2, ((2, 0), "1/1"), ((0, 2), "1/1"))
CIRCLE_FIELD = {"components": [_poly(2, ((0, 1), "2/1")), _poly(2, ((1, 0), "-2/1"))]}
COMMUTING = {
    "check": "commuting_family", "f": CIRCLE_F, "field": "hamiltonian",
    "profiles": [_poly(1, ((0,), "1/1")), _poly(1, ((1,), "1/1"))],
}
SPHERE = {"action": "sphere", "group": "ST", "n": 3}
BALL = {"action": "ball", "group": "ST", "n": 3}


@pytest.mark.parametrize(
    "args,scenario",
    [
        (ACT, {"action": "sphere", "group": "ST", "n": "x"}),
        (ACT, {"action": "sphere", "group": "ST", "n": 3, "tolerances": {"composition": "abc"}}),
        (ACT, {"action": "multiball", "group": "ST", "n": 3, "balls": []}),
        (ACT, {"action": "sphere", "group": "ST", "n": 3, "samples": 0}),
        (VF, {"check": "projective", "n": "two"}),
        (ACT, {"action": "sphere", "group": "ST", "n": 0}),
        (ACT, {"action": "disk", "n": 0}),
        (ACT, {**SPHERE, "tolerances": [1]}),
        (ACT, {**SPHERE, "tolerances": "x"}),
        (ACT, {"action": "multiball", "group": "ST", "n": 3, "balls": [5]}),
        (ACT, {**SPHERE, "sampels": 5}),
        (FLOW, {"field": CIRCLE_FIELD, "point": ["a"]}),
        (FLOW, {"field": CIRCLE_FIELD, "point": [1.0, 0.0], "duration": "x"}),
        (VF, {**COMMUTING, "flow": {"s": "x"}}),
        (VF, {**COMMUTING, "profiles": 5}),
        (VF, {**COMMUTING, "profiles": [CIRCLE_F]}),
        (VF, {**COMMUTING, "f": _poly(3, ((2, 0, 0), "1/1"), ((0, 0, 2), "1/1"))}),
        (VF, {"check": "projective", "n": 2, "samples": -1}),
        (FLOW, {"field": CIRCLE_FIELD, "point": [0]}),
        (VF, {**COMMUTING, "flow": {"point": [1.0]}}),
        (ACT, {**SPHERE, "n": 3.0}),
        (ACT, {**SPHERE, "samples": True}),
        (ACT, {**SPHERE, "seed": -1}),
        (ACT, {**BALL, "variant": "radial"}),
        (ACT, {**SPHERE, "tolerances": {"compositon": 1e-6}}),
        (ACT, {**BALL, "annulus": [0.3, 0.6, 0.9]}),
        (ACT, [SPHERE]),
        (FLOW, {"field": CIRCLE_FIELD, "point": [1.0, 0.0], "step": float("nan")}),
        (VF, {**COMMUTING, "flow": {"point": [1.0, 0.0], "h": 0}}),
        (FLOW, {"field": CIRCLE_FIELD, "point": [1.0, 0.0], "duration": 1e20}),
        (FLOW, {"field": CIRCLE_FIELD, "point": [1.0, 0.0], "duration": -1e308}),
        (FLOW, {"field": CIRCLE_FIELD, "point": [1.0, 0.0], "step": 1e-320}),
        (FLOW, {"field": CIRCLE_FIELD, "point": [1.0, 0.0], "duration": 1.0, "step": 1e-7}),
        (VF, {**COMMUTING, "flow": {"point": [1.0, 0.0], "s": 1e20}}),
        (VF, {**COMMUTING, "flow": {"point": [1.0, 0.0], "t": 1e308}}),
        (VF, {**COMMUTING, "flow": {"point": [1.0, 0.0], "h": 1e-320}}),
    ],
    ids=["act-n-not-int", "act-tolerance-not-number", "act-no-balls", "act-zero-samples",
         "vf-projective-n-not-int", "act-sphere-n-zero", "act-disk-n-zero",
         "act-tolerances-list", "act-tolerances-string", "act-ball-not-object",
         "act-unknown-key", "flow-point-not-number", "flow-duration-not-number",
         "vf-flow-s-not-number", "vf-profiles-not-list", "vf-profile-bivariate",
         "vf-hamiltonian-three-variables", "vf-projective-negative-samples",
         "flow-point-too-short", "vf-flow-point-too-short", "act-n-float", "act-samples-bool",
         "act-seed-negative", "act-variant-radial", "act-tolerance-unknown-key",
         "act-annulus-three-radii", "act-scenario-not-object", "flow-step-nan",
         "vf-flow-step-zero", "flow-duration-1e20", "flow-duration-minus-1e308",
         "flow-step-denormal", "flow-steps-above-bound", "vf-flow-s-1e20", "vf-flow-t-1e308",
         "vf-flow-h-denormal"],
)
def test_malformed_scenario_value_exits_2(tmp_path, args, scenario):
    path = write_json(tmp_path, "bad.json", scenario)
    result = run(*args, "--scenario", path)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ("deform", "verify", "--family", "st", "--n", "3"),
        ("act", "verify", "--scenario", os.path.join(SCENARIOS, "sphere_st3.json")),
        ("vf", "verify", "--scenario", os.path.join(SCENARIOS, "projective2.json")),
    ],
    ids=["deform", "act", "vf-projective"],
)
@pytest.mark.parametrize("how", ["option", "env"])
def test_negative_seed_exits_2(args, how):
    result = run("--seed", "-1", *args) if how == "option" else run(*args, env={"LIEACTIONS_SEED": "-1"})
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.lower().startswith("error:")]
    assert len(errors) == 1 and "seed" in errors[0].lower(), result.stderr


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_nan_residual_fails_and_stays_json(tmp_path):
    # every sampled point overflows, so every residual is NaN
    path = write_json(tmp_path, "nan.json", {
        "action": "ball", "group": "ST", "n": 3, "samples": 50, "center": [1e308, 0, 0], "radius": 1e308,
    })
    result = run("act", "verify", "--scenario", path)
    assert result.exit_code == 1
    report = json.loads(result.stdout, parse_constant=lambda name: pytest.fail(f"bare {name} in the report"))
    assert report["report"]["max_identity_residual"] == "nan"
    assert report["report"]["max_composition_residual"] == "nan"
    assert report["status"] == "fail"


def test_flow_blow_up_exits_1(tmp_path):
    # x' = x^2 from x = 1 leaves every bound at t = 1
    path = write_json(tmp_path, "blowup.json", {
        "field": {"components": [_poly(1, ((2,), "1/1"))]},
        "point": [1.0], "duration": 5, "step": 0.01,
    })
    result = run("vf", "flow", "--scenario", path)
    assert result.exit_code == 1
    assert result.stderr.startswith("flow failed")
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""


# -- mutated scenarios keep the exit-code contract ----------------------------------------


SCENARIO_FILES = sorted(Path(SCENARIOS).glob("*.json"))
SMALL_VALUES = st.one_of(
    st.integers(-2, 8),
    st.text(max_size=3),
    st.lists(st.integers(-2, 8) | st.text(max_size=2), max_size=3),
    st.just({}),
    st.none(),
    st.booleans(),
)


def _containers(doc):
    """Every object and list inside `doc`, `doc` included."""
    yield doc
    for value in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(value, (dict, list)):
            yield from _containers(value)


def _keys(doc):
    return {key for c in _containers(doc) if isinstance(c, dict) for key in c}


# keys an added entry may take: every key of a shipped scenario, plus two more
ADDED_KEYS = sorted(set().union(*(_keys(json.loads(p.read_text())) for p in SCENARIO_FILES)) | {"seed", "x"})


@st.composite
def mutated_scenarios(draw):
    """(verb, document): a shipped scenario with one key or list entry
    dropped, replaced or added, anywhere in it."""
    path = draw(st.sampled_from(SCENARIO_FILES))
    doc = json.loads(path.read_text())
    verb = ACT if "action" in doc else VF if "check" in doc else FLOW
    target = draw(st.sampled_from(list(_containers(doc))))
    slots = list(target) if isinstance(target, dict) else list(range(len(target)))
    op = draw(st.sampled_from(["drop", "replace", "add"] if slots else ["add"]))
    if op == "add" and isinstance(target, dict):
        target[draw(st.sampled_from(ADDED_KEYS))] = draw(SMALL_VALUES)
    elif op == "add":
        target.append(draw(SMALL_VALUES))
    elif op == "drop":
        del target[draw(st.sampled_from(slots))]
    else:
        target[draw(st.sampled_from(slots))] = draw(SMALL_VALUES)
    return verb, doc


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutated_scenarios())
def test_mutated_scenario_keeps_exit_code_contract(case):
    verb, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        result = run(*verb, "--scenario", path)
    assert result.exit_code in (0, 1, 2), (doc, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (doc, result.exception)
    if result.exit_code == 2:
        assert result.stdout == "" and result.stderr.startswith("error:"), (doc, result.stderr)
        assert result.stderr.count("\n") == 1, (doc, result.stderr)


# -- each verdict input is computed once -------------------------------------------------


def test_obstruct_runs_borderline_analysis_once(monkeypatch):
    from lieactions import cli, obstructions

    calls = []
    original = obstructions.borderline_analysis

    def counting(g):
        calls.append(g.name)
        return original(g)

    monkeypatch.setattr(obstructions, "borderline_analysis", counting)
    monkeypatch.setattr(cli, "borderline_analysis", counting)
    result = run("algebra", "obstruct", "catalog:n3", "--dim", "2")
    assert result.exit_code == 0
    assert json.loads(result.output)["action_verdict"]["verdict"] == "degenerate (central kernel)"
    assert calls == ["N(3)"]


def test_projective_runs_homomorphism_check_once(monkeypatch):
    from lieactions import cli, vectorfields

    calls = []
    original = vectorfields.action_homomorphism_check

    def counting(action):
        calls.append(action.algebra.name)
        return original(action)

    monkeypatch.setattr(vectorfields, "action_homomorphism_check", counting)
    # also catch a copy bound into the CLI module by a top-level import
    monkeypatch.setattr(cli, "action_homomorphism_check", counting, raising=False)
    result = run("vf", "verify", "--scenario", os.path.join(SCENARIOS, "projective2.json"))
    assert result.exit_code == 0
    assert json.loads(result.output)["homomorphism"] == {"sign": -1, "exact": True}
    assert len(calls) == 1
