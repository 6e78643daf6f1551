"""CLI contract: subcommands, exit codes, report determinism."""

import atexit
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieactions import vf_verbs
from lieactions.algebra import to_json_dict
from lieactions.catalog import DEFAULT_CATALOG, catalog
from lieactions.constants import (
    MAX_ACTION_N,
    MAX_BALLS,
    MAX_CATALOG_DIM,
    MAX_EXPONENT,
    MAX_FIELD_TERMS,
    MAX_PROFILES,
    MAX_SAMPLES,
)

from lieactions.vectorfields import flow

from clirunner import invoke

CSV_CHUNK = vf_verbs.CSV_CHUNK
SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run(*args, env=None):
    return invoke(args, env=env)


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


def test_catalog_list_dimensions_are_those_of_the_built_algebras():
    # the list takes each dimension from the family's formula, building nothing
    lines = run("catalog", "list").output.splitlines()
    listed = {line.split()[0]: int(line.split()[2]) for line in lines[:len(DEFAULT_CATALOG)]}
    assert listed == {key: catalog(key).dim for key, _ in DEFAULT_CATALOG}


def test_catalog_list_builds_no_algebra(monkeypatch):
    import sys

    # the package re-exports the function `catalog`, so the module is taken from sys.modules
    monkeypatch.setattr(sys.modules["lieactions.catalog"], "_build", lambda *args: pytest.fail(f"built {args}"))
    assert run("catalog", "list").exit_code == 0


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


@pytest.mark.parametrize(
    "args",
    [("algebra", "analyze", "catalog:heisenberg5"), ("algebra", "obstruct", "catalog:st_c2", "--dim", "3")],
)
def test_one_jacobi_check_per_invocation(monkeypatch, args):
    # the catalog builds without checking; the verb checks once
    from lieactions.algebra import LieAlgebra
    from lieactions.catalog import _build

    _build.cache_clear()
    calls = []
    check = LieAlgebra.jacobi_check
    monkeypatch.setattr(LieAlgebra, "jacobi_check", lambda self: calls.append(self.name) or check(self))
    assert run(*args).exit_code == 0
    assert len(calls) == 1, calls


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


H3_BRACKET = '{"i": 1, "j": 2, "result": {"3": "1/1"}}'


def _algebra_text(dim=3, basis='["P", "Q", "Z"]', bracket=H3_BRACKET, extra=""):
    return f'{{"name": "x", "dim": {dim}, "basis": {basis}, "brackets": [{bracket}]{extra}}}'


@pytest.mark.parametrize(
    "text",
    [
        _algebra_text(bracket='{"i": 1, "j": 2, "result": {"3": "1/1", "03": "5/1"}}'),
        _algebra_text(dim=10, basis=json.dumps([f"A{k}" for k in range(10)]),
                      bracket='{"i": 1, "j": 2, "result": {"1_0": "1/1"}}'),
        _algebra_text(extra=', "extra": 1'),
        _algebra_text(bracket='{"i": 1, "j": 2, "result": {"3": "1/1"}, "k": 3}'),
        _algebra_text(basis='["P", "P", "Z"]'),
        _algebra_text(extra=', "dim": 3'),
        _algebra_text(bracket='{"i": 1, "j": 2, "result": {"3": "1/1", "3": "5/1"}}'),
    ],
    ids=["result-index-leading-zero", "result-index-underscore", "unknown-top-level-key",
         "unknown-bracket-key", "duplicate-basis-name", "duplicate-json-key",
         "duplicate-result-index"],
)
def test_malformed_algebra_document_exits_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = run("algebra", "analyze", str(path))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


def test_algebra_text_helper_is_well_formed(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(_algebra_text())
    assert run("algebra", "analyze", str(path)).exit_code == 0


def test_scenario_with_a_duplicate_key_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"action": "sphere", "group": "ST", "n": 3, "n": 4}')
    result = run("act", "verify", "--scenario", str(path))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


def test_unknown_catalog_exits_2():
    assert run("algebra", "analyze", "catalog:nosuch9").exit_code == 2


@pytest.mark.parametrize("key", ["mr3", "mueller_roemer99", "mr", "mueller_roemer"])
def test_mueller_roemer_key_of_another_size_exits_2(key):
    result = run("algebra", "analyze", f"catalog:{key}")
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr
    assert "one size 7" in result.stderr


@pytest.mark.parametrize("key", ["st40", "st9", "sl7", "abelian41"])
def test_catalog_key_above_the_dimension_bound_exits_2(key):
    result = run("algebra", "analyze", f"catalog:{key}")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "above the bound 40" in result.stderr


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


def test_only_the_catalog_bound_is_an_input_error(monkeypatch, tmp_path):
    """A ValueError from building an algebra below the bound is a fault of the
    program: it keeps its traceback instead of becoming exit 2."""
    import lieactions.deformations
    import lieactions.vectorfields

    def broken(n):
        raise ValueError("a stage check failed")

    monkeypatch.setattr(lieactions.deformations, "st_deformation", broken)
    monkeypatch.setattr(lieactions.vectorfields, "make_projective_action", broken)
    path = write_json(tmp_path, "projective.json", {"check": "projective", "n": 2, "samples": 1})
    for args in (("deform", "verify", "--family", "st", "--n", "3"), ("vf", "verify", "--scenario", path)):
        result = run(*args)
        assert type(result.exception) is ValueError and "stage check" in str(result.exception)
        assert "error:" not in result.stderr


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


def _fast_rotation(tmp_path):
    # f = 4x^2 + 4y^2 with the profile t^3: the field turns at about 134 rad per
    # unit time at this point, so omega * h is about 0.13
    return write_json(tmp_path, "fast.json", {
        "check": "commuting_family",
        "f": _poly(2, ((2, 0), "4/1"), ((0, 2), "4/1")),
        "field": "hamiltonian",
        "profiles": [_poly(1, ((0,), "1/1")), _poly(1, ((1,), "2/1")), _poly(1, ((2,), "-1/3")),
                     _poly(1, ((3,), "1/1"))],
        "flow": {"point": [0.53471, -0.595051], "s": 0.3, "t": 0.3, "h": 0.001},
    })


@pytest.mark.xfail(strict=True, reason="the fixed level tolerance 1e-8 is below RK4's drift here: "
                   "level_residual is about 2.47e-8 (ROADMAP item 2)")
def test_vf_commuting_family_fast_rotation_passes(tmp_path):
    result = run("vf", "verify", "--scenario", _fast_rotation(tmp_path))
    assert result.exit_code == 0, result.output


def test_vf_commuting_family_fast_rotation_drift_is_pinned(tmp_path):
    # the RK4 drift the strict xfail above fails on, to the last bit: the flow
    # kernel reproduces it, and only a change of the tolerance may mend it
    result = run("vf", "verify", "--scenario", _fast_rotation(tmp_path))
    report = json.loads(result.output)
    assert result.exit_code == 1 and report["status"] == "fail"
    assert report["flow"]["level_residual"] == 2.4680173904556568e-08


def test_vf_flow_csv():
    result = run("vf", "flow", "--scenario", os.path.join(SCENARIOS, "flow_circle.json"))
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1].startswith("0,1,0")
    assert len(lines) == 1002


@pytest.mark.parametrize("steps", [0, 1, CSV_CHUNK - 2, CSV_CHUNK - 1, CSV_CHUNK, 2 * CSV_CHUNK + 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_vf_flow_csv_chunks_match_row_by_row(tmp_path, steps, sign):
    # rows are formatted CSV_CHUNK at a time; the text is what one `%` per row gave
    field = {"components": [_poly(3, ((0, 1, 0), "1/1"), ((2, 0, 0), "-1/3")), _poly(3, ((1, 0, 0), "-1/1")),
                            _poly(3, ((0, 0, 0), "1/7"))]}
    step, duration = 1 / 1024, sign * steps / 1024
    path = write_json(tmp_path, "flow.json", {"field": field, "point": [0.5, -0.25, 1e-300],
                                              "duration": duration, "step": step})
    result = run("vf", "flow", "--scenario", path)
    assert result.exit_code == 0
    traj = flow(vf_verbs._parse_field(field, "'field'"), [0.5, -0.25, 1e-300], duration, step)
    t_sign = 1.0 if duration >= 0 else -1.0
    rows = ("%.17g,%.17g,%.17g,%.17g\n" % (t_sign * i * step, *row) for i, row in enumerate(traj))
    assert result.output == "t,x1,x2,x3\n" + "".join(rows)
    assert len(traj) == steps + 1


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


def test_seed_after_the_verb_wins():
    result = run("--seed", "3", "deform", "verify", "--family", "st", "--n", "2", "--seed", "5")
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 5


def test_version_and_help():
    result = run("--version")
    assert result.exit_code == 0
    assert result.output == "lieact, version 0.1.0\n"
    for args in (["--help"], ["algebra", "analyze", "--help"]):
        result = run(*args)
        assert result.exit_code == 0, args
        assert result.output.startswith("usage: lieact"), args


SPHERE_SCENARIO = os.path.join(SCENARIOS, "sphere_st3.json")


@pytest.mark.parametrize(
    "args",
    [
        ("nosuch", "list"),
        ("algebra", "frobnicate", "catalog:st3"),
        ("act", "verify"),
        ("algebra", "obstruct", "catalog:st3", "--dim", "x"),
        ("deform", "verify", "--family", "nope", "--n", "3"),
        ("act", "verify", "--scen", SPHERE_SCENARIO),
        (),
        ("catalog", "list", "--seed", "3"),
    ],
    ids=["unknown-group", "unknown-verb", "missing-scenario", "dim-not-int", "unknown-family",
         "abbreviated-option", "no-arguments", "option-on-a-verb-without-it"],
)
def test_usage_error_exits_2(args):
    result = run(*args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize(
    "args",
    [("algebra", "analyze", "catalog:st3"), ("vf", "flow", "--scenario", os.path.join(SCENARIOS, "flow_circle.json"))],
    ids=["report", "flow-csv"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, args, target):
    path = tmp_path / "nosuch" / "out.txt" if target == "missing-directory" else tmp_path
    result = run("--output", str(path), *args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr
    assert not (tmp_path / "nosuch").exists()


def _block_writes(monkeypatch, blocked):
    """os.access answers "not writable" for `blocked` (the test may run as root,
    whom the file mode does not stop)."""
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode) and not (
        mode & os.W_OK and os.fspath(p) == str(blocked)))


@pytest.mark.parametrize("target", ["missing-directory", "directory", "unwritable-directory", "unwritable-file"])
def test_unwritable_output_rejected_before_the_verb_runs(tmp_path, monkeypatch, target):
    from lieactions import derivations

    def derivation_algebra(g):
        raise AssertionError("the verb ran before --output was checked")

    monkeypatch.setattr(derivations, "derivation_algebra", derivation_algebra)
    path = {"missing-directory": tmp_path / "nosuch" / "out.json", "directory": tmp_path,
            "unwritable-directory": tmp_path / "out.json", "unwritable-file": tmp_path / "old.json"}[target]
    (tmp_path / "old.json").write_text("old")
    if target.startswith("unwritable"):
        _block_writes(monkeypatch, path if target == "unwritable-file" else tmp_path)
    # a JSON source: a catalog algebra may hold its derivation algebra from an earlier test
    source = os.path.join(os.path.dirname(__file__), "golden", "st4_dense.algebra.json")
    result = run("--output", str(path), "algebra", "analyze", source)
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot write {path}: ") and result.stderr.count("\n") == 1, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert (tmp_path / "old.json").read_text() == "old"


@pytest.mark.parametrize(
    "args",
    [("algebra", "analyze", "nosuch.json"), ("algebra", "obstruct", "catalog:st3", "--dim", "-1"),
     ("deform", "verify", "--family", "st", "--n", "1")],
    ids=["unreadable-algebra", "negative-dim", "n-below-2"],
)
def test_existing_output_untouched_when_the_verb_fails_on_its_input(tmp_path, args):
    out = tmp_path / "report.json"
    out.write_text("old")
    result = run("--output", str(out), *args)
    assert result.exit_code == 2 and result.stderr.startswith("error:"), result.stderr
    assert out.read_text() == "old"


def test_json_algebra_above_the_dimension_bound_exits_2(tmp_path):
    path = write_json(tmp_path, "big.json", {"name": "big", "dim": 41, "basis": [f"e{k}" for k in range(41)]})
    result = run("algebra", "analyze", path)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "above the bound 40" in result.stderr
    assert result.stderr.count("\n") == 1


def test_obstruct_negative_dim_exits_2():
    result = run("algebra", "obstruct", "catalog:st3", "--dim", "-3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


# -- the exit path ---------------------------------------------------------------------


def test_main_registers_gc_freeze_at_exit_once(monkeypatch):
    registered = []  # the callbacks atexit would run, in the order registered

    def register(func, *args, **kwargs):
        registered.append(func)
        return func

    def unregister(func):
        registered[:] = [f for f in registered if f != func]

    monkeypatch.setattr(atexit, "register", register)
    monkeypatch.setattr(atexit, "unregister", unregister)
    assert run("catalog", "list").exit_code == 0
    assert run("algebra", "analyze", "catalog:st3").exit_code == 0
    assert registered == [gc.freeze]
    # registered before the arguments are read, so a usage error registers it too
    registered.clear()
    assert run("nosuch", "list").exit_code == 2
    assert registered == [gc.freeze]


def _lieact(args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m lieactions.cli args` in a fresh interpreter, on this checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "lieactions.cli", *args], env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("case", ["pass", "violation", "input-error"])
def test_run_as_a_module_matches_the_in_process_runner(tmp_path, case):
    args = {"pass": ["algebra", "analyze", "catalog:st3"],
            "violation": ["algebra", "analyze", write_json(tmp_path, "bad.json", corrupted_h3_doc())],
            "input-error": ["algebra", "analyze", "catalog:nosuch"]}[case]
    expected = invoke(args)
    proc = _lieact(args, capture_output=True)
    assert proc.returncode == expected.exit_code == {"pass": 0, "violation": 1, "input-error": 2}[case]
    assert proc.stdout == expected.stdout.encode()
    assert proc.stderr == expected.stderr.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args",
    [("algebra", "analyze", "catalog:st3"), ("vf", "flow", "--scenario", os.path.join(SCENARIOS, "flow_circle.json")),
     ("--help",)],
    ids=["report", "flow-csv", "help"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed-pipe", "full-device"])
def test_unwritable_stdout_exits_2(args, unbuffered, target):
    # unbuffered, the write fails; buffered, the flush does, and then the
    # interpreter's own flush at exit must not fail a second time
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    if target == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _lieact(args, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
    else:
        with open("/dev/full", "w") as stdout:
            proc = _lieact(args, stdout=stdout, stderr=subprocess.PIPE, env=env)
    stderr = proc.stderr.decode()
    assert proc.returncode == 2, stderr
    assert stderr.startswith("error: cannot write stdout: ") and stderr.count("\n") == 1, stderr


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
        (ACT, {**BALL, "annulus": [0.3]}),
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
        (ACT, {**SPHERE, "samples": MAX_SAMPLES + 1}),
        (ACT, {**SPHERE, "n": MAX_ACTION_N + 1}),
        (ACT, {"action": "disk", "n": MAX_ACTION_N + 1}),
        (ACT, {"action": "multiball", "group": "U", "n": 2,
               "balls": [{"center": [4.0 * b, 0.0]} for b in range(MAX_BALLS + 1)]}),
        (VF, {"check": "projective", "n": 2, "samples": MAX_SAMPLES + 1}),
        (VF, {"check": "projective", "n": 6}),
        (VF, {**COMMUTING, "profiles": [_poly(1, ((0,), "1/1")), _poly(1, ((MAX_EXPONENT + 1,), "1/1"))]}),
        (FLOW, {"field": {"components": [_poly(1, ((MAX_EXPONENT + 1,), "1/1"))]}, "point": [0.5]}),
        # f = sum of x^a y^b for a, b <= 8 with the profile t^8: fields of degree 143
        (VF, {**COMMUTING, "f": _poly(2, *(((a, b), "1/1") for a in range(9) for b in range(9))),
              "profiles": [_poly(1, ((0,), "1/1")), _poly(1, ((8,), "1/1"))]}),
        (VF, {**COMMUTING, "profiles": [_poly(1, *(((e,), f"{k + 1}/1") for e in range(k % 4 + 1)))
                                        for k in range(100)]}),
    ],
    ids=["act-n-not-int", "act-tolerance-not-number", "act-no-balls", "act-zero-samples",
         "vf-projective-n-not-int", "act-sphere-n-zero", "act-disk-n-zero",
         "act-tolerances-list", "act-tolerances-string", "act-ball-not-object",
         "act-unknown-key", "flow-point-not-number", "flow-duration-not-number",
         "vf-flow-s-not-number", "vf-profiles-not-list", "vf-profile-bivariate",
         "vf-hamiltonian-three-variables", "vf-projective-negative-samples",
         "flow-point-too-short", "vf-flow-point-too-short", "act-n-float", "act-samples-bool",
         "act-seed-negative", "act-variant-radial", "act-tolerance-unknown-key",
         "act-annulus-three-radii", "act-annulus-one-radius", "act-scenario-not-object", "flow-step-nan",
         "vf-flow-step-zero", "flow-duration-1e20", "flow-duration-minus-1e308",
         "flow-step-denormal", "flow-steps-above-bound", "vf-flow-s-1e20", "vf-flow-t-1e308",
         "vf-flow-h-denormal", "act-samples-above-bound", "act-sphere-n-above-bound", "act-disk-n-above-bound",
         "act-balls-above-bound", "vf-projective-samples-above-bound", "vf-projective-n-6",
         "vf-profile-exponent-above-bound", "flow-exponent-above-bound", "vf-field-terms-above-bound",
         "vf-100-profiles"],
)
def test_malformed_scenario_value_exits_2(tmp_path, args, scenario):
    path = write_json(tmp_path, "bad.json", scenario)
    result = run(*args, "--scenario", path)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({**BALL, "annulus": [0.3]}, "'annulus' in the scenario must have at least 2 entries"),
        ({**BALL, "annulus": [0.3, 0.6, 0.9]}, "'annulus' in the scenario has 3 entries, above the bound 2"),
        ({"action": "multiball", "group": "ST", "n": 3, "balls": [{"center": [0, 0, 0], "annulus": [0.3]}]},
         "'annulus' in a ball placement must have at least 2 entries"),
    ],
    ids=["one-radius", "three-radii", "multiball-one-radius"],
)
def test_annulus_takes_exactly_two_radii(tmp_path, scenario, message):
    result = run(*ACT, "--scenario", write_json(tmp_path, "bad.json", scenario))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "family, n, samples",
    [("st", 9, 100), ("concat", 9, 100), ("st-prime", 10, 100), ("st", 3, -1), ("st", 3, MAX_SAMPLES + 1)],
    ids=["st-n-9", "concat-n-9", "st-prime-n-10", "negative-samples", "samples-above-bound"],
)
def test_deform_size_out_of_range_exits_2(family, n, samples):
    result = run("deform", "verify", "--family", family, "--n", str(n), "--samples", str(samples))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr


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


def test_vf_verify_flow_blow_up_exits_1(tmp_path):
    # X = (0, x2^2) annihilates f = x1; the flow of x2 X from x2 = 1 leaves every bound near t = 1
    path = write_json(tmp_path, "blowup.json", {
        "check": "commuting_family", "f": _poly(2, ((1, 0), "1/1")),
        "field": {"components": [_poly(2), _poly(2, ((0, 2), "1/1"))]},
        "profiles": [_poly(1, ((0,), "1/1")), _poly(1, ((1,), "1/1"))],
        "flow": {"point": [0.5, 1.0], "s": 2, "t": 2, "h": 0.01},
    })
    result = run("vf", "verify", "--scenario", path)
    assert result.exit_code == 1
    assert result.stderr == "flow failed: flow left the finite range at t = 1.03\n"
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""


def _assert_exit_code_contract(result, case):
    assert result.exit_code in (0, 1, 2), (case, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (case, result.exception)
    if result.exit_code == 2:
        assert result.stdout == "" and result.stderr.startswith("error:"), (case, result.stderr)
        # one line, which quotes at most a bounded prefix of any value
        assert result.stderr.count("\n") == 1 and len(result.stderr) < 400, (case, result.stderr[:400])


# -- deep, long and vacuous inputs ------------------------------------------------------------


def _nested(depth: int) -> str:
    """The JSON text of an empty list nested `depth` levels deep."""
    return "[" * depth + "]" * depth


def _json_depth_limit() -> int:
    """The least depth of `_nested` that json cannot read from this frame."""
    low, high = 1, 10**5
    while low < high:
        mid = (low + high) // 2
        try:
            json.loads(_nested(mid))
            low = mid + 1
        except RecursionError:
            high = mid
    return low


@pytest.mark.parametrize("verb", ["act verify", "algebra analyze"])
def test_deep_nesting_is_malformed_json(tmp_path, verb):
    # far above the recursion limit the reader reports malformed JSON; just
    # below it the document is read, and the error quotes a bounded prefix
    path = tmp_path / "deep.json"
    for depth in (10**5, _json_depth_limit() - 20):
        path.write_text('{"action": ' + _nested(depth) + "}" if verb == "act verify" else _nested(depth))
        result = run(*ACT, "--scenario", str(path)) if verb == "act verify" else run("algebra", "analyze", str(path))
        _assert_exit_code_contract(result, depth)
        assert result.exit_code == 2
        assert ("malformed JSON" in result.stderr) == (depth == 10**5), result.stderr
        assert depth == 10**5 or result.stderr.endswith("[" * 100 + "...\n")


LONG_KEY = "k" * 10**5


@pytest.mark.parametrize(
    "args, text, quoted",
    [
        (ACT, json.dumps({"action": list(range(200000))}), "got [0, 1, 2, 3, 4"),
        (ACT, json.dumps({"action": "x" * 10**6}), "got 'xxxx"),
        (ACT, json.dumps({**SPHERE, LONG_KEY: 1}), "unknown key 'kkkk"),
        (ACT, f'{{"{LONG_KEY}": 1, "{LONG_KEY}": 2}}', "duplicate key 'kkkk"),
        (("algebra", "analyze"), json.dumps({"name": "a", "dim": 2, "basis": ["x", "y"],
                                             "brackets": [{"i": 1, "j": 2, "result": {LONG_KEY: "1"}}]}),
         "bad result index 'kkkk"),
        (("algebra", "analyze"), json.dumps({"name": "a", "dim": 2, "basis": ["x", "y"],
                                             "brackets": [{"i": 1, "j": 2, "result": {"1": "1/" + "x" * 10**5}}]}),
         "malformed rational '1/xxxx"),
    ],
    ids=["long-list", "long-string", "long-unknown-key", "long-duplicate-key", "long-result-index",
         "long-rational"],
)
def test_error_line_quotes_a_bounded_prefix(tmp_path, args, text, quoted):
    path = tmp_path / "long.json"
    path.write_text(text)
    result = run(*args, "--scenario", str(path)) if args == ACT else run(*args, str(path))
    _assert_exit_code_contract(result, text[:80])
    assert result.exit_code == 2 and quoted in result.stderr and "..." in result.stderr, result.stderr


# -- integers written in outside text ---------------------------------------------------


def _assert_one_short_error(result, needle):
    """Exit 2 with one `error:` line of at most 300 bytes that contains
    `needle`, nothing on stdout, and neither a traceback nor the
    interpreter's own text about its digit limit."""
    _assert_exit_code_contract(result, needle)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.exception
    assert len(result.stderr.encode()) <= 300 and needle in result.stderr, result.stderr[:400]
    assert "Exceeds the limit" not in result.stderr


NINES = "9" * 5000


@pytest.mark.parametrize(
    "args, env, needle",
    [
        (("deform", "verify", "--family", "st", "--n", NINES[:2200]), {}, "--n"),
        (("deform", "verify", "--family", "st-prime", "--n", NINES[:2200]), {}, "--n"),
        (("algebra", "obstruct", "catalog:st3", "--dim", NINES), {}, "--dim"),
        (("--seed", NINES, "catalog", "list"), {}, "--seed"),
        (("catalog", "list"), {"LIEACTIONS_SEED": NINES}, "LIEACTIONS_SEED"),
        (("algebra", "analyze", "catalog:st" + NINES[:2500]), {}, "catalog family 'st'"),
        (("algebra", "analyze", "catalog:st" + NINES), {}, "catalog family 'st'"),
        (("deform", "verify", "--family", "st", "--n", "9" * 10**5), {}, "--n"),
        (("deform", "verify", "--family", "st", "--n", "x" * 10**5), {}, "--n"),
        (("deform", "verify", "--family", "x" * 10**5, "--n", "3"), {}, "--family"),
        (("x" * 10**5, "list"), {}, "GROUP"),
        (("algebra", "analyze", "catalog:" + "?" * 10**5), {}, "catalog key"),
        (("algebra", "analyze", "catalog:st3" + "x" * 10**5), {}, "catalog family 'st'"),
        (("algebra", "analyze", f"--{'x' * 10**5}", "catalog:st3"), {}, "unrecognized arguments"),
    ],
    ids=["n-2200-digits", "st-prime-n-2200-digits", "dim-5000-digits", "seed-5000-digits", "env-seed-5000-digits",
         "key-size-2500-digits", "key-size-5000-digits", "n-long-digits", "n-long-text", "family-long", "group-long",
         "key-long", "key-size-long", "option-long"],
)
def test_huge_or_long_command_line_value_is_one_short_error(args, env, needle):
    _assert_one_short_error(run(*args, env=env), needle)


def test_size_in_an_algebra_name_is_read_by_the_one_rule(tmp_path):
    # the notes on a document named like a catalog entry read its size as a catalog key's
    def analyze(name):
        doc = {"name": name, "dim": 1, "basis": ["a"], "brackets": []}
        return run("algebra", "analyze", write_json(tmp_path, "named.json", doc))

    _assert_one_short_error(analyze(f"st({NINES})"), "algebra name 'st(999")
    # p + 1 has one digit more than the interpreter writes: the note quotes its first 100
    report = json.loads(analyze(f"st({NINES[:4300]})").stdout)
    assert report["notes"] and "the value 1" + "0" * 99 + "... (= m+1)" in report["notes"][0]
    assert json.loads(analyze("st(\uff13)").stdout)["notes"] == []
    assert json.loads(analyze("st(3)").stdout)["notes"] != []


# texts that Python's `int` reads as p or q, but that are not ASCII digits alone
LOOSE_RATIONALS = [" 1/2", "+1/2", "1_0/3", "\uff13/1", "1/ 2"]


@pytest.mark.parametrize("text", LOOSE_RATIONALS)
@pytest.mark.parametrize("where", ["algebra-document", "scenario-term"])
def test_loose_rational_is_malformed(tmp_path, where, text):
    if where == "algebra-document":
        doc = {"name": "h3", "dim": 3, "basis": ["P", "Q", "Z"], "brackets": [{"i": 1, "j": 2, "result": {"3": text}}]}
        result = run("algebra", "analyze", write_json(tmp_path, "h3.json", doc))
    else:
        doc = {"field": {"components": [_poly(1, ((1,), text))]}, "point": [0.5], "duration": 0.01}
        result = run(*FLOW, "--scenario", write_json(tmp_path, "flow.json", doc))
    _assert_one_short_error(result, f"malformed rational {text!r}")


# source -> (the arguments and environment that give it the text, its bounds)
INTEGER_SOURCES = {
    "--seed": (lambda t: (["algebra", "obstruct", "catalog:st3", "--seed", t], {}), 0, None),
    "LIEACTIONS_SEED": (lambda t: (["algebra", "obstruct", "catalog:st3"], {"LIEACTIONS_SEED": t}), 0, None),
    "--n": (lambda t: (["deform", "verify", "--family", "st", "--n", t, "--samples", "0"], {}), 2, 8),
    "--samples": (lambda t: (["deform", "verify", "--family", "st", "--n", "2", "--samples", t], {}), 0, MAX_SAMPLES),
    "--dim": (lambda t: (["algebra", "obstruct", "catalog:st3", "--dim", t], {}), 0, None),
    # underscores after the family separate it from the size, so they are no part of the size
    "catalog key size": (lambda t: (["algebra", "obstruct", f"catalog:abelian{t}"], {}), 0, MAX_CATALOG_DIM),
}
# any text, with digits, signs, underscores and spaces weighted in
INTEGER_TEXTS = st.text(st.sampled_from("0123456789+-_ ") | st.characters(blacklist_characters="\x00"), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(INTEGER_SOURCES)), INTEGER_TEXTS | st.integers(0, 10**5).map(str))
def test_every_integer_in_outside_text_has_one_rule(source, text):
    build, low, high = INTEGER_SOURCES[source]
    size = text.lstrip("_") if source == "catalog key size" else text
    admitted = size.isascii() and size.isdigit() and low <= int(size) and (high is None or int(size) <= high)
    args, env = build(text)
    result = run(*args, env=env)
    if admitted:
        assert result.exit_code == 0, (source, text, result.stderr)
    else:
        _assert_one_short_error(result, "error: ")


def test_move_tolerance_must_be_positive(tmp_path):
    # at "move": 0 every generator of a ball was "witnessed" by a point that it
    # does not move; a positive move of any size is still read
    doc = {"action": "multiball", "group": "ST", "n": 3, "samples": 20, "tolerances": {"move": 0},
           "balls": [{"center": [0.0, 0.0, 0.0]}, {"center": [3.0, 0.0, 0.0]}]}
    result = run(*ACT, "--scenario", write_json(tmp_path, "move0.json", doc))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: 'move' in 'tolerances' must be positive, got 0.0\n"
    doc["tolerances"]["move"] = 5e-324
    result = run(*ACT, "--scenario", write_json(tmp_path, "move_tiny.json", doc))
    assert result.exit_code in (0, 1) and json.loads(result.stdout)["tolerances"]["move"] == 5e-324


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
# a value written as `_nested` text of a drawn depth, far above the recursion limit or not
DEEP = "\x00deep"
# small values, values that an error line must not quote whole, and deep ones
VALUES = st.one_of(
    SMALL_VALUES,
    st.sampled_from([list(range(10**5)), "x" * 10**5, {str(k): k for k in range(10**4)}]),
    st.just(DEEP),
)
DEPTHS = st.integers(1, 1200) | st.just(10**5)


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


def _deepen(text: str, depth: int) -> str:
    """`text` with the JSON string DEEP, if it holds it, written as `_nested(depth)`."""
    return text.replace(json.dumps(DEEP), _nested(depth))


@st.composite
def mutated_scenarios(draw):
    """(verb, JSON text): a shipped scenario with one key or list entry
    dropped, replaced or added, anywhere in it; a new value may be long or
    nested to a drawn depth."""
    path = draw(st.sampled_from(SCENARIO_FILES))
    doc = json.loads(path.read_text())
    verb = ACT if "action" in doc else VF if "check" in doc else FLOW
    target = draw(st.sampled_from(list(_containers(doc))))
    slots = list(target) if isinstance(target, dict) else list(range(len(target)))
    op = draw(st.sampled_from(["drop", "replace", "add"] if slots else ["add"]))
    if op == "add" and isinstance(target, dict):
        target[draw(st.sampled_from(ADDED_KEYS))] = draw(VALUES)
    elif op == "add":
        target.append(draw(VALUES))
    elif op == "drop":
        del target[draw(st.sampled_from(slots))]
    else:
        target[draw(st.sampled_from(slots))] = draw(VALUES)
    return verb, _deepen(json.dumps(doc), draw(DEPTHS))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutated_scenarios())
def test_mutated_scenario_keeps_exit_code_contract(case):
    verb, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w") as fh:
            fh.write(text)
        result = run(*verb, "--scenario", path)
    _assert_exit_code_contract(result, text[:200])


# -- mutated algebra documents keep the exit-code contract ---------------------------------


ALGEBRA_FILES = sorted((Path(__file__).parent / "golden").glob("*.algebra.json"))


def _json_text(obj, repeat=None) -> str:
    """The JSON text of `obj`, with the key of `repeat` = (object, key) written twice."""
    if isinstance(obj, dict):
        pairs = list(obj.items()) + ([(repeat[1], obj[repeat[1]])] if repeat and repeat[0] is obj else [])
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v, repeat)}" for k, v in pairs) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_json_text(v, repeat) for v in obj) + "]"
    return json.dumps(obj)


@st.composite
def mutated_algebras(draw):
    """The JSON text of a golden algebra document with one key dropped,
    written twice or given a value of another type (long, or nested to a
    drawn depth, among them), with one bracket or result index shifted by
    one, or with one coefficient written loosely (" 1/2", "+1/2", "1_0/3")."""
    doc = json.loads(draw(st.sampled_from(ALGEBRA_FILES)).read_text())
    op = draw(st.sampled_from(["drop", "duplicate", "retype", "shift", "rational"]))
    if op == "rational":  # a coefficient that `int` would read, but not as "p/q" in ASCII digits alone
        result = draw(st.sampled_from([entry["result"] for entry in doc["brackets"]]))
        key = draw(st.sampled_from(list(result)))
        result[key] = draw(st.sampled_from(LOOSE_RATIONALS) | st.builds(
            lambda text, at, extra: text[:at] + extra + text[at:], st.just(result[key]),
            st.integers(0, len(result[key])), st.sampled_from([" ", "+", "_", "\uff13"])))
        return _json_text(doc)
    if op == "shift":
        entry = draw(st.sampled_from(doc["brackets"]))
        d = draw(st.sampled_from([-1, 1]))
        key = draw(st.sampled_from(["i", "j", *entry["result"]]))
        if key in ("i", "j"):
            entry[key] += d
        else:
            entry["result"] = {str(int(k) + d) if k == key else k: c for k, c in entry["result"].items()}
        return _json_text(doc)
    objects = [c for c in _containers(doc) if isinstance(c, dict) and c]
    target = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(list(target)))
    if op == "duplicate":
        return _json_text(doc, (target, key))
    if op == "drop":
        del target[key]
    else:
        target[key] = draw(VALUES.filter(lambda value: type(value) is not type(target[key])))
    return _deepen(_json_text(doc), draw(DEPTHS))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mutated_algebras())
def test_mutated_algebra_document_keeps_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w") as fh:
            fh.write(text)
        result = run("algebra", "obstruct", path)
    _assert_exit_code_contract(result, text[:200])


# -- sizes on both sides of their bounds ---------------------------------------------------


def _balls(count):
    return [{"center": [4.0 * b, 0.0]} for b in range(count)]


# the largest degree of a profile on x^2 + y^2 (fields of degree 2k + 1), and of
# f = x^d with the profiles 1 and t (fields of degree 2d - 1), that the bound on
# the terms of a field u(f) X admits
CIRCLE_DEGREE = max(k for k in range(MAX_EXPONENT + 1) if math.comb(2 * k + 3, 2) <= MAX_FIELD_TERMS)
F_DEGREE = max(d for d in range(1, MAX_EXPONENT + 1) if math.comb(2 * d + 1, 2) <= MAX_FIELD_TERMS)


# size -> (the arguments that ask for a value of it, a JSON object standing for the
# file that holds it; its upper bound). Each asks for little else, so that a value
# at the bound runs quickly; a list one entry past its bound stands for every
# longer one, so that a value far above it builds no long list.
SIZES = {
    "act-samples": (lambda v: (*ACT, "--scenario", {"action": "sphere", "group": "U", "n": 1, "samples": v}),
                    MAX_SAMPLES),
    "act-n": (lambda v: (*ACT, "--scenario", {**SPHERE, "n": v, "samples": 1}), MAX_ACTION_N),
    "disk-n": (lambda v: (*ACT, "--scenario", {"action": "disk", "n": v, "samples": 1}), MAX_ACTION_N),
    "balls": (lambda v: (*ACT, "--scenario", {"action": "multiball", "group": "U", "n": 2, "samples": 1,
                                             "balls": _balls(min(v, MAX_BALLS + 1))}), MAX_BALLS),
    "projective-samples": (lambda v: (*VF, "--scenario", {"check": "projective", "n": 1, "samples": v}), MAX_SAMPLES),
    # sl(6) has dimension 35 and sl(7) 48, so the catalog bounds n at 5
    "projective-n": (lambda v: (*VF, "--scenario", {"check": "projective", "n": v, "samples": 1}), 5),
    "exponent": (lambda v: (*FLOW, "--scenario", {"field": {"components": [_poly(1, ((v,), "1/1"))]},
                                                 "point": [0.5], "duration": 0.01}), MAX_EXPONENT),
    # one component of a flow field listing v distinct terms in two variables
    "terms": (lambda v: (*FLOW, "--scenario", {"field": {"components": [
        _poly(2, *(((k % 15, k // 15), "1/1000") for k in range(min(v, MAX_FIELD_TERMS + 1)))), _poly(2)]},
        "point": [0.5, 0.5], "duration": 0.01}), MAX_FIELD_TERMS),
    # st(8) has dimension 35 and st(9) 44
    "deform-n": (lambda v: ("deform", "verify", "--family", "st", "--n", str(v), "--samples", "1"), 8),
    "deform-samples": (lambda v: ("deform", "verify", "--family", "st-prime", "--n", "2", "--samples", str(v)),
                       MAX_SAMPLES),
    "algebra-dim": (lambda v: ("algebra", "obstruct", {"name": "a", "dim": v,
                                                      "basis": [f"e{k}" for k in range(min(v, MAX_CATALOG_DIM + 1))]}),
                    MAX_CATALOG_DIM),
    # the profiles 1, t, ..., t^(v-1) on x^2 + y^2
    "profiles": (lambda v: (*VF, "--scenario", {**COMMUTING, "profiles": [
        _poly(1, ((k,), "1/1")) for k in range(min(v, MAX_PROFILES + 1))]}), MAX_PROFILES),
    # the profiles 1 and t^v on x^2 + y^2, and f = x^v with the profiles 1 and t; one past
    # the bound stands for every larger v
    "profile-degree": (lambda v: (*VF, "--scenario", {**COMMUTING, "profiles": [
        _poly(1, ((0,), "1/1")), _poly(1, ((min(v, CIRCLE_DEGREE + 1),), "1/1"))]}), CIRCLE_DEGREE),
    "f-degree": (lambda v: (*VF, "--scenario", {**COMMUTING, "f": _poly(2, ((min(v, F_DEGREE + 1), 0), "1/1"))}),
                 F_DEGREE),
}


def _at_each_bound(test):
    for size in SIZES:
        test = example(size, 0)(test)
    return test


# every size runs once at its bound; the values drawn lie above it, where each
# is an input error found before any work, so that they cost nothing
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SIZES)), st.integers(1, 10**30))
@_at_each_bound
def test_sizes_on_both_sides_of_their_bounds(size, offset):
    build, bound = SIZES[size]
    with tempfile.TemporaryDirectory() as tmp:
        args = [write_json(Path(tmp), "size.json", a) if isinstance(a, dict) else a for a in build(bound + offset)]
        result = run(*args)
    _assert_exit_code_contract(result, (size, offset))
    # a size above its bound is an input error; one at or below it is admitted
    assert (result.exit_code == 2) == (offset > 0), (size, offset, result.stderr)


# -- each verdict input is computed once -------------------------------------------------


def test_obstruct_runs_borderline_analysis_once(monkeypatch):
    from lieactions import cli, obstructions

    calls = []
    original = obstructions.borderline_analysis

    def counting(g):
        calls.append(g.name)
        return original(g)

    monkeypatch.setattr(obstructions, "borderline_analysis", counting)
    # also catch a copy bound into the CLI module by a top-level import
    monkeypatch.setattr(cli, "borderline_analysis", counting, raising=False)
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
