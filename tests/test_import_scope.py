"""Each verb imports only the layer it runs.

No verb loads `dataclasses`, or the standard library's `argparse` (with
the `gettext` and `locale` it pulls in): the parser is the program's own.
Each verb loads only its own handler module: `exact_verbs`, or one of
`deform_verbs`, `act_verbs` and `vf_verbs`. The exact verbs and `catalog list` must not load
any module of the numerical layer, or `inspect`; on a catalog key they
load no `json`, which only the reader of a file imports, and neither does
`deform verify`. The numerical verbs must not load each other's modules,
and `act verify`, `vf flow` and the commuting-family `vf verify` load no
`algebra` or `catalog`; `act verify` loads `deformations` only for the
ball kinds; only `algebra analyze` loads `derivations`, only `algebra
obstruct` loads `obstructions`, an algebra read from a file loads no
`catalog`, and no verb loads numpy: `deform verify` and every kind of
`act verify` draw their samples from `pcg64`, a standard-library copy of
numpy's default stream (`deform verify` loads no `matrixgroups`), and only
the verbs that draw normals (every `act verify` kind but the interval)
load the ziggurat tables of `ziggurat`. The projective `vf verify` draws
nothing, so it loads neither `pcg64` nor `ziggurat`. No `act verify`
kind loads `fractions`, or the `decimal` and `numbers` it imports: no act
report holds a rational, and only the verbs that parse, build or write
one load it.
Each case runs one verb in a fresh interpreter and inspects `sys.modules`
afterwards, so a stray top-level import in `cli.py` (or in a module it
imports) fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden"

PROBE = """
import sys
from lieactions.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
modules = sorted(sys.modules)
import json  # after the count: a verb on a catalog key must not load it
print(json.dumps(modules))
"""

NUMERICAL = [
    "numpy",
    "lieactions.actions",
    "lieactions.deformations",
    "lieactions.matrixgroups",
    "lieactions.pcg64",
    "lieactions.ziggurat",
    "lieactions.vectorfields",
    "lieactions.polynomials",
]

# Every record is a namedtuple: `dataclasses` would cost each invocation the
# import of `inspect` (and `ast`, `dis`, `tokenize`), which no verb loads.
EXACT = NUMERICAL + ["inspect"]

# `fractions` and what it imports, which no `act verify` kind needs
RATIONALS = ["fractions", "decimal", "numbers"]

# the handler modules: of the exact layer, and of each numerical verb
EXACT_VERBS = ["lieactions.exact_verbs"]
DEFORM_VERBS = ["lieactions.deform_verbs"]
ACT_VERBS = ["lieactions.act_verbs"]
VF_VERBS = ["lieactions.vf_verbs"]
NUMERIC_VERBS = DEFORM_VERBS + ACT_VERBS + VF_VERBS

# the modules of the exact layer that no numerical verb outside `deform verify`
# and the projective `vf verify` runs
EXACT_CORE = ["lieactions.algebra", "lieactions.catalog", "lieactions.derivations", "lieactions.obstructions"]

# (verb arguments, modules that must be absent, modules that must be present)
CASES = {
    "analyze": (
        ["algebra", "analyze", "catalog:st4"],
        EXACT + NUMERIC_VERBS + ["lieactions.obstructions", "json"],
        EXACT_VERBS + ["lieactions.derivations"],
    ),
    "analyze-json": (
        ["algebra", "analyze", str(GOLDEN / "st4_dense.algebra.json")],
        EXACT + NUMERIC_VERBS + ["lieactions.obstructions", "lieactions.catalog"],
        EXACT_VERBS + ["lieactions.derivations"],
    ),
    "obstruct": (
        ["algebra", "obstruct", "catalog:st4", "--dim", "3"],
        EXACT + NUMERIC_VERBS + ["lieactions.derivations", "json"],
        EXACT_VERBS + ["lieactions.obstructions"],
    ),
    "obstruct-json": (
        ["algebra", "obstruct", str(GOLDEN / "st4_dense.algebra.json"), "--dim", "3"],
        EXACT + NUMERIC_VERBS + ["lieactions.derivations", "lieactions.catalog"],
        EXACT_VERBS + ["lieactions.obstructions"],
    ),
    "catalog-list": (
        ["catalog", "list"],
        EXACT + NUMERIC_VERBS + ["lieactions.derivations", "lieactions.obstructions", "json"],
        EXACT_VERBS + ["lieactions.catalog"],
    ),
    "vf-flow": (
        ["vf", "flow", "--scenario", str(SCENARIOS / "flow_circle.json")],
        ["numpy", "lieactions.actions", "lieactions.deformations", "lieactions.matrixgroups",
         "lieactions.linalg", *EXACT_CORE, *EXACT_VERBS, *DEFORM_VERBS, *ACT_VERBS],
        VF_VERBS + ["lieactions.vectorfields", "lieactions.polynomials"],
    ),
    "vf-verify-commuting": (
        ["vf", "verify", "--scenario", str(SCENARIOS / "commuting_family.json")],
        ["numpy", "lieactions.actions", "lieactions.deformations", "lieactions.matrixgroups", *EXACT_CORE,
         *EXACT_VERBS, *DEFORM_VERBS, *ACT_VERBS],
        VF_VERBS + ["lieactions.vectorfields", "lieactions.polynomials"],
    ),
    "vf-verify-projective": (
        ["vf", "verify", "--scenario", str(SCENARIOS / "projective2.json")],
        ["numpy", "numpy.random", "lieactions.pcg64", "lieactions.ziggurat", "lieactions.actions",
         "lieactions.deformations", "lieactions.matrixgroups", "lieactions.derivations", "lieactions.obstructions",
         *EXACT_VERBS, *DEFORM_VERBS, *ACT_VERBS],
        VF_VERBS + ["lieactions.vectorfields", "lieactions.polynomials", "lieactions.algebra",
                    "lieactions.catalog", "lieactions.linalg"],
    ),
    "act-verify": (
        ["act", "verify", "--scenario", str(SCENARIOS / "sphere_st3.json")],
        ["numpy", *RATIONALS, "lieactions.vectorfields", "lieactions.polynomials", "lieactions.linalg",
         "lieactions.deformations", *EXACT_CORE, *EXACT_VERBS, *DEFORM_VERBS, *VF_VERBS],
        ACT_VERBS + ["lieactions.actions", "lieactions.matrixgroups", "lieactions.pcg64", "lieactions.ziggurat"],
    ),
    "act-verify-interval": (
        ["act", "verify", "--scenario", str(SCENARIOS / "interval.json")],
        ["numpy", *RATIONALS, "lieactions.ziggurat", "lieactions.vectorfields", "lieactions.polynomials",
         "lieactions.linalg", "lieactions.deformations", *EXACT_CORE, *EXACT_VERBS, *DEFORM_VERBS, *VF_VERBS],
        ACT_VERBS + ["lieactions.actions", "lieactions.matrixgroups", "lieactions.pcg64"],
    ),
    "act-verify-disk": (
        ["act", "verify", "--scenario", str(SCENARIOS / "disk2.json")],
        ["numpy", *RATIONALS, "lieactions.vectorfields", "lieactions.polynomials", "lieactions.linalg",
         "lieactions.deformations", *EXACT_CORE, *EXACT_VERBS, *DEFORM_VERBS, *VF_VERBS],
        ACT_VERBS + ["lieactions.actions", "lieactions.matrixgroups", "lieactions.pcg64", "lieactions.ziggurat"],
    ),
    "act-verify-ball": (
        ["act", "verify", "--scenario", str(SCENARIOS / "ball_st3.json")],
        ["numpy", *RATIONALS, "lieactions.vectorfields", "lieactions.polynomials", "lieactions.linalg", *EXACT_CORE,
         *EXACT_VERBS, *DEFORM_VERBS, *VF_VERBS],
        ACT_VERBS + ["lieactions.actions", "lieactions.matrixgroups", "lieactions.deformations",
                     "lieactions.pcg64", "lieactions.ziggurat"],
    ),
    "act-verify-multiball": (
        ["act", "verify", "--scenario", str(SCENARIOS / "multiball_st3.json")],
        ["numpy", *RATIONALS, "lieactions.vectorfields", "lieactions.polynomials", "lieactions.linalg", *EXACT_CORE,
         *EXACT_VERBS, *DEFORM_VERBS, *VF_VERBS],
        ACT_VERBS + ["lieactions.actions", "lieactions.matrixgroups", "lieactions.deformations",
                     "lieactions.pcg64", "lieactions.ziggurat"],
    ),
    "deform-verify": (
        ["deform", "verify", "--family", "st", "--n", "3"],
        ["numpy", "lieactions.matrixgroups", "lieactions.ziggurat", "lieactions.vectorfields", "lieactions.actions",
         "lieactions.derivations", "json", *EXACT_VERBS, *ACT_VERBS, *VF_VERBS],
        DEFORM_VERBS + ["lieactions.deformations", "lieactions.pcg64"],
    ),
}


def _probe(code: str, *args: str, flags: tuple[str, ...] = ()):
    """The JSON that `code` prints last, run with `args` in a fresh interpreter
    started with `flags`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(args: list[str]) -> set[str]:
    return set(_probe(PROBE, *args))


@pytest.mark.parametrize("case", list(CASES))
def test_verb_imports_only_its_layer(case):
    args, absent, present = CASES[case]
    modules = _modules_after(args)
    # no verb pays for a command-line library (the parser reads cli.VERBS
    # itself) or for `dataclasses` (every record is a namedtuple)
    absent = absent + ["click", "argparse", "gettext", "locale", "dataclasses"]
    assert not modules & set(absent), sorted(modules & set(absent))
    assert set(present) <= modules, sorted(set(present) - modules)


@pytest.mark.parametrize("case", ["analyze", "act-verify-ball"])
def test_no_verb_loads_typing(case):
    # annotations name their types from `collections.abc`, or behind a
    # TYPE_CHECKING that is False at run time; under -S no `site` module
    # has loaded `typing` before the verb runs
    args, _, present = CASES[case]
    modules = set(_probe(PROBE, *args, flags=("-S",)))
    assert "typing" not in modules
    assert set(present) <= modules, sorted(set(present) - modules)


RUN_AS_MAIN = """
import json, runpy, sys
sys.argv = ["lieact", *sys.argv[1:]]
try:
    runpy.run_module("lieactions.cli", run_name="__main__")
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("case", ["analyze", "act-verify"])
def test_run_as_a_script_runs_cli_once(case):
    # under `python -m lieactions.cli` the script is `__main__`: an import of
    # `lieactions.cli` by a handler module would run cli.py a second time
    args, _, present = CASES[case]
    modules = set(_probe(RUN_AS_MAIN, *args))
    assert "lieactions.cli" not in modules
    assert set(present) <= modules, sorted(set(present) - modules)


WITHOUT_CLICK = """
import json, sys
sys.modules["click"] = None  # any import of click now raises ImportError
from lieactions.cli import main
codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_every_verb_runs_with_click_unimportable(tmp_path):
    verbs = [args for args, _, _ in CASES.values()]
    # the reports go to a file, so the exit codes are the only output
    codes = _probe(WITHOUT_CLICK, json.dumps([["--output", str(tmp_path / "out"), *args] for args in verbs]))
    assert codes == [0] * len(verbs)


CATALOG_NAME = """
import json, sys, types
import lieactions.cli
try:
    lieactions.cli.main(["--output", sys.argv[1], "algebra", "analyze", "catalog:st3"])
except SystemExit:
    pass
from lieactions import catalog
print(json.dumps([isinstance(catalog, types.FunctionType), catalog("st3").name]))
"""


def test_package_catalog_stays_the_function(tmp_path):
    # `lieactions.catalog` names both a submodule and the function the package
    # re-exports; the eager re-export must win even after a verb has run.
    assert _probe(CATALOG_NAME, str(tmp_path / "out")) == [True, "st(3)"]


PROBE_ORDER = """
import json, types
import lieactions.cli
import numpy
from lieactions import __version__, catalog, to_json_dict
print(json.dumps([isinstance(catalog, types.FunctionType), catalog("st3").name, __version__,
                  to_json_dict(catalog("st3"))["name"]]))
"""


def test_package_catalog_is_the_function_in_the_benchmark_probe_order():
    # the benchmark's set-up probe imports the CLI and numpy before it asks the
    # package for `catalog`, so the lazy re-export runs after nothing has loaded it
    assert _probe(PROBE_ORDER) == [True, "st(3)", "0.1.0", "st(3)"]
