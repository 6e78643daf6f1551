"""Each verb imports only the layer it runs.

No verb loads `dataclasses`. The exact verbs and `catalog list` must not
load numpy, any module of the numerical layer, or `inspect`; the numerical
verbs must not load each other's modules, and `act verify`, `vf flow` and
the commuting-family `vf verify` load no `algebra` or `catalog`; only
`algebra analyze` loads `derivations`, only `algebra obstruct` loads
`obstructions`, an algebra read from a file loads no `catalog`, and `vf
flow`, the commuting-family `vf verify` and `deform verify` run without
numpy (`deform verify` draws its samples from `pcg64`, a standard-library
copy of numpy's default stream, and loads no `matrixgroups`). Each case
runs one verb in a fresh interpreter and inspects `sys.modules` afterwards,
so a stray top-level import in `cli.py` (or in a module it imports) fails
here.
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
import json, sys
from lieactions.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""

NUMERICAL = [
    "numpy",
    "lieactions.actions",
    "lieactions.deformations",
    "lieactions.matrixgroups",
    "lieactions.pcg64",
    "lieactions.vectorfields",
    "lieactions.polynomials",
]

# Every record is a namedtuple: `dataclasses` would cost each invocation the
# import of `inspect` (and `ast`, `dis`, `tokenize`), which numpy loads anyway
# but no exact verb does.
EXACT = NUMERICAL + ["inspect"]

# the modules of the exact layer that no numerical verb outside `deform verify`
# and the projective `vf verify` runs
EXACT_CORE = ["lieactions.algebra", "lieactions.catalog", "lieactions.derivations", "lieactions.obstructions"]

# (verb arguments, modules that must be absent, modules that must be present)
CASES = {
    "analyze": (
        ["algebra", "analyze", "catalog:st4"],
        EXACT + ["lieactions.obstructions"],
        ["lieactions.derivations"],
    ),
    "analyze-json": (
        ["algebra", "analyze", str(GOLDEN / "st4_dense.algebra.json")],
        EXACT + ["lieactions.obstructions", "lieactions.catalog"],
        ["lieactions.derivations"],
    ),
    "obstruct": (
        ["algebra", "obstruct", "catalog:st4", "--dim", "3"],
        EXACT + ["lieactions.derivations"],
        ["lieactions.obstructions"],
    ),
    "obstruct-json": (
        ["algebra", "obstruct", str(GOLDEN / "st4_dense.algebra.json"), "--dim", "3"],
        EXACT + ["lieactions.derivations", "lieactions.catalog"],
        ["lieactions.obstructions"],
    ),
    "catalog-list": (
        ["catalog", "list"],
        EXACT + ["lieactions.derivations", "lieactions.obstructions"],
        ["lieactions.catalog"],
    ),
    "vf-flow": (
        ["vf", "flow", "--scenario", str(SCENARIOS / "flow_circle.json")],
        ["numpy", "lieactions.actions", "lieactions.deformations", "lieactions.matrixgroups",
         "lieactions.linalg", *EXACT_CORE],
        ["lieactions.vectorfields", "lieactions.polynomials"],
    ),
    "vf-verify-commuting": (
        ["vf", "verify", "--scenario", str(SCENARIOS / "commuting_family.json")],
        ["numpy", "lieactions.actions", "lieactions.deformations", "lieactions.matrixgroups", *EXACT_CORE],
        ["lieactions.vectorfields", "lieactions.polynomials"],
    ),
    "act-verify": (
        ["act", "verify", "--scenario", str(SCENARIOS / "sphere_st3.json")],
        ["lieactions.vectorfields", "lieactions.polynomials", "lieactions.linalg", "lieactions.pcg64",
         *EXACT_CORE],
        ["numpy", "lieactions.actions", "lieactions.matrixgroups"],
    ),
    "act-verify-interval": (
        ["act", "verify", "--scenario", str(SCENARIOS / "interval.json")],
        ["lieactions.vectorfields", "lieactions.polynomials", "lieactions.linalg", *EXACT_CORE],
        ["numpy", "lieactions.actions", "lieactions.matrixgroups"],
    ),
    "deform-verify": (
        ["deform", "verify", "--family", "st", "--n", "3"],
        ["numpy", "lieactions.matrixgroups", "lieactions.vectorfields", "lieactions.actions",
         "lieactions.derivations"],
        ["lieactions.deformations", "lieactions.pcg64"],
    ),
}


def _probe(code: str, *args: str):
    """The JSON that `code` prints last, run with `args` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(args: list[str]) -> set[str]:
    return set(_probe(PROBE, *args))


@pytest.mark.parametrize("case", list(CASES))
def test_verb_imports_only_its_layer(case):
    args, absent, present = CASES[case]
    modules = _modules_after(args)
    # no verb pays for a command-line library (the parser is the standard
    # library's argparse) or for `dataclasses` (every record is a namedtuple)
    absent = absent + ["click", "dataclasses"]
    assert not modules & set(absent), sorted(modules & set(absent))
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
