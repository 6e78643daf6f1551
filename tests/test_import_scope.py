"""Each verb imports only the layer it runs.

The exact verbs and `catalog list` must not load numpy or any module of
the numerical layer, the numerical verbs must not load each other's
modules, and only `algebra analyze` loads `derivations`. Each case runs
one verb in a fresh interpreter and inspects `sys.modules` afterwards, so
a stray top-level import in `cli.py` (or in a module it imports) fails
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

PROBE = """
import json, sys
from lieactions.cli import main
try:
    main(sys.argv[1:], standalone_mode=False)
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""

NUMERICAL = [
    "numpy",
    "lieactions.actions",
    "lieactions.deformations",
    "lieactions.matrixgroups",
    "lieactions.vectorfields",
    "lieactions.polynomials",
]

# (verb arguments, modules that must be absent, modules that must be present)
CASES = {
    "analyze": (["algebra", "analyze", "catalog:st4"], NUMERICAL, ["lieactions.derivations"]),
    "obstruct": (
        ["algebra", "obstruct", "catalog:st4", "--dim", "3"],
        NUMERICAL + ["lieactions.derivations"],
        ["lieactions.obstructions"],
    ),
    "catalog-list": (["catalog", "list"], NUMERICAL + ["lieactions.derivations"], ["lieactions.catalog"]),
    "vf-flow": (
        ["vf", "flow", "--scenario", str(SCENARIOS / "flow_circle.json")],
        ["lieactions.actions", "lieactions.deformations", "lieactions.matrixgroups", "lieactions.derivations"],
        ["lieactions.vectorfields", "lieactions.polynomials"],
    ),
    "act-verify": (
        ["act", "verify", "--scenario", str(SCENARIOS / "sphere_st3.json")],
        ["lieactions.vectorfields", "lieactions.derivations"],
        ["numpy", "lieactions.actions", "lieactions.matrixgroups"],
    ),
    "deform-verify": (
        ["deform", "verify", "--family", "st", "--n", "3"],
        ["lieactions.vectorfields", "lieactions.actions", "lieactions.derivations"],
        ["numpy", "lieactions.deformations"],
    ),
}


def _modules_after(args: list[str]) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", list(CASES))
def test_verb_imports_only_its_layer(case):
    args, absent, present = CASES[case]
    modules = _modules_after(args)
    assert not modules & set(absent), sorted(modules & set(absent))
    assert set(present) <= modules, sorted(set(present) - modules)
