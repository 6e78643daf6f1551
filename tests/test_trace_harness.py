"""The benchmark's tracer still finds every function it wraps.

`perfbench/traced_cli.py` names the traced functions by module and
attribute path; a rename or a deletion in the program would only show
when the benchmark runs. The harness is loaded by path and not changed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


@pytest.mark.parametrize(
    "module, path", [(entry[0], entry[1]) for entry in harness.SPANS + harness.COUNTS]
)
def test_every_traced_name_resolves(module, path):
    owner, attr = harness._owner(module, path)
    assert attr in vars(owner), f"lieactions.{module}.{path}"


@pytest.mark.parametrize(
    "args",
    [
        ["algebra", "analyze", "catalog:st3"],
        ["act", "verify", "--scenario", str(ROOT / "scenarios" / "sphere_st3.json")],
        ["act", "verify", "--scenario", str(ROOT / "scenarios" / "multiball_st3.json")],
        ["act", "verify", "--scenario", str(ROOT / "scenarios" / "interval.json")],
    ],
    ids=["analyze-st3", "act-sphere", "act-multiball", "act-interval"],
)
def test_traced_run_has_a_cli_verb_root(args, tmp_path):
    # the tracer rewrites module attributes, so it runs in its own process
    spans_path = tmp_path / "spans.json"
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans_path), "guard", *args],
        env=env, capture_output=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    spans = json.loads(spans_path.read_text())["spans"]
    roots = [span for span in spans if span[1] == -1]
    assert [span[2] for span in roots] == ["cli.verb"]
    assert len(spans) > 1
    if args[0] == "act":
        # the tracer counts the action it finds first among verify_action's arguments
        counts = json.loads(spans_path.read_text())["counts"]
        assert "actions.verify" in [span[2] for span in spans] and counts["actions.apply_calls"] > 0
