"""Packaging metadata: the runtime dependencies and the console script."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

PROJECT = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())["project"]


def _names(deps):
    return [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps]


def test_there_are_no_runtime_dependencies():
    # every verb runs on the standard library; numpy is the oracle of the tests
    assert PROJECT["dependencies"] == []
    assert "numpy" in _names(PROJECT["optional-dependencies"]["test"])


def test_console_script_resolves_to_a_callable():
    target = PROJECT["scripts"]["lieact"]
    assert target == "lieactions.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
