"""Packaging metadata: the runtime dependencies and the console script."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

PROJECT = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())["project"]


def test_numpy_is_the_only_runtime_dependency():
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in PROJECT["dependencies"]]
    assert names == ["numpy"]


def test_console_script_resolves_to_a_callable():
    target = PROJECT["scripts"]["lieact"]
    assert target == "lieactions.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
