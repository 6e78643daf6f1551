"""Warm import of ``lieactions.cli``, run once per benchmark set-up.

Usage: python perfbench/probe.py [CATALOG_KEY...]

Prints one JSON object: where ``lieactions`` was imported from, the
versions the benchmark stamps into its record, and the interchange form
of each named catalog algebra (the source of the dense-basis inputs).
"""

import json
import sys
from importlib.metadata import version

import lieactions.cli  # noqa: F401  (the import being warmed)
import numpy
from lieactions import __version__, catalog, to_json_dict

print(json.dumps({
    "lieactions_file": lieactions.__file__,
    "lieactions": __version__,
    "numpy": numpy.__version__,
    "click": version("click"),
    "catalog": {key: to_json_dict(catalog(key)) for key in sys.argv[1:]},
}))
