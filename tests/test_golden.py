"""Golden reports: `algebra analyze` and `algebra obstruct --dim 3` must
reproduce the checked-in bytes exactly.

The inputs are every DEFAULT_CATALOG entry, a few larger catalog
algebras, and st(4) in a dense unimodular basis
(golden/st4_dense.algebra.json). After a deliberate change to a report,
regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
and say in the change log why the bytes moved.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from lieactions.catalog import DEFAULT_CATALOG
from lieactions.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "0"

SOURCES = [f"catalog:{key}" for key, _ in DEFAULT_CATALOG] + [
    "catalog:st5",
    "catalog:sl3",
    "catalog:n5",
    "catalog:heisenberg7",
    "st4_dense.algebra.json",
]
VERBS = {
    "analyze": ("algebra", "analyze"),
    "obstruct3": ("algebra", "obstruct", "--dim", "3"),
}


def _cases():
    for source in SOURCES:
        stem = source.split(":", 1)[1] if source.startswith("catalog:") else source.split(".", 1)[0]
        for verb in VERBS:
            yield source, verb, GOLDEN / f"{stem}.{verb}.json"


def _run(source: str, verb: str):
    path = source if source.startswith("catalog:") else str(GOLDEN / source)
    args = ["--seed", SEED, *VERBS[verb][:2], path, *VERBS[verb][2:]]
    return CliRunner().invoke(main, args)


@pytest.mark.parametrize(
    "source,verb,golden", list(_cases()), ids=lambda x: x.name if isinstance(x, Path) else None
)
def test_report_matches_golden(source, verb, golden):
    result = _run(source, verb)
    assert result.exit_code == 0, result.output
    assert result.output == golden.read_text()


if __name__ == "__main__":
    for source, verb, golden in _cases():
        result = _run(source, verb)
        if result.exit_code != 0:
            raise SystemExit(f"{source} {verb}: exit {result.exit_code}\n{result.output}")
        golden.write_text(result.output)
        print("wrote", golden.name)
