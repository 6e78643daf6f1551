"""Golden reports: every verb must reproduce the checked-in bytes exactly.

The exact cases are `algebra analyze` and `algebra obstruct --dim 3` on
every DEFAULT_CATALOG entry, a few larger catalog algebras, and st(4) in
a dense unimodular basis (golden/st4_dense.algebra.json). The numerical
cases are `deform verify` for every family at n = 3, 5 and 6, and every
scenario in `scenarios/` run through its verb (`act verify`, `vf verify`
or `vf flow`), plus the wider scenarios kept beside the goldens as
golden/*.scenario.json (sphere, ball and three-ball actions of ST(5) and
U(5), and a cubic field in three variables flowed backwards). All run at
seed 0. After a deliberate change to a report, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and say in the change log
why the bytes moved.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from lieactions.catalog import DEFAULT_CATALOG
from lieactions.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"
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


def _scenario_verb(path: Path) -> tuple[str, list[str], str]:
    """(golden name part, lieact verb, golden suffix) for a scenario file:
    `act verify` for an "action", `vf verify` for a "check", else `vf flow`."""
    keys = json.loads(path.read_text())
    if "action" in keys:
        return "act", ["act", "verify"], "json"
    if "check" in keys:
        return "vf_verify", ["vf", "verify"], "json"
    return "vf_flow", ["vf", "flow"], "csv"


def _numeric_cases():
    """(golden file, lieact arguments) for deform verify and the scenarios."""
    for family in ("st", "st-prime", "concat"):
        for n in (3, 5, 6):
            args = ["deform", "verify", "--family", family, "--n", str(n)]
            yield GOLDEN / f"{family}{n}.deform.json", args
    for scenario in sorted(SCENARIOS.glob("*.json")) + sorted(GOLDEN.glob("*.scenario.json")):
        name, verb, suffix = _scenario_verb(scenario)
        stem = scenario.name.split(".", 1)[0]
        yield GOLDEN / f"{stem}.{name}.{suffix}", [*verb, "--scenario", str(scenario)]


def _run_numeric(args: list[str]):
    return CliRunner().invoke(main, ["--seed", SEED, *args])


@pytest.mark.parametrize(
    "source,verb,golden", list(_cases()), ids=lambda x: x.name if isinstance(x, Path) else None
)
def test_report_matches_golden(source, verb, golden):
    result = _run(source, verb)
    assert result.exit_code == 0, result.output
    assert result.output == golden.read_text()


@pytest.mark.parametrize(
    "golden,args", [pytest.param(golden, args, id=golden.name) for golden, args in _numeric_cases()]
)
def test_numeric_report_matches_golden(golden, args):
    result = _run_numeric(args)
    assert result.exit_code == 0, result.output
    assert result.output == golden.read_text()


if __name__ == "__main__":
    runs = [(_run(source, verb), golden) for source, verb, golden in _cases()]
    runs += [(_run_numeric(args), golden) for golden, args in _numeric_cases()]
    for result, golden in runs:
        if result.exit_code != 0:
            raise SystemExit(f"{golden.name}: exit {result.exit_code}\n{result.output}")
        golden.write_text(result.output)
        print("wrote", golden.name)
