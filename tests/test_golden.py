"""Golden reports: every verb must reproduce the checked-in bytes exactly.

The exact cases are `algebra analyze` and `algebra obstruct --dim 3` on
every DEFAULT_CATALOG entry, a few larger catalog algebras, and st(4),
N(5), heisenberg(7) and mueller_roemer7 in dense unimodular bases
(golden/*_dense.algebra.json). The dense nilpotent ones are the inputs on
which `derivation_algebra` stops eliminating and checks the remaining
rows against the kernel instead. st(4) and N(5) are also run in the
basis s_i e_i with s_i alternately 1/2 and 2/3 (golden/*_scaled.algebra.json),
whose constants have denominators, so that the common denominator of the
integer bracket is above 1. The numerical
cases are `deform verify` for every family at n = 3, 5 and 6, and every
scenario in `scenarios/` run through its verb (`act verify`, `vf verify`
or `vf flow`), plus the wider scenarios kept beside the goldens as
golden/*.scenario.json (sphere, ball and three-ball actions of ST(5) and
U(5); act scenarios across the edges of the sample blocks of `act verify`:
a sphere of ST(3) at 257 samples, a ball of ST(4) at 256, three balls of
U(3) at 513 and two balls of U(16) at 130, 32 to a block; every bound of
the matrix kinds but the sample count, eight balls of ST(16) at 100
samples, 8 to a block, with a move threshold of 1e-15, since the bump
deformation shrinks the far shears of ST(16) almost to nothing inside the
annulus; a multiball of one ball of ST(4), a product of one factor whose
points draw no ball index; and a sphere of U(1), whose elements draw no
uniforms; a cubic field in three variables flowed backwards; and the
projective `vf verify` at n = 1..5, with 500 samples at the scenario seeds
3 and 2^64 + 5, and with none). All run at
seed 0, except two `deform verify --samples 300` cases at seeds of three
and of six 32-bit words (2^64 + 5 and 2^160 + 7), which pin how a seed
longer than the four words of SeedSequence's pool is mixed. After a deliberate change to a report, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and say in the change log
why the bytes moved.
"""

import json
from pathlib import Path

import pytest

from lieactions.catalog import DEFAULT_CATALOG

from clirunner import invoke

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"
SEED = "0"

SOURCES = [f"catalog:{key}" for key, _ in DEFAULT_CATALOG] + [
    "catalog:st5",
    "catalog:sl3",
    "catalog:n5",
    "catalog:heisenberg7",
    "catalog:heisenberg11",
    "st4_dense.algebra.json",
    "n5_dense.algebra.json",
    "heisenberg7_dense.algebra.json",
    "mr7_dense.algebra.json",
    "st4_scaled.algebra.json",
    "n5_scaled.algebra.json",
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
    return invoke(args)


def _scenario_verb(path: Path) -> tuple[str, list[str], str]:
    """(golden name part, lieact verb, golden suffix) for a scenario file:
    `act verify` for an "action", `vf verify` for a "check", else `vf flow`."""
    keys = json.loads(path.read_text())
    if "action" in keys:
        return "act", ["act", "verify"], "json"
    if "check" in keys:
        return "vf_verify", ["vf", "verify"], "json"
    return "vf_flow", ["vf", "flow"], "csv"


# (golden stem, family, n, seed) of the deform verify cases at wide seeds
WIDE_SEEDS = (
    ("st-prime4_seed3words", "st-prime", 4, 2**64 + 5),
    ("concat4_seed6words", "concat", 4, 2**160 + 7),
)


def _numeric_cases():
    """(golden file, lieact arguments, seed) for deform verify and the scenarios."""
    for family in ("st", "st-prime", "concat"):
        for n in (3, 5, 6):
            args = ["deform", "verify", "--family", family, "--n", str(n)]
            yield GOLDEN / f"{family}{n}.deform.json", args, SEED
    for stem, family, n, seed in WIDE_SEEDS:
        args = ["deform", "verify", "--family", family, "--n", str(n), "--samples", "300"]
        yield GOLDEN / f"{stem}.deform.json", args, str(seed)
    for scenario in sorted(SCENARIOS.glob("*.json")) + sorted(GOLDEN.glob("*.scenario.json")):
        name, verb, suffix = _scenario_verb(scenario)
        stem = scenario.name.split(".", 1)[0]
        yield GOLDEN / f"{stem}.{name}.{suffix}", [*verb, "--scenario", str(scenario)], SEED


def _run_numeric(args: list[str], seed: str):
    return invoke(["--seed", seed, *args])


@pytest.mark.parametrize(
    "source,verb,golden", list(_cases()), ids=lambda x: x.name if isinstance(x, Path) else None
)
def test_report_matches_golden(source, verb, golden):
    result = _run(source, verb)
    assert result.exit_code == 0, result.output
    assert result.output == golden.read_text()
    assert result.stderr == ""


@pytest.mark.parametrize(
    "golden,args,seed",
    [pytest.param(golden, args, seed, id=golden.name) for golden, args, seed in _numeric_cases()],
)
def test_numeric_report_matches_golden(golden, args, seed):
    result = _run_numeric(args, seed)
    assert result.exit_code == 0, result.output
    assert result.output == golden.read_text()
    assert result.stderr == ""


if __name__ == "__main__":
    runs = [(_run(source, verb), golden) for source, verb, golden in _cases()]
    runs += [(_run_numeric(args, seed), golden) for golden, args, seed in _numeric_cases()]
    for result, golden in runs:
        if result.exit_code != 0:
            raise SystemExit(f"{golden.name}: exit {result.exit_code}\n{result.output}")
        golden.write_text(result.output)
        print("wrote", golden.name)
