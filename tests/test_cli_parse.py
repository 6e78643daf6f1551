"""The command line as the parser reads it: one table of argument vectors.

Each row runs `main` with the handlers replaced by a spy, and pins what
the parser decided: the exit code, the keyword arguments the handler
received, and the seed and output it resolved; or, for a usage error,
exit 2 with one `error:` line on stderr that names the argument at fault
and nothing on stdout. The wording of a message is not pinned.
"""

from __future__ import annotations

from importlib import import_module

import pytest

from lieactions import cli
from lieactions.constants import DEFAULT_SEED

from clirunner import invoke

OUT = "<out>"  # stands for a writable --output path


def call(verb: str, seed: int = DEFAULT_SEED, output: str | None = None, **kwargs):
    """The handler of `verb` ("group verb") is called with `kwargs`, `seed` and `output`."""
    return ("call", verb, kwargs, seed, output)


def error(needle: str):
    """A usage error whose one `error:` line contains `needle`."""
    return ("error", needle)


def shows(prefix: str, *needles: str):
    """Exit 0 with stdout starting with `prefix` and containing every needle."""
    return ("shows", prefix, needles)


ST3 = ["algebra", "analyze", "catalog:st3"]
ANALYZE = {"source": "catalog:st3"}
DEFORM = ["deform", "verify", "--family", "st", "--n", "3"]
DEFORM_ARGS = {"family": "st", "n_": 3, "samples": 100}
SCENARIO = "scenario.json"  # never opened: the spy replaces the handler
# (name, text): integers that Python's `int` reads but that are not ASCII digits alone
LOOSE_SEEDS = [("plus", "+5"), ("underscore", "1_000"), ("spaces", " 7 "), ("fullwidth", "\uff15")]
OBSTRUCT = ["algebra", "obstruct", "catalog:st3"]
# every integer option other than --seed, with the arguments before it
INTEGER_OPTIONS = [("n", ["deform", "verify", "--family", "st"]), ("samples", DEFORM), ("dim", OBSTRUCT)]

# (id, arguments, environment, expected)
CASES = [
    # --seed and LIEACTIONS_SEED
    ("seed-default", ST3, {}, call("algebra analyze", **ANALYZE)),
    ("seed-before-group", ["--seed", "5", *ST3], {}, call("algebra analyze", 5, **ANALYZE)),
    ("seed-between-group-and-verb", ["algebra", "--seed", "5", "analyze", "catalog:st3"], {},
     call("algebra analyze", 5, **ANALYZE)),
    ("seed-after-verb", [*ST3, "--seed", "5"], {}, call("algebra analyze", 5, **ANALYZE)),
    ("seed-before-positional", ["algebra", "analyze", "--seed", "5", "catalog:st3"], {},
     call("algebra analyze", 5, **ANALYZE)),
    ("seed-equals", ["--seed=5", *ST3], {}, call("algebra analyze", 5, **ANALYZE)),
    ("seed-equals-after-verb", [*DEFORM, "--seed=5"], {}, call("deform verify", 5, **DEFORM_ARGS)),
    ("seed-after-verb-wins", ["--seed", "3", *DEFORM, "--seed", "5"], {}, call("deform verify", 5, **DEFORM_ARGS)),
    ("seed-twice-before-verb", ["--seed", "3", "algebra", "--seed", "4", "analyze", "catalog:st3"], {},
     call("algebra analyze", 4, **ANALYZE)),
    ("seed-on-catalog-list", ["--seed", "3", "catalog", "list"], {}, call("catalog list", 3)),
    ("seed-env", ST3, {"LIEACTIONS_SEED": "7"}, call("algebra analyze", 7, **ANALYZE)),
    ("seed-flag-beats-env", ["--seed", "5", *ST3], {"LIEACTIONS_SEED": "7"}, call("algebra analyze", 5, **ANALYZE)),
    ("seed-flag-beats-bad-env", [*ST3, "--seed", "5"], {"LIEACTIONS_SEED": "x"},
     call("algebra analyze", 5, **ANALYZE)),
    ("bad-seed-flag", ["--seed", "x", *ST3], {}, error("--seed")),
    ("negative-seed-flag", ["--seed", "-1", *ST3], {}, error("--seed")),
    ("bad-seed-after-verb", [*ST3, "--seed", "x"], {}, error("--seed")),
    ("bad-seed-equals-after-good", [*ST3, "--seed", "3", "--seed=x"], {}, error("--seed")),
    ("bad-seed-env", ST3, {"LIEACTIONS_SEED": "x"}, error("LIEACTIONS_SEED")),
    ("negative-seed-env", ST3, {"LIEACTIONS_SEED": "-1"}, error("LIEACTIONS_SEED")),
    ("bad-seed-env-on-catalog-list", ["catalog", "list"], {"LIEACTIONS_SEED": "x"}, error("LIEACTIONS_SEED")),
    # a seed is ASCII digits only: no sign, underscore, space or other digit that `int` reads
    *((f"loose-seed-flag-{name}", ["--seed", text, *ST3], {}, error("--seed")) for name, text in LOOSE_SEEDS),
    *((f"loose-seed-equals-{name}", [f"--seed={text}", *ST3], {}, error("--seed")) for name, text in LOOSE_SEEDS),
    *((f"loose-seed-env-{name}", ST3, {"LIEACTIONS_SEED": text}, error("LIEACTIONS_SEED"))
      for name, text in LOOSE_SEEDS),
    # so is every other integer on the command line
    *((f"loose-{option}-{name}", [*before, f"--{option}", text], {}, error(f"--{option}"))
      for option, before in INTEGER_OPTIONS for name, text in LOOSE_SEEDS),
    *((f"loose-{option}-equals-{name}", [*before, f"--{option}={text}"], {}, error(f"--{option}"))
      for option, before in INTEGER_OPTIONS for name, text in LOOSE_SEEDS),
    # --output
    ("output-before-group", ["--output", OUT, *ST3], {}, call("algebra analyze", output=OUT, **ANALYZE)),
    ("output-after-verb", [*ST3, "--output", OUT], {}, call("algebra analyze", output=OUT, **ANALYZE)),
    ("output-equals", [f"--output={OUT}", "catalog", "list"], {}, call("catalog list", output=OUT)),
    ("output-after-verb-wins", ["--output", "elsewhere", *ST3, "--output", OUT], {},
     call("algebra analyze", output=OUT, **ANALYZE)),
    ("output-missing-value", ["--output"], {}, error("--output")),
    ("output-value-looks-like-an-option", ["--output", "-x", "catalog", "list"], {}, error("--output")),
    # groups and verbs
    ("unknown-group", ["nosuch", "list"], {}, error("nosuch")),
    ("unknown-verb", ["algebra", "frobnicate", "catalog:st3"], {}, error("frobnicate")),
    ("verb-of-another-group", ["catalog", "analyze"], {}, error("analyze")),
    ("missing-verb", ["algebra"], {}, error("VERB")),
    ("no-arguments", [], {}, error("GROUP")),
    # unknown and abbreviated options
    ("unknown-option", [*ST3, "--nosuch", "1"], {}, error("--nosuch")),
    ("unknown-option-before-group", ["--nosuch=1", "catalog", "list"], {}, error("--nosuch")),
    ("abbreviated-samples", [*DEFORM, "--sam", "5"], {}, error("--sam")),
    ("abbreviated-family", ["deform", "verify", "--fam", "st", "--n", "3"], {}, error("--family")),
    ("abbreviated-scenario", ["act", "verify", "--scen", SCENARIO], {}, error("--scenario")),
    ("option-on-a-verb-without-it", ["catalog", "list", "--seed", "3"], {}, error("--seed")),
    ("option-of-another-verb", [*ST3, "--dim", "3"], {}, error("--dim")),
    ("version-after-verb", [*ST3, "--version"], {}, error("--version")),
    ("lone-dash", [*ST3, "-"], {}, error("-")),
    # missing arguments
    ("missing-scenario", ["act", "verify"], {}, error("--scenario")),
    ("missing-family", ["deform", "verify", "--n", "3"], {}, error("--family")),
    ("missing-n", ["deform", "verify", "--family", "st"], {}, error("--n")),
    ("missing-source", ["algebra", "analyze"], {}, error("source")),
    ("missing-value", [*DEFORM, "--samples"], {}, error("--samples")),
    ("option-as-value", ["deform", "verify", "--family", "--n", "3"], {}, error("--family")),
    # values
    ("dim-not-int", ["algebra", "obstruct", "catalog:st3", "--dim", "x"], {}, error("--dim")),
    ("n-not-int", ["deform", "verify", "--family", "st", "--n", "x"], {}, error("--n")),
    ("samples-not-int", [*DEFORM, "--samples", "1.5"], {}, error("--samples")),
    ("unknown-family", ["deform", "verify", "--family", "nope", "--n", "3"], {}, error("--family")),
    ("dim-default", ["algebra", "obstruct", "catalog:st3"], {},
     call("algebra obstruct", source="catalog:st3", dim_=None)),
    # each bound of an integer is checked by the parser, from its entry in VERBS
    ("dim-negative", [*OBSTRUCT, "--dim", "-1"], {}, error("--dim")),
    ("dim-equals-negative", [*OBSTRUCT, "--dim=-1"], {}, error("--dim")),
    ("n-negative", ["deform", "verify", "--family", "st", "--n", "-2"], {}, error("--n")),
    ("n-below-2", ["deform", "verify", "--family", "st", "--n", "1"], {}, error("--n")),
    ("samples-above-the-bound", [*DEFORM, "--samples", "10001"], {}, error("--samples")),
    ("equals-everywhere", ["deform", "verify", "--family=concat", "--n=4", "--samples=7"], {},
     call("deform verify", family="concat", n_=4, samples=7)),
    ("negative-number-positional", ["algebra", "analyze", "-5"], {}, call("algebra analyze", source="-5")),
    ("positional-with-a-space", ["algebra", "analyze", "-a b"], {}, call("algebra analyze", source="-a b")),
    ("scenario", ["vf", "flow", "--scenario", SCENARIO], {}, call("vf flow", scenario=SCENARIO)),
    # positionals
    ("extra-positional", [*ST3, "extra"], {}, error("extra")),
    ("extra-positional-catalog-list", ["catalog", "list", "extra"], {}, error("extra")),
    ("extra-positional-after-options", ["act", "verify", "--scenario", SCENARIO, "extra"], {}, error("extra")),
    # an option given twice: the last wins
    ("n-twice", [*DEFORM, "--n", "4"], {}, call("deform verify", family="st", n_=4, samples=100)),
    ("family-twice", [*DEFORM, "--family", "concat"], {}, call("deform verify", family="concat", n_=3, samples=100)),
    # -- ends the options
    ("dashdash-before-positional", ["algebra", "analyze", "--", "catalog:st3"], {}, call("algebra analyze", **ANALYZE)),
    ("dashdash-before-group", ["--", *ST3], {}, call("algebra analyze", **ANALYZE)),
    ("dashdash-after-options", ["algebra", "obstruct", "--dim", "3", "--", "catalog:st3"], {},
     call("algebra obstruct", source="catalog:st3", dim_=3)),
    ("dashdash-then-option-text", ["algebra", "obstruct", "catalog:st3", "--", "--dim", "3"], {}, error("--dim")),
    # --version and --help
    ("version", ["--version"], {}, shows("lieact, version 0.1.0\n")),
    ("help", ["--help"], {}, shows("usage: lieact", "algebra analyze", "vf flow", "--seed", "--output")),
    ("help-short", ["-h"], {}, shows("usage: lieact", "algebra analyze", "vf flow")),
    ("help-after-group", ["algebra", "--help"], {}, shows("usage: lieact", "algebra obstruct", "deform verify")),
    ("help-after-verb", ["algebra", "obstruct", "--help"], {}, shows("usage: lieact algebra obstruct", "--dim",
                                                                     "source", "--seed")),
    ("help-short-after-verb", ["algebra", "obstruct", "-h"], {}, shows("usage: lieact algebra obstruct", "--dim")),
    ("help-with-a-missing-required-option", ["act", "verify", "--help"], {},
     shows("usage: lieact act verify", "--scenario")),
    ("help-after-options", [*DEFORM, "--help"], {}, shows("usage: lieact deform verify", "--family", "--samples")),
]


def _spy_on_handlers(monkeypatch, calls: list) -> None:
    """Replace every verb's handler, where `main` finds it, by a spy that
    records (verb, its arguments, the resolved seed and output)."""
    for group, table in cli.VERBS.items():
        for verb, (module, _, _) in table.items():
            def spy(obj, _verb=f"{group} {verb}", **kwargs):
                calls.append((_verb, kwargs, obj["seed"], obj["output"]))

            monkeypatch.setitem(import_module(f"lieactions.{module}").HANDLERS, f"{group} {verb}", spy)


@pytest.mark.parametrize("args, env, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_command_line(monkeypatch, tmp_path, args, env, expected):
    monkeypatch.delenv("LIEACTIONS_SEED", raising=False)
    out = str(tmp_path / "report.json")
    calls: list = []
    _spy_on_handlers(monkeypatch, calls)
    result = invoke([arg.replace(OUT, out) for arg in args], env=env)
    kind, *rest = expected
    if kind == "call":
        verb, kwargs, seed, output = rest
        assert (result.exit_code, result.stderr) == (0, ""), result.stderr
        assert calls == [(verb, kwargs, seed, None if output is None else output.replace(OUT, out))]
    elif kind == "error":
        (needle,) = rest
        assert result.exit_code == 2, result.stdout
        assert result.stdout == "" and calls == []
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr
        assert needle in result.stderr, result.stderr
    else:
        prefix, needles = rest
        assert (result.exit_code, result.stderr, calls) == (0, "", [])
        assert result.stdout.startswith(prefix), result.stdout
        assert all(needle in result.stdout for needle in needles), result.stdout
