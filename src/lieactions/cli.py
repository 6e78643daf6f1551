"""Command-line front end: analyze/verify/simulate with JSON reports.

Exit codes: 0 all checks pass, 1 a verification found a violation,
2 input or usage error. Reports are deterministic: same inputs and seed
give byte-identical output.

`VERBS` describes every verb once; the parser below reads it, and the
help is rendered from it. The handlers live in `exact_verbs`,
`deform_verbs`, `act_verbs` and `vf_verbs`, and `main` imports only the
one that runs.
"""

from __future__ import annotations

import atexit
import gc
import os
import re
import sys
from collections import namedtuple
from importlib import import_module

from . import __version__
from .constants import DEFAULT_SEED, MAX_SAMPLES
from .serialize import FormatError, _check_output, _input_error, _quoted, _write, read_int

SEED_ENV_VAR = "LIEACTIONS_SEED"


# An argument of a verb: its name ("--dim", or "source" for a positional), the
# keyword its handler takes it as, the inclusive bounds (low, high) of an
# integer, read by `serialize.read_int` (None for text, taken as it is), the
# values it may take (None for any), whether it must be given, its value when
# it is not, and its help.
Arg = namedtuple("Arg", "name dest bounds choices required default help",
                 defaults=(None, None, False, None, ""))

# --seed and --output go before the verb, or after it on a verb that writes a
# report; a value after the verb wins.
REPORT = (
    Arg("--seed", "seed", (0, None), help=f"PRNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR})."),
    Arg("--output", "output", help="Write the report here instead of stdout."),
)
SOURCE = Arg("source", "source", required=True, help="catalog:KEY or an algebra JSON file.")
SCENARIO = Arg("--scenario", "scenario", required=True, help="Scenario JSON file.")

# group -> verb -> (the module of its handler, its help, its arguments). The
# handler is that module's HANDLERS["group verb"], called as
# handler({"seed": ..., "output": ...}, **its arguments).
VERBS = {
    "catalog": {"list": ("exact_verbs", "List the built-in algebras.", ())},
    "algebra": {
        "analyze": ("exact_verbs", "Full invariants report: series, center, predicates, derivations.",
                    (SOURCE, *REPORT)),
        "obstruct": ("exact_verbs", "Minimum-dimension and borderline-degeneracy verdicts.",
                     (SOURCE, Arg("--dim", "dim_", (0, None), help="Manifold dimension to judge."), *REPORT)),
    },
    "deform": {"verify": ("deform_verbs", "Check D1/D2 exactly and the endomorphism law on seeded samples.", (
        Arg("--family", "family", choices=("st", "st-prime", "concat"), required=True, help="The family to check."),
        # n's upper bound is the catalog's: st(n) and st_prime(n) up to MAX_CATALOG_DIM
        Arg("--n", "n_", (2, None), required=True, help="The size n of st(n)."),
        Arg("--samples", "samples", (0, MAX_SAMPLES), default=100,
            help="Samples of the endomorphism law (default: 100)."),
        *REPORT,
    ))},
    "act": {"verify": ("act_verbs", "Verify the action axioms for a scenario file.", (SCENARIO, *REPORT))},
    "vf": {
        "verify": ("vf_verbs", "Exact certificates for a vector-field scenario.", (SCENARIO, *REPORT)),
        "flow": ("vf_verbs", "Integrate a field and emit the trajectory as CSV (t, x1..xn).",
                 (SCENARIO, *REPORT)),
    },
}

# -- the parser ---------------------------------------------------------------------------

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(word: str, options: dict) -> bool:
    """Whether `word` is read as an option, as argparse reads one: a known
    option, or a word that starts with "-" and is not "-" alone, a negative
    number or text with a space."""
    return word.partition("=")[0] in options or (
        word[:1] == "-" and word != "-" and not _NEGATIVE_NUMBER.match(word) and " " not in word)


def _help(prog: str, description: str, arguments, top: bool = False) -> str:
    """The --help text of a verb, or with `top` of the whole command."""
    shown = [(a.name, a) if a.name[0] != "-" else
             (f"{a.name} {'{' + ','.join(a.choices) + '}' if a.choices else a.dest.rstrip('_').upper()}", a)
             for a in arguments]
    rows = [("-h, --help", "Show this help and exit.")] + [("--version", "Show the version and exit.")] * top
    usage = [f"[{flag.partition(',')[0]}]" for flag, _ in rows]
    usage += [text if a.required else f"[{text}]" for text, a in shown if a.name[0] == "-"]
    usage += [text for text, a in shown if a.name[0] != "-"] + ["GROUP VERB [ARGS]"] * top
    rows += [(text, a.help) for text, a in shown]
    width = max(len(text) for text, _ in rows) + 2
    lines = [f"usage: {prog} {' '.join(usage)}", "", description, "", "arguments:"]
    lines += [f"  {text:<{width}}{help}".rstrip() for text, help in rows]
    if top:
        lines += ["", f"verbs ({prog} GROUP VERB --help shows a verb's arguments):"]
        lines += [f"  {f'{group} {verb}':<18}{help}" for group, table in VERBS.items()
                  for verb, (_, help, _) in table.items()]
    return "\n".join(lines) + "\n"


def _choose(prog: str, name: str, text: str, choices):
    """`text` if it is one of `choices`, else a usage error that names the argument `name`."""
    if text not in choices:
        raise FormatError(f"{prog}: argument {name}: invalid choice: {_quoted(text)} "
                          f"(choose from {', '.join(map(repr, choices))})")
    return text


def _value(prog: str, arg: Arg, text: str):
    if arg.bounds:
        return read_int(text, f"{prog}: argument {arg.name}", *arg.bounds)
    return _choose(prog, arg.name, text, arg.choices) if arg.choices else text


def _scan(prog: str, args: list[str], arguments, flags: dict, values: dict, words: list[str], limit: int):
    """Read `args` by the table `arguments`: each option's value into
    `values`, and each positional word into `words` until it holds `limit`;
    a word of `flags` prints what its function returns and exits 0. Returns
    the arguments after the last word read, and the unknown options."""
    options = {a.name: a for a in arguments if a.name[0] == "-"}
    unknown, ended, i = [], False, 0
    while i < len(args) and len(words) < limit:
        word = args[i]
        i += 1
        name, eq, text = word.partition("=")
        if ended or not _is_option(word, options):
            words.append(word)
        elif word == "--":
            ended = True
        elif word in flags:
            _write({}, [flags[word]()])
            sys.exit(0)
        elif name not in options:
            unknown.append(word)
        else:
            if not eq:
                if i == len(args) or _is_option(args[i], options):
                    raise FormatError(f"{prog}: argument {name}: expected one argument")
                text = args[i]
                i += 1
            values[options[name].dest] = _value(prog, options[name], text)
    return (["--"] if ended else []) + args[i:], unknown


def _parse(args: list[str], prog: str) -> tuple[str, str, dict, dict]:
    """(the handler's module, "group verb", its arguments, {"seed", "output"})
    read from the command line `args` by `VERBS`."""
    show = lambda: _help(prog, main.__doc__, REPORT, top=True)
    flags = {"-h": show, "--help": show, "--version": lambda: f"{prog}, version {__version__}\n"}
    values = {"seed": None, "output": None}
    words: list[str] = []
    args, unknown = _scan(prog, args, REPORT, flags, values, words, 2)
    if unknown:
        raise FormatError(f"{prog}: unrecognized arguments: {_quoted(' '.join(unknown))}")
    if words:
        _choose(prog, "GROUP", words[0], VERBS)
    if len(words) < 2:
        raise FormatError(f"{prog}: the following arguments are required: {', '.join(('GROUP', 'VERB')[len(words):])}")
    group, verb = words
    module, description, arguments = VERBS[group][_choose(prog, "VERB", verb, VERBS[group])]
    prog = f"{prog} {group} {verb}"
    show = lambda: _help(prog, description, arguments)
    values.update((a.dest, a.default) for a in arguments if a not in REPORT)
    words = []
    _, unknown = _scan(prog, args, arguments, {"-h": show, "--help": show}, values, words, len(args))
    positional = [a for a in arguments if a.name[0] != "-"]
    values.update(zip([a.dest for a in positional], words))
    missing = [a.name for a in arguments if a.required and values[a.dest] is None]
    if missing:
        raise FormatError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    unknown += words[len(positional):]
    if unknown:
        raise FormatError(f"{prog}: unrecognized arguments: {_quoted(' '.join(unknown))}")
    obj = {key: values.pop(key) for key in ("seed", "output")}
    return module, f"{group} {verb}", values, obj


def main(args: list[str] | None = None, prog_name: str = "lieact") -> None:
    """Exact Lie-algebra invariants, contractions, and constructed actions."""
    # Interpreter finalization runs full collections over every object still
    # alive, about 10 ms after each report; freezing the heap at exit lets
    # them skip it. Registered here, not at import, once per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:  # every input the program cannot read raises FormatError: one error line, exit 2
        module, verb, values, obj = _parse(sys.argv[1:] if args is None else args, prog_name)
        if obj["seed"] is None:
            obj["seed"] = read_int(os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)), SEED_ENV_VAR)
        if obj["output"]:
            _check_output(obj["output"])
        handler = import_module(f"lieactions.{module}").HANDLERS[verb]
        handler(obj, **values)
    except FormatError as exc:
        _input_error(str(exc))


# The benchmark's traced runner calls main.main(args=..., prog_name=...).
main.main = main

if __name__ == "__main__":
    main()
