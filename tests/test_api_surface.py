"""Every public function and method of the package has a caller.

A public top-level def or method (its name does not start with "_") in
`src/lieactions` must be referenced in `src/` outside its own body, by
code that is not itself unreferenced, be named by the benchmark's tracer
or probe (`perfbench/traced_cli.py`, `perfbench/probe.py`), or be on
`ALLOWED` below, which is empty today. A reference is a name or an
attribute in the syntax tree, so a string in `__all__` is not one, and a
method is referenced only as an attribute, so a local variable of the
same name is not one. A method is matched by its name alone, so a method
that shares its name with one that is called passes. A module's
`__all__` and the package's `_EXPORTS` name only what the module
defines. The scan reads the sources with `ast` and imports nothing, so
it does not depend on what other tests imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lieactions"
TRACER = (ROOT / "perfbench" / "traced_cli.py", ROOT / "perfbench" / "probe.py")

# Kept with no caller in src/, each with a comment that says why. Each entry
# must exist and have no caller, so the list shrinks as names gain callers
# or go. It is empty: a name goes on it only with a plan to call it.
ALLOWED: set[str] = set()


def definitions(tree: ast.Module, module: str) -> dict[str, ast.AST]:
    """{qualified name: node} of the public top-level defs and the public
    methods of top-level classes, qualified as module[.Class].name."""
    defs: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[f"{module}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{module}.{node.name}.{item.name}"] = item
    return {name: node for name, node in defs.items() if not name.rpartition(".")[2].startswith("_")}


def references(tree: ast.AST, owners: dict[int, str]) -> list[tuple[str, bool, str | None]]:
    """(name, whether it is an attribute, owner) for every Name and
    Attribute in the tree: owner is the name that `owners` ({id(def node):
    name}) gives the outermost def around it, or None at module level and
    in defs not in `owners`."""
    found: list[tuple[str, bool, str | None]] = []

    def walk(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.Name):
            found.append((node.id, False, owner))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, owner))
        owner = owner or owners.get(id(node))
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, None)
    return found


def unreferenced(sources: dict[str, str], mentioned: set[str]) -> list[str]:
    """The qualified names of `sources` ({module: text}) that are not in
    `mentioned` (qualified or bare) and have no reference outside their own
    body, or only references from defs that are themselves unreferenced."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = {name: node for module, tree in trees.items() for name, node in definitions(tree, module).items()}
    owners = {id(node): name for name, node in defs.items()}
    # (name, is an attribute) -> the owners of its references
    callers: dict[tuple[str, bool], set[str | None]] = {}
    for tree in trees.values():
        for name, attribute, owner in references(tree, owners):
            callers.setdefault((name, attribute), set()).add(owner)

    def called(qualified: str) -> set[str | None]:
        bare = qualified.rpartition(".")[2]
        found = set(callers.get((bare, True), ()))
        if qualified.count(".") == 1:  # a top-level def, also called by its bare name
            found |= callers.get((bare, False), set())
        return found

    dead: set[str] = set()
    while True:
        newly = {
            qualified for qualified in defs.keys() - dead
            if qualified not in mentioned and qualified.rpartition(".")[2] not in mentioned
            and not called(qualified) - dead - {qualified}
        }
        if not newly:
            return sorted(dead)
        dead |= newly


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def tracer_mentions() -> set[str]:
    """Names the tracer and the probe use: bare names and attributes, and
    "module.path" for each (module, path, ...) entry of SPANS and COUNTS."""
    names: set[str] = set()
    for path in TRACER:
        tree = ast.parse(path.read_text())
        names.update(name for name, _, _ in references(tree, {}))
        for node in ast.walk(tree):
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                module, attr = node.elts[:2]
                if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in (module, attr)):
                    names.add(f"{module.value}.{attr.value}")
    return names


def assigned(tree: ast.Module, target: str) -> ast.expr | None:
    """The value of the module-level assignment to `target`, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return node.value
    return None


def exported() -> set[str]:
    """module.name for each lazy re-export of the package (`_EXPORTS`)."""
    value = assigned(ast.parse((PACKAGE / "__init__.py").read_text()), "_EXPORTS")
    return {f"{module}.{name}" for name, module in ast.literal_eval(value).items()}


def test_every_public_def_has_a_caller():
    missing = unreferenced(package_sources(), tracer_mentions() | exported() | ALLOWED)
    assert not missing, f"public names with no caller in src/ (delete them, or call them from a verb): {missing}"


def test_allowed_names_exist_and_have_no_caller():
    sources = package_sources()
    defined = {name for module, text in sources.items() for name in definitions(ast.parse(text), module)}
    assert ALLOWED <= defined, f"ALLOWED names no def: {sorted(ALLOWED - defined)}"
    uncalled = set(unreferenced(sources, tracer_mentions() | exported()))
    assert ALLOWED <= uncalled, f"drop these from ALLOWED, they have a caller: {sorted(ALLOWED - uncalled)}"


def own_names(tree: ast.Module) -> set[str]:
    """The names a module binds itself at top level: defs, classes and
    assignments, less an assignment that only renames an imported name."""
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node.value, ast.Name) and node.value.id in imported:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_no_module_reexports_an_imported_name():
    """`__all__` and the package's `_EXPORTS` name only what their module
    defines; a name imported from elsewhere is imported from its home."""
    borrowed = []
    for module, text in package_sources().items():
        tree = ast.parse(text)
        public = assigned(tree, "__all__")
        names = [e.value for e in public.elts if isinstance(e, ast.Constant)] if public else []
        borrowed += [f"{module}.{name}" for name in names if name not in own_names(tree)]
    for qualified in sorted(exported()):
        module, name = qualified.split(".")
        if name not in own_names(ast.parse((PACKAGE / f"{module}.py").read_text())):
            borrowed.append(f"_EXPORTS {name} -> {module}")
    assert not borrowed, f"re-exported, not defined, here: {borrowed}"


def test_scan_flags_defs_called_only_by_themselves_by_dead_defs_or_by_strings():
    sources = {
        "m": (
            "__all__ = ['dead']\n"
            "def dead():\n    return dead()\n"
            "def nested():\n    def inner():\n        return nested\n    return inner\n"
            "def used():\n    return 1\n"
            "def chained():\n    return 2\n"
            "def chain():\n    return chained()\n"
            "def caller():\n    return used() + C().method() + C.traced()\n"
            "ENTRY = caller\n"
            "class C:\n"
            "    def method(self):\n        return self.other()\n"
            "    def other(self):\n        return 1\n"
            "    def unused(self):\n        return self.unused()\n"
            "    def traced(self):\n        return 0\n"
            "    def _private(self):\n        return 0\n"
            "    def local(self):\n        return 0\n"
            "def shadowed(local):\n    return local\n"
            "SHADOWED = shadowed\n"
        ),
    }
    assert unreferenced(sources, set()) == ["m.C.local", "m.C.unused", "m.chain", "m.chained", "m.dead", "m.nested"]
    assert unreferenced(sources, {"m.dead", "chain"}) == ["m.C.local", "m.C.unused", "m.nested"]
