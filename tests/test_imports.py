"""No module of `dcl`, and no test module, imports a name it never uses;
no function of `dcl` goes uncalled.

Code deleted from a module can leave its imports behind; this finds them,
and an import a test never reads can hide a helper that nothing calls.
`__init__.py` is skipped, since its imports are the package's re-exports.
A name read only in an annotation counts as used: annotations are parsed
as code even under `from __future__ import annotations`.

A function or method of `dcl` that neither the package nor the benchmark
harness names is reached only by tests, or by nothing; such a function is
listed here with its reason, or it goes (or moves beside the tests).
"""

import ast
import collections
import pathlib

import pytest

import dcl

PACKAGE = pathlib.Path(dcl.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
BENCH = sorted((pathlib.Path(__file__).parent.parent / "perfbench").glob("*.py"))


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import outside `__future__`, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({(a.asname or a.name): node.lineno for a in node.names})
    return names


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported(tree).items() if name not in reads}
    assert unused == {}


# Reached through dispatch, as every dunder is (`__post_init__` among them),
# and so is every `cmd_*` command of the CLI.
PROTOCOL = ("decide", "to_json", "from_json")
# Public API that only tests and users call: no module of `dcl` needs it.
TEST_FACING = {
    "vehicle_registry_sketch": "fixture: the registry sketch the examples are checked against",
    "vehicle_registry_instance": "fixture: the valid registry instance",
    "mutation_five_wheels": "fixture: a registry mutation the checker must refuse",
    "mutation_duplicate_identity": "fixture: a registry mutation the checker must refuse",
    "mutation_unlicensed_drive": "fixture: a registry mutation the checker must refuse",
    "span_signature": "fixture: the span signature the deps-check examples are made from",
    "formulas_isomorphic": "formula isomorphism, by diagram key; the proof search keys its objects alike",
    "deltas_equivalent": "delta equivalence up to apex isomorphism, a law of the delta algebra",
    "dom_lift": "the domain fibration's lift, the counterpart of `cod_lift`",
    "iter_instance_classes": "the built instances of `_iter_classes`, which the sweeps read unbuilt",
    "save": "writes what `load` reads",
    "propagate_evidence": "lifts a verdict along a dependency, as the paper's rule does",
    "composite_subset_symbol": "the composite-subset constraint symbol, for tests and users",
    "ValidationReport.verdict_for": "a report's verdict by declaration id",
}
# Reached by a caller that a search of names cannot see.
UNSEEN_CALLERS = {
    "_Parser.error": "argparse calls it on a usage error",
    "SoundnessReport.status": "`cmd_deps_check` reads it; `.status` is defined on several classes",
}


def definitions(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(owner class or "", name, dotted name) of every function and method."""
    out = []
    for node in tree.body:
        owner = node.name if isinstance(node, ast.ClassDef) else ""
        for top in node.body if owner else [node]:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out.append((owner, top.name, f"{owner}.{top.name}" if owner else top.name))
            out += [
                ("", f.name, f.name)
                for f in ast.walk(top)
                if f is not top and isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return out


def references(trees: list[ast.Module], classes: set[str]) -> tuple[set, set, set]:
    """(bare names read, attributes read on an unknown object, (class, attribute)
    pairs read on a class by name or on `self` / `cls` inside it)."""
    names, attrs, qualified = set(), set(), set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            on = node.value.id if isinstance(node.value, ast.Name) else None
            if on in classes:
                qualified.add((on, node.attr))
            elif on in ("self", "cls") and owner:
                qualified.add((owner, node.attr))
            else:
                attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in trees:
        visit(tree, "")
    return names, attrs, qualified


def uncalled() -> list[str]:
    """Dotted names of the functions and methods of `dcl` that no module of it,
    and no benchmark module, reads: a method is read on its class, or by an
    attribute name that no other class of `dcl` defines."""
    sources = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    classes = {n.name for tree in sources for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    defined = [d for tree in sources for d in definitions(tree)]
    owners = collections.Counter(name for owner, name, _ in defined if owner)
    bench = [ast.parse(p.read_text()) for p in BENCH]
    names, attrs, qualified = references(sources + bench, classes)
    out = []
    for owner, name, dotted in defined:
        if name in PROTOCOL or name.startswith("cmd_") or name in dcl.__all__:
            continue
        if name.startswith("__") and name.endswith("__"):
            continue
        if owner:
            reached = (owner, name) in qualified or (name in attrs and owners[name] == 1)
        else:
            reached = name in names or name in attrs or any(a == name for _, a in qualified)
        if not reached:
            out.append(dotted)
    return out


def test_every_function_is_called():
    assert sorted(set(uncalled()) - set(TEST_FACING) - set(UNSEEN_CALLERS)) == []


def test_every_listed_function_is_uncalled():
    # a listed function that a module comes to call, or that is gone, leaves the list
    assert sorted({*TEST_FACING, *UNSEEN_CALLERS} - set(uncalled())) == []
