"""No module of `dcl` imports a name it never uses.

Code deleted from a module can leave its imports behind; this finds them.
`__init__.py` is skipped, since its imports are the package's re-exports.
A name read only in an annotation counts as used: annotations are parsed
as code even under `from __future__ import annotations`.
"""

import ast
import pathlib

import pytest

import dcl

PACKAGE = pathlib.Path(dcl.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import outside `__future__`, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({(a.asname or a.name): node.lineno for a in node.names})
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported(tree).items() if name not in reads}
    assert unused == {}
