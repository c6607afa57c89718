"""Every module-level function or class of a ``splitalg`` module is named
elsewhere in the package or re-exported by ``__init__``.

A definition that no other statement of the package names, and that
``__init__`` does not export, is reached only by tests.  ``ALLOWED`` lists
the ones kept on purpose; each entry must still be such a definition, so
the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

import splitalg

PACKAGE = Path(splitalg.__file__).parent

ALLOWED = {
    # paper claims waiting for a route
    "bialgebra.check_derivations",
    "splitting.nested_splitting_report",
    "splitting.star_morphism_report",
    # envelope writers the tests use
    "jsonio.graph_to_json",
    "jsonio.operator_to_json",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST) -> set[str]:
    """Every name a statement reads, binds, imports or takes as an attribute."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unnamed_definitions(
    sources: Mapping[str, str], exports: Mapping[str, tuple[str, ...]]
) -> list[str]:
    """``module.name`` of each module-level function or class that no other
    module-level statement of any module names and that is not exported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [(module, stmt) for module, tree in trees.items() for stmt in tree.body]
    named = [(module, stmt, names_in(stmt)) for module, stmt in statements]
    dead = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS) or stmt.name in exports.get(module, ()):
                continue
            if not any(stmt.name in names for _, other, names in named if other is not stmt):
                dead.append(f"{module}.{stmt.name}")
    return sorted(dead)


def package_unnamed() -> list[str]:
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    return unnamed_definitions(sources, splitalg._EXPORTS_BY_MODULE)


def test_every_definition_is_named_or_exported():
    assert [name for name in package_unnamed() if name not in ALLOWED] == []


def test_allowlist_holds_only_unnamed_definitions():
    assert sorted(ALLOWED - set(package_unnamed())) == []


def test_unnamed_definition_is_caught():
    sources = {
        "a": "def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\nclass Exported:\n    pass\n\n\nclass Dead:\n    pass\n",
    }
    exports = {"b": ("Exported",)}
    assert unnamed_definitions(sources, exports) == ["a.recursive", "b.Dead"]
