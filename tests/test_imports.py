"""Every name a ``splitalg`` module imports is used in that module.

``__init__.py`` is exempt: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import splitalg

MODULES = sorted(p for p in Path(splitalg.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read anywhere in the module."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "from fractions import Fraction\nimport math\nfrom typing import Any\nx: Any = math.pi\n"
    assert unused_imports(source) == ["Fraction (line 1)"]
