"""Every module-level function, class and method of a ``splitalg`` module is
reached by name from a root.

The roots are ``cli.main`` (every command), what the benchmark harness
reads beside the commands, and three short lists of definitions kept on
purpose though no command runs them.  Reachability is by name: a reached
body reaches every module-level definition (and every constant) whose name
it reads, bare or as an attribute, and every method of a reached class whose
name it reads as an attribute; a bare name, such as a local variable, reaches
no method, and dunder methods come with their class.  Import statements and
annotations reach nothing, and ``__init__`` is not read, so an export alone
keeps nothing alive.  A definition that no reached code names is dead.
Each listed name must be one that the command and benchmark roots leave
unnamed, so each new route or deletion shrinks the lists.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Mapping

import splitalg

PACKAGE = Path(splitalg.__file__).parent

# every splitalg command, and what the benchmark harness reads beside them:
# the presentations and their envelopes for its oracles, and the tracer's
# counters on the dense views
COMMAND_AND_BENCHMARK_ROOTS = {
    "cli.main",
    "operad.builtin_presentations",
    "jsonio.system_to_json",
    "exactlin.Tensor3.entries",
    "algebra_core.CoalgebraData.rows",
}

# the paper's propositions that no command routes yet
PROPOSITIONS = {
    "bialgebra.check_derivations",
    "bialgebra.convolution_report",
    "bialgebra.prelie_from_bialgebra",
    "splitting.check_jacobi",
    "splitting.check_prelie",
    "splitting.ennea_from_baxter_on_trialgebra",
    "splitting.nested_splitting_report",
    "splitting.opposite_ennea",
    "splitting.prelie_pair_from_ennea",
    "splitting.star_morphism_report",
    "splitting.tensor_ennea",
    "splitting.transpose_ennea",
}

# the triangular coBaxter examples
COBAXTER_EXAMPLES = {
    "algebra_core.triangular_matrix_coalgebra",
    "baxter.triangular_row_coproduct_operator",
}

# envelope writers the tests use
ENVELOPE_WRITERS = {
    "jsonio.graph_to_json",
    "jsonio.operator_to_json",
}

KEPT = PROPOSITIONS | COBAXTER_EXAMPLES | ENVELOPE_WRITERS

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(nodes: Iterable[ast.AST]) -> tuple[set[str], set[str]]:
    """The bare names the nodes read and the names they take as attributes,
    outside import statements and annotations."""
    names: set[str] = set()
    attributes: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(item for item in value if isinstance(item, ast.AST))
    return names, attributes


def _bound(stmt: ast.stmt) -> list[str]:
    """The names a module-level assignment binds."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


class Definitions:
    """The definitions of some modules, by qualified name, with the bare
    and attribute names each one's code reads."""

    def __init__(self, sources: Mapping[str, str]):
        self.reads: dict[str, tuple[set[str], set[str]]] = {}
        self.by_name: dict[str, list[str]] = {}  # module-level name -> qualified names
        self.methods: dict[str, dict[str, str]] = {}  # class -> method name -> qualified
        self.kinds: dict[str, str] = {}  # qualified name -> "def" or "constant"
        for module, source in sources.items():
            for stmt in ast.parse(source).body:
                if isinstance(stmt, DEFINITIONS):
                    self._add(f"{module}.{stmt.name}", stmt.name, "def", stmt)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    for name in _bound(stmt):
                        self._add(f"{module}.{name}", name, "constant", stmt)

    def _add(self, qualified: str, name: str, kind: str, stmt: ast.stmt) -> None:
        self.by_name.setdefault(name, []).append(qualified)
        self.kinds[qualified] = kind
        if not isinstance(stmt, ast.ClassDef):
            self.reads[qualified] = names_read([stmt])
            return
        header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
        body = [item for item in stmt.body if not isinstance(item, DEFINITIONS)]
        self.reads[qualified] = names_read(header + body)
        methods = self.methods[qualified] = {}
        for item in stmt.body:
            if isinstance(item, DEFINITIONS):
                method = methods[item.name] = f"{qualified}.{item.name}"
                self.kinds[method] = "def"
                self.reads[method] = names_read([item])

    def reached(self, roots: Iterable[str]) -> set[str]:
        """Qualified names reached from the roots (a fixed point)."""
        reached: set[str] = set()
        names: set[str] = set()
        attributes: set[str] = set()
        todo = list(roots)
        while todo:
            new = {q for q in todo if q not in reached}
            if not new:
                break
            reached |= new
            for qualified in new:
                bare, attrs = self.reads[qualified]
                names |= bare
                attributes |= attrs
            todo = [q for name in names | attributes for q in self.by_name.get(name, ())]
            for cls in reached & self.methods.keys():
                todo += [
                    q
                    for method, q in self.methods[cls].items()
                    if method in attributes or method.startswith("__") and method.endswith("__")
                ]
        return reached

    def unreached(self, roots: Iterable[str]) -> list[str]:
        """Functions, classes and methods that the roots do not reach."""
        reached = self.reached(roots)
        return sorted(q for q, kind in self.kinds.items() if kind == "def" and q not in reached)


def definitions_in(directory: Path) -> Definitions:
    """The definitions of every module of a package but its ``__init__``."""
    return Definitions(
        {
            path.stem: path.read_text(encoding="utf-8")
            for path in sorted(directory.glob("*.py"))
            if path.name != "__init__.py"
        }
    )


def test_every_definition_is_reached():
    assert definitions_in(PACKAGE).unreached(COMMAND_AND_BENCHMARK_ROOTS | KEPT) == []


def test_allowlist_holds_only_unnamed_definitions():
    """Each kept name is a definition that no command and nothing the
    benchmark reads reaches, and each root is a definition."""
    definitions = definitions_in(PACKAGE)
    reached = definitions.reached(COMMAND_AND_BENCHMARK_ROOTS)
    assert sorted(KEPT - definitions.kinds.keys()) == []
    assert sorted(KEPT & reached) == []
    assert sorted(COMMAND_AND_BENCHMARK_ROOTS - definitions.kinds.keys()) == []
    lists = (PROPOSITIONS, COBAXTER_EXAMPLES, ENVELOPE_WRITERS)
    assert sum(map(len, lists)) == len(KEPT)  # no name on two lists


def test_unnamed_definition_is_caught():
    sources = {
        "a": (
            "LIMIT = 3\n\n\n"
            "def used(n: Dead) -> Dead:\n    return helper(n) + LIMIT\n\n\n"
            "def helper(n):\n    return n\n\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
        ),
        "b": (
            "from .a import used, recursive\n\n\n"
            "def main():\n    label = 1\n    return Box(used(label)).value()\n\n\n"
            "class Box:\n    def __init__(self, v):\n        self.v = v\n\n"
            "    def value(self):\n        return self.v\n\n"
            "    def label(self):\n        return 'box'\n\n"
            "    def unused(self):\n        return 0\n\n\n"
            "class Dead:\n    def value(self):\n        return 1\n"
        ),
    }
    definitions = Definitions(sources)
    # an import or an annotation reaches nothing, nor does a call to itself;
    # a method comes with its class only when some reached code reads its name
    # as an attribute, so the local name ``label`` leaves ``Box.label`` dead
    dead = ["b.Box.label", "b.Box.unused", "b.Dead", "b.Dead.value"]
    assert definitions.unreached({"b.main"}) == ["a.recursive", *dead]
    assert definitions.unreached({"b.main", "a.recursive"}) == dead


def test_a_definition_only_exported_is_caught(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import exported\n\n__all__ = ['exported', 'main']\n", encoding="utf-8"
    )
    (tmp_path / "a.py").write_text(
        "def exported():\n    pass\n\n\ndef main():\n    pass\n", encoding="utf-8"
    )
    assert definitions_in(tmp_path).unreached({"a.main"}) == ["a.exported"]
