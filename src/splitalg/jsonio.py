"""JSON envelopes for the workbench's objects.

Every file is one JSON object with a ``kind`` tag; scalars are exact and
travel as fraction strings ("-3/2"), never floats, and every ``dim`` is at
most MAX_ENVELOPE_DIM.  Kinds:

graph         vertices count + weighted arcs (at most MAX_GRAPH_BASIS
              vertices plus paths)
algebra       structure constants, optional unit vector and basis labels
operator      a square matrix, columns holding the images of basis vectors
coproduct     sparse legs: c * e_j (x) e_k inside the coproduct of e_i
operations    a named identity family with parameter t and one tensor per
              generating operation
presentation  generators, named composites, and identities — coefficients
              are polynomials in t, stored as coefficient-string lists
report        the outcome of a verification run

Writers sort keys and indent, so files are stable under round-trips and
diff cleanly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Container, Iterable, Mapping

from .exactlin import IntEntry, LinearOperator, Scalar, Tensor3, check_indices, rat
from .relations import AxiomSystem, Relation, Term, TPoly
from .report import Report

if TYPE_CHECKING:  # the decoders that build these import their modules
    from .algebra_core import CoalgebraData, FiniteAlgebra
    from .graphalg import WeightedDigraph


# ---------------------------------------------------------------------------
# scalars and polynomials
# ---------------------------------------------------------------------------


def scalar_to_json(value: Scalar) -> str:
    return str(rat(value))


def scalar_from_json(text: Any) -> Fraction:
    if isinstance(text, bool) or isinstance(text, float):
        raise ValueError(f"scalars must be exact fraction strings, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"scalar {text!r} has a zero denominator") from None
    raise ValueError(f"cannot read a scalar from {text!r}")


def tpoly_to_json(poly: TPoly) -> list[str]:
    return [scalar_to_json(c) for c in poly]


def tpoly_from_json(data: Any) -> TPoly:
    if not isinstance(data, list):
        raise ValueError("a t-polynomial must be a list of coefficient strings")
    return TPoly([scalar_from_json(c) for c in data])


def tensor_to_json(tensor: Tensor3) -> list[list[Any]]:
    """The sorted ``[i, j, k, coeff]`` entries, each coefficient written as
    ``str(Fraction(n, denom))`` straight from the integer numerator."""
    d = tensor.denom
    if d == 1:
        return [[i, j, k, str(n)] for i, j, k, n in tensor.numerators]
    out = []
    for i, j, k, n in tensor.numerators:
        g = math.gcd(n, d)
        out.append([i, j, k, f"{n // g}/{d // g}" if g != d else str(n // g)])
    return out


def tensor_from_json(dim: int, items: Any, what: str = "tensor") -> Tensor3:
    """A tensor from a list of ``[i, j, k, coeff]`` entries.

    One pass reads each entry in order: its shape, then its coefficient
    (decimal "n" and "p/q" strings as integers, anything else through
    :func:`scalar_from_json`, so both accept and reject the same values),
    then its indices, which must be ints in ``[0, dim)`` (``what`` names the
    object in that error).  Entries in strictly increasing index order, as
    the writers emit them, become the sorted numerators directly; repeated
    or unsorted entries are added up."""
    if not isinstance(items, list):
        raise ValueError(f"tensor entries must be a list, got {type(items).__name__}")
    entries: list[IntEntry] = []
    denominators = []
    ordered = True
    last = (-1,)
    for item in items:
        if not isinstance(item, list) or len(item) != 4:
            raise ValueError(f"an entry must be an [i, j, k, coeff] list, got {item!r}")
        i, j, k, c = item
        num = None
        if type(c) is str and c.isascii():
            n, slash, d = c.partition("/")
            if n.isdigit() or n[:1] == "-" and n[1:].isdigit():
                if not slash:
                    num, den = int(n), 1
                elif d.isdigit() and d.strip("0"):  # "1/0" goes on to the error
                    num, den = int(n), int(d)
        if num is None:
            q = scalar_from_json(c)
            num, den = q.numerator, q.denominator
        if not (
            type(i) is int and type(j) is int and type(k) is int
            and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
        ):
            check_indices(what, dim, i, j, k)
        key = (i, j, k)
        if key <= last:
            ordered = False
        last = key
        entries.append((i, j, k, num))
        denominators.append(den)
    denom = math.lcm(*denominators)
    if denom != 1:
        entries = [
            (i, j, k, n * (denom // den))
            for (i, j, k, n), den in zip(entries, denominators)
        ]
    if ordered:
        return Tensor3.from_sorted(dim, denom, [entry for entry in entries if entry[3]])
    return Tensor3.from_numerators(dim, denom, entries)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def _expect_kind(data: Mapping[str, Any], kind: str) -> None:
    found = data.get("kind")
    if found != kind:
        raise ValueError(f"expected a {kind!r} envelope, found kind={found!r}")


def _field(data: Mapping[str, Any], name: str) -> Any:
    if name not in data:
        raise ValueError(f"{data['kind']} field {name!r} is missing")
    return data[name]


def _list_field(data: Mapping[str, Any], name: str) -> list[Any]:
    value = _field(data, name)
    if not isinstance(value, list):
        raise ValueError(
            f"{data['kind']} field {name!r} must be a list, got {type(value).__name__}"
        )
    return value


def _is_count(value: Any) -> bool:
    """An int >= 1 that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, int) and value >= 1


def _dim_from_json(data: Mapping[str, Any]) -> int:
    """The envelope's ``dim``, an int in 1..MAX_ENVELOPE_DIM (never a bool)."""
    dim = _field(data, "dim")
    if not _is_count(dim):
        raise ValueError(f"{data['kind']} field 'dim' must be an integer >= 1, got {dim!r}")
    if dim > MAX_ENVELOPE_DIM:
        raise ValueError(
            f"{data['kind']} field 'dim' must be at most {MAX_ENVELOPE_DIM}, got {dim}"
        )
    return dim


def _scalars_from_json(values: Any, length: int, what: str) -> tuple[Fraction, ...]:
    """A list of exactly ``length`` exact scalars; a violation raises one
    ValueError starting with ``what``."""
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"{what} must be a list of {length} scalars, got {values!r}")
    try:
        return tuple(scalar_from_json(c) for c in values)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def graph_to_json(graph: WeightedDigraph) -> dict[str, Any]:
    return {
        "kind": "graph",
        "vertices": graph.vertices,
        "arcs": [
            {"src": arc.src, "dst": arc.dst, "weight": scalar_to_json(arc.weight)}
            for arc in graph.arcs
        ],
    }


# The largest path algebra a graph envelope may describe: vertices plus
# directed paths.  Every command on a graph builds that algebra, and the
# bialgebra checks grow about as its cube: `verify graph-bialgebra` on an
# arcless graph takes 0.7 s at 80 vertices and 4.8 s at 160 (x86-64,
# Python 3.11).
MAX_GRAPH_BASIS = 256
# The largest ``dim`` of the other envelopes, that of End of the largest path
# algebra; `verify unit-action` costs time linear in ``dim`` on empty tensors.
MAX_ENVELOPE_DIM = MAX_GRAPH_BASIS**2


def graph_from_json(data: Mapping[str, Any]) -> WeightedDigraph:
    """A graph envelope, validated in one place: ``vertices`` is an int >= 1
    and ``arcs`` a list of objects, each with int ``src`` and ``dst`` in
    ``[0, vertices)`` and an exact scalar ``weight`` (1 when absent), and
    vertices plus paths are at most ``MAX_GRAPH_BASIS``.  Every violation
    raises one ValueError naming the field."""
    from .graphalg import WeightedDigraph

    _expect_kind(data, "graph")
    vertices = _field(data, "vertices")
    if not _is_count(vertices):
        raise ValueError(f"graph field 'vertices' must be an integer >= 1, got {vertices!r}")
    arcs = _list_field(data, "arcs")
    # each arc is a path, so this bound holds before the arcs are read
    _check_graph_size(vertices, f"at least {len(arcs)}", vertices + len(arcs))
    graph = WeightedDigraph.build(vertices, [_arc_from_json(arc, vertices) for arc in arcs])
    paths = graph.path_count()
    if paths is not None:  # a cyclic graph is refused when its algebra is built
        _check_graph_size(vertices, str(paths), vertices + paths)
    return graph


def _check_graph_size(vertices: int, paths: str, size: int) -> None:
    if size > MAX_GRAPH_BASIS:
        raise ValueError(
            f"graph too large: {vertices} vertices and {paths} paths; a path algebra "
            f"may have at most {MAX_GRAPH_BASIS} basis elements"
        )


def _arc_from_json(arc: Any, vertices: int) -> tuple[int, int, Fraction]:
    if not isinstance(arc, dict):
        raise ValueError(f"graph field 'arcs': an arc must be an object, got {arc!r}")
    for end in ("src", "dst"):
        value = arc.get(end)
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < vertices:
            raise ValueError(
                f"graph field 'arcs': {end} must be a vertex in [0, {vertices}), got {value!r}"
            )
    try:
        weight = scalar_from_json(arc.get("weight", "1"))
    except ValueError as exc:
        raise ValueError(f"graph field 'arcs': weight: {exc}") from None
    return arc["src"], arc["dst"], weight


def algebra_to_json(algebra: FiniteAlgebra) -> dict[str, Any]:
    out: dict[str, Any] = {
        "kind": "algebra",
        "dim": algebra.dim,
        "mult": tensor_to_json(algebra.mult),
    }
    if algebra.unit is not None:
        out["unit"] = [scalar_to_json(c) for c in algebra.unit]
    if algebra.labels is not None:
        out["labels"] = list(algebra.labels)
    return out


def algebra_from_json(data: Mapping[str, Any]) -> FiniteAlgebra:
    """An algebra envelope, validated in one place: ``dim`` is an int in
    1..MAX_ENVELOPE_DIM, ``mult`` a list of ``[i, j, k, coeff]`` entries, and
    the optional ``unit`` and ``labels`` lists of ``dim`` scalars and
    strings.  Every violation raises one ValueError naming the field."""
    from .algebra_core import FiniteAlgebra

    _expect_kind(data, "algebra")
    dim = _dim_from_json(data)
    items = _list_field(data, "mult")
    try:
        mult = tensor_from_json(dim, items)
    except ValueError as exc:
        raise ValueError(f"algebra field 'mult': {exc}") from None
    unit = data.get("unit")
    if unit is not None:
        unit = _scalars_from_json(unit, dim, "algebra field 'unit'")
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim or not all(
            isinstance(label, str) for label in labels
        ):
            raise ValueError(
                f"algebra field 'labels' must be a list of {dim} strings, got {labels!r}"
            )
        labels = tuple(labels)
    return FiniteAlgebra(mult, unit=unit, labels=labels)


def operator_to_json(op: LinearOperator) -> dict[str, Any]:
    return {
        "kind": "operator",
        "dim": op.dim,
        "matrix": [[scalar_to_json(c) for c in row] for row in op.entries],
    }


def operator_from_json(data: Mapping[str, Any]) -> LinearOperator:
    """An operator envelope, validated in one place: ``dim`` is an int in
    1..MAX_ENVELOPE_DIM and ``matrix`` a list of ``dim`` rows, each a list of
    ``dim`` exact scalars.  Every violation raises one ValueError naming the
    field."""
    _expect_kind(data, "operator")
    dim = _dim_from_json(data)
    rows = _list_field(data, "matrix")
    if len(rows) != dim:
        raise ValueError(f"operator field 'matrix' must be a list of {dim} rows, got {len(rows)}")
    return LinearOperator(
        [
            _scalars_from_json(row, dim, f"operator field 'matrix': row {i}")
            for i, row in enumerate(rows)
        ]
    )


def coproduct_to_json(delta: CoalgebraData) -> dict[str, Any]:
    return {
        "kind": "coproduct",
        "dim": delta.dim,
        "items": [[i, j, k, scalar_to_json(c)] for i, j, k, c in delta.items()],
    }


def coproduct_from_json(data: Mapping[str, Any]) -> CoalgebraData:
    """A coproduct envelope, validated in one place: ``dim`` is an int in
    1..MAX_ENVELOPE_DIM and ``items`` a list of ``[i, j, k, coeff]`` legs
    with indices in ``[0, dim)``.  Every violation raises one ValueError
    naming the field."""
    from .algebra_core import CoalgebraData

    _expect_kind(data, "coproduct")
    dim = _dim_from_json(data)
    items = _list_field(data, "items")
    try:
        legs = tensor_from_json(dim, items, "coproduct")
    except ValueError as exc:
        raise ValueError(f"coproduct field 'items': {exc}") from None
    # the decoded legs (i, j, k), moved to (j, k, i), are the dual product
    return CoalgebraData(legs.permuted((1, 2, 0)))


def operations_to_json(
    family: str, t: Scalar, ops: Mapping[str, Tensor3]
) -> dict[str, Any]:
    """Envelope for one concrete structure: family name, parameter, tensors."""
    dims = {tensor.dim for tensor in ops.values()}
    if len(dims) != 1:
        raise ValueError("all operation tensors must share one dimension")
    return {
        "kind": "operations",
        "family": family,
        "t": scalar_to_json(t),
        "dim": dims.pop(),
        "ops": {name: tensor_to_json(tensor) for name, tensor in sorted(ops.items())},
    }


def operations_from_json(
    data: Mapping[str, Any],
) -> tuple[str, Fraction, dict[str, Tensor3]]:
    """An operations envelope, validated in one place: ``family`` names a
    known family, ``t`` is an exact scalar, ``dim`` an int in
    1..MAX_ENVELOPE_DIM, and ``ops`` an object holding one list of
    ``[i, j, k, coeff]`` entries for each generator of the family and
    nothing else.  Every violation raises one ValueError naming the field."""
    _expect_kind(data, "operations")
    family = _field(data, "family")
    if not isinstance(family, str):
        raise ValueError(f"operations field 'family' must be a string, got {family!r}")
    generators = system_for_family(family).generators
    try:
        t = scalar_from_json(_field(data, "t"))
    except ValueError as exc:
        raise ValueError(f"operations field 't': {exc}") from None
    dim = _dim_from_json(data)
    named = _field(data, "ops")
    if not isinstance(named, dict):
        raise ValueError(
            f"operations field 'ops' must be an object of named tensors, got {type(named).__name__}"
        )
    missing = [name for name in generators if name not in named]
    unknown = sorted(set(named) - set(generators))
    if missing or unknown:
        raise ValueError(
            f"operations field 'ops' must hold the generators of {family!r}: "
            f"missing {missing}, unknown {unknown}"
        )
    ops = {}
    for name, items in named.items():
        try:
            ops[name] = tensor_from_json(dim, items)
        except ValueError as exc:
            raise ValueError(f"operations field 'ops' entry {name!r}: {exc}") from None
    return family, t, ops


def system_for_family(family: str) -> AxiomSystem:
    """Identity table for a family name used in an operations envelope."""
    from .operad import PRESET_NAMES, builtin_presentation

    if family not in PRESET_NAMES:
        known = ", ".join(sorted(PRESET_NAMES))
        raise ValueError(f"unknown family {family!r}; known: {known}")
    return builtin_presentation(family)


def _terms_to_json(terms: Iterable[Term]) -> list[list[Any]]:
    return [
        [tpoly_to_json(coeff), inner, outer] for coeff, inner, outer in terms
    ]


def _terms_from_json(data: Any, operations: Container[str]) -> tuple[Term, ...]:
    if not isinstance(data, list):
        raise ValueError(f"an identity side must be a list of terms, got {data!r}")
    terms = []
    for item in data:
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"a term must be a [coeff, inner, outer] list, got {item!r}")
        coeff, inner, outer = item
        for name in (inner, outer):
            if not isinstance(name, str) or name not in operations:
                raise ValueError(f"term {item!r} names an unknown operation {name!r}")
        terms.append(Term(tpoly_from_json(coeff), inner, outer))
    return tuple(terms)


def _generators_from_json(data: Any) -> tuple[str, ...]:
    if not isinstance(data, list) or not all(isinstance(g, str) for g in data):
        raise ValueError(
            f"presentation field 'generators' must be a list of strings, got {data!r}"
        )
    repeated = sorted({g for g in data if data.count(g) > 1})
    if repeated:
        raise ValueError(
            f"presentation field 'generators' must be distinct; repeated: {repeated}"
        )
    return tuple(data)


def _composite_from_json(
    name: str, parts: Any, generators: tuple[str, ...]
) -> tuple[tuple[TPoly, str], ...]:
    if name in generators:
        raise ValueError(f"composite {name!r} has the name of a generator")
    if not isinstance(parts, list):
        raise ValueError(f"composite {name!r} must be a list of parts, got {parts!r}")
    out = []
    for part in parts:
        if not isinstance(part, list) or len(part) != 2:
            raise ValueError(
                f"composite {name!r}: a part must be a [coeff, generator] list, got {part!r}"
            )
        poly, gen = part
        if gen not in generators:
            raise ValueError(f"composite {name!r}: part {part!r} names no generator")
        out.append((tpoly_from_json(poly), gen))
    return tuple(out)


def system_to_json(system: AxiomSystem) -> dict[str, Any]:
    return {
        "kind": "presentation",
        "name": system.name,
        "generators": list(system.generators),
        "composites": {
            name: [[tpoly_to_json(poly), gen] for poly, gen in parts]
            for name, parts in system.composites.items()
        },
        "relations": [
            {
                "name": relation.name,
                "lhs": _terms_to_json(relation.lhs),
                "rhs": _terms_to_json(relation.rhs),
            }
            for relation in system.relations
        ],
    }


def system_from_json(data: Mapping[str, Any]) -> AxiomSystem:
    """A presentation envelope, validated in one place: ``name`` is a
    string, ``generators`` distinct strings, the optional ``composites`` an
    object of named parts built from the generators and named apart from
    them, and ``relations`` a list of objects, each with a string ``name``
    and ``lhs``/``rhs`` lists of ``[coeff, inner, outer]`` terms naming known
    operations.  Every violation raises one ValueError naming the field."""
    _expect_kind(data, "presentation")
    name = _field(data, "name")
    if not isinstance(name, str):
        raise ValueError(f"presentation field 'name' must be a string, got {name!r}")
    generators = _generators_from_json(_field(data, "generators"))
    named_parts = data.get("composites", {})
    if not isinstance(named_parts, dict):
        raise ValueError("presentation field 'composites' must be an object of named parts")
    try:
        composites = {
            part_name: _composite_from_json(part_name, parts, generators)
            for part_name, parts in named_parts.items()
        }
    except ValueError as exc:
        raise ValueError(f"presentation field 'composites': {exc}") from None
    operations = set(generators) | set(composites)
    relations = _list_field(data, "relations")
    try:
        relations = tuple(_relation_from_json(rel, operations) for rel in relations)
    except ValueError as exc:
        raise ValueError(f"presentation field 'relations': {exc}") from None
    return AxiomSystem(
        name=name, generators=generators, composites=composites, relations=relations
    )


def _relation_from_json(data: Any, operations: Container[str]) -> Relation:
    if not isinstance(data, dict):
        raise ValueError(f"a relation must be an object with name, lhs and rhs, got {data!r}")
    missing = [key for key in ("name", "lhs", "rhs") if key not in data]
    if missing:
        raise ValueError(f"relation {data.get('name')!r} has no {missing[0]!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise ValueError(f"a relation name must be a string, got {name!r}")
    try:
        return Relation(
            name=name,
            lhs=_terms_from_json(data["lhs"], operations),
            rhs=_terms_from_json(data["rhs"], operations),
        )
    except ValueError as exc:
        raise ValueError(f"relation {name!r}: {exc}") from None


def report_to_json(report: Report) -> dict[str, Any]:
    return {
        "kind": "report",
        "title": report.title,
        "passed": report.passed,
        "checks_run": report.checks_run,
        "skipped_undefined": report.skipped_undefined,
        "witnesses": [
            {
                "context": w.context,
                "args": list(w.args),
                "lhs": _json_value(w.lhs),
                "rhs": _json_value(w.rhs),
            }
            for w in report.witnesses
        ],
        "notes": list(report.notes),
    }


def _json_value(value: Any) -> Any:
    """Exact rendering of witness payloads (scalars, vectors, maps)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in sorted(value.items())}
    return value


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


_encode_string = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def dump_json(data: Any) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Any ``indent`` sends the standard library to its pure-Python encoder, so
    objects and lists are laid out here, and each list of plain scalars or
    of rows of them (tensor entries, matrix rows, vectors) goes through the
    C encoder in one call."""
    return _dumps(data, "\n") + "\n"


def _dumps(value: Any, newline: str) -> str:
    """``value`` indented as at the depth whose line breaks are ``newline``."""
    if type(value) is str:
        return _encode_string(value)
    if type(value) is int:
        return repr(value)
    inner = newline + "  "
    if type(value) is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        return "{" + ",".join(
            f"{inner}{_encode_string(key)}: {_dumps(item, inner)}"
            for key, item in sorted(value.items())
        ) + newline + "}"
    if type(value) is list:
        if not value:
            return "[]"
        if _plain(value):
            # "[a, b]" with each scalar on its own line
            return "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + newline + "]"
        if all(type(row) is list and row for row in value) and _plain(
            [x for row in value for x in row]
        ):
            # "[[a, b], [c]]" with each row and each scalar on its own line
            deep = inner + "  "
            return (
                "[" + inner + "[" + deep
                + json.dumps(value)[2:-2]
                .replace("], [", inner + "]," + inner + "[" + deep)
                .replace(", ", "," + deep)
                + inner + "]" + newline + "]"
            )
        return "[" + ",".join(inner + _dumps(item, inner) for item in value) + newline + "]"
    if isinstance(value, (dict, list, tuple)):  # non-string keys or another type
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)
    return json.dumps(value)


def _plain(scalars: list[Any]) -> bool:
    """Whether every item is an int or a string without a comma.  Then, in
    the C encoder's text of a list of them (or of rows of them), ", " and
    "], [" occur only between scalars and between rows: both need a comma,
    and JSON escapes (quotes, backslashes, non-ASCII) never write one."""
    return {type(x) for x in scalars} <= {int, str} and "," not in "".join(
        [x for x in scalars if type(x) is str]
    )


def save(path: str, data: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(data))


def load(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"{path} does not hold a kind-tagged JSON object")
    return data
