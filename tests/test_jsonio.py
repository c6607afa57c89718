"""Exact-rational JSON envelopes for every transportable object."""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from splitalg import (
    CoalgebraData,
    LinearOperator,
    Tensor3,
    WeightedDigraph,
    builtin_presentations,
    check_coassociative,
    degree3_dimension,
    ennea_on_end,
    EpsilonBialgebra,
    chain_coproduct,
    path_algebra,
    splitting_coproduct,
    triangular_matrix_algebra,
    weighted_coproduct,
)
from splitalg.jsonio import (
    algebra_from_json,
    algebra_to_json,
    coproduct_from_json,
    coproduct_to_json,
    dump_json,
    graph_from_json,
    graph_to_json,
    load,
    operations_from_json,
    operations_to_json,
    operator_from_json,
    operator_to_json,
    report_to_json,
    save,
    scalar_from_json,
    scalar_to_json,
    system_for_family,
    system_from_json,
    system_to_json,
    tensor_from_json,
    tensor_to_json,
    tpoly_from_json,
)
from splitalg.operad import PRESET_NAMES
from splitalg.relations import (
    ASSOCIATIVITY,
    FOUR_OP_SYSTEM,
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    TWO_OP_SYSTEM,
    Structure,
)

F = Fraction


def test_scalar_roundtrip_and_rejections():
    for value in (F(0), F(-3), F(22, 7)):
        assert scalar_from_json(scalar_to_json(value)) == value
    assert scalar_from_json(5) == F(5)
    assert scalar_from_json("-7/3") == F(-7, 3)
    with pytest.raises((TypeError, ValueError)):
        scalar_from_json(0.5)
    with pytest.raises((TypeError, ValueError)):
        scalar_from_json(True)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_zero_denominator_scalar_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json(text)
    with pytest.raises(ValueError, match="zero denominator"):
        tpoly_from_json(["1", text])


def test_tensor_roundtrip_sorted_items():
    t = Tensor3.from_sparse(3, [(2, 1, 0, F(-1, 2)), (0, 0, 1, F(3))])
    items = tensor_to_json(t)
    assert items == sorted(items)
    back = tensor_from_json(3, items)
    assert back.entries == t.entries


def test_graph_roundtrip_with_default_weight():
    g = WeightedDigraph.build(3, [(0, 1, F(3, 2)), (1, 2, 1)])
    data = graph_to_json(g)
    assert data["kind"] == "graph"
    back = graph_from_json(data)
    assert back == g
    # a missing weight field means weight one
    trimmed = dict(data)
    trimmed["arcs"] = [{"src": 0, "dst": 1}]
    assert graph_from_json(trimmed).arcs[0].weight == 1


def test_graph_size_cap_counts_vertices_plus_paths():
    from splitalg.jsonio import MAX_GRAPH_BASIS

    def line(vertices):
        return WeightedDigraph.build(vertices, [(v, v + 1, 1) for v in range(vertices - 1)])

    # a chain on v vertices has v (v - 1) / 2 paths: 22 vertices give 253 in all
    fits = [WeightedDigraph.build(MAX_GRAPH_BASIS, []), line(22)]
    too_large = [WeightedDigraph.build(MAX_GRAPH_BASIS + 1, []), line(23)]
    for g in fits:
        assert graph_from_json(graph_to_json(g)) == g
    for g in too_large:
        with pytest.raises(ValueError, match="graph too large"):
            graph_from_json(graph_to_json(g))
    # a cyclic graph has no finite path count; building its algebra refuses it
    cyclic = WeightedDigraph.build(2, [(0, 1, 1), (1, 0, 1)])
    assert graph_from_json(graph_to_json(cyclic)) == cyclic


def _empty_envelope(kind, dim):
    body = {
        "algebra": {"mult": []},
        "operator": {"matrix": []},
        "coproduct": {"items": []},
        "operations": {"family": "two_op", "t": "1", "ops": {"prec": [], "succ": []}},
    }[kind]
    return {"kind": kind, "dim": dim, **body}


DECODERS = {
    "algebra": algebra_from_json,
    "operator": operator_from_json,
    "coproduct": coproduct_from_json,
    "operations": operations_from_json,
}


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_envelope_dim_above_the_bound_is_refused(kind):
    from splitalg.jsonio import MAX_ENVELOPE_DIM, MAX_GRAPH_BASIS

    assert MAX_ENVELOPE_DIM == MAX_GRAPH_BASIS**2 == 65536
    with pytest.raises(ValueError) as err:
        DECODERS[kind](_empty_envelope(kind, MAX_ENVELOPE_DIM + 1))
    assert str(err.value) == f"{kind} field 'dim' must be at most 65536, got 65537"


def test_legless_coproduct_at_the_bound_decodes_without_a_per_dim_allocation():
    import tracemalloc

    from splitalg.jsonio import MAX_ENVELOPE_DIM

    data = _empty_envelope("coproduct", MAX_ENVELOPE_DIM)
    coproduct_from_json(data)  # the first call imports algebra_core
    tracemalloc.start()
    try:
        delta = coproduct_from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta.dim == MAX_ENVELOPE_DIM and not delta.items()
    # one list per basis vector would take at least 56 B each, 3.5 MiB here
    assert peak < 64 * 1024


def test_algebra_roundtrip_preserves_unit_and_labels():
    alg = triangular_matrix_algebra(2)
    back = algebra_from_json(algebra_to_json(alg))
    assert back.mult.entries == alg.mult.entries
    assert back.unit == alg.unit
    assert back.labels == alg.labels
    assert oracles.associative_and_unital(back)


def test_operator_roundtrip_and_shape_validation():
    op = LinearOperator.from_rows([[1, F(1, 2)], [0, 2]])
    data = operator_to_json(op)
    assert operator_from_json(data) == op
    bad = dict(data)
    bad["matrix"] = [["1", "1/2"]]
    with pytest.raises(ValueError):
        operator_from_json(bad)


def test_coproduct_roundtrip():
    delta = CoalgebraData.from_items(2, [(0, 0, 1, F(2)), (1, 1, 1, F(-1, 3))])
    back = coproduct_from_json(coproduct_to_json(delta))
    assert set(back.items()) == set(delta.items())


def test_coproduct_envelope_lists_the_legs_in_order():
    """The envelope's items are the sorted legs (i, j, k, coeff), written by
    the tensor encoder from the stored dual product."""
    pa = path_algebra(WeightedDigraph.build(3, [(0, 1, F(2, 3)), (1, 2, -3)]))
    for delta in (
        weighted_coproduct(pa),
        chain_coproduct(pa, [F(1, 2), F(-5, 7)]),
        splitting_coproduct(pa),
    ):
        data = coproduct_to_json(delta)
        assert data == {
            "kind": "coproduct",
            "dim": delta.dim,
            "items": [[i, j, k, str(c)] for i, j, k, c in delta.items()],
        }


def test_operations_envelope_roundtrip():
    """Family, t and tensors come back for a structure of each base family."""
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    rng = random.Random(5)
    structures = [ennea_on_end(b)] + [
        Structure(system, F(-2, 3), {g: oracles.random_tensor(rng, 3, 4) for g in system.generators})
        for system in (TWO_OP_SYSTEM, THREE_OP_SYSTEM, FOUR_OP_SYSTEM, NINE_OP_SYSTEM)
    ]
    for s in structures:
        back = operations_from_json(operations_to_json(s))
        assert back.system is s.system and back.t == s.t and back.ops == s.ops


@pytest.mark.parametrize("family", PRESET_NAMES)
def test_operations_envelope_of_every_preset_reads_back(family):
    """Read, write, read: the writer names the family it was read as, and
    the second read gives the same structure."""
    rng = random.Random(family)
    generators = system_for_family(family).generators
    data = {
        "kind": "operations",
        "family": family,
        "t": "-2/3",
        "dim": 3,
        "ops": {g: tensor_to_json(oracles.random_tensor(rng, 3, 4)) for g in generators},
    }
    s = operations_from_json(data)
    written = operations_to_json(s)
    assert written["family"] == family
    assert operations_from_json(written) == s


def test_operations_envelope_refuses_a_system_outside_the_presets():
    s = Structure(ASSOCIATIVITY, F(0), {"mul": Tensor3.zero(2)})
    with pytest.raises(ValueError, match="unknown family 'assoc'"):
        operations_to_json(s)


def test_system_for_family_covers_presets():
    for family in PRESET_NAMES:
        assert system_for_family(family).name == family
    with pytest.raises(ValueError):
        system_for_family("no_such_family")


@pytest.mark.parametrize("name", ["two_op", "nine_op", "deformed_two_three"])
def test_presentation_roundtrip_preserves_dimension_counts(name):
    system = builtin_presentations()[name]
    back = system_from_json(system_to_json(system))
    assert back.name == system.name
    assert back.generators == system.generators
    for t in (F(1), F(2)):
        a = degree3_dimension(system, t)
        b = degree3_dimension(back, t)
        assert (a.rank, a.dim3) == (b.rank, b.dim3)


def test_report_envelope_shape():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    data = report_to_json(check_coassociative(weighted_coproduct(pa)))
    assert data["kind"] == "report"
    assert data["passed"] is True
    assert data["checks_run"] > 0


def test_dump_is_stable_and_save_load_roundtrip(tmp_path):
    data = {"kind": "graph", "vertices": 1, "arcs": []}
    text = dump_json(data)
    assert text.endswith("\n")
    assert text == dump_json(dict(reversed(list(data.items()))))
    target = tmp_path / "g.json"
    save(str(target), data)
    assert load(str(target)) == data


def test_load_rejects_untagged_payload(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError):
        load(str(target))


@pytest.mark.parametrize("index", [-1, 2, "0", True])
def test_tensor_indices_outside_the_dimension_are_rejected(index):
    with pytest.raises(ValueError):
        tensor_from_json(2, [[index, 0, 0, "1"]])
    with pytest.raises(ValueError):
        tensor_from_json(2, [[0, 0, index, "1"]])


@pytest.mark.parametrize("index", [-1, 2, "1"])
def test_coproduct_indices_outside_the_dimension_are_rejected(index):
    data = {"kind": "coproduct", "dim": 2, "items": [[index, 0, 0, "1"]]}
    with pytest.raises(ValueError):
        coproduct_from_json(data)


# -- the writer: same bytes as the standard library's indented encoder ------

# Strings that would break a re-indented row block if the writer trusted it:
# separators, brackets, quotes, backslashes, non-ASCII and line breaks.
TRICKY_STRINGS = [
    ", ", "], [", "[", "]", "[[", "]]", ",", '"', '", "', "\\", "\\\\n", "é",
    " ", "\n", "", "1/2", "-0", "[0, 1]", "a, b", "x]", "{}",
]
json_strings = st.one_of(st.sampled_from(TRICKY_STRINGS), st.text(max_size=6))
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30), st.floats(), json_strings
)
# lists of rows, the shape of tensor entries and matrix rows: ragged, empty
# or with empty rows included
json_rows = st.lists(
    st.lists(st.one_of(st.integers(-50, 50), json_strings, json_scalars), max_size=5),
    max_size=6,
)
json_values = st.recursive(
    st.one_of(json_scalars, json_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(value=json_values)
def test_dump_json_writes_the_bytes_of_the_indented_standard_encoder(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [[], []],
        [[1], []],
        [[], [1]],
        [[1, 2], [3]],
        [["a, b", 1]],
        [["], [", "x"]],
        [["\\"]],
        [["é", 0]],
        [[True, None, 0]],
        {"ops": {"b": [[0, 0, 0, "1"]], "a": [[0, 1, 1, "-2/3"], [1, 0, 1, "1"]]}},
        {"matrix": [["1", "0"], ["1/2", "-3"]], "dim": 2, "kind": "operator"},
        {"rows": [[[0]], [[1]]], "flat": ["a", "b"], "empty": [[], {}]},
    ],
)
def test_dump_json_edge_shapes(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


# -- the tensor decoder: the same tensor as summing Fractions ----------------

coefficient_values = st.one_of(
    st.integers(-40, 40).map(F),
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@st.composite
def spelled(draw, value: Fraction):
    """One JSON spelling of a coefficient: "n", "p/q" (maybe unreduced), a
    JSON int, or "-0" for zero."""
    if value == 0 and draw(st.booleans()):
        return draw(st.sampled_from(["-0", "0", "0/7", "-0/3"]))
    if value.denominator == 1 and draw(st.booleans()):
        return value.numerator
    factor = draw(st.sampled_from([1, 1, 2, 6]))
    if factor == 1 and value.denominator == 1 and draw(st.booleans()):
        return str(value.numerator)
    return f"{value.numerator * factor}/{value.denominator * factor}"


@st.composite
def entry_lists(draw):
    """Entries over dims 1-4 with few distinct indices, so repeated entries
    are common, pairs that cancel to zero added, and the list shuffled."""
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    items = []
    for _ in range(draw(st.integers(0, 12))):
        key = [draw(index), draw(index), draw(index)]
        value = draw(coefficient_values)
        items.append(key + [draw(spelled(value))])
        if draw(st.integers(0, 3)) == 0:
            items.append(key + [draw(spelled(-value))])
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    else:
        items.sort(key=lambda item: item[:3])
    return dim, items


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=entry_lists())
def test_tensor_from_json_equals_from_sparse_on_the_same_entries(case):
    dim, items = case
    expected = Tensor3.from_sparse(dim, [(i, j, k, F(c)) for i, j, k, c in items])
    decoded = tensor_from_json(dim, items)
    assert decoded == expected
    assert (decoded.denom, decoded.numerators) == (expected.denom, expected.numerators)
    assert tensor_from_json(dim, tensor_to_json(decoded)) == decoded
    delta = coproduct_from_json({"kind": "coproduct", "dim": dim, "items": items})
    assert delta == CoalgebraData.from_items(dim, [(i, j, k, F(c)) for i, j, k, c in items])


@pytest.mark.parametrize(
    "text", ["+3", " 3", "3 ", "1_000", "1.5", "-2.5e1", "\u0661\u0662", "+0/5", "7/14", "-0"]
)
def test_other_fraction_spellings_decode_as_fraction_reads_them(text):
    expected = Tensor3.from_sparse(2, [(0, 1, 1, F(text)), (1, 0, 0, F(1, 3))])
    assert tensor_from_json(2, [[0, 1, 1, text], [1, 0, 0, "1/3"]]) == expected


@pytest.mark.parametrize("text", ["1e5000", "-1E+5000", "1e-5000", "2.5e5000", "1_0e4_300"])
def test_a_scalar_with_more_digits_than_the_interpreter_prints_is_refused(text):
    message = f"scalar '{text}' needs more than {sys.get_int_max_str_digits()} digits"
    with pytest.raises(ValueError, match=re.escape(message)):
        tensor_from_json(2, [[0, 1, 1, text]])


def test_an_exponent_within_the_digit_limit_is_read():
    assert tensor_from_json(1, [[0, 0, 0, "1e4299"]]).nonzeros() == ((0, 0, 0, F(10) ** 4299),)


@pytest.mark.parametrize(
    "items,message",
    [
        ({"0": [0, 0, 0, "1"]}, "tensor entries must be a list, got dict"),
        ("[[0, 0, 0, 1]]", "tensor entries must be a list, got str"),
        (None, "tensor entries must be a list, got NoneType"),
        ([[True, 0, 0, "1"]], "tensor index True out of range for dimension 2"),
        ([[0, False, 0, "1"]], "tensor index False out of range for dimension 2"),
        ([[0, 0, 2, "1"]], "tensor index 2 out of range for dimension 2"),
        ([[0, -1, 0, "1"]], "tensor index -1 out of range for dimension 2"),
        ([[0, 0, "1", "1"]], "tensor index '1' out of range for dimension 2"),
        ([[1.0, 0, 0, "1"]], "tensor index 1.0 out of range for dimension 2"),
        ([[0, 0, 0, 0.5]], "scalars must be exact fraction strings, got 0.5"),
        ([[0, 0, 0, 1.0]], "scalars must be exact fraction strings, got 1.0"),
        ([[0, 0, 0, True]], "scalars must be exact fraction strings, got True"),
        ([[0, 0, 0, "1/0"]], "scalar '1/0' has a zero denominator"),
        ([[0, 0, 0, "-3/00"]], "scalar '-3/00' has a zero denominator"),
        ([[0, 0, 0, None]], "cannot read a scalar from None"),
        ([[0, 0, 0, "3/-5"]], "Invalid literal for Fraction: '3/-5'"),
        ([[0, 0, 0, "--3"]], "Invalid literal for Fraction: '--3'"),
        ([[0, 0, 0, "1/+2"]], "Invalid literal for Fraction: '1/+2'"),
        ([[0, 0, 0, "3/4/5"]], "Invalid literal for Fraction: '3/4/5'"),
        ([[0, 0, 0, ""]], "Invalid literal for Fraction: ''"),
        # a digit to str.isdigit that neither int() nor Fraction reads
        ([[0, 0, 0, "\u00b2"]], "Invalid literal for Fraction: '\u00b2'"),
        ([[0, 0, 0, "1/\u00b2"]], "Invalid literal for Fraction: '1/\u00b2'"),
        ([[0, 0, 0]], "an entry must be an [i, j, k, coeff] list, got [0, 0, 0]"),
        (
            [[0, 0, 0, "1", "2"]],
            "an entry must be an [i, j, k, coeff] list, got [0, 0, 0, '1', '2']",
        ),
        ([[0, 0, 0, "1"], "abcd"], "an entry must be an [i, j, k, coeff] list, got 'abcd'"),
        ([(0, 0, 0, "1")], "an entry must be an [i, j, k, coeff] list, got (0, 0, 0, '1')"),
        ([{"i": 0}], "an entry must be an [i, j, k, coeff] list, got {'i': 0}"),
        ([None], "an entry must be an [i, j, k, coeff] list, got None"),
        # the first bad entry is reported, and within one entry the
        # coefficient is read before the indices are checked
        ([[0, 0, 5, "1"], [0, 0, 0, "1/0"]], "tensor index 5 out of range for dimension 2"),
        ([[0, 0, 0, "1/0"], [0, 0, 5, "1"]], "scalar '1/0' has a zero denominator"),
        ([[0, 0, 5, "1/0"]], "scalar '1/0' has a zero denominator"),
        ([[9, 0, 0, "1"], [0]], "tensor index 9 out of range for dimension 2"),
    ],
)
def test_malformed_tensor_entries_raise_the_same_message(items, message):
    with pytest.raises(ValueError) as raised:
        tensor_from_json(2, items)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "items,message",
    [
        ([[0, 0, 2, "1"]], "coproduct index 2 out of range for dimension 2"),
        ([[True, 0, 0, "1"]], "coproduct index True out of range for dimension 2"),
        ([[0, 0, 0, "1/0"]], "scalar '1/0' has a zero denominator"),
        ([[0, 0]], "an entry must be an [i, j, k, coeff] list, got [0, 0]"),
    ],
)
def test_malformed_coproduct_legs_raise_the_same_message(items, message):
    data = {"kind": "coproduct", "dim": 2, "items": items}
    with pytest.raises(ValueError) as raised:
        coproduct_from_json(data)
    assert str(raised.value) == f"coproduct field 'items': {message}"
