"""Exact-rational JSON envelopes for every transportable object."""

from __future__ import annotations

from fractions import Fraction

import pytest

from splitalg import (
    CoalgebraData,
    LinearOperator,
    Tensor3,
    WeightedDigraph,
    builtin_presentations,
    check_algebra,
    degree3_dimension,
    ennea_on_end,
    EpsilonBialgebra,
    chain_coproduct,
    path_algebra,
    triangular_matrix_algebra,
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


def test_algebra_roundtrip_preserves_unit_and_labels():
    alg = triangular_matrix_algebra(2)
    back = algebra_from_json(algebra_to_json(alg))
    assert back.mult.entries == alg.mult.entries
    assert back.unit == alg.unit
    assert back.labels == alg.labels
    assert check_algebra(back).passed


def test_operator_roundtrip_and_shape_validation():
    op = LinearOperator([[1, F(1, 2)], [0, 2]])
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


def test_operations_envelope_roundtrip():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    e = ennea_on_end(b)
    data = operations_to_json("nine_op", e.t, e.ops)
    family, t, ops = operations_from_json(data)
    assert family == "nine_op" and t == F(-1)
    assert all(ops[k].entries == e.ops[k].entries for k in e.ops)


def test_operations_envelope_rejects_mixed_dimensions():
    ops = {"prec": Tensor3.zero(2), "succ": Tensor3.zero(3)}
    with pytest.raises(ValueError):
        operations_to_json("two_op", F(0), ops)


def test_system_for_family_covers_presets():
    assert system_for_family("nine_op").name == "nine_op"
    assert system_for_family("deformed_two_three").name == "three_op_deformed"
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
    data = report_to_json(check_algebra(pa.algebra))
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
