"""Finite algebras, coalgebra data, and the triangular matrix families."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from splitalg import (
    CoalgebraData,
    FiniteAlgebra,
    Tensor3,
    WeightedDigraph,
    chain_coproduct,
    check_algebra,
    check_coassociative,
    full_matrix_algebra,
    path_algebra,
    splitting_coproduct,
    triangular_matrix_algebra,
    triangular_matrix_coalgebra,
    weighted_coproduct,
)
from splitalg.algebra_core import triangular_pairs
from splitalg.jsonio import coproduct_from_json

F = Fraction


def test_full_matrix_algebra_is_associative_and_unital():
    alg = full_matrix_algebra(2)
    assert alg.dim == 4
    report = check_algebra(alg)
    assert report.passed, report.summary()
    assert alg.unit is not None
    assert sorted(alg.labels) == sorted(f"E[{p},{q}]" for p in range(2) for q in range(2))


def test_full_matrix_algebra_products():
    alg = full_matrix_algebra(2)
    idx = {alg.label(i): i for i in range(alg.dim)}

    def basis(i):
        return tuple(F(1) if j == i else F(0) for j in range(alg.dim))

    prod = alg.multiply(basis(idx["E[0,1]"]), basis(idx["E[1,0]"]))
    assert prod[idx["E[0,0]"]] == 1 and sum(map(abs, prod)) == 1
    prod = alg.multiply(basis(idx["E[0,1]"]), basis(idx["E[0,1]"]))
    assert all(v == 0 for v in prod)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangular_matrix_algebra(n):
    alg = triangular_matrix_algebra(n)
    assert alg.dim == n * (n + 1) // 2
    assert check_algebra(alg).passed
    assert list(triangular_pairs(n)) == [(i, j) for i in range(n) for j in range(i, n)]


def test_check_algebra_fails_with_witness_on_broken_product():
    bad = FiniteAlgebra(
        mult=Tensor3.from_sparse(2, [(0, 0, 1, F(1)), (1, 0, 0, F(1))]), unit=None
    )
    report = check_algebra(bad)
    assert not report.passed
    assert report.witnesses


@pytest.mark.parametrize("n", [2, 3])
def test_triangular_matrix_coalgebra_is_coassociative(n):
    delta = triangular_matrix_coalgebra(n)
    assert delta.dim == n * (n + 1) // 2
    assert check_coassociative(delta).passed


def test_coalgebra_dual_of_triangular_coalgebra_is_triangular_algebra():
    n = 3
    delta = triangular_matrix_coalgebra(n)
    dual = FiniteAlgebra(delta.dual)
    alg = triangular_matrix_algebra(n)
    assert dual.mult.entries == alg.mult.entries


def test_coalgebra_items_roundtrip_and_scale():
    delta = CoalgebraData.from_items(2, [(0, 0, 1, F(2)), (1, 0, 0, F(1, 3))])
    items = set(delta.items())
    assert items == {(0, 0, 1, F(2)), (1, 0, 0, F(1, 3))}
    doubled = delta.scale(F(2))
    assert set(doubled.items()) == {(0, 0, 1, F(4)), (1, 0, 0, F(2, 3))}
    summed = delta.add(delta.scale(F(-1)))
    assert not set(summed.items())


def test_check_coassociative_fails_on_broken_coproduct():
    # delta(e0) = e1 (x) e0 with delta(e1) = 0: the two double coproducts of
    # e0 are 0 and e1 (x) e1 (x) e0
    delta = CoalgebraData.from_items(2, [(0, 1, 0, F(1))])
    report = check_coassociative(delta)
    assert not report.passed
    assert report.witnesses


def test_opposite_algebra_swaps_arguments():
    alg = triangular_matrix_algebra(2)
    opp = alg.opposite()
    assert check_algebra(opp).passed
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert opp.mult.entries[i][j] == alg.mult.entries[j][i]


# ---------------------------------------------------------------------------
# storage contract: one integer tensor, Fraction views built on demand
# ---------------------------------------------------------------------------


def assert_storage_contract(delta, legs):
    """``delta`` holds exactly the given legs (i, j, k, c), summed, as its
    dual product, and its views regroup them."""
    summed = {}
    for i, j, k, c in legs:
        summed[(i, j, k)] = summed.get((i, j, k), 0) + Fraction(c)
    expected = [(i, j, k, c) for (i, j, k), c in sorted(summed.items()) if c]
    assert [field.name for field in dataclasses.fields(delta)] == ["dual"]
    assert isinstance(delta.dual, Tensor3)
    assert list(delta.items()) == expected
    assert all(type(c) is Fraction for *_, c in delta.items())
    rows = delta.rows
    assert len(rows) == delta.dim
    for i, row in enumerate(rows):
        assert row == tuple((j, k, c) for i2, j, k, c in expected if i2 == i)
    assert CoalgebraData.from_items(delta.dim, expected) == delta


def test_from_items_sums_repeated_and_cancelling_legs():
    legs = [
        (2, 0, 1, F(1, 2)),
        (0, 1, 1, 3),
        (2, 0, 1, F(1, 3)),  # repeated: 5/6 in all
        (1, 2, 2, "4/3"),
        (1, 2, 2, F(-4, 3)),  # cancels to nothing
        (0, 0, 2, -1),
    ]
    delta = CoalgebraData.from_items(3, legs)
    assert_storage_contract(delta, legs)
    assert delta.rows[1] == ()
    assert delta.dual.denom == 6


def _recorded_legs(monkeypatch, build):
    """The coproduct ``build()`` returns and the legs of its last
    ``from_items`` call."""
    calls = []
    from_items = CoalgebraData.from_items

    def recording(dim, items):
        calls.append(list(items))
        return from_items(dim, calls[-1])

    monkeypatch.setattr(CoalgebraData, "from_items", staticmethod(recording))
    delta = build()
    monkeypatch.undo()
    return delta, calls[-1]


def _chain(n, weights):
    return path_algebra(WeightedDigraph.build(n, [(v, v + 1, w) for v, w in enumerate(weights)]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: weighted_coproduct(_chain(3, [F(2, 3), -5])),
        lambda: splitting_coproduct(_chain(3, [1, 1])),
        lambda: chain_coproduct(_chain(3, [F(1, 2), 0])),
        lambda: weighted_coproduct(path_algebra(WeightedDigraph.build(3, [(0, 1, 1), (0, 2, 3)]))),
        lambda: triangular_matrix_coalgebra(3),
    ],
    ids=["weighted", "splitting", "chain", "weighted-branching", "triangular"],
)
def test_built_coproducts_keep_the_storage_contract(monkeypatch, build):
    delta, legs = _recorded_legs(monkeypatch, build)
    assert_storage_contract(delta, legs)


def test_decoded_coproduct_keeps_the_storage_contract():
    legs = [[2, 1, 0, "1/4"], [0, 2, 2, "3"], [2, 1, 0, "-1/4"], [1, 0, 2, "2/5"], [1, 0, 2, "1"]]
    delta = coproduct_from_json({"kind": "coproduct", "dim": 3, "items": legs})
    assert_storage_contract(delta, [(i, j, k, Fraction(c)) for i, j, k, c in legs])
