"""Splitting products into two, three, four, and nine operations."""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from splitalg import (
    EpsilonBialgebra,
    TPoly,
    WeightedDigraph,
    chain_coproduct,
    combine,
    check_jacobi,
    check_prelie,
    ennea_from_baxter_on_trialgebra,
    ennea_from_commuting_pair,
    ennea_on_end,
    horizontal_trialgebra,
    opposite_ennea,
    path_algebra,
    prelie_pair_from_ennea,
    tensor_ennea,
    transpose_ennea,
    trialgebra_from_baxter,
    triangular_baxter_example,
    vertical_trialgebra,
)
from splitalg.relations import FOUR_OP_SYSTEM, TWO_OP_SYSTEM, Structure, check_system
from splitalg.splitting import nested_splitting_report, star_morphism_report

F = Fraction

PARAMS = [F(1), F(-1), F(2, 3)]


def row_trialgebra(n, t):
    alg, row, _, param = triangular_baxter_example(n, t)
    return trialgebra_from_baxter(alg, row, param), param


def col_trialgebra(n, t):
    alg, _, col, param = triangular_baxter_example(n, t)
    return trialgebra_from_baxter(alg, col, param), param


@pytest.mark.parametrize("t", PARAMS)
def test_baxter_splitting_gives_three_op_structure(t):
    s, _ = row_trialgebra(3, t)
    report = check_system(s)
    assert report.passed, report.summary()
    assert report.checks_run == 7 * 6**3


def test_zero_weight_splitting_gives_two_op_structure():
    s, param = row_trialgebra(3, F(0))
    assert param == 0
    circ = s.ops["circ"]
    assert circ.entries == circ.scale(0).entries  # circ vanishes at weight 0
    two = {name: s.ops[name] for name in ("prec", "succ")}
    assert check_system(Structure(TWO_OP_SYSTEM, F(0), two)).passed


def test_splitting_from_non_operator_raises():
    alg, _, _, _ = triangular_baxter_example(2, F(1))
    with pytest.raises(ValueError):
        trialgebra_from_baxter(alg, oracles.identity_operator(alg.dim), F(1))


@pytest.mark.parametrize("t", PARAMS)
def test_operator_is_morphism_to_total_operation(t):
    alg, row, _, param = triangular_baxter_example(3, t)
    s = trialgebra_from_baxter(alg, row, param)
    assert star_morphism_report(alg, row, s).passed


@pytest.mark.parametrize("t", PARAMS)
def test_commuting_pair_gives_nine_op_structure(t):
    alg, row, _, param = triangular_baxter_example(3, t)
    e = ennea_from_commuting_pair(alg, row, row, param)
    report = check_system(e)
    assert report.passed, report.summary()
    assert report.checks_run == 49 * 6**3


def test_nine_op_from_refining_operator_on_three_op():
    alg, row, _, param = triangular_baxter_example(3, F(1))
    s = trialgebra_from_baxter(alg, row, param)
    e = ennea_from_baxter_on_trialgebra(s, row, param)
    assert check_system(e).passed
    assert e.ops["prec"].entries == s.ops["prec"].entries


def test_quadri_from_commuting_pair_at_weight_zero():
    alg, row, _, param = triangular_baxter_example(3, F(0))
    e = ennea_from_commuting_pair(alg, row, row, param)
    corners = {name: e.ops[name] for name in FOUR_OP_SYSTEM.generators}
    assert check_system(Structure(FOUR_OP_SYSTEM, param, corners)).passed


@pytest.mark.parametrize("t", [F(1), F(-1), F(2, 3)])
def test_tensor_product_of_three_op_structures(t):
    a, _ = row_trialgebra(2, F(1))
    b, _ = col_trialgebra(2, F(1))
    e = tensor_ennea(a, b, t)
    assert e.dim == 9
    assert check_system(e).passed


def test_tensor_total_operation_is_the_tensor_of_totals():
    a, _ = row_trialgebra(2, F(1))
    b, _ = col_trialgebra(2, F(1))
    e = tensor_ennea(a, b, F(2, 3))
    grand = e.tensor("starbar")
    total_a = combine(3, [(F(1), a.ops[name]) for name in ("prec", "succ", "circ")])
    total_b = combine(3, [(F(1), b.ops[name]) for name in ("prec", "succ", "circ")])
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for p in range(3):
                    for q in range(3):
                        for r in range(3):
                            assert grand.entries[3 * i + p][3 * j + q][3 * k + r] == (
                                total_a.entries[i][j][k] * total_b.entries[p][q][r]
                            )


def test_tensor_construction_needs_nonzero_parameter():
    a, _ = row_trialgebra(2, F(1))
    b, _ = col_trialgebra(2, F(1))
    with pytest.raises(ValueError):
        tensor_ennea(a, b, F(0))


@pytest.mark.parametrize("t", PARAMS)
def test_row_and_column_projections_are_three_op_structures(t):
    alg, row, _, param = triangular_baxter_example(3, t)
    e = ennea_from_commuting_pair(alg, row, row, param)
    assert check_system(horizontal_trialgebra(e)).passed
    assert check_system(vertical_trialgebra(e)).passed
    assert nested_splitting_report(e).passed


def test_pre_lie_pair_and_coinciding_brackets():
    alg, row, _, param = triangular_baxter_example(3, F(1))
    e = ennea_from_commuting_pair(alg, row, row, param)
    first, second = prelie_pair_from_ennea(e)
    assert check_prelie(first).passed
    assert check_prelie(second).passed
    grand = e.tensor("starbar")
    bracket = grand.sub(grand.swap_args())
    for p in (first, second):
        assert p.sub(p.swap_args()).entries == bracket.entries
    assert check_jacobi(bracket).passed


def test_nested_splitting_and_prelie_pair_evaluate_each_table_once(monkeypatch):
    """On the End structure of a 3-vertex chain: the nine-op table (134
    coefficients) once, and the three-op table (20) once for each of the
    four trialgebras that resolve an operation: the two projections and
    the two inner splittings."""
    pa = path_algebra(WeightedDigraph.build(3, [(0, 1, F(2)), (1, 2, F(3))]))
    e = ennea_on_end(EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1)))
    calls = []
    evaluate = TPoly.eval
    monkeypatch.setattr(TPoly, "eval", lambda poly, t: calls.append(t) or evaluate(poly, t))
    assert nested_splitting_report(e).passed
    prelie_pair_from_ennea(e)
    assert len(calls) == 134 + 4 * 20


def test_opposite_and_transpose_are_involutions_preserving_validity():
    alg, row, _, param = triangular_baxter_example(3, F(2, 3))
    e = ennea_from_commuting_pair(alg, row, row, param)
    for move in (opposite_ennea, transpose_ennea):
        twice = move(move(e))
        assert twice.t == e.t
        assert all(twice.ops[k].entries == e.ops[k].entries for k in e.ops)
        assert check_system(move(e)).passed
