"""Operator identities: weighted Baxter operators and their co-versions."""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from splitalg import (
    FiniteAlgebra,
    LinearOperator,
    check_baxter,
    check_cobaxter,
    commute,
    transpose_operator,
    triangular_baxter_example,
    triangular_matrix_coalgebra,
    triangular_row_coproduct_operator,
)

F = Fraction

PARAMS = [F(1), F(-1), F(2, 3)]


@pytest.mark.parametrize("t", PARAMS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangular_row_and_column_operators_are_weighted_baxter(n, t):
    alg, row, col, param = triangular_baxter_example(n, t)
    assert param == -t
    assert check_baxter(alg, row, param).passed
    assert check_baxter(alg, col, param).passed


def test_wrong_weight_fails_with_witness():
    alg, row, _, param = triangular_baxter_example(3, F(1))
    report = check_baxter(alg, row, param + 1)
    assert not report.passed
    assert report.witnesses


def test_row_operators_commute_but_row_and_column_do_not():
    for n in (2, 3):
        alg, row, col, _ = triangular_baxter_example(n, F(1))
        assert commute(row, row)
        assert commute(col, col)
        assert not commute(row, col)


def test_identity_operator_weight_is_minus_one():
    """B = id satisfies B(x)B(y) = B(B(x)y + xB(y) + t xy) exactly at t = -1."""
    alg, _, _, _ = triangular_baxter_example(2, F(1))
    ident = oracles.identity_operator(alg.dim)
    assert check_baxter(alg, ident, F(-1)).passed
    assert not check_baxter(alg, ident, F(1)).passed
    assert not check_baxter(alg, ident, F(0)).passed


def test_zero_operator_has_every_weight():
    alg, _, _, _ = triangular_baxter_example(2, F(1))
    zero = oracles.identity_operator(alg.dim).scale(0)
    for t in PARAMS:
        assert check_baxter(alg, zero, t).passed


@pytest.mark.parametrize("t", PARAMS)
def test_scaling_law(t):
    """If B has weight s then c*B has weight c*s."""
    alg, row, _, param = triangular_baxter_example(3, t)
    c = F(2, 5)
    scaled = row.scale(c)
    assert check_baxter(alg, scaled, c * param).passed
    if param != 0:
        assert not check_baxter(alg, scaled, param).passed


@pytest.mark.parametrize("t", PARAMS)
@pytest.mark.parametrize("n", [2, 3])
def test_coproduct_operator_is_weighted_cobaxter(n, t):
    delta = triangular_matrix_coalgebra(n)
    psi = triangular_row_coproduct_operator(n, t)
    assert check_cobaxter(delta, psi, -t).passed
    assert not check_cobaxter(delta, psi, -t + 1).passed


@pytest.mark.parametrize("n", [2, 3])
def test_cobaxter_is_baxter_on_the_dual(n):
    """psi is a weighted co-operator for delta exactly when its transpose is
    a weighted operator for the dual product."""
    t = F(2, 3)
    delta = triangular_matrix_coalgebra(n)
    psi = triangular_row_coproduct_operator(n, t)
    dual = FiniteAlgebra(delta.dual)
    assert check_baxter(dual, transpose_operator(psi), -t).passed
    # and a perturbed operator fails on both sides of the duality
    bad = LinearOperator.from_rows(
        [[c + (i == j) for j, c in enumerate(row)] for i, row in enumerate(oracles.operator_rows(psi))]
    )
    assert not check_cobaxter(delta, bad, -t).passed
    assert not check_baxter(dual, transpose_operator(bad), -t).passed


def test_transpose_is_an_involution():
    _, row, _, _ = triangular_baxter_example(3, F(2, 3))
    assert transpose_operator(transpose_operator(row)) == row
