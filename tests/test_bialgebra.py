"""Twisted bialgebras, convolution operators, and End(A) structures."""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from splitalg import (
    EpsilonBialgebra,
    WeightedDigraph,
    chain_coproduct,
    check_eps_bialgebra,
    check_hypercubic,
    check_prelie,
    check_system,
    convolution_report,
    convolution_structure,
    ennea_from_commuting_pair,
    ennea_on_end,
    path_algebra,
    prelie_from_bialgebra,
    weighted_coproduct,
)
from splitalg.bialgebra import check_derivations, is_coderivation, is_derivation

F = Fraction


def two_vertex_bialgebra(weight=F(1)):
    graph = WeightedDigraph.build(2, [(0, 1, weight)])
    pa = path_algebra(graph)
    return EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))


def test_two_vertex_chain_is_minus_one_bialgebra():
    b = two_vertex_bialgebra()
    report = check_eps_bialgebra(b)
    assert report.passed, report.summary()


def test_wrong_parameter_fails_compatibility():
    b = two_vertex_bialgebra()
    assert not check_eps_bialgebra(
        EpsilonBialgebra(b.algebra, b.delta, F(0))
    ).passed


def test_weighted_coproduct_gives_zero_parameter_bialgebra():
    graph = WeightedDigraph.build(2, [(0, 1, F(3, 2))])
    pa = path_algebra(graph)
    b = EpsilonBialgebra(pa.algebra, weighted_coproduct(pa), F(0))
    assert check_eps_bialgebra(b).passed


def test_convolution_is_associative_with_weighted_operators():
    b = two_vertex_bialgebra()
    report = convolution_report(b)
    assert report.passed, report.summary()
    assert report.checks_run == 892


def test_one_sided_convolution_operators_have_the_stated_columns():
    b = two_vertex_bialgebra()
    cs = convolution_structure(b)
    dim = b.dim * b.dim
    conv, left, right = cs.conv.entries, *map(oracles.operator_rows, (cs.left_conv, cs.right_conv))
    for a in range(dim):
        e_a = tuple(F(int(i == a)) for i in range(dim))
        assert tuple(row[a] for row in left) == oracles.dense_product(conv, cs.end.unit, e_a)
        assert tuple(row[a] for row in right) == oracles.dense_product(conv, e_a, cs.end.unit)


def test_nine_op_on_end_matches_the_commuting_pair_construction():
    b = two_vertex_bialgebra()
    cs = convolution_structure(b)
    e = ennea_on_end(b)
    e2 = ennea_from_commuting_pair(cs.end, cs.left_conv, cs.right_conv, b.t)
    assert all(e.ops[k].entries == e2.ops[k].entries for k in e.ops)
    assert e.dim == b.dim * b.dim
    assert check_system(e).passed


def test_pre_lie_product_from_bialgebra():
    b = two_vertex_bialgebra(F(2, 7))
    p = prelie_from_bialgebra(b)
    assert p.dim == b.dim
    assert check_prelie(p).passed


def test_bowtie_derivation_properties():
    b = two_vertex_bialgebra()
    report = check_derivations(b)
    assert report.passed
    assert report.checks_run == b.dim**3
    # the identity map is a derivation only of the zero product, so the
    # bi-derivation hypothesis is reported as not applicable
    report = check_derivations(b, candidate=oracles.identity_operator(b.dim))
    assert any("not applicable" in note for note in report.notes)
    zero = oracles.identity_operator(b.dim).scale(0)
    assert check_derivations(b, candidate=zero).passed


def test_derivation_and_coderivation_checks():
    b = two_vertex_bialgebra()
    zero = oracles.identity_operator(b.dim).scale(0)
    assert is_derivation(b.algebra, zero).passed
    assert is_coderivation(b.delta, zero).passed
    assert not is_derivation(b.algebra, oracles.identity_operator(b.dim)).passed


def test_no_coproduct_is_refused_as_such():
    with pytest.raises(ValueError, match="at least one coproduct is needed"):
        check_hypercubic([])
