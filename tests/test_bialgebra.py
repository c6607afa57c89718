"""Twisted bialgebras, convolution operators, and End(A) structures."""

from __future__ import annotations

from fractions import Fraction

import pytest

from splitalg import (
    CoalgebraData,
    EpsilonBialgebra,
    LinearOperator,
    WeightedDigraph,
    chain_coproduct,
    check_ennea,
    check_eps_bialgebra,
    check_hypercubic,
    check_prelie,
    convolution_report,
    convolution_structure,
    ennea_from_commuting_pair,
    ennea_on_end,
    path_algebra,
    prelie_from_bialgebra,
    weighted_coproduct,
)
from splitalg.bialgebra import (
    check_derivations,
    deconcatenation_base,
    free_extension_report,
    is_coderivation,
    is_derivation,
    word_span,
)

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
    from splitalg import basis_vector

    b = two_vertex_bialgebra()
    cs = convolution_structure(b)
    dim = b.dim * b.dim
    for a in range(dim):
        e_a = basis_vector(dim, a)
        assert cs.left_conv.column(a) == cs.conv.apply(cs.id_vec, e_a)
        assert cs.right_conv.column(a) == cs.conv.apply(e_a, cs.id_vec)


def test_nine_op_on_end_matches_the_commuting_pair_construction():
    b = two_vertex_bialgebra()
    cs = convolution_structure(b)
    e = ennea_on_end(b)
    e2 = ennea_from_commuting_pair(cs.end, cs.left_conv, cs.right_conv, b.t)
    assert all(e.ops[k].entries == e2.ops[k].entries for k in e.ops)
    assert e.dim == b.dim * b.dim
    assert check_ennea(e).passed


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
    report = check_derivations(b, candidate=LinearOperator.identity(b.dim))
    assert any("not applicable" in note for note in report.notes)
    zero = LinearOperator.identity(b.dim).scale(0)
    assert check_derivations(b, candidate=zero).passed


def test_derivation_and_coderivation_checks():
    b = two_vertex_bialgebra()
    zero = LinearOperator.identity(b.dim).scale(0)
    assert is_derivation(b.algebra, zero).passed
    assert is_coderivation(b.delta, zero).passed
    assert not is_derivation(b.algebra, LinearOperator.identity(b.dim)).passed


def test_word_span_orders_words_by_length():
    words = word_span(2, 2, with_unit=False)
    assert words == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert word_span(2, 1, with_unit=True)[0] == ()


def test_free_extension_of_zero_base_is_consistent():
    zero_base = CoalgebraData.from_items(2, [])
    _, report = free_extension_report(2, [(zero_base, F(-1))], cap=3)
    assert report.passed, report.summary()
    assert report.checks_run == 48


def test_free_extension_of_unital_base_needs_minus_one():
    base = deconcatenation_base(2)
    _, good = free_extension_report(2, [(base, F(-1))], cap=3, with_unit=True)
    assert good.passed
    assert good.checks_run == 79
    _, bad = free_extension_report(2, [(base, F(0))], cap=3, with_unit=True)
    assert not bad.passed
    _, bad = free_extension_report(2, [(base, F(1))], cap=3, with_unit=True)
    assert not bad.passed


def test_free_extension_checks_exchange_laws_for_pairs():
    zero_base = CoalgebraData.from_items(2, [])
    singleton = CoalgebraData.from_items(2, [(0, 0, 0, F(1))])
    _, report = free_extension_report(2, [(zero_base, F(-1)), (singleton, F(-1))], cap=2)
    assert report.passed
    assert report.checks_run == 44


def test_no_coproduct_is_refused_as_such():
    with pytest.raises(ValueError, match="at least one coproduct is needed"):
        check_hypercubic([])
    with pytest.raises(ValueError, match="at least one coproduct is needed"):
        free_extension_report(2, [], cap=2)
