"""Path algebras of weighted acyclic digraphs and their coproducts."""

from __future__ import annotations

from fractions import Fraction

import pytest

from splitalg import (
    EpsilonBialgebra,
    WeightedDigraph,
    chain_coproduct,
    chain_order,
    check_algebra,
    check_coassociative,
    check_eps_bialgebra,
    check_hypercubic,
    path_algebra,
    splitting_coproduct,
    weighted_coproduct,
)

F = Fraction


def line_graph(n, weights=None):
    weights = weights or [1] * (n - 1)
    return WeightedDigraph.build(n, [(i, i + 1, weights[i]) for i in range(n - 1)])


def test_path_algebra_of_a_line():
    pa = path_algebra(line_graph(3))
    # 3 vertex idempotents + paths 0->1, 1->2, 0->2
    assert pa.dim == 6
    assert check_algebra(pa.algebra).passed
    assert len(pa.paths) == 3


def test_path_algebra_weights_multiply_along_concatenation():
    g = WeightedDigraph.build(3, [(0, 1, F(3, 2)), (1, 2, F(2))])
    pa = path_algebra(g)
    i01 = pa.index_of_path((0,))
    i12 = pa.index_of_path((1,))
    i02 = pa.index_of_path((0, 1))
    from splitalg import basis_vector

    prod = pa.algebra.multiply(basis_vector(pa.dim, i01), basis_vector(pa.dim, i12))
    assert prod[i02] == 1  # concatenation itself carries no weight factor
    assert all(c == 0 for k, c in enumerate(prod) if k != i02)


def test_cyclic_graph_is_rejected():
    g = WeightedDigraph.build(2, [(0, 1, 1), (1, 0, 1)])
    assert not g.is_acyclic()
    with pytest.raises(ValueError):
        path_algebra(g)


def test_path_count_is_the_path_algebra_basis_beyond_the_vertices():
    graphs = [
        line_graph(4),
        WeightedDigraph.build(3, []),
        WeightedDigraph.build(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]),
        WeightedDigraph.build(2, [(0, 1, 1), (0, 1, F(1, 2))]),  # parallel arcs
        WeightedDigraph.build(4, [(3, 2, 1), (2, 1, 1), (1, 0, 1), (3, 1, 1)]),
    ]
    for g in graphs:
        assert g.path_count() == len(path_algebra(g).paths), g
    assert WeightedDigraph.build(1, [(0, 0, 1)]).path_count() is None
    assert WeightedDigraph.build(3, [(0, 1, 1), (1, 2, 1), (2, 1, 1)]).path_count() is None


# -- chain-shape detection ---------------------------------------------------


def test_chain_order_on_lines_and_unions():
    assert chain_order(line_graph(2)) == (0, 1)
    assert chain_order(line_graph(4)) == (0, 1, 2, 3)
    # a disjoint union of two chains is accepted component by component
    g = WeightedDigraph.build(4, [(0, 1, 1), (2, 3, 1)])
    assert chain_order(g) == (0, 1, 2, 3)
    # isolated vertices are one-point chains
    assert chain_order(WeightedDigraph.build(2, [])) == (0, 1)


def test_chain_order_rejects_branching():
    out_branch = WeightedDigraph.build(3, [(0, 1, 1), (0, 2, 1)])
    in_branch = WeightedDigraph.build(3, [(0, 2, 1), (1, 2, 1)])
    assert chain_order(out_branch) is None
    assert chain_order(in_branch) is None
    with pytest.raises(ValueError):
        chain_coproduct(path_algebra(out_branch))


def test_parallel_arcs_keep_the_chain_shape():
    """Multiple arcs between consecutive chain vertices stay admissible, and
    the chain coproduct is still compatible at parameter -1."""
    g = WeightedDigraph.build(2, [(0, 1, 1), (0, 1, F(1, 2))])
    assert chain_order(g) == (0, 1)
    pa = path_algebra(g)
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    assert check_eps_bialgebra(b).passed


# -- the three coproducts ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_coproduct_gives_minus_one_bialgebra(n):
    pa = path_algebra(line_graph(n))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    report = check_eps_bialgebra(b)
    assert report.passed, report.summary()


def test_chain_coproduct_with_fractional_and_zero_weights():
    pa = path_algebra(line_graph(3, weights=[F(5, 3), F(0)]))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    assert check_eps_bialgebra(b).passed


def test_chain_coproduct_on_disjoint_union():
    g = WeightedDigraph.build(5, [(0, 1, F(2)), (2, 3, 1), (3, 4, F(1, 2))])
    pa = path_algebra(g)
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    assert check_eps_bialgebra(b).passed


@pytest.mark.parametrize("n", [2, 3])
def test_weighted_coproduct_is_zero_parameter_compatible(n):
    pa = path_algebra(line_graph(n, weights=[F(k + 2, 3) for k in range(n - 1)]))
    b = EpsilonBialgebra(pa.algebra, weighted_coproduct(pa), F(0))
    assert check_eps_bialgebra(b).passed


def test_weighted_coproduct_accepts_branching_graphs():
    g = WeightedDigraph.build(3, [(0, 1, 1), (0, 2, F(2))])
    pa = path_algebra(g)
    b = EpsilonBialgebra(pa.algebra, weighted_coproduct(pa), F(0))
    assert check_eps_bialgebra(b).passed


def test_two_weightings_satisfy_all_exchange_laws():
    """Two coproducts from different arc weightings pass the four-way
    coassociativity exchange battery, on 2- and 3-vertex graphs."""
    for n in (2, 3):
        pa = path_algebra(line_graph(n))
        d1 = weighted_coproduct(pa, weights=[F(1)] * (n - 1))
        d2 = weighted_coproduct(pa, weights=[F(k + 1, 2) for k in range(n - 1)])
        report = check_hypercubic([d1, d2])
        assert report.passed, report.summary()
        # 2 coassociativity checks + 2 mixed exchange laws
        assert report.checks_run == 4 * pa.dim


def test_splitting_coproduct_is_coassociative_and_exchange_compatible():
    for graph in (
        line_graph(2),
        line_graph(3),
        WeightedDigraph.build(3, [(0, 1, 1), (0, 2, 1)]),
    ):
        pa = path_algebra(graph)
        d = splitting_coproduct(pa)
        assert check_coassociative(d).passed
        assert check_hypercubic([d, weighted_coproduct(pa)]).passed


def test_splitting_coproduct_is_a_bialgebra_only_on_one_vertex():
    one = path_algebra(WeightedDigraph.build(1, []))
    b = EpsilonBialgebra(one.algebra, splitting_coproduct(one), F(-1))
    assert check_eps_bialgebra(b).passed
    two = path_algebra(line_graph(2))
    b2 = EpsilonBialgebra(two.algebra, splitting_coproduct(two), F(-1))
    assert not check_eps_bialgebra(b2).passed
