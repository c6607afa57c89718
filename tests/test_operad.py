"""Degree-3 dimension counts for the built-in quadratic presentations."""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from splitalg import builtin_presentations, degree3_dimension
from splitalg.operad import relation_rows

F = Fraction

# name -> (generators, relations, dim3 at generic parameters)
EXPECTED = {
    "two_op": (2, 3, 5),
    "three_op": (3, 7, 11),
    "four_op": (4, 9, 23),
    "nine_op": (9, 49, 113),
    "deformed_two_two": (4, 9, 23),
    "deformed_two_three": (5, 16, 34),
    "deformed_three_three": (6, 21, 51),
    "deformed_four_four": (8, 27, 101),
    "deformed_nine_nine": (18, 147, 501),
}

GENERIC_T = [F(1), F(2), F(1, 2)]


def test_builtin_presentation_catalogue():
    pres = builtin_presentations()
    assert set(pres) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_dimension_counts_at_generic_parameters(name):
    system = builtin_presentations()[name]
    gens, rels, dim3 = EXPECTED[name]
    assert len(system.generators) == gens
    assert len(system.relations) == rels
    for t in GENERIC_T:
        count = degree3_dimension(system, t)
        assert count.monomials == 2 * gens * gens
        assert count.rank == rels, (name, t)
        assert count.dim3 == dim3, (name, t)


@pytest.mark.parametrize("name", ["two_op", "three_op", "nine_op", "deformed_nine_nine"])
def test_dimension_counts_match_independent_elimination(name):
    system = builtin_presentations()[name]
    for t in (F(1), F(2, 3)):
        count = degree3_dimension(system, t)
        mono, rank, dim3 = oracles.oracle_degree3_dimension(system, t)
        assert (count.monomials, count.rank, count.dim3) == (mono, rank, dim3)


def test_relation_matrix_shape():
    system = builtin_presentations()["nine_op"]
    rows = relation_rows(system, F(1))
    assert len(rows) == 49
    assert all(0 <= c < 2 * 9 * 9 for row in rows for c in row)
    assert sum(map(len, rows)) == 162


def test_weighted_blocks_degenerate_at_parameter_zero():
    """Identity blocks weighted by t or t^2 drop out at t = 0, so the
    parameter-zero counts are strictly larger."""
    pres = builtin_presentations()
    nine = degree3_dimension(pres["nine_op"], F(0))
    assert (nine.rank, nine.dim3) == (21, 141)
    deformed = degree3_dimension(pres["deformed_nine_nine"], F(0))
    assert (deformed.rank, deformed.dim3) == (63, 585)
    # a parameter-free table is insensitive to t
    flat = degree3_dimension(pres["deformed_four_four"], F(0))
    assert (flat.rank, flat.dim3) == (27, 101)


def test_relation_rows_are_the_sparse_relation_matrix():
    system = builtin_presentations()["deformed_nine_nine"]
    rows = relation_rows(system, F(2, 3))
    dense = oracles.relation_rows(system, F(2, 3))
    assert len(rows) == len(dense) == 147
    assert all(isinstance(v, int) and v for row in rows for v in row.values())
    # each integer row is its relation's dense row times one nonzero rational;
    # the oracle's column (side, inner, outer) is column (side, outer, inner) here
    g = len(system.generators)

    def column(c):
        side, rest = divmod(c, g * g)
        inner, outer = divmod(rest, g)
        return (side * g + outer) * g + inner

    for row, want in zip(rows, dense):
        support = {column(c): v for c, v in enumerate(want) if v}
        assert row.keys() == support.keys()
        assert len({F(row[c]) / v for c, v in support.items()}) == 1
    assert degree3_dimension(system, F(2, 3)).nonzeros == sum(map(len, rows)) == 648


def test_degree3_dimension_builds_no_dense_matrix(monkeypatch):
    import splitalg.operad as operad

    real = operad.rank_int_rows

    def sparse_only(rows):
        # every row is a {column: int} map of its nonzero entries
        assert all(isinstance(row, dict) and all(row.values()) for row in rows), "dense rows built"
        return real(rows)

    monkeypatch.setattr(operad, "rank_int_rows", sparse_only)
    count = degree3_dimension(builtin_presentations()["nine_op"], F(1))
    assert (count.rank, count.dim3, count.nonzeros) == (49, 113, 162)


def test_builtin_presentation_builds_only_the_named_system(monkeypatch):
    import splitalg.deformation as deformation
    from splitalg.jsonio import system_for_family
    from splitalg.operad import PRESET_NAMES, builtin_presentation
    from splitalg.relations import NINE_OP_SYSTEM

    built = []
    real = deformation.cross_term_system

    def counting(base, nonzero_base):
        built.append(base.name)
        return real(base, nonzero_base=nonzero_base)

    monkeypatch.setattr(deformation, "cross_term_system", counting)
    assert builtin_presentation("nine_op") is NINE_OP_SYSTEM
    assert system_for_family("nine_op") is NINE_OP_SYSTEM
    assert built == []
    assert system_for_family("deformed_two_three").name == "three_op_deformed"
    assert built == ["three_op"]
    assert list(builtin_presentations()) == list(PRESET_NAMES)
    assert len(built) == 1 + 5
