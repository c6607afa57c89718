"""LinearOperator against dense Fraction oracles.

Every operation on operators is checked entry by entry against row lists
built and transformed with Fraction arithmetic in ``tests/oracles.py``, on
random operators with p/q entries and blank rows or columns.  Equal
operators reached by different routes (and so over different denominators
on the way) must compare and hash equal, and an operator envelope must
round-trip to the same bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from splitalg import LinearOperator, Tensor3
from splitalg.baxter import commute, transpose_operator
from splitalg.exactlin import twist
from splitalg.jsonio import dump_json, operator_from_json, operator_to_json

F = Fraction

small_rationals = st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)
)
huge_rationals = st.builds(
    F, st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=1, max_value=2**70)
)
entries = st.one_of(st.just(F(0)), st.just(F(0)), small_rationals, huge_rationals)
dims = st.integers(min_value=1, max_value=4)


def _blanked(rows, row, col):
    """The rows with one row and one column (either may be None) set to 0."""
    return [
        [F(0) if i == row or j == col else c for j, c in enumerate(line)]
        for i, line in enumerate(rows)
    ]


def operators(dim):
    """Dense rows of a random dim x dim operator."""
    rows = st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    index = st.one_of(st.none(), st.integers(0, dim - 1))
    return st.builds(_blanked, rows, index, index)


def assert_matches(op: LinearOperator, rows) -> None:
    assert op.dim == len(rows)
    assert oracles.operator_rows(op) == rows
    rebuilt = LinearOperator.from_rows(rows)
    assert op == rebuilt
    assert hash(op) == hash(rebuilt)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(operators(d), operators(d), small_rationals)))
def test_compose_add_scale_match_dense_oracle(case):
    a, b, c = case
    op_a, op_b = LinearOperator.from_rows(a), LinearOperator.from_rows(b)
    assert_matches(op_a, a)
    assert_matches(op_a.compose(op_b), oracles.dense_compose(a, b))
    assert_matches(op_b.compose(op_a), oracles.dense_compose(b, a))
    assert_matches(op_a.add(op_b), oracles.dense_add(a, b))
    assert_matches(op_a.scale(c), oracles.dense_scale(c, a))
    assert_matches(op_a.scale(0), oracles.dense_scale(0, a))
    assert_matches(transpose_operator(op_a), oracles.dense_transpose(a))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(operators(d), st.lists(entries, min_size=d, max_size=d))
    )
)
def test_apply_and_column_match_dense_oracle(case):
    a, vector = case
    op = LinearOperator.from_rows(a)
    assert op.apply(tuple(vector)) == tuple(oracles.dense_apply(a, vector))
    for j in range(op.dim):
        assert op.column(j) == tuple(row[j] for row in a)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(operators(d), operators(d))))
def test_commute_matches_dense_oracle(case):
    a, b = case
    op_a, op_b = LinearOperator.from_rows(a), LinearOperator.from_rows(b)
    expected = oracles.dense_compose(a, b) == oracles.dense_compose(b, a)
    assert commute(op_a, op_b) is expected
    # a polynomial in an operator commutes with it
    poly = op_a.compose(op_a).add(op_a.scale(F(-2, 3))).add(LinearOperator.identity(op_a.dim))
    assert commute(op_a, poly)


def tensor_items(dim):
    index = st.integers(0, dim - 1)
    return st.lists(st.tuples(index, index, index, small_rationals), max_size=10)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(
            st.just(d), tensor_items(d), operators(d), operators(d), operators(d)
        )
    )
)
def test_twist_matches_dense_oracle_with_blank_lines(case):
    dim, items, left, right, post = case
    got = twist(
        Tensor3.from_sparse(dim, items),
        left=LinearOperator.from_rows(left),
        right=LinearOperator.from_rows(right),
        post=LinearOperator.from_rows(post),
    )
    want = oracles.dense_twist(oracles.grid_from_items(dim, items), left, right, post)
    assert got.entries == oracles.frozen(want)


def test_equal_operators_over_different_denominators_are_one_operator():
    half = LinearOperator.from_rows([[F(1, 2), 0], [0, F(1, 3)]])
    routes = [
        LinearOperator.from_rows([["1/2", "0"], ["0", "2/6"]]),
        LinearOperator.from_rows([[F(1, 4), 0], [0, F(1, 6)]]).scale(2),
        LinearOperator.from_rows([[3, 0], [0, 2]]).scale(F(1, 6)),
        LinearOperator.from_rows([[F(1, 6), 0], [0, F(1, 6)]]).add(LinearOperator.from_rows([[F(1, 3), 0], [0, F(1, 6)]])),
        half.scale(F(5, 7)).scale(F(7, 5)),
        half.compose(LinearOperator.identity(2)),
        LinearOperator.identity(2).scale(F(1, 2)).compose(LinearOperator.from_rows([[1, 0], [0, F(2, 3)]])),
        transpose_operator(transpose_operator(half)),
    ]
    for op in routes:
        assert op == half
        assert hash(op) == hash(half)
    # cancellation leaves the zero operator, whatever the denominators were
    zero = LinearOperator.from_rows([[0, 0], [0, 0]])
    for cancelled in (
        half.add(half.scale(-1)),
        LinearOperator.from_rows([[F(1, 6), F(5, 6)], [0, 0]]).add(LinearOperator.from_rows([[F(-1, 6), F(-5, 6)], [0, 0]])),
        half.scale(0),
    ):
        assert cancelled == zero
        assert hash(cancelled) == hash(zero)
    assert half != zero and LinearOperator.identity(2) != LinearOperator.identity(3)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dims.flatmap(operators))
def test_operator_envelope_round_trips_to_the_same_bytes(rows):
    op = LinearOperator.from_rows(rows)
    text = dump_json(operator_to_json(op))
    back = operator_from_json(json.loads(text))
    assert back == op
    assert dump_json(operator_to_json(back)) == text
