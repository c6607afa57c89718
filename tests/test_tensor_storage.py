"""The integer storage of Tensor3 against dense Fraction oracles.

A tensor holds integer numerators over one shared denominator in lowest
terms; every operation below is checked entry by entry against a grid built
and transformed with Fraction arithmetic in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from splitalg import LinearOperator, Tensor3, combine
from splitalg.exactlin import twist
from splitalg.jsonio import tensor_from_json
from splitalg.report import Report, Witness, compare_on_pairs

F = Fraction

small_rationals = st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)
)
huge_rationals = st.builds(
    F, st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=1, max_value=2**70)
)
rationals = st.one_of(small_rationals, small_rationals, huge_rationals)
# int, Fraction and fraction-string coefficients, as from_sparse accepts them
coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    rationals,
    rationals.map(str),
)


def items_for(dim):
    index = st.integers(0, dim - 1)
    return st.lists(st.tuples(index, index, index, coefficients), max_size=10)


dims = st.integers(min_value=1, max_value=3)


def assert_canonical(tensor: Tensor3) -> None:
    """Sorted, nonzero, in range, lowest terms, denominator = lcm of the
    entries' own denominators (1 for the zero tensor)."""
    keys = [entry[:3] for entry in tensor.numerators]
    assert keys == sorted(set(keys))
    assert all(n != 0 for *_, n in tensor.numerators)
    assert all(0 <= a < tensor.dim for key in keys for a in key)
    assert tensor.denom > 0
    assert math.gcd(tensor.denom, *(n for *_, n in tensor.numerators)) == 1
    assert tensor.denom == math.lcm(*(c.denominator for *_, c in tensor.nonzeros()))


def assert_matches(tensor: Tensor3, grid) -> None:
    assert_canonical(tensor)
    assert tensor.entries == oracles.frozen(grid)
    n = tensor.dim
    expected = tuple(
        (i, j, k, grid[i][j][k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if grid[i][j][k]
    )
    assert tensor.nonzeros() == expected


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(st.just(d), items_for(d))))
def test_from_sparse_matches_fraction_sums(case):
    dim, items = case
    assert_matches(Tensor3.from_sparse(dim, items), oracles.grid_from_items(dim, items))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.tuples(rationals, items_for(d)), max_size=4))
    )
)
def test_combine_matches_dense_oracle(case):
    dim, terms = case
    got = combine(dim, [(c, Tensor3.from_sparse(dim, items)) for c, items in terms])
    want = oracles.dense_combine(
        dim, [(c, oracles.grid_from_items(dim, items)) for c, items in terms]
    )
    assert_matches(got, want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(st.just(d), items_for(d), rationals)))
def test_scale_and_swap_args_match_dense_oracle(case):
    dim, items, c = case
    tensor = Tensor3.from_sparse(dim, items)
    grid = oracles.grid_from_items(dim, items)
    assert_matches(tensor.scale(c), oracles.dense_combine(dim, [(c, grid)]))
    assert_matches(tensor.swap_args(), oracles.dense_swap(grid))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    dims.flatmap(lambda d: st.tuples(st.just(d), items_for(d))),
    st.permutations((0, 1, 2)),
)
def test_permuted_matches_dense_oracle_and_inverts(case, order):
    dim, items = case
    tensor = Tensor3.from_sparse(dim, items)
    grid = oracles.grid_from_items(dim, items)
    moved = tensor.permuted(order)
    assert_matches(moved, oracles.dense_permute(grid, order))
    inverse = tuple(order.index(slot) for slot in range(3))
    assert moved.permuted(inverse) == tensor
    # (1, 0, 2) is the opposite operation, as swap_args always gave it
    assert_matches(tensor.permuted((1, 0, 2)), oracles.dense_swap(grid))
    assert tensor.permuted((1, 0, 2)) == tensor.swap_args()


def test_permuted_refuses_what_is_not_a_permutation():
    tensor = Tensor3.from_sparse(2, [(0, 1, 1, 1)])
    for order in ((0, 0, 1), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            tensor.permuted(order)


def matrices(dim):
    row = st.lists(st.one_of(st.just(F(0)), small_rationals), min_size=dim, max_size=dim)
    return st.one_of(st.none(), st.lists(row, min_size=dim, max_size=dim))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(st.just(d), items_for(d), matrices(d), matrices(d), matrices(d))
    )
)
def test_twist_matches_dense_oracle(case):
    dim, items, left, right, post = case

    def operator(rows):
        return None if rows is None else LinearOperator.from_rows(rows)

    got = twist(
        Tensor3.from_sparse(dim, items),
        left=operator(left),
        right=operator(right),
        post=operator(post),
    )
    want = oracles.dense_twist(oracles.grid_from_items(dim, items), left, right, post)
    assert_matches(got, want)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(st.just(d), items_for(d), items_for(d))))
def test_compare_on_pairs_matches_dense_scan(case):
    # the right side holds the left side's entries and more, so most rows
    # agree, often over two different denominators
    dim, left_items, extra_items = case
    right_items = left_items + extra_items
    lhs, rhs = Tensor3.from_sparse(dim, left_items), Tensor3.from_sparse(dim, right_items)
    left, right = (oracles.grid_from_items(dim, items) for items in (left_items, right_items))
    pairs = [(i, j) for i in range(dim) for j in range(dim) if left[i][j] != right[i][j]]
    report = Report("pairs", passed=True)
    agreed = compare_on_pairs(report, "pairs", lhs, rhs)
    if not pairs:
        assert agreed and report.passed and report.witnesses == []
        assert report.checks_run == dim * dim
    else:
        i, j = pairs[0]
        assert not agreed and not report.passed
        assert report.checks_run == i * dim + j + 1
        assert report.witnesses == [
            Witness("pairs", (i, j), tuple(left[i][j]), tuple(right[i][j]))
        ]


def test_compare_on_pairs_across_denominators():
    lhs = Tensor3.from_sparse(2, [(0, 0, 0, F(1, 2)), (1, 1, 1, F(1, 2))])
    rhs = Tensor3.from_sparse(2, [(0, 0, 0, F(1, 2)), (1, 1, 1, F(1, 3))])
    report = Report("pairs", passed=True)
    assert not compare_on_pairs(report, "pairs", lhs, rhs)
    assert report.checks_run == 4
    assert report.witnesses == [Witness("pairs", (1, 1), (0, F(1, 2)), (0, F(1, 3)))]


def test_one_half_by_every_route_is_one_tensor():
    ones = Tensor3.from_sparse(2, [(0, 1, 1, 1)])
    halves = [
        Tensor3.from_sparse(2, [(0, 1, 1, F(1, 2))]),
        Tensor3.from_sparse(2, [(0, 1, 1, F(1, 4)), (0, 1, 1, "1/4")]),
        Tensor3.from_numerators(2, 4, [(0, 1, 1, 2)]),
        Tensor3.from_numerators(2, 8, [(0, 1, 1, 3), (0, 1, 1, 1)]),
        ones.scale(F(1, 2)),
        ones.scale(F(3, 4)).scale(F(2, 3)),
        combine(2, [(F(1, 4), ones), (F(1, 4), ones)]),
        combine(2, [(F(1), ones), (F(-1, 2), ones)]),
        Tensor3.from_sparse(2, [(1, 0, 1, "2/4")]).swap_args(),
        twist(ones, post=oracles.identity_operator(2).scale(F(1, 2))),
        tensor_from_json(2, [[0, 1, 1, "2/4"]]),
        tensor_from_json(2, [[0, 1, 1, "1/4"], [0, 1, 1, "1/4"]]),
        tensor_from_json(2, [[0, 1, 1, "1"], [0, 1, 1, "-1/2"]]),
    ]
    for tensor in halves:
        assert (tensor.denom, tensor.numerators) == (2, ((0, 1, 1, 1),))
        assert tensor == halves[0]
        assert hash(tensor) == hash(halves[0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(st.just(d), items_for(d), rationals)))
def test_cancellation_gives_the_zero_tensor(case):
    dim, items, c = case
    tensor = Tensor3.from_sparse(dim, items)
    zero = Tensor3.zero(dim)
    negated = [(i, j, k, -Fraction(v)) for i, j, k, v in items]
    for cancelled in (
        combine(dim, [(c, tensor), (-c, tensor)]),
        tensor.sub(tensor),
        tensor.scale(0),
        Tensor3.from_sparse(dim, items + negated),
    ):
        assert cancelled == zero
        assert hash(cancelled) == hash(zero)
        assert (cancelled.denom, cancelled.numerators) == (1, ())
        assert cancelled.is_zero()


def test_thirds_cancel_exactly():
    thirds = Tensor3.from_sparse(3, [(2, 1, 0, F(1, 3)), (2, 1, 0, F(2, 3)), (2, 1, 0, -1)])
    assert thirds == Tensor3.zero(3)
    assert tensor_from_json(3, [[0, 0, 0, "1/3"], [0, 0, 0, "-2/6"]]) == Tensor3.zero(3)
