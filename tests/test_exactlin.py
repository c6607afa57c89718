"""Exact linear algebra: tensors, composition maps, operators, ranks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from splitalg import LinearOperator, Tensor3, basis_vector, combine, rat
from splitalg.exactlin import (
    accumulate,
    compose_left,
    compose_right,
    first_discrepancy,
    rank,
    rank_int_rows,
    twist,
)
from splitalg.report import Report, Witness, compare_on_pairs

F = Fraction


def test_rat_accepts_exact_kinds_only():
    assert rat(3) == F(3)
    assert rat(F(2, 7)) == F(2, 7)
    assert rat("5/9") == F(5, 9)
    with pytest.raises((TypeError, ValueError)):
        rat(0.5)


def test_vector_helpers():
    assert basis_vector(3, 1) == (F(0), F(1), F(0))


def test_from_sparse_accumulates_duplicates():
    t = Tensor3.from_sparse(2, [(0, 1, 0, F(1)), (0, 1, 0, F(1, 2)), (1, 1, 1, F(-1))])
    assert t.entries[0][1][0] == F(3, 2)
    assert t.entries[1][1][1] == F(-1)
    assert t.entries[0][0][0] == 0


def test_apply_is_bilinear():
    rng = random.Random(11)
    t = oracles.random_tensor(rng, 3)
    x = (F(1), F(2), F(-1))
    y = (F(0), F(1, 3), F(2))
    twice = tuple(2 * v for v in t.apply(x, y))
    assert t.apply(tuple(2 * v for v in x), y) == twice
    assert t.apply(x, tuple(a + b for a, b in zip(y, y))) == twice


def test_combine_is_linear_in_entries():
    rng = random.Random(5)
    a = oracles.random_tensor(rng, 3)
    b = oracles.random_tensor(rng, 3)
    c = combine(3, [(F(2), a), (F(-1, 3), b)])
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert c.entries[i][j][k] == 2 * a.entries[i][j][k] - F(1, 3) * b.entries[i][j][k]


def test_swap_args_transposes_first_two_slots():
    rng = random.Random(9)
    a = oracles.random_tensor(rng, 4)
    s = a.swap_args()
    for i in range(4):
        for j in range(4):
            assert s.entries[i][j] == a.entries[j][i]
    assert s.swap_args().entries == a.entries


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compose_left_matches_brute_force(seed):
    rng = random.Random(seed)
    inner = oracles.random_tensor(rng, 4)
    outer = oracles.random_tensor(rng, 4)
    assert dict(compose_left(inner, outer)) == oracles.brute_left(inner, outer)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compose_right_matches_brute_force(seed):
    rng = random.Random(seed)
    inner = oracles.random_tensor(rng, 4)
    outer = oracles.random_tensor(rng, 4)
    assert dict(compose_right(inner, outer)) == oracles.brute_right(inner, outer)


def test_accumulate_adds_scaled_buckets_in_place():
    total = {(0, 0, 0): {0: F(1)}}
    accumulate(total, {(0, 0, 0): {0: F(-1), 1: F(2)}, (1, 0, 0): {2: F(1)}}, F(1))
    assert total == {(0, 0, 0): {0: F(0), 1: F(2)}, (1, 0, 0): {2: F(1)}}
    accumulate(total, {(1, 0, 0): {2: F(3)}}, F(0))
    assert total[(1, 0, 0)] == {2: F(1)}
    # cancelled coordinates are kept as explicit zeros and ignored by the
    # discrepancy scan
    accumulate(total, {(1, 0, 0): {2: F(1)}}, F(-1))
    assert first_discrepancy(total, {(0, 0, 0): {1: F(2)}}) is None


def test_first_discrepancy_reports_smallest_key():
    lhs = {(0, 0, 1): {0: F(1)}, (2, 1, 0): {1: F(3)}}
    rhs = {(0, 0, 1): {0: F(1)}, (2, 1, 0): {1: F(3)}}
    assert first_discrepancy(lhs, rhs) is None
    rhs = {(0, 0, 1): {0: F(1)}, (1, 2, 2): {0: F(5)}, (2, 1, 0): {1: F(2)}}
    key, lvec, rvec = first_discrepancy(lhs, rhs)
    assert key == (1, 2, 2)
    assert lvec == {} and rvec == {0: F(5)}


def _random_operator(rng, n):
    return LinearOperator.from_rows(
        [[F(rng.choice([0, 0, 1, -2]), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_twist_matches_dense_evaluation(seed):
    rng = random.Random(seed)
    op = oracles.random_tensor(rng, 4)
    m, n_, p = (_random_operator(rng, 4) for _ in range(3))
    got = twist(op, left=m, right=n_, post=p)
    for i in range(4):
        for j in range(4):
            e_i, e_j = basis_vector(4, i), basis_vector(4, j)
            assert got.row(i, j) == p.apply(op.apply(m.apply(e_i), n_.apply(e_j)))
    assert twist(op) == op
    assert twist(op, left=m) == twist(op, left=m, right=LinearOperator.identity(4))


def test_compare_on_pairs_reports_smallest_pair():
    a = Tensor3.from_sparse(3, [(0, 1, 2, F(1)), (2, 0, 1, F(3))])
    report = Report("pairs", passed=True)
    assert compare_on_pairs(report, "pairs", a, a)
    assert report.passed and report.checks_run == 9 and report.witnesses == []
    b = Tensor3.from_sparse(3, [(0, 1, 2, F(1)), (1, 2, 0, F(5)), (2, 0, 1, F(2))])
    report = Report("pairs", passed=True)
    assert not compare_on_pairs(report, "pairs", a, b)
    assert not report.passed and report.checks_run == 6
    assert report.witnesses == [Witness("pairs", (1, 2), (F(0), F(0), F(0)), (F(5), F(0), F(0)))]
    report = Report("pairs", passed=True)
    assert not compare_on_pairs(report, "pairs", a, Tensor3.from_sparse(3, [(0, 1, 0, F(1))]))
    assert report.checks_run == 2
    assert report.witnesses == [Witness("pairs", (0, 1), (F(0), F(0), F(1)), (F(1), F(0), F(0)))]


def test_linear_operator_columns_and_composition():
    op = LinearOperator.from_rows([[1, 2], [0, 1]])
    assert op.column(1) == (F(2), F(1))
    assert op.apply((F(1), F(1))) == (F(3), F(1))
    square = op.compose(op)
    assert square.entries == ((F(1), F(4)), (F(0), F(1)))
    assert op.add(op.scale(-1)).numerators == ()
    with pytest.raises(ValueError):
        LinearOperator.from_rows([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matmul_matches_dense_dot_products(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)

    def sparse_grid(size):
        return [
            [F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0) for _ in range(size)]
            for _ in range(size)
        ]

    a, b = sparse_grid(n), sparse_grid(n)
    expected = tuple(
        tuple(sum((a[i][j] * b[j][k] for j in range(n)), F(0)) for k in range(n))
        for i in range(n)
    )
    product = LinearOperator.from_rows(a).compose(LinearOperator.from_rows(b))
    assert product.dim == n
    assert product.entries == expected
    with pytest.raises(ValueError):
        LinearOperator.from_rows(a).compose(LinearOperator.from_rows(sparse_grid(n + 1)))


def test_matrix_rank_on_known_cases():
    assert rank(LinearOperator.identity(4).entries) == 4
    assert rank([[0] * 5 for _ in range(3)]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]) == 2


@pytest.mark.parametrize("seed", [10, 20, 30, 40])
def test_matrix_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows = [
        [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(7)] for _ in range(5)
    ]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    assert rank(rows) == oracles.sympy_rank(rows)


def test_rank_int_rows_matches_fraction_rank():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    assert rank_int_rows(rows) == rank([[F(v) for v in row] for row in rows]) == 2


OPTIMIZED_CHECKS = """
from fractions import Fraction as F
from splitalg import LinearOperator, Tensor3, basis_vector, combine

if __debug__:
    raise SystemExit("must run under python -O")
t2 = Tensor3.zero(2)
cases = {
    "basis_vector": lambda: basis_vector(2, 2),
    "LinearOperator.apply": lambda: LinearOperator.identity(2).apply((F(1),)),
    "LinearOperator.add": lambda: LinearOperator.identity(2).add(LinearOperator.identity(3)),
    "LinearOperator.compose": lambda: LinearOperator.identity(2).compose(LinearOperator.identity(3)),
    "LinearOperator.from_rows": lambda: LinearOperator.from_rows([[1, 2, 3], [4, 5, 6]]),
    "Tensor3.apply": lambda: t2.apply((F(1),), (F(1), F(0))),
    "combine": lambda: combine(3, [(F(1), t2)]),
}
for name, call in cases.items():
    try:
        call()
    except ValueError:
        continue
    raise SystemExit(f"{name} accepted mismatched dimensions")
"""


def test_dimension_checks_survive_python_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import splitalg

    env = dict(os.environ, PYTHONPATH=str(Path(splitalg.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
