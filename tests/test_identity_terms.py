"""Identities that permute their variables, as argument-order terms.

The nested kernel reads a term ``(c, inner, outer, order)`` on the basis
triple t as c * outer(inner(u, v), w) (or c * outer(u, inner(v, w))) with
(u, v, w) = (t[order[0]], t[order[1]], t[order[2]]).  These tests compare the
kernel and the pre-Lie and Jacobi checks built on it with explicit sums over
dense structure constants.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from splitalg import Tensor3, check_jacobi, check_prelie
from splitalg.exactlin import first_nested_difference, nested_residual, nested_value
from splitalg.report import Report, compare_dual
from splitalg.splitting import PreLieStructure

F = Fraction
ORDERS = list(itertools.permutations(range(3)))


def permuted(values: dict, order, dim: int) -> dict:
    """A brute-force map on triples read in the given argument order."""
    return {
        t: vec
        for t in itertools.product(range(dim), repeat=3)
        if (vec := values.get(tuple(t[p] for p in order)))
    }


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    dim=st.integers(1, 3),
    orders=st.lists(st.tuples(st.sampled_from(ORDERS), st.booleans()), min_size=1, max_size=4),
)
def test_ordered_terms_match_permuted_brute_force(seed, dim, orders):
    rng = random.Random(seed)
    left, right, expected = [], [], {}
    for order, left_nested in orders:
        inner, outer = oracles.random_tensor(rng, dim, 6), oracles.random_tensor(rng, dim, 6)
        coeff = F(rng.randint(-3, 3), rng.randint(1, 4))
        brute = (oracles.brute_left if left_nested else oracles.brute_right)(inner, outer)
        sign = 1 if left_nested else -1
        for t, vec in permuted(brute, order, dim).items():
            bucket = expected.setdefault(t, {})
            for m, c in vec.items():
                bucket[m] = bucket.get(m, F(0)) + sign * coeff * c
        (left if left_nested else right).append((coeff, inner, outer, order))
    nonzero = {(*t, m) for t, vec in expected.items() for m, c in vec.items() if c}
    assert set(nested_residual(left, right)) == nonzero
    for t in itertools.product(range(dim), repeat=3):
        got = nested_value(left, True, t)
        for m, c in nested_value(right, False, t).items():
            got[m] = got.get(m, F(0)) - c
        assert {m: c for m, c in got.items() if c} == {
            m: c for m, c in expected.get(t, {}).items() if c
        }


def dense(tensor: Tensor3):
    return tensor.entries


def composed(outer, inner, u, v, w):
    """outer(inner(e_u, e_v), e_w) as a {m: c} map of nonzeros."""
    n = len(outer)
    out = {}
    for a in range(n):
        if inner[u][v][a]:
            for m in range(n):
                if outer[a][w][m]:
                    out[m] = out.get(m, F(0)) + inner[u][v][a] * outer[a][w][m]
    return out


def add(*maps):
    total = {}
    for sign, vec in maps:
        for m, c in vec.items():
            total[m] = total.get(m, F(0)) + sign * c
    return {m: c for m, c in total.items() if c}


def random_bracket(rng: random.Random, dim: int) -> Tensor3:
    items = []
    for _ in range(rng.randint(1, 2 * dim)):
        i, j = rng.sample(range(dim), 2)
        k, c = rng.randrange(dim), F(rng.randint(-3, 3), rng.randint(1, 3))
        items += [(i, j, k, c), (j, i, k, -c)]
    return Tensor3.from_sparse(dim, items)


def test_jacobi_witness_is_the_smallest_failing_triple():
    """The witness is the lexicographically smallest triple where the cyclic
    sum [[x,y],z] + [[y,z],x] + [[z,x],y] is nonzero, with that sum."""
    rng = random.Random(2024)
    failing = 0
    for _ in range(300):
        bracket = random_bracket(rng, rng.randint(2, 4))
        b, n = dense(bracket), bracket.dim
        expected = None
        for x, y, z in itertools.product(range(n), repeat=3):
            total = add(
                (1, composed(b, b, x, y, z)),
                (1, composed(b, b, y, z, x)),
                (1, composed(b, b, z, x, y)),
            )
            if total:
                expected = ((x, y, z), total, {})
                break
        report = check_jacobi(bracket)
        assert report.checks_run == n**3
        assert report.passed is (expected is None)
        if expected is not None:
            failing += 1
            (w,) = report.witnesses
            assert (w.context, w.args, w.lhs, w.rhs) == ("jacobi",) + expected
    assert failing > 50


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 3))
def test_prelie_witness_is_the_smallest_asymmetric_associator(seed, dim):
    """Witness values are the associators a(x,y,z) and a(y,x,z)."""
    op = oracles.random_tensor(random.Random(seed), dim, 5)
    p, n = dense(op), dim

    def associator(u, v, w):
        right = {}
        for a in range(n):
            if p[v][w][a]:
                for m in range(n):
                    if p[u][a][m]:
                        right[m] = right.get(m, F(0)) + p[v][w][a] * p[u][a][m]
        return add((1, composed(p, p, u, v, w)), (-1, right))

    expected = next(
        (
            ((x, y, z), associator(x, y, z), associator(y, x, z))
            for x, y, z in itertools.product(range(n), repeat=3)
            if associator(x, y, z) != associator(y, x, z)
        ),
        None,
    )
    report = check_prelie(PreLieStructure(op))
    assert report.checks_run == n**3
    assert report.passed is (expected is None)
    if expected is not None:
        (w,) = report.witnesses
        assert (w.context, w.args, w.lhs, w.rhs) == ("prelie",) + expected


# -- the first failing triple -------------------------------------------------
# first_nested_difference sums the residual one x-slice at a time and stops at
# the first slice holding a failing triple.  These cases pin what that scan
# must return against a brute-force scan of every triple.


def random_sides(rng: random.Random, dim: int, count: int):
    """Random left- and right-nested terms with random argument orders."""
    left, right = [], []
    for _ in range(count):
        inner = oracles.random_tensor(rng, dim, rng.randint(1, 8))
        outer = oracles.random_tensor(rng, dim, rng.randint(1, 8))
        coeff = F(rng.randint(-3, 3), rng.randint(1, 4))
        term = (coeff, inner, outer, rng.choice(ORDERS))
        (left if rng.random() < 0.5 else right).append(term)
    return left, right


def brute_side(terms, left_nested: bool, dim: int) -> dict:
    """Triple -> nonzero {m: value} of one side, by explicit summation."""
    total: dict = {}
    for coeff, inner, outer, *order in terms:
        order = order[0] if order else (0, 1, 2)
        brute = (oracles.brute_left if left_nested else oracles.brute_right)(inner, outer)
        for t, vec in permuted(brute, order, dim).items():
            bucket = total.setdefault(t, {})
            for m, c in vec.items():
                bucket[m] = bucket.get(m, F(0)) + coeff * c
    return {t: nonzero for t, vec in total.items() if (nonzero := {m: c for m, c in vec.items() if c})}


def brute_first_difference(left, right, dim: int):
    lhs, rhs = brute_side(left, True, dim), brute_side(right, False, dim)
    for t in itertools.product(range(dim), repeat=3):
        if lhs.get(t, {}) != rhs.get(t, {}):
            return t, lhs.get(t, {}), rhs.get(t, {})
    return None


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 4), count=st.integers(1, 4))
def test_first_difference_is_the_smallest_failing_triple_outside_skip(seed, dim, count):
    rng = random.Random(seed)
    left, right = random_sides(rng, dim, count)
    assert first_nested_difference(left, right) == brute_first_difference(left, right, dim)


def agreeing_sides(rng: random.Random, dim: int):
    """A left-nested term and the same map written right-nested:
    outer(inner(x, y), z) = opposite(outer)(z, inner(x, y)), order (2, 0, 1)."""
    inner, outer = oracles.random_tensor(rng, dim, 10), oracles.random_tensor(rng, dim, 10)
    coeff = F(rng.randint(1, 5), rng.randint(1, 3))
    return [(coeff, inner, outer)], [(coeff, inner, outer.swap_args(), (2, 0, 1))]


def test_only_failure_in_the_last_slice_is_found():
    rng = random.Random(88)
    for dim in (1, 2, 3, 4):
        for _ in range(10):
            left, right = agreeing_sides(rng, dim)
            assert first_nested_difference(left, right) is None
            # one product that is nonzero on the triple (n-1, j, k) only
            j, k, a, m = (rng.randrange(dim) for _ in range(4))
            probe = Tensor3.from_sparse(dim, [(dim - 1, j, a, F(rng.randint(1, 4), 3))])
            tail = Tensor3.from_sparse(dim, [(a, k, m, F(-2, rng.randint(1, 5)))])
            left = left + [(F(1), probe, tail)]
            expected = brute_first_difference(left, right, dim)
            assert expected is not None and expected[0] == (dim - 1, j, k)
            assert first_nested_difference(left, right) == expected


def test_compare_dual_reports_every_failing_basis_vector():
    """With every_vector, one witness per failing output index i, at its
    smallest failing triple, however many slices the failures span."""
    rng = random.Random(31)
    seen_late = 0
    for _ in range(60):
        dim = rng.randint(1, 4)
        left, right = random_sides(rng, dim, rng.randint(1, 4))
        if not left:
            continue
        lhs, rhs = brute_side(left, True, dim), brute_side(right, False, dim)
        smallest: dict = {}
        for t in itertools.product(range(dim), repeat=3):
            for i in range(dim):
                lv, rv = lhs.get(t, {}).get(i, F(0)), rhs.get(t, {}).get(i, F(0))
                if lv != rv and i not in smallest:
                    smallest[i] = (t, lv, rv)
        report = Report(title="dual", passed=True)
        holds = compare_dual(report, "dual", left, right, every_vector=True)
        assert holds is (not smallest)
        assert report.checks_run == dim
        assert [(w.args, w.lhs, w.rhs) for w in report.witnesses] == [
            ((i, *t), lv, rv) for i, (t, lv, rv) in sorted(smallest.items())
        ]
        seen_late += len({t[0] for t, _, _ in smallest.values()}) > 1
    assert seen_late > 5
