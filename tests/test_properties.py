"""Randomized invariants, run deterministically with fixed generation."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from splitalg import (
    FiniteAlgebra,
    LinearOperator,
    builtin_presentations,
    check_baxter,
    check_cobaxter,
    check_jacobi,
    check_prelie,
    check_system,
    degree3_dimension,
    ennea_from_commuting_pair,
    opposite_ennea,
    prelie_pair_from_ennea,
    transpose_ennea,
    transpose_operator,
    triangular_baxter_example,
    triangular_matrix_coalgebra,
)
from splitalg.exactlin import Tensor3, integer_row, nested_residual, nested_value, rank_int_rows
from splitalg.relations import (
    NINE_OP_GENERATORS,
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    Structure,
    TPoly,
)

F = Fraction

fractions = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
nonzero_fractions = fractions.filter(lambda x: x != 0)


def sparse_tensor(dim):
    item = st.tuples(
        st.integers(0, dim - 1),
        st.integers(0, dim - 1),
        st.integers(0, dim - 1),
        fractions,
    )
    return st.lists(item, max_size=6).map(lambda items: Tensor3.from_sparse(dim, items))


def random_ennea(dim):
    return st.fixed_dictionaries({name: sparse_tensor(dim) for name in NINE_OP_GENERATORS}).flatmap(
        lambda ops: nonzero_fractions.map(lambda t: Structure(NINE_OP_SYSTEM, t, ops))
    )


@settings(max_examples=25, derandomize=True, deadline=None)
@given(random_ennea(2))
def test_opposite_and_transpose_are_involutions(e):
    for move in (opposite_ennea, transpose_ennea):
        twice = move(move(e))
        assert twice.t == e.t
        assert all(twice.ops[k].entries == e.ops[k].entries for k in e.ops)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(random_ennea(2))
def test_validity_is_preserved_by_opposite(e):
    """A structure and its opposite always get the same verdict."""
    assert check_system(e).passed == check_system(opposite_ennea(e)).passed


@settings(max_examples=10, derandomize=True, deadline=None)
@given(nonzero_fractions)
def test_valid_structures_and_their_opposites_pass(t):
    alg, row, _, param = triangular_baxter_example(2, t)
    e = ennea_from_commuting_pair(alg, row, row, param)
    assert check_system(e).passed
    assert check_system(opposite_ennea(e)).passed
    assert check_system(transpose_ennea(e)).passed


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.lists(st.tuples(fractions, fractions, fractions), min_size=1, max_size=4), fractions)
def test_three_point_reconstruction_of_quadratics(coeff_rows, extra):
    """Any coefficient polynomial of the relation tables has degree at most
    two, so three sample points determine it; a Lagrange rebuild from points
    1, 2, 3 must match a direct evaluation anywhere else."""
    for a, b, c in coeff_rows:
        poly = TPoly((a, b, c))
        xs = [F(1), F(2), F(3)]
        ys = [poly.eval(x) for x in xs]

        def lagrange(x):
            total = F(0)
            for i, xi in enumerate(xs):
                term = ys[i]
                for j, xj in enumerate(xs):
                    if i != j:
                        term *= (x - xj) / (xi - xj)
                total += term
            return total

        assert lagrange(extra) == poly.eval(extra)


@settings(max_examples=5, derandomize=True, deadline=None)
@given(
    st.lists(nonzero_fractions, min_size=3, max_size=3, unique=True),
)
def test_generic_parameter_certification(points):
    """The headline dimension counts hold at any three distinct nonzero
    parameters, not only at hand-picked ones."""
    nine = builtin_presentations()["nine_op"]
    for t in points:
        assert degree3_dimension(nine, t).dim3 == 113


@settings(max_examples=12, derandomize=True, deadline=None)
@given(nonzero_fractions, nonzero_fractions)
def test_scaling_law_for_weighted_operators(t, c):
    alg, row, _, param = triangular_baxter_example(2, t)
    assert check_baxter(alg, row.scale(c), c * param).passed


@settings(max_examples=10, derandomize=True, deadline=None)
@given(nonzero_fractions)
def test_pre_lie_pair_on_valid_instances(t):
    alg, _, col, param = triangular_baxter_example(2, t)
    e = ennea_from_commuting_pair(alg, col, col, param)
    first, second = prelie_pair_from_ennea(e)
    for p in (first, second):
        assert check_prelie(p).passed
        bracket = p.sub(p.swap_args())
        # antisymmetry and the Jacobi identity
        assert bracket.swap_args().entries == bracket.scale(-1).entries
        assert check_jacobi(bracket).passed


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3),
    st.sampled_from([F(-1), F(0), F(1), F(2, 3)]),
)
def test_cobaxter_duality_is_an_equivalence(rows, s):
    """For any operator and weight, the coproduct-side identity holds exactly
    when the transposed operator satisfies the product-side identity on the
    dual algebra."""
    delta = triangular_matrix_coalgebra(2)
    op = LinearOperator.from_rows(rows)
    left = check_cobaxter(delta, op, s).passed
    right = check_baxter(FiniteAlgebra(delta.dual), transpose_operator(op), s).passed
    assert left == right


# -- the integer residual kernel ---------------------------------------------

non_integral = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=2, max_value=7)
)


def rational_tensor(dim):
    item = st.tuples(
        st.integers(0, dim - 1),
        st.integers(0, dim - 1),
        st.integers(0, dim - 1),
        non_integral,
    )
    return st.lists(item, max_size=8).map(lambda items: Tensor3.from_sparse(dim, items))


def nested_terms(dim):
    term = st.tuples(non_integral, rational_tensor(dim), rational_tensor(dim))
    return st.lists(term, max_size=3)


def brute_residual(left_terms, right_terms):
    """sum c*outer(inner(x,y),z) - sum c*outer(x,inner(y,z)) by direct summation."""
    total = {}
    for sign, brute, terms in ((1, oracles.brute_left, left_terms), (-1, oracles.brute_right, right_terms)):
        for coeff, inner, outer in terms:
            for (x, y, z), vec in brute(inner, outer).items():
                for m, c in vec.items():
                    key = (x, y, z, m)
                    total[key] = total.get(key, F(0)) + sign * coeff * c
    return {key: value for key, value in total.items() if value}


def clearing_factor(left_terms, right_terms):
    """lcm of the denominators of coeff / (D_inner * D_outer), D the lcm of a
    tensor's entry denominators, over every nonzero term."""

    def denom(tensor):
        return math.lcm(*(c.denominator for row in tensor.entries for vec in row for c in vec))

    return math.lcm(
        *(
            (coeff / (denom(inner) * denom(outer))).denominator
            for coeff, inner, outer in left_terms + right_terms
            if coeff
        )
    )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(nested_terms(3), nested_terms(3))
def test_nested_residual_matches_direct_summation(left_terms, right_terms):
    scale = clearing_factor(left_terms, right_terms)
    expected = {key: scale * value for key, value in brute_residual(left_terms, right_terms).items()}
    assert all(value.denominator == 1 for value in expected.values())
    assert nested_residual(left_terms, right_terms) == expected


@settings(max_examples=25, derandomize=True, deadline=None)
@given(nested_terms(3), nested_terms(3))
def test_nested_value_matches_direct_summation(left_terms, right_terms):
    sides = (
        (left_terms, True, brute_residual(left_terms, [])),
        (right_terms, False, {k: -v for k, v in brute_residual([], right_terms).items()}),
    )
    for terms, left_nested, brute in sides:
        for triple in itertools.product(range(3), repeat=3):
            expected = {key[3]: c for key, c in brute.items() if key[:3] == triple}
            assert nested_value(terms, left_nested, triple) == expected


def three_op_structure(dim):
    return st.fixed_dictionaries(
        {name: rational_tensor(dim) for name in THREE_OP_SYSTEM.generators}
    )


@settings(max_examples=20, derandomize=True, deadline=None)
@given(three_op_structure(2))
def test_check_system_agrees_with_brute_force_per_relation(ops):
    report = check_system(Structure(THREE_OP_SYSTEM, F(0), ops))
    failed = {w.context for w in report.witnesses}
    for relation in THREE_OP_SYSTEM.relations:
        holds = oracles.brute_relation_holds(THREE_OP_SYSTEM, ops, F(0), relation)
        assert (f"three_op:{relation.name}" not in failed) == holds


def _associative_rational_product():
    """Upper-triangular 2x2 matrices in the basis e11, e12, e22, scaled by 3/7."""
    c = F(3, 7)
    return Tensor3.from_sparse(
        3, [(0, 0, 0, c), (0, 1, 1, c), (1, 2, 1, c), (2, 2, 2, c)]
    )


def test_terms_that_cancel_only_exactly():
    mul = _associative_rational_product()
    thirds = [(F(1, 3), mul, mul), (F(2, 3), mul, mul), (F(-1), mul, mul)]
    assert nested_residual(thirds, []) == {}
    assert nested_residual([], thirds) == {}
    assert all(nested_value(thirds, True, (x, 0, 0)) == {} for x in range(3))
    # associativity with the total coefficient 1/3 + 2/3 on the left
    assert nested_residual(thirds[:2], [(F(1), mul, mul)]) == {}


def test_denominators_beyond_machine_words():
    mul = _associative_rational_product()
    tiny = F(1, 2**61 + 3)
    small = mul.scale(tiny)
    # T(sT(x, y), z) = sT(x, T(y, z)) for an associative T
    assert nested_residual([(F(1), small, mul)], [(F(1), mul, small)]) == {}
    bumped = [(1 + F(1, 2**62), small, mul)]
    right = [(F(1), mul, small)]
    residual = nested_residual(bumped, right)
    assert residual
    scale = clearing_factor(bumped, right)
    assert residual == {key: scale * value for key, value in brute_residual(bumped, right).items()}
    assert nested_value(bumped, True, (0, 0, 0)) == {0: (1 + F(1, 2**62)) * tiny * F(3, 7) ** 2}


# -- sparse integer elimination ---------------------------------------------
# No built-in presentation has a dependent relation (every preset's rank
# equals its count of nonzero rows), so these matrices plant dependencies:
# the rank of the whole matrix must equal the rank of its independent part.

entries = st.one_of(
    st.integers(-9, 9), st.integers(-(2**70), 2**70)
).filter(lambda v: v != 0)
multipliers = st.one_of(st.integers(-5, 5), st.integers(2**64, 2**66)).filter(lambda v: v != 0)

SHAPES = {"tall": (2, 6, 5, 12), "wide": (8, 14, 2, 6)}


@st.composite
def planted_rank_matrix(draw, shape):
    """(ncols, base rows, all rows): base rows drawn at random, then zero rows,
    sums of two earlier rows and scaled copies mixed in, and all shuffled."""
    min_cols, max_cols, min_rows, max_rows = SHAPES[shape]
    ncols = draw(st.integers(min_cols, max_cols))
    col = st.integers(0, ncols - 1)
    base = draw(
        st.lists(
            st.dictionaries(col, entries, min_size=1, max_size=5),
            min_size=min_rows,
            max_size=max_rows,
        )
    )
    rows = list(base)
    kinds = st.lists(st.sampled_from(["zero", "sum", "scaled"]), min_size=1, max_size=8)
    for kind in draw(kinds):
        if kind == "zero":
            rows.append({})
            continue
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows)) if kind == "sum" else {}
        m, n = draw(multipliers), draw(multipliers)
        combined = {c: m * a.get(c, 0) + n * b.get(c, 0) for c in set(a) | set(b)}
        rows.append({c: v for c, v in combined.items() if v})
    return ncols, base, draw(st.permutations(rows))


def dense(row, ncols):
    return [row.get(c, 0) for c in range(ncols)]


def rational_rank(rows):
    """The rank of rational rows as the degree-3 counts take it: each row
    cleared of its denominators, then eliminated over the integers."""
    return rank_int_rows([integer_row(dict(enumerate(row))) for row in rows])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SHAPES)).flatmap(planted_rank_matrix))
def test_sparse_elimination_finds_planted_dependencies(case):
    ncols, base, rows = case
    dense_rows = [dense(row, ncols) for row in rows]
    expected = oracles.sympy_rank([dense(row, ncols) for row in base])
    assert oracles.sympy_rank(dense_rows) == expected
    assert rank_int_rows(rows) == expected
    assert rational_rank([[F(v, 3) for v in row] for row in dense_rows]) == expected


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(st.tuples(nonzero_fractions, nonzero_fractions), min_size=1, max_size=4),
)
def test_rational_rank_finds_fractional_combinations(base, weights):
    rows = list(base)
    for i, (p, q) in enumerate(weights):
        a, b = base[i % len(base)], base[(i + 1) % len(base)]
        rows.append([p * x + q * y for x, y in zip(a, b)])
    assert rational_rank(rows) == oracles.sympy_rank(base) == oracles.sympy_rank(rows)
