"""The coalgebra-side checks against direct-summation oracles.

Coassociativity, the coproduct exchange laws, the coBaxter identity, the
coderivation identity, the t-twisted bialgebra compatibility and the
bowtie derivation property are each recomputed by ``tests/oracles.py`` with
explicit loops over basis vectors and tensor legs.  The package's report must
agree with the oracle on the verdict, the witness arguments, the witness
values and ``checks_run``, on random rational coproducts and operators: some
built to pass, most failing, many at more than one basis vector.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from splitalg import (
    CoalgebraData,
    EpsilonBialgebra,
    FiniteAlgebra,
    LinearOperator,
    Tensor3,
    WeightedDigraph,
    chain_coproduct,
    check_cobaxter,
    check_coassociative,
    check_eps_bialgebra,
    check_hypercubic,
    path_algebra,
    transpose_operator,
    triangular_matrix_coalgebra,
    triangular_row_coproduct_operator,
    weighted_coproduct,
)
from splitalg.bialgebra import check_derivations, is_coderivation

F = Fraction


def small_rational(rng: random.Random) -> Fraction:
    return F(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3, 7]))


def random_legs(rng: random.Random, dim: int, count: int):
    return [
        (rng.randrange(dim), rng.randrange(dim), rng.randrange(dim), small_rational(rng))
        for _ in range(count)
    ]


def deconcatenation(num_gens: int) -> CoalgebraData:
    """Unit-extended deconcatenation: 1 -> 1 (x) 1, x -> 1 (x) x + x (x) 1."""
    legs = [(0, 0, 0, 1)]
    for g in range(1, num_gens + 1):
        legs += [(g, 0, g, 1), (g, g, 0, 1)]
    return CoalgebraData.from_items(num_gens + 1, legs)


def coassociative_coproduct(rng: random.Random) -> CoalgebraData:
    """A coassociative coproduct, rescaled by a random rational."""
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, small_rational(rng))]))
    delta = rng.choice(
        [
            triangular_matrix_coalgebra(2),
            chain_coproduct(pa),
            weighted_coproduct(pa),
            deconcatenation(rng.randint(1, 3)),
            CoalgebraData.from_items(rng.randint(1, 4), []),
        ]
    )
    return delta.scale(small_rational(rng))


def coproduct(rng: random.Random, dim: int | None = None) -> CoalgebraData:
    """A random rational coproduct, or a coassociative one, maybe perturbed."""
    if dim is None and rng.random() < 0.4:
        delta = coassociative_coproduct(rng)
    else:
        dim = dim or rng.randint(1, 4)
        delta = CoalgebraData.from_items(dim, random_legs(rng, dim, rng.randint(1, 10)))
    if rng.random() < 0.5:
        extra = CoalgebraData.from_items(delta.dim, random_legs(rng, delta.dim, rng.randint(1, 3)))
        delta = delta.add(extra)
    return delta


def operator(rng: random.Random, dim: int) -> LinearOperator:
    grid = [[F(0)] * dim for _ in range(dim)]
    for _ in range(rng.randint(0, 2 * dim)):
        grid[rng.randrange(dim)][rng.randrange(dim)] = small_rational(rng)
    return LinearOperator.from_rows(grid)


def perturbed(rng: random.Random, op: LinearOperator) -> LinearOperator:
    grid = [list(row) for row in op.entries]
    for _ in range(rng.randint(1, 3)):
        grid[rng.randrange(op.dim)][rng.randrange(op.dim)] += small_rational(rng)
    return LinearOperator.from_rows(grid)


def inner_coderivation(delta: CoalgebraData, a: int) -> LinearOperator:
    """The transpose of x -> e_a x - x e_a on the dual algebra: a derivation
    of the dual product, so a coderivation of delta when it is coassociative."""
    n = delta.dim
    grid = [[F(0)] * n for _ in range(n)]
    for i, j, k, c in delta.dual.nonzeros():
        if i == a:
            grid[k][j] += c
        if j == a:
            grid[k][i] -= c
    return transpose_operator(LinearOperator.from_rows(grid))


def outcome(report) -> oracles.CoalgebraOutcome:
    return (
        report.passed,
        report.checks_run,
        [(w.context, tuple(w.args), w.lhs, w.rhs) for w in report.witnesses],
    )


SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_coassociativity_matches_oracle(rng):
    delta = coproduct(rng)
    assert outcome(check_coassociative(delta)) == oracles.coassociativity_oracle(delta)


@SETTINGS
@given(rng=st.randoms(use_true_random=False), count=st.integers(1, 3))
def test_exchange_laws_match_oracle(rng, count):
    first = coproduct(rng)
    deltas = [first] + [
        rng.choice([first.scale(small_rational(rng)), coproduct(rng, first.dim)])
        for _ in range(count - 1)
    ]
    assert outcome(check_hypercubic(deltas)) == oracles.exchange_oracle(deltas)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_cobaxter_matches_oracle(rng):
    kind = rng.choice(["triangular", "perturbed", "weight", "random"])
    if kind == "random":
        delta = coproduct(rng)
        op, weight = operator(rng, delta.dim), small_rational(rng)
    else:
        n, t = rng.randint(2, 3), small_rational(rng)
        delta, op, weight = triangular_matrix_coalgebra(n), triangular_row_coproduct_operator(n, t), -t
        if kind == "perturbed":
            op = perturbed(rng, op)
        elif kind == "weight":
            weight += small_rational(rng)
    expected = oracles.cobaxter_oracle(delta, op, weight)
    assert outcome(check_cobaxter(delta, op, weight)) == expected
    if kind == "triangular":
        assert expected[0]


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_coderivation_matches_oracle(rng):
    kind = rng.choice(["inner", "perturbed", "zero", "random"])
    delta = coassociative_coproduct(rng) if kind != "random" else coproduct(rng)
    n = delta.dim
    if kind == "zero":
        op = LinearOperator.identity(n).scale(0)
    elif kind == "random":
        op = operator(rng, n)
    else:
        op = inner_coderivation(delta, rng.randrange(n))
        if kind == "perturbed":
            op = perturbed(rng, op)
    expected = oracles.coderivation_oracle(delta, op)
    assert outcome(is_coderivation(delta, op)) == expected
    if kind in ("inner", "zero"):
        assert expected[0]


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_eps_bialgebra_matches_oracle(rng):
    kind = rng.choice(["chain", "weighted", "random"])
    if kind == "random":
        delta = coproduct(rng)
        algebra = FiniteAlgebra(oracles.random_tensor(rng, delta.dim, rng.randint(1, 12)))
        t = small_rational(rng)
    else:
        pa = path_algebra(WeightedDigraph.build(2, [(0, 1, small_rational(rng))]))
        algebra = pa.algebra
        delta, t = (chain_coproduct(pa), F(-1)) if kind == "chain" else (weighted_coproduct(pa), F(0))
        change = rng.choice(["none", "t", "product"])
        if change == "t":
            t += small_rational(rng)
        elif change == "product":  # one product entry off, so a later pair may fail first
            algebra = FiniteAlgebra(algebra.mult.add(oracles.random_tensor(rng, algebra.dim, 1)))
    b = EpsilonBialgebra(algebra, delta, t)
    expected = oracles.eps_bialgebra_oracle(b)
    assert outcome(check_eps_bialgebra(b)) == expected


def parameter(rng: random.Random) -> Fraction:
    return rng.choice([F(-1), F(0), F(1), small_rational(rng)])


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_bowtie_derivation_matches_oracle(rng):
    kind = rng.choice(["chain", "weighted", "random"])
    if kind == "random":
        delta = coproduct(rng)
        algebra = FiniteAlgebra(oracles.random_tensor(rng, delta.dim, rng.randint(1, 12)))
        t = parameter(rng)
    else:
        arcs = [(v, v + 1, small_rational(rng)) for v in range(rng.randint(0, 2))]
        pa = path_algebra(WeightedDigraph.build(len(arcs) + 1, arcs))
        algebra = pa.algebra
        delta, t = (chain_coproduct(pa), F(-1)) if kind == "chain" else (weighted_coproduct(pa), F(0))
        change = rng.choice(["none", "t", "late"])
        if change == "t":
            t = parameter(rng)
        elif change == "late":  # one product entry off at the last a, so triples fail late
            n = algebra.dim
            extra = [(n - 1, rng.randrange(n), rng.randrange(n), small_rational(rng))]
            algebra = FiniteAlgebra(algebra.mult.add(Tensor3.from_sparse(n, extra)))
    b = EpsilonBialgebra(algebra, delta, t)
    assert outcome(check_derivations(b)) == oracles.bowtie_derivation_oracle(b)


def test_generated_cases_fail_at_several_basis_vectors():
    """The random coproducts do exercise multi-vector failures."""
    rng = random.Random(5)
    counts = [len(oracles.coassociativity_oracle(coproduct(rng))[2]) for _ in range(40)]
    assert max(counts) >= 3
    assert 0 in counts
