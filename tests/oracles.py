"""Independent cross-checks used by the test suite.

Every function here recomputes a quantity with the most direct method
available -- explicit loops over basis triples, sympy's own rational
elimination -- without going through the package's composition, resolution,
or elimination code, so that agreement between the two paths is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Mapping, Sequence

import sympy

from splitalg import NINE_OP_SYSTEM, AxiomSystem, LinearOperator, Relation, Tensor3

ZERO = Fraction(0)

# the unit action ``verify unit-action`` and ``verify coherence`` default to
# on the nine-op family: x nw 1 = x and 1 se x = x, every other action zero
NINE_OP_RULES = {
    gen: (Fraction(gen == "nw"), Fraction(gen == "se")) for gen in NINE_OP_SYSTEM.generators
}

Triple = tuple[int, int, int]
VecMap = dict[int, Fraction]


def sympy_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of exact rationals via sympy's elimination."""
    if not rows:
        return 0
    mat = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )
    return mat.rank()


def brute_left(inner: Tensor3, outer: Tensor3) -> dict[Triple, VecMap]:
    """outer(inner(x, y), z) on all basis triples, by explicit summation."""
    n = inner.dim
    assert outer.dim == n
    out: dict[Triple, VecMap] = {}
    for i in range(n):
        for j in range(n):
            mid = inner.entries[i][j]
            for k in range(n):
                total = [ZERO] * n
                for m in range(n):
                    c = mid[m]
                    if c:
                        row = outer.entries[m][k]
                        for q in range(n):
                            if row[q]:
                                total[q] += c * row[q]
                vec = {q: v for q, v in enumerate(total) if v}
                if vec:
                    out[(i, j, k)] = vec
    return out


def brute_right(inner: Tensor3, outer: Tensor3) -> dict[Triple, VecMap]:
    """outer(x, inner(y, z)) on all basis triples, by explicit summation."""
    n = inner.dim
    assert outer.dim == n
    out: dict[Triple, VecMap] = {}
    for j in range(n):
        for k in range(n):
            mid = inner.entries[j][k]
            for i in range(n):
                total = [ZERO] * n
                for m in range(n):
                    c = mid[m]
                    if c:
                        row = outer.entries[i][m]
                        for q in range(n):
                            if row[q]:
                                total[q] += c * row[q]
                vec = {q: v for q, v in enumerate(total) if v}
                if vec:
                    out[(i, j, k)] = vec
    return out


def expand_named(
    system: AxiomSystem, ops: Mapping[str, Tensor3], t: Fraction, name: str
) -> Tensor3:
    """Concrete tensor of a named operation, summed entry by entry."""
    dim = next(iter(ops.values())).dim
    entries = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for poly, gen in system.resolve(name):
        c = poly.eval(t)
        if not c:
            continue
        gt = ops[gen]
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    v = gt.entries[i][j][k]
                    if v:
                        entries[i][j][k] += c * v
    return Tensor3.from_sparse(
        dim,
        [
            (i, j, k, entries[i][j][k])
            for i in range(dim)
            for j in range(dim)
            for k in range(dim)
            if entries[i][j][k]
        ],
    )


def brute_relation_holds(
    system: AxiomSystem,
    ops: Mapping[str, Tensor3],
    t: Fraction,
    relation: Relation,
) -> bool:
    """Evaluate one identity on every basis triple by direct summation."""
    dim = next(iter(ops.values())).dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = [ZERO] * dim
                for sign, terms, left_nested in (
                    (Fraction(1), relation.lhs, True),
                    (Fraction(-1), relation.rhs, False),
                ):
                    for coeff, inner_name, outer_name in terms:
                        c = sign * coeff.eval(t)
                        if not c:
                            continue
                        inner = expand_named(system, ops, t, inner_name)
                        outer = expand_named(system, ops, t, outer_name)
                        if left_nested:
                            mid = inner.entries[i][j]
                            for m in range(dim):
                                if mid[m]:
                                    row = outer.entries[m][k]
                                    for q in range(dim):
                                        total[q] += c * mid[m] * row[q]
                        else:
                            mid = inner.entries[j][k]
                            for m in range(dim):
                                if mid[m]:
                                    row = outer.entries[i][m]
                                    for q in range(dim):
                                        total[q] += c * mid[m] * row[q]
                if any(total):
                    return False
    return True


def relation_rows(system: AxiomSystem, t: Fraction) -> list[list[Fraction]]:
    """Relation coefficients in the degree-3 monomial basis, one row each.

    Monomials are (side, inner generator, outer generator) with side L for
    outer(inner(x, y), z) and R for outer(x, inner(y, z)); composites are
    expanded through the system's own resolution table, which is the only
    shared ingredient with the package's matrix builder.
    """
    gens = system.generators
    col: dict[tuple[str, str, str], int] = {}
    for side in ("L", "R"):
        for inner in gens:
            for outer in gens:
                col[(side, inner, outer)] = len(col)
    rows: list[list[Fraction]] = []
    for relation in system.relations:
        row = [ZERO] * len(col)
        for sign, terms, side in (
            (Fraction(1), relation.lhs, "L"),
            (Fraction(-1), relation.rhs, "R"),
        ):
            for coeff, inner_name, outer_name in terms:
                base = sign * coeff.eval(t)
                if not base:
                    continue
                for pi, gi in system.resolve(inner_name):
                    for po, go in system.resolve(outer_name):
                        c = base * pi.eval(t) * po.eval(t)
                        if c:
                            row[col[(side, gi, go)]] += c
        rows.append(row)
    return rows


def oracle_degree3_dimension(system: AxiomSystem, t: Fraction) -> tuple[int, int, int]:
    """(monomial count, relation rank, degree-3 dimension) recomputed."""
    g = len(system.generators)
    monomials = 2 * g * g
    rank = sympy_rank(relation_rows(system, t))
    return monomials, rank, monomials - rank


def unit_scalars(
    system: AxiomSystem,
    rules: Mapping[str, tuple[Fraction, Fraction]],
    t: Fraction,
    name: str,
) -> tuple[Fraction, Fraction]:
    """(scalar of x op 1, scalar of 1 op x) for a named operation."""
    right = left = ZERO
    for poly, gen in system.resolve(name):
        c = poly.eval(t)
        right += c * rules[gen][0]
        left += c * rules[gen][1]
    return right, left


def skip_triples(
    system: AxiomSystem,
    rules: Mapping[str, tuple[Fraction, Fraction]],
    t: Fraction,
    relation: Relation,
    interior_dim: int,
) -> set[Triple]:
    """Triples of a unit-augmented cube where an identity is undefined.

    The unit sits at index 0 and the interior basis at 1..interior_dim.  An
    operation applied to (1, 1) is defined only when its two unit scalars
    agree; a term is undefined at a triple exactly when it forces such an
    application: the inner slot sees (1, 1) when both its arguments are the
    unit, and the outer slot sees (1, 1) when the inner result is a nonzero
    multiple of the unit and the remaining argument is the unit.
    """
    n = interior_dim + 1
    skip: set[Triple] = set()
    for terms, left_nested in ((relation.lhs, True), (relation.rhs, False)):
        for coeff, inner_name, outer_name in terms:
            if not coeff.eval(t):
                continue
            ir, il = unit_scalars(system, rules, t, inner_name)
            outer_defined = (
                unit_scalars(system, rules, t, outer_name)[0]
                == unit_scalars(system, rules, t, outer_name)[1]
            )
            if ir != il:
                if left_nested:
                    skip.update((0, 0, k) for k in range(n))
                else:
                    skip.update((i, 0, 0) for i in range(n))
            elif ir != 0 and not outer_defined:
                skip.add((0, 0, 0))
    return skip


def random_tensor(rng: random.Random, dim: int, entries: int = 12) -> Tensor3:
    """A sparse random structure tensor with small rational entries."""
    items = []
    for _ in range(entries):
        items.append(
            (
                rng.randrange(dim),
                rng.randrange(dim),
                rng.randrange(dim),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
        )
    return Tensor3.from_sparse(dim, items)


# -- dense Fraction oracles for the integer tensor ---------------------------
# A grid is a dense n x n x n list of Fractions, grid[i][j][k] being the e_k
# coefficient of op(e_i, e_j).  These build and transform grids entry by entry
# from the raw items, never through Tensor3's own storage or operations.

Grid = list[list[list[Fraction]]]


def zero_grid(dim: int) -> Grid:
    return [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]


def grid_from_items(dim: int, items) -> Grid:
    """Sum (i, j, k, c) items into a grid, one Fraction addition at a time."""
    grid = zero_grid(dim)
    for i, j, k, c in items:
        grid[i][j][k] += Fraction(c)
    return grid


def frozen(grid: Grid) -> tuple:
    """A grid in the nested-tuple shape of ``Tensor3.entries``."""
    return tuple(tuple(tuple(row) for row in plane) for plane in grid)


def dense_combine(dim: int, terms) -> Grid:
    """sum coeff * grid over (coeff, grid) terms."""
    out = zero_grid(dim)
    for coeff, grid in terms:
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    out[i][j][k] += Fraction(coeff) * grid[i][j][k]
    return out


def dense_product(grid: Grid, x, y) -> tuple[Fraction, ...]:
    """op(x, y) on two coefficient vectors, summed entry by entry."""
    n = len(grid)
    out = [ZERO] * n
    for i, j in itertools.product(range(n), repeat=2):
        if x[i] and y[j]:
            for k in range(n):
                out[k] += x[i] * y[j] * grid[i][j][k]
    return tuple(out)


def associative_and_unital(algebra) -> bool:
    """Whether the product is associative on every basis triple and, when
    the algebra has a unit, the unit acts as the identity on both sides of
    every basis vector, from the dense grid."""
    mult = algebra.mult
    if brute_left(mult, mult) != brute_right(mult, mult):
        return False
    if algebra.unit is None:
        return True
    grid, n = mult.entries, algebra.dim
    basis = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]
    return all(
        dense_product(grid, algebra.unit, e) == e == dense_product(grid, e, algebra.unit)
        for e in basis
    )


def dense_swap(grid: Grid) -> Grid:
    n = len(grid)
    return [[list(grid[j][i]) for j in range(n)] for i in range(n)]


def dense_permute(grid: Grid, order: Sequence[int]) -> Grid:
    """The grid with its index slots reordered: the entry at e = (i, j, k)
    moves to (e[order[0]], e[order[1]], e[order[2]])."""
    n = len(grid)
    out = zero_grid(n)
    for e in itertools.product(range(n), repeat=3):
        out[e[order[0]]][e[order[1]]][e[order[2]]] = grid[e[0]][e[1]][e[2]]
    return out


def dense_twist(grid: Grid, left=None, right=None, post=None) -> Grid:
    """post(op(left e_i, right e_j)) for matrices given as row lists whose
    columns are the images of basis vectors; None is the identity."""
    n = len(grid)

    def entry(matrix, row, col):
        if matrix is None:
            return Fraction(int(row == col))
        return Fraction(matrix[row][col])

    out = zero_grid(n)
    for i in range(n):
        for j in range(n):
            for a in range(n):
                la = entry(left, a, i)
                if not la:
                    continue
                for b in range(n):
                    rb = entry(right, b, j)
                    if not rb:
                        continue
                    for k in range(n):
                        c = grid[a][b][k]
                        if c:
                            for m in range(n):
                                out[i][j][m] += la * rb * c * entry(post, m, k)
    return out


# -- dense Fraction oracles for LinearOperator --------------------------------
# An operator is read as dense rows, rows[i][j] being the e_i coefficient of
# the image of e_j.  These transform row lists entry by entry with Fraction
# arithmetic, never through LinearOperator's own storage or operations.

Rows = list[list[Fraction]]


def operator_rows(op) -> Rows:
    """The dense rows of an operator, read from its entries one at a time."""
    rows = [[ZERO] * op.dim for _ in range(op.dim)]
    for i, j, n in op.numerators:
        rows[i][j] = Fraction(n, op.denom)
    return rows


def identity_operator(dim: int) -> LinearOperator:
    """The identity operator, from its dense rows."""
    return LinearOperator.from_rows([[int(i == j) for j in range(dim)] for i in range(dim)])


def dense_compose(a: Rows, b: Rows) -> Rows:
    """a after b."""
    n = len(a)
    return [
        [sum((a[i][j] * b[j][k] for j in range(n)), ZERO) for k in range(n)]
        for i in range(n)
    ]


def dense_scale(c: Fraction, a: Rows) -> Rows:
    return [[Fraction(c) * x for x in row] for row in a]


def dense_transpose(a: Rows) -> Rows:
    return [list(col) for col in zip(*a)]


def dense_augment(grid: Grid, right: Fraction, left: Fraction) -> Grid:
    """The grid on k*1 (+) A with the unit at index 0: x op 1 = right*x,
    1 op x = left*x, and 1 op 1 = right when right == left, else zero."""
    n = len(grid) + 1
    out = zero_grid(n)
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                out[i][j][k] = grid[i - 1][j - 1][k - 1]
        out[i][0][i] = Fraction(right)
        out[0][i][i] = Fraction(left)
    if right == left:
        out[0][0][0] = Fraction(right)
    return out


def unit_compatibility_oracle(
    system: AxiomSystem,
    ops: Mapping[str, Tensor3],
    t: Fraction,
    rules: Mapping[str, tuple[Fraction, Fraction]],
) -> tuple[bool, int, int, list[tuple[str, Triple, VecMap, VecMap]]]:
    """(passed, checks run, skipped, witnesses) of every identity on the
    augmented cube, triple by triple.

    Every operation, composites as wholes, is resolved entry by entry and
    augmented densely (:func:`dense_augment`); each identity skips the
    triples of :func:`skip_triples` and reports its smallest failing triple
    with both sides' nonzero coefficients there.
    """
    dim = next(iter(ops.values())).dim
    n = dim + 1
    aug = {}
    for name in system.operation_names():
        grid = dense_augment(expand_named(system, ops, t, name).entries, *unit_scalars(system, rules, t, name))
        aug[name] = {
            (i, j): [(k, c) for k, c in enumerate(grid[i][j]) if c] for i in range(n) for j in range(n)
        }
    checks = skipped = 0
    witnesses = []
    for relation in system.relations:
        skip = skip_triples(system, rules, t, relation, dim)
        checks += n**3 - len(skip)
        skipped += len(skip)
        sides = [
            [(c, aug[inner], aug[outer]) for coeff, inner, outer in terms if (c := coeff.eval(t))]
            for terms in (relation.lhs, relation.rhs)
        ]
        for x, y, z in itertools.product(range(n), repeat=3):
            if (x, y, z) in skip:
                continue
            values = []
            for terms, left_nested in zip(sides, (True, False)):
                total = [ZERO] * n
                for c, inner, outer in terms:
                    for a, ca in inner[(x, y) if left_nested else (y, z)]:
                        for m, cm in outer[(a, z) if left_nested else (x, a)]:
                            total[m] += c * ca * cm
                values.append({m: v for m, v in enumerate(total) if v})
            if values[0] != values[1]:
                witnesses.append((f"{system.name}:{relation.name}+unit", (x, y, z), *values))
                break
    return not witnesses, checks, skipped, witnesses


def dense_coherence(
    system: AxiomSystem,
    ops_a: Mapping[str, Tensor3],
    ops_b: Mapping[str, Tensor3],
    t: Fraction,
    rules: Mapping[str, tuple[Fraction, Fraction]],
    total_name: str,
) -> dict[str, Grid]:
    """The mixed-space grids on A⊗1 ⊕ 1⊗B ⊕ A⊗B, one basis pair at a time.

    Read straight from the ``splitalg.unit_action`` docstring:
    ``(a ⊗ b) op (a' ⊗ b')`` multiplies the left factors with the total
    operation and the right factors with ``op``, a unit factor acting
    through the rule scalars (x op 1 = right*x, 1 op x = left*x), except
    that when both right factors are the unit the left factors are
    multiplied with ``op``.  Basis: x_i ⊗ 1 at i, 1 ⊗ y_j at p + j and
    x_i ⊗ y_j at p + q + i*q + j.  The total operation must be unital.
    """
    p = ops_a[system.generators[0]].dim
    q = ops_b[system.generators[0]].dim
    basis = (
        [(i, None) for i in range(p)]
        + [(None, j) for j in range(q)]
        + [(i, j) for i in range(p) for j in range(q)]
    )
    position = {pair: n for n, pair in enumerate(basis)}
    total = dense_combine(
        p, [(poly.eval(t), ops_a[gen].entries) for poly, gen in system.resolve(total_name)]
    )
    total_scalars = unit_scalars(system, rules, t, total_name)
    assert total_scalars == (1, 1), "the total operation must be unital"

    def factor(grid, scalars, u, v) -> VecMap:
        """u op v on one factor, None standing for the unit."""
        right, left = (Fraction(s) for s in scalars)
        if u is None and v is None:
            assert right == left
            return {None: right}
        if u is None:
            return {v: left}
        if v is None:
            return {u: right}
        return {m: c for m, c in enumerate(grid[u][v]) if c}

    grids = {}
    for gen in system.generators:
        op_a, op_b = ops_a[gen].entries, ops_b[gen].entries
        grid = zero_grid(len(basis))
        for x, (a, b) in enumerate(basis):
            for y, (a2, b2) in enumerate(basis):
                if b is None and b2 is None:
                    left_part, right_part = factor(op_a, rules[gen], a, a2), {None: 1}
                else:
                    left_part = factor(total, total_scalars, a, a2)
                    right_part = factor(op_b, rules[gen], b, b2)
                for u, c1 in left_part.items():
                    for v, c2 in right_part.items():
                        if c1 * c2:
                            grid[x][y][position[(u, v)]] += c1 * c2
        grids[gen] = grid
    return grids


def fraction_decoded_tensor(dim: int, items) -> Tensor3:
    """An envelope's ``[i, j, k, coeff]`` entries decoded the way a
    Fraction-summing decoder reads them: every coefficient parsed as a
    Fraction and repeated indices added up in Fractions, before a tensor is
    built from the sums."""
    sums: dict[Triple, Fraction] = {}
    for i, j, k, c in items:
        sums[(i, j, k)] = sums.get((i, j, k), ZERO) + Fraction(c)
    return Tensor3.from_sparse(dim, [(i, j, k, c) for (i, j, k), c in sums.items() if c])


# -- coalgebra checks by direct summation ------------------------------------
# A coproduct is read into a dense cube d[i][j][k], the coefficient of
# e_j (x) e_k in the coproduct of e_i; an operator into its matrix rows
# (column j holding the image of e_j).  Each oracle walks the basis vectors
# e_i in order and, on each, the legs of the identity in lexicographic order,
# and returns (passed, checks_run, witnesses) with every witness a
# (context, args, lhs, rhs) tuple of scalars.

CoalgebraOutcome = tuple[bool, int, list[tuple[str, tuple, Fraction, Fraction]]]


def coproduct_cube(delta) -> Grid:
    return grid_from_items(delta.dim, delta.items())


def _first_leg(lhs, rhs, shape: int, n: int):
    """The smallest leg (a tuple of ``shape`` indices) where two dense
    functions of the leg differ, with both values, or None."""
    for leg in itertools.product(range(n), repeat=shape):
        left, right = lhs(*leg), rhs(*leg)
        if left != right:
            return leg, left, right
    return None


def _exchange_pair(p: Grid, q: Grid, i: int, n: int):
    """(p (x) id) q == (id (x) q) p on the coproduct of e_i, first failure."""
    return _first_leg(
        lambda x, y, z: sum((q[i][j][z] * p[j][x][y] for j in range(n)), ZERO),
        lambda x, y, z: sum((p[i][x][k] * q[k][y][z] for k in range(n)), ZERO),
        3,
        n,
    )


def coassociativity_oracle(delta) -> CoalgebraOutcome:
    """Every basis vector is checked; one witness per failing one."""
    d, n = coproduct_cube(delta), delta.dim
    witnesses = []
    for i in range(n):
        found = _exchange_pair(d, d, i, n)
        if found is not None:
            leg, left, right = found
            witnesses.append(("coassoc", (i,) + leg, left, right))
    return not witnesses, n, witnesses


def exchange_oracle(deltas) -> CoalgebraOutcome:
    """Pairs (p, q) in order, basis vectors in order; stops at the first failure."""
    cubes = [coproduct_cube(d) for d in deltas]
    n = deltas[0].dim
    checks = 0
    for pi, p in enumerate(cubes):
        for qi, q in enumerate(cubes):
            for i in range(n):
                checks += 1
                found = _exchange_pair(p, q, i, n)
                if found is not None:
                    leg, left, right = found
                    return False, checks, [(f"exchange[{pi},{qi}]", (i,) + leg, left, right)]
    return True, checks, []


def _first_vector_failure(context, n, lhs_at, rhs_at) -> CoalgebraOutcome:
    """Basis vectors in order; the first with a differing leg (x, y) fails."""
    for i in range(n):
        found = _first_leg(lambda x, y: lhs_at(i, x, y), lambda x, y: rhs_at(i, x, y), 2, n)
        if found is not None:
            leg, left, right = found
            return False, i + 1, [(context, (i,) + leg, left, right)]
    return True, n, []


def cobaxter_oracle(delta, op, t) -> CoalgebraOutcome:
    """(P (x) P) delta = t delta P + (id (x) P) delta P + (P (x) id) delta P."""
    d, n, p, t = coproduct_cube(delta), delta.dim, operator_rows(op), Fraction(t)

    def image_coproduct(i, x, y):  # coefficient of e_x (x) e_y in delta(P e_i)
        return sum((p[a][i] * d[a][x][y] for a in range(n)), ZERO)

    def lhs(i, x, y):
        return sum(
            (d[i][j][k] * p[x][j] * p[y][k] for j in range(n) for k in range(n)), ZERO
        )

    def rhs(i, x, y):
        return (
            t * image_coproduct(i, x, y)
            + sum((image_coproduct(i, x, k) * p[y][k] for k in range(n)), ZERO)
            + sum((image_coproduct(i, j, y) * p[x][j] for j in range(n)), ZERO)
        )

    return _first_vector_failure("cobaxter", n, lhs, rhs)


def coderivation_oracle(delta, op) -> CoalgebraOutcome:
    """delta(D x) = (D (x) id) delta(x) + (id (x) D) delta(x)."""
    d, n, D = coproduct_cube(delta), delta.dim, operator_rows(op)

    def lhs(i, x, y):
        return sum((D[a][i] * d[a][x][y] for a in range(n)), ZERO)

    def rhs(i, x, y):
        return sum((d[i][j][y] * D[x][j] for j in range(n)), ZERO) + sum(
            (d[i][x][k] * D[y][k] for k in range(n)), ZERO
        )

    return _first_vector_failure("coderivation", n, lhs, rhs)


def eps_bialgebra_oracle(b) -> CoalgebraOutcome:
    """Coassociativity, then the t-twisted compatibility
    delta(x y) = x_(1) (x) x_(2) y + x y_(1) (x) y_(2) + t x (x) y
    on the basis pairs (x, y) in order, stopping at the first failing pair."""
    n, t = b.dim, Fraction(b.t)
    m, d = grid_from_items(n, b.algebra.mult.nonzeros()), coproduct_cube(b.delta)
    passed, checks, witnesses = coassociativity_oracle(b.delta)
    for i, j in itertools.product(range(n), repeat=2):

        def lhs(x, y):
            return sum((m[i][j][k] * d[k][x][y] for k in range(n)), ZERO)

        def rhs(x, y):
            return (
                sum((d[i][x][a] * m[a][j][y] for a in range(n)), ZERO)
                + sum((m[i][a][x] * d[j][a][y] for a in range(n)), ZERO)
                + (t if (x, y) == (i, j) else ZERO)
            )

        checks += 1
        found = _first_leg(lhs, rhs, 2, n)
        if found is not None:
            leg, left, right = found
            return False, checks, witnesses + [("product-compat", (i, j) + leg, left, right)]
    return passed, checks, witnesses


def bowtie_derivation_oracle(b) -> tuple[bool, int, list]:
    """For every a, D_a(x) = a bowtie x + t a x is a derivation of the
    product, where a bowtie x = x_(1) a x_(2): the triples (a, x, y) in order,
    stopping at the first with D_a(x y) != D_a(x) y + x D_a(y), whose
    witness carries both sides as dense vectors.  Every product is one
    :func:`dense_product` on coefficient vectors."""
    n, t, m = b.dim, Fraction(b.t), b.algebra.mult.entries
    d = coproduct_cube(b.delta)
    basis = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]

    def add(*vectors):
        return tuple(sum(parts, ZERO) for parts in zip(*vectors))

    def shifted(a, x):  # a bowtie x + t a x, for a basis index a
        out = tuple(t * c for c in dense_product(m, basis[a], x))
        for i, p, q in itertools.product(range(n), repeat=3):
            c = x[i] * d[i][p][q]
            if c:
                sandwich = dense_product(m, dense_product(m, basis[p], basis[a]), basis[q])
                out = add(out, tuple(c * v for v in sandwich))
        return out

    images = [[shifted(a, basis[x]) for x in range(n)] for a in range(n)]
    checks = 0
    for a, x, y in itertools.product(range(n), repeat=3):
        checks += 1
        lhs = shifted(a, dense_product(m, basis[x], basis[y]))
        rhs = add(dense_product(m, images[a][x], basis[y]), dense_product(m, basis[x], images[a][y]))
        if lhs != rhs:
            return False, checks, [(f"bowtie-derivation[a={a}]", (x, y), lhs, rhs)]
    return True, checks, []
