"""Exact rational linear algebra: vectors, matrices, structure-constant tensors.

Everything is built on ``fractions.Fraction`` so all checks in this package
are exact — a failed identity is a real counterexample, never roundoff.

The two workhorses are:

* :func:`rank_int_rows` — exact rank by sparse fraction-free elimination
  over the integers (rows as ``{col: int}`` maps, a column→rows index,
  Markowitz-style pivots, each updated row divided by its content), used
  for the degree-3 dimension counts of quadratic presentations;
  :func:`rank` clears a rational matrix's denominators row by row and
  calls it;
* :class:`Tensor3` — structure constants of a bilinear operation
  (``z = op(x, y)`` has coefficients ``z_k = sum x_i y_j c[i][j][k]``),
  stored only as its sorted nonzero entries ``(i, j, k, c)``; a dense
  ``entries[i][j][k]`` view is built on demand for inspection.

On top of the tensor sit :func:`twist`, the operation
``(x, y) -> P(op(M x, N y))`` from which every Baxter-operator construction
and both sides of every operator identity are combined, and
:func:`nested_residual`, the kernel of every quadratic-identity check.  It
reads each tensor through a cached :class:`IntegerView` (integer numerators
over one shared denominator), clears the remaining denominators once per
identity, and sums integer products only, so a check stays exact without
Fraction arithmetic in its inner loop; :func:`nested_value` rebuilds the
exact rational values of an identity side at a witness triple.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Container, Iterable, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: Scalar) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fraction)
# ---------------------------------------------------------------------------


def basis_vector(dim: int, index: int) -> tuple[Fraction, ...]:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    return tuple(ONE if i == index else ZERO for i in range(dim))


def vec_add(*vectors: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len({len(v) for v in vectors}) != 1:
        raise ValueError("vector dimension mismatch")
    return tuple(sum(col) for col in zip(*vectors))


def vec_scale(c: Fraction, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * v for v in vector)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable exact matrix; rows of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        grid = tuple(tuple(rat(v) for v in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged matrix rows")
        self.entries: tuple[tuple[Fraction, ...], ...] = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- algebra ------------------------------------------------------------

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product (columns index the input basis)."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum((row[j] * vector[j] for j in range(self.cols)), ZERO)
            for row in self.entries
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix product dimension mismatch")
        # sum over the nonzeros of each row of self and of the rows they pick
        other_rows = [[(k, b) for k, b in enumerate(row) if b] for row in other.entries]
        product = []
        for row in self.entries:
            out = [ZERO] * other.cols
            for j, a in enumerate(row):
                if a:
                    for k, b in other_rows[j]:
                        out[k] += a * b
            product.append(out)
        return Matrix(product)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix sum dimension mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c: Scalar) -> "Matrix":
        c = rat(c)
        return Matrix([[c * v for v in row] for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.entries)) if self.entries else [])

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, row)) for row in self.entries]})"


def integer_row(values: Mapping[int, Scalar]) -> dict[int, int]:
    """The nonzero entries of a rational row as integers: every entry is
    multiplied by the lcm of the denominators, so the row spans the same line
    over the rationals."""
    nonzero = {c: q for c, v in values.items() if (q := rat(v))}
    scale = math.lcm(*(q.denominator for q in nonzero.values()))
    return {c: q.numerator * (scale // q.denominator) for c, q in nonzero.items()}


def rank(matrix: Union[Matrix, Sequence[Sequence[Scalar]]]) -> int:
    """Exact rank over the rationals: clear each row's denominators, then
    eliminate with :func:`rank_int_rows`."""
    entries = matrix.entries if isinstance(matrix, Matrix) else matrix
    return rank_int_rows([integer_row(dict(enumerate(row))) for row in entries])


def _divide_content(row: dict[int, int]) -> None:
    content = math.gcd(*row.values())
    if content != 1:
        for c in row:
            row[c] //= content


def rank_int_rows(rows: Iterable[Union[Sequence[int], Mapping[int, int]]]) -> int:
    """Exact rank over the rationals of integer rows, by sparse fraction-free
    elimination.

    A row is a dense sequence of ints or a ``{col: int}`` map of its entries.
    Each step takes the shortest remaining row as pivot row and, within it,
    the column met by the fewest rows, ties going to the smallest |value|
    (Markowitz-style, to keep fill-in low).  Every other row ``r`` meeting the
    pivot column, with entry ``a`` against pivot ``p`` and ``g = gcd(p, a)``,
    becomes ``(p/g)·r − (a/g)·pivot_row`` and is divided by the gcd of its
    entries.  Neither step changes the span over the rationals, and all
    arithmetic stays in exact integers.  A column→rows index is kept up to
    date, so a step touches only the rows that meet its pivot column.
    """
    work: dict[int, dict[int, int]] = {}
    rows_of: dict[int, set[int]] = {}
    queue: list[tuple[int, int]] = []  # (length, row id); stale entries skipped
    for r, row in enumerate(rows):
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        sparse = {c: v for c, v in items if v}
        if not sparse:
            continue
        _divide_content(sparse)
        work[r] = sparse
        for c in sparse:
            rows_of.setdefault(c, set()).add(r)
        queue.append((len(sparse), r))
    heapq.heapify(queue)
    found = 0
    while queue:
        length, r = heapq.heappop(queue)
        pivot_row = work.get(r)
        if pivot_row is None or len(pivot_row) != length:
            continue
        del work[r]
        for c in pivot_row:
            rows_of[c].discard(r)
        col = min(pivot_row, key=lambda c: (len(rows_of[c]), abs(pivot_row[c])))
        p = pivot_row[col]
        rest = [(c, v) for c, v in pivot_row.items() if c != col]
        for r2 in rows_of.pop(col):
            row = work[r2]
            a = row.pop(col)
            g = math.gcd(p, a)
            keep, take = p // g, a // g
            if keep != 1:
                for c in row:
                    row[c] *= keep
            for c, v in rest:
                value = row.get(c, 0) - take * v
                if value:
                    if c not in row:
                        rows_of[c].add(r2)
                    row[c] = value
                elif c in row:
                    del row[c]
                    rows_of[c].discard(r2)
            if row:
                _divide_content(row)
                heapq.heappush(queue, (len(row), r2))
            else:
                del work[r2]
        found += 1
    return found


class LinearOperator:
    """A linear map given by its matrix; columns hold the images of basis vectors."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Union[Matrix, Sequence[Sequence[Scalar]]]):
        self.matrix = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("operators on a space must be square")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @staticmethod
    def identity(dim: int) -> "LinearOperator":
        return LinearOperator(Matrix.identity(dim))

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return self.matrix.apply(vector)

    def column(self, j: int) -> tuple[Fraction, ...]:
        """Image of the j-th basis vector."""
        return tuple(self.matrix.entries[i][j] for i in range(self.dim))

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        return LinearOperator(self.matrix.matmul(other.matrix))

    def add(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(self.matrix.add(other.matrix))

    def scale(self, c: Scalar) -> "LinearOperator":
        return LinearOperator(self.matrix.scale(c))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearOperator) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"LinearOperator({self.matrix!r})"


# ---------------------------------------------------------------------------
# structure-constant tensors
# ---------------------------------------------------------------------------

Entry = tuple[int, int, int, Fraction]


class IntegerView(NamedTuple):
    """A tensor's nonzeros as integer numerators over one shared denominator.

    Entry ``(i, j, k, c)`` of the view stands for the rational ``c / denom``;
    ``by_first``/``by_second`` group the entries like the tensor's own
    :meth:`Tensor3.by_first`/:meth:`Tensor3.by_second`.
    """

    denom: int
    nonzeros: tuple[tuple[int, int, int, int], ...]
    by_first: dict[int, list[tuple[int, int, int]]]
    by_second: dict[int, list[tuple[int, int, int]]]


class Tensor3:
    """Structure constants of one bilinear operation on an n-dim space.

    Storage is sparse: the sorted tuple of nonzero entries ``(i, j, k, c)``,
    each saying that op(e_i, e_j) has coefficient c on e_k.  Build instances
    with :meth:`from_sparse` (or :func:`combine` / :func:`twist`); they are
    immutable, and the index groupings used by the nested-composition
    helpers, with their integer form :meth:`integer_view`, are cached
    lazily.  :attr:`entries` is a dense ``entries[i][j][k]`` view, built on
    each access and never stored.
    """

    __slots__ = ("dim", "_nonzeros", "_by_first", "_by_second", "_integer")

    def __init__(self, dim: int, nonzeros: tuple[Entry, ...]):
        """Wrap entries that are already sorted, in range and nonzero."""
        self.dim = dim
        self._nonzeros = nonzeros
        self._by_first: dict[int, list[tuple[int, int, Fraction]]] | None = None
        self._by_second: dict[int, list[tuple[int, int, Fraction]]] | None = None
        self._integer: IntegerView | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Tensor3":
        return Tensor3.from_sparse(dim, ())

    @staticmethod
    def from_sparse(
        dim: int, items: Iterable[tuple[int, int, int, Scalar]]
    ) -> "Tensor3":
        """Sum the given entries; repeated indices accumulate.

        Every index must be an int in ``[0, dim)``; anything else raises
        ValueError, so malformed envelope data never wraps around.
        """
        acc: dict[tuple[int, int, int], Fraction] = {}
        for i, j, k, c in items:
            check_indices("tensor", dim, i, j, k)
            key = (i, j, k)
            acc[key] = acc.get(key, ZERO) + rat(c)
        return _from_accumulated(dim, acc)

    # -- views ----------------------------------------------------------------

    def nonzeros(self) -> tuple[Entry, ...]:
        """The stored entries, sorted by (i, j, k)."""
        return self._nonzeros

    @property
    def entries(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense view: ``entries[i][j][k]`` is the e_k coefficient of op(e_i, e_j)."""
        n = self.dim
        return tuple(tuple(self.row(i, j) for j in range(n)) for i in range(n))

    def row(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Dense coefficient vector of op(e_i, e_j)."""
        out = [ZERO] * self.dim
        for j2, k, c in self.by_first().get(i, ()):
            if j2 == j:
                out[k] = c
        return tuple(out)

    def by_first(self) -> dict[int, list[tuple[int, int, Fraction]]]:
        """a -> [(j, k, c)] with op(e_a, e_j) having coefficient c on e_k."""
        if self._by_first is None:
            groups: dict[int, list[tuple[int, int, Fraction]]] = {}
            for i, j, k, c in self._nonzeros:
                groups.setdefault(i, []).append((j, k, c))
            self._by_first = groups
        return self._by_first

    def by_second(self) -> dict[int, list[tuple[int, int, Fraction]]]:
        """a -> [(i, k, c)] with op(e_i, e_a) having coefficient c on e_k."""
        if self._by_second is None:
            groups: dict[int, list[tuple[int, int, Fraction]]] = {}
            for i, j, k, c in self._nonzeros:
                groups.setdefault(j, []).append((i, k, c))
            self._by_second = groups
        return self._by_second

    def integer_view(self) -> IntegerView:
        """The entries as integer numerators over one shared denominator."""
        if self._integer is None:
            denom = math.lcm(*(c.denominator for *_, c in self._nonzeros))
            nonzeros = tuple(
                (i, j, k, c.numerator * (denom // c.denominator))
                for i, j, k, c in self._nonzeros
            )
            by_first: dict[int, list[tuple[int, int, int]]] = {}
            by_second: dict[int, list[tuple[int, int, int]]] = {}
            for i, j, k, c in nonzeros:
                by_first.setdefault(i, []).append((j, k, c))
                by_second.setdefault(j, []).append((i, k, c))
            self._integer = IntegerView(denom, nonzeros, by_first, by_second)
        return self._integer

    # -- algebra -------------------------------------------------------------

    def apply(
        self, x: Sequence[Fraction], y: Sequence[Fraction]
    ) -> tuple[Fraction, ...]:
        """Evaluate the bilinear operation on two coefficient vectors."""
        if not len(x) == len(y) == self.dim:
            raise ValueError("dimension mismatch")
        out = [ZERO] * self.dim
        by_first = self.by_first()
        for i, xi in enumerate(x):
            if xi == 0 or i not in by_first:
                continue
            for j, k, c in by_first[i]:
                yj = y[j]
                if yj != 0:
                    out[k] += xi * yj * c
        return tuple(out)

    def add(self, other: "Tensor3") -> "Tensor3":
        return combine(self.dim, [(ONE, self), (ONE, other)])

    def sub(self, other: "Tensor3") -> "Tensor3":
        return combine(self.dim, [(ONE, self), (-ONE, other)])

    def scale(self, c: Scalar) -> "Tensor3":
        c = rat(c)
        if c == 0:
            return Tensor3(self.dim, ())
        return Tensor3(self.dim, tuple((i, j, k, c * v) for i, j, k, v in self._nonzeros))

    def swap_args(self) -> "Tensor3":
        """The opposite operation: op'(x, y) = op(y, x)."""
        return Tensor3(
            self.dim, tuple(sorted((j, i, k, c) for i, j, k, c in self._nonzeros))
        )

    def is_zero(self) -> bool:
        return not self._nonzeros

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tensor3)
            and self.dim == other.dim
            and self._nonzeros == other._nonzeros
        )

    def __hash__(self) -> int:
        return hash((self.dim, self._nonzeros))

    def __repr__(self) -> str:
        return f"Tensor3(dim={self.dim}, nonzeros={len(self._nonzeros)})"


def check_indices(what: str, dim: int, *indices: object) -> None:
    """Raise ValueError unless every index is an int in ``[0, dim)``."""
    for index in indices:
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < dim:
            raise ValueError(f"{what} index {index!r} out of range for dimension {dim}")


def _from_accumulated(dim: int, acc: dict[tuple[int, int, int], Fraction]) -> Tensor3:
    return Tensor3(
        dim, tuple((i, j, k, c) for (i, j, k), c in sorted(acc.items()) if c != 0)
    )


def combine(dim: int, terms: Iterable[tuple[Scalar, Tensor3]]) -> Tensor3:
    """Exact linear combination of structure tensors."""
    acc: dict[tuple[int, int, int], Fraction] = {}
    for coeff, tensor in terms:
        coeff = rat(coeff)
        if coeff == 0:
            continue
        if tensor.dim != dim:
            raise ValueError("dimension mismatch in combination")
        for i, j, k, c in tensor.nonzeros():
            key = (i, j, k)
            acc[key] = acc.get(key, ZERO) + coeff * c
    return _from_accumulated(dim, acc)


def _sparse_lines(
    op: LinearOperator | None, dim: int, columns: bool
) -> list[list[tuple[int, Fraction]]]:
    """Nonzeros of each matrix row (or column) of op; None is the identity."""
    if op is None:
        return [[(a, ONE)] for a in range(dim)]
    if op.dim != dim:
        raise ValueError("operator/tensor dimension mismatch")
    lines = zip(*op.matrix.entries) if columns else op.matrix.entries
    return [[(i, c) for i, c in enumerate(line) if c != 0] for line in lines]


def twist(
    op: Tensor3,
    left: LinearOperator | None = None,
    right: LinearOperator | None = None,
    post: LinearOperator | None = None,
) -> Tensor3:
    """The operation (x, y) -> post(op(left(x), right(y))).

    An omitted operator is the identity.  Every construction from Baxter
    operators, and both sides of every operator identity, is a linear
    combination of such twists of one product.
    """
    n = op.dim
    # rows of left/right: which basis vectors feed e_a; columns of post:
    # where e_k goes
    from_left = _sparse_lines(left, n, columns=False)
    from_right = _sparse_lines(right, n, columns=False)
    images = _sparse_lines(post, n, columns=True)
    acc: dict[tuple[int, int, int], Fraction] = {}
    for a, b, k, c in op.nonzeros():
        for i, ci in from_left[a]:
            for j, cj in from_right[b]:
                cij = c * ci * cj
                for m, cm in images[k]:
                    key = (i, j, m)
                    acc[key] = acc.get(key, ZERO) + cij * cm
    return _from_accumulated(n, acc)


def first_row_difference(
    lhs: Tensor3, rhs: Tensor3
) -> tuple[tuple[int, int], tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """Smallest basis pair (i, j) on which two operations differ, if any,
    with the dense values op(e_i, e_j) of both sides."""
    if lhs.dim != rhs.dim:
        raise ValueError("dimension mismatch in comparison")
    left, right = lhs.nonzeros(), rhs.nonzeros()
    if left == right:
        return None
    # entries are sorted by (i, j, k): the first position where the two
    # lists disagree lies in the first row that differs
    p = next(
        (q for q, (a, b) in enumerate(zip(left, right)) if a != b),
        min(len(left), len(right)),
    )
    pair = min(entry[:2] for entry in left[p:p + 1] + right[p:p + 1])
    return pair, lhs.row(*pair), rhs.row(*pair)


# ---------------------------------------------------------------------------
# nested composition (the engine behind every quadratic-identity check)
# ---------------------------------------------------------------------------
#
# A quadratic identity compares sums of left-nested terms  outer(inner(x,y), z)
# against sums of right-nested terms  outer(x, inner(y, z)).  The residual
# kernel clears all denominators once per identity and sums integer products
# of sparse entries, so no Fraction is touched in the inner loop; the exact
# values of both sides are rebuilt only at a witness triple.  The
# Fraction-valued composition maps below serve the remaining checkers.

NestedTerm = tuple[Fraction, Tensor3, Tensor3]  # (coeff, inner, outer)


def nested_residual(
    left_terms: Sequence[NestedTerm], right_terms: Sequence[NestedTerm]
) -> dict[tuple[int, int, int, int], int]:
    """Nonzero entries of L * (sum left - sum right) as exact integers.

    A left term ``(c, inner, outer)`` stands for c * outer(inner(x, y), z),
    a right term for c * outer(x, inner(y, z)); the result maps
    ``(x, y, z, m)`` to the e_m coefficient on the basis triple (x, y, z).
    L > 0 is the lcm of the denominators of every term's scale
    c / (D_inner * D_outer), D being a tensor's shared denominator, so the
    residual is zero exactly where the two sides agree.
    """
    weighted = []
    dims = set()
    for sign, left_nested, terms in ((1, True, left_terms), (-1, False, right_terms)):
        for coeff, inner, outer in terms:
            if coeff == 0:
                continue
            dims.update((inner.dim, outer.dim))
            vi, vo = inner.integer_view(), outer.integer_view()
            scale = sign * Fraction(coeff) / (vi.denom * vo.denom)
            weighted.append((scale, left_nested, vi, vo))
    if len(dims) > 1:
        raise ValueError("dimension mismatch in nested composition")
    n = dims.pop() if dims else 0
    n2, n3 = n * n, n * n * n
    common = math.lcm(*(scale.denominator for scale, *_ in weighted))
    # keys are packed as ((x*n + y)*n + z)*n + m while summing
    acc: dict[int, int] = {}
    get = acc.get
    for scale, left_nested, vi, vo in weighted:
        w = scale.numerator * (common // scale.denominator)
        if left_nested:
            # (i, j) -> a under inner, then (a, k) -> m under outer
            rows = vo.by_first
            for i, j, a, c in vi.nonzeros:
                row = rows.get(a)
                if row:
                    wc, base = w * c, (i * n + j) * n2
                    for k, m, c2 in row:
                        key = base + k * n + m
                        acc[key] = get(key, 0) + wc * c2
        else:
            # (j, k) -> a under inner, then (i, a) -> m under outer
            cols = vo.by_second
            for j, k, a, c in vi.nonzeros:
                col = cols.get(a)
                if col:
                    wc, base = w * c, (j * n + k) * n
                    for i, m, c2 in col:
                        key = base + i * n3 + m
                        acc[key] = get(key, 0) + wc * c2
    out: dict[tuple[int, int, int, int], int] = {}
    for key, value in acc.items():
        if value:
            xy, zm = divmod(key, n2)
            out[divmod(xy, n) + divmod(zm, n)] = value
    return out


def nested_value(
    terms: Sequence[NestedTerm], left_nested: bool, triple: tuple[int, int, int]
) -> dict[int, Fraction]:
    """Exact nonzero coefficients {m: c} of one identity side at one triple."""
    x, y, z = triple
    out: dict[int, Fraction] = {}
    for coeff, inner, outer in terms:
        if coeff == 0:
            continue
        if left_nested:
            mids = [(a, c) for j, a, c in inner.by_first().get(x, ()) if j == y]
            for a, c in mids:
                for k, m, c2 in outer.by_first().get(a, ()):
                    if k == z:
                        out[m] = out.get(m, ZERO) + coeff * c * c2
        else:
            mids = [(a, c) for k, a, c in inner.by_first().get(y, ()) if k == z]
            for a, c in mids:
                for i, m, c2 in outer.by_second().get(a, ()):
                    if i == x:
                        out[m] = out.get(m, ZERO) + coeff * c * c2
    return {m: c for m, c in out.items() if c != 0}


def first_nested_difference(
    left_terms: Sequence[NestedTerm],
    right_terms: Sequence[NestedTerm],
    skip: Container[tuple[int, int, int]] = (),
) -> tuple[tuple[int, int, int], dict[int, Fraction], dict[int, Fraction]] | None:
    """Smallest basis triple outside ``skip`` where the two sides differ,
    with the exact values of both sides there, if any."""
    residual = nested_residual(left_terms, right_terms)
    triple = min((key[:3] for key in residual if key[:3] not in skip), default=None)
    if triple is None:
        return None
    return (
        triple,
        nested_value(left_terms, True, triple),
        nested_value(right_terms, False, triple),
    )


CompositionMap = dict[tuple[int, int, int], dict[int, Fraction]]


def compose_left(inner: Tensor3, outer: Tensor3) -> CompositionMap:
    """Coefficients of outer(inner(x, y), z) on basis triples (x, y, z)."""
    result: CompositionMap = {}
    outer_rows = outer.by_first()
    for i, j, a, c in inner.nonzeros():
        rows = outer_rows.get(a)
        if not rows:
            continue
        for k, m, c2 in rows:
            bucket = result.setdefault((i, j, k), {})
            bucket[m] = bucket.get(m, ZERO) + c * c2
    return result


def compose_right(inner: Tensor3, outer: Tensor3) -> CompositionMap:
    """Coefficients of outer(x, inner(y, z)) on basis triples (x, y, z)."""
    result: CompositionMap = {}
    outer_cols = outer.by_second()
    for j, k, a, c in inner.nonzeros():
        cols = outer_cols.get(a)
        if not cols:
            continue
        for i, m, c2 in cols:
            bucket = result.setdefault((i, j, k), {})
            bucket[m] = bucket.get(m, ZERO) + c * c2
    return result


def accumulate(
    total: CompositionMap, part: CompositionMap, coeff: Fraction
) -> None:
    """total += coeff * part, in place."""
    if coeff == 0:
        return
    for key, bucket in part.items():
        out = total.setdefault(key, {})
        for m, c in bucket.items():
            out[m] = out.get(m, ZERO) + coeff * c


def first_discrepancy(
    lhs: CompositionMap, rhs: CompositionMap
) -> tuple[tuple[int, int, int], dict[int, Fraction], dict[int, Fraction]] | None:
    """Smallest basis triple where two composition maps disagree, if any."""
    worst = None
    for key in lhs.keys() | rhs.keys():
        lvec = {m: c for m, c in lhs.get(key, {}).items() if c != 0}
        rvec = {m: c for m, c in rhs.get(key, {}).items() if c != 0}
        if lvec != rvec and (worst is None or key < worst):
            worst = key
    if worst is None:
        return None
    lvec = {m: c for m, c in lhs.get(worst, {}).items() if c != 0}
    rvec = {m: c for m, c in rhs.get(worst, {}).items() if c != 0}
    return worst, lvec, rvec
