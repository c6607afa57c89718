"""Exact rational linear algebra: ranks, linear operators, structure-constant tensors.

Every value in this package is an exact rational, so all checks are exact —
a failed identity is a real counterexample, never roundoff.  Operators,
tensors and coproducts (each stored as its dual product, a tensor) hold
integer numerators over one shared denominator; Fractions appear only in
their views and in the witness values read from them.

The two workhorses are:

* :func:`rank_int_rows` — exact rank by sparse fraction-free elimination
  over the integers (rows as ``{col: int}`` maps, a column→rows index,
  Markowitz-style pivots, each updated row divided by its content), used
  for the degree-3 dimension counts of quadratic presentations, whose
  rational rows :func:`integer_row` clears of denominators;
* :class:`Tensor3` — structure constants of a bilinear operation
  (``z = op(x, y)`` has coefficients ``z_k = sum x_i y_j c[i][j][k]``),
  stored as its sorted nonzero entries ``(i, j, k, n)`` with integer
  numerators over one shared denominator, in lowest terms.  Fractions
  appear only in its views (:meth:`Tensor3.nonzeros`, :meth:`Tensor3.row`
  and a dense ``entries[i][j][k]``), built on demand for witnesses, JSON
  output and tests.  A :class:`LinearOperator` is stored the same way, as
  its sorted nonzero entries ``(i, j, n)``, with a dense ``entries`` view
  for its envelope.

That format is implemented once, in :class:`IntegerSparse`, the base of
both classes: lowest terms (:meth:`~IntegerSparse.from_sorted`), the sum of
repeated indices (:meth:`~IntegerSparse.from_numerators`), ``scale``,
equality, hashing and ``repr``.  Every operation on operators and tensors
works on the numerators: :func:`combine`, the one sum, clears each term's
scale to an integer weight over one common denominator, ``scale`` and
:meth:`Tensor3.permuted` rewrite the numerators, :func:`kron` multiplies
them pairwise, :meth:`LinearOperator.compose` sums integer products row by
row, and :func:`twist`, the operation ``(x, y) -> P(op(M x, N y))`` from
which every Baxter-operator construction and both sides of every operator
identity are combined, multiplies the operators' denominators once.  Two
operations differ exactly where their difference ``lhs.sub(rhs)`` has
entries, and its first entry is the smallest basis pair that fails.
The kernel of every quadratic-identity check clears the remaining
denominators once per identity and sums integer products only, one slice
of basis triples (x, ., .) at a time, in increasing x, from groupings
cached on the tensors with their keys packed:
:func:`first_nested_difference` stops at the first slice with a failing
triple, :func:`nested_residual` collects every slice, and
:func:`nested_value` reads one slice for the exact rational values of an
identity side at a witness triple.  An identity is data for them: a list
of left-nested terms outer(inner(u, v), w) and one of right-nested terms
outer(u, inner(v, w)), each term a coefficient, two tensors and optionally
an argument order saying how (u, v, w) permutes the basis triple (x, y, z),
so identities that permute their variables (pre-Lie, Jacobi) are data too.
The coalgebra identities (on the stored dual products) and the t-twisted
bialgebra compatibility (its indices (i, j, a, b) in the slots
(x, y, z, m), through permuted tensors) are checked the same way.
Only the order-by-order deformation check still reads the Fraction
composition maps (:func:`compose_left`, :func:`compose_right`).

A structure's whole list of identities goes through
:func:`first_nested_differences`, which builds every identity's plans, and
so every grouping, in this process first.  On a space of dimension 30 or
more, where ``os.fork`` exists, no second thread runs and more than one CPU
is usable, it forks W - 1 workers, W being at most the usable CPUs and the
number of identities.  This process and each worker take every W-th
identity, the workers reading the groupings copy-on-write and pickling
their results back through a pipe, and the results are merged in identity
order, so they are the serial ones.
"""

from __future__ import annotations

import bisect
import heapq
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: Scalar) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction to an exact rational.  A string
    whose exponent would make an integer of more digits than the interpreter
    reads or prints (``sys.get_int_max_str_digits()``) is refused before
    Fraction builds it: ``Fraction("1e10000000")`` alone takes seconds."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        limit = sys.get_int_max_str_digits()
        try:  # without an exponent, Fraction reads or refuses the spelling
            digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent))
        except ValueError:
            digits = 0
        if limit and digits > limit:
            raise ValueError(f"scalar {value!r} needs more than {limit} digits")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


def integer_row(values: Mapping[int, Scalar]) -> dict[int, int]:
    """The nonzero entries of a rational row as integers: every entry is
    multiplied by the lcm of the denominators, so the row spans the same line
    over the rationals."""
    nonzero = {c: q for c, v in values.items() if (q := rat(v))}
    scale = math.lcm(*(q.denominator for q in nonzero.values()))
    return {c: q.numerator * (scale // q.denominator) for c, q in nonzero.items()}


def _divide_content(row: dict[int, int]) -> None:
    content = math.gcd(*row.values())
    if content != 1:
        for c in row:
            row[c] //= content


def rank_int_rows(rows: Iterable[Mapping[int, int]]) -> int:
    """Exact rank over the rationals of integer rows, each a ``{col: int}``
    map of its entries, by sparse fraction-free elimination.

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
        sparse = {c: v for c, v in row.items() if v}
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


def _content(denom: int, numerators: Iterable[int]) -> int:
    """gcd of a denominator and numerators, stopping once it reaches 1."""
    g = denom
    for n in numerators:
        if g == 1:
            break
        g = math.gcd(g, n)
    return g


# ---------------------------------------------------------------------------
# the integer sparse format
# ---------------------------------------------------------------------------


class IntegerSparse:
    """The exact storage of operators and tensors: ``dim``, a denominator
    ``denom`` D > 0 and the sorted tuple ``numerators`` of nonzero entries
    ``(*index, n)`` with integer n, each standing for n / D.  The form is
    kept in lowest terms (D is the lcm of the entries' reduced denominators,
    1 for zero), so equal objects have equal storage and equal hashes.

    ``cls(dim, denom, numerators)`` wraps that complete form;
    :meth:`from_sorted` divides out a common factor and
    :meth:`from_numerators` sums repeated indices first.  Instances are
    immutable.
    """

    __slots__ = ("dim", "denom", "numerators")

    def __init__(self, dim: int, denom: int, numerators: tuple):
        """Wrap numerators that are already sorted, in range, nonzero and in
        lowest terms with ``denom``."""
        self.dim = dim
        self.denom = denom
        self.numerators = numerators

    @classmethod
    def from_sorted(cls, dim: int, denom: int, entries: Sequence[tuple]):
        """From sorted, distinct, nonzero numerators over ``denom`` > 0, with
        the common factor of the denominator and every numerator divided
        out."""
        g = _content(denom, (entry[-1] for entry in entries))
        if g != 1:
            entries = [entry[:-1] + (entry[-1] // g,) for entry in entries]
        return cls(dim, denom // g, tuple(entries))

    @classmethod
    def from_numerators(cls, dim: int, denom: int, items: Iterable[tuple]):
        """Sum integer entries ``(*index, n)``, each standing for n / denom
        (denom > 0); repeated indices accumulate.  The indices must already
        be ints in ``[0, dim)``: outside data goes through
        :meth:`Tensor3.from_sparse` or :meth:`LinearOperator.from_rows`."""
        acc: dict[tuple, int] = {}
        get = acc.get
        for entry in items:
            key = entry[:-1]
            acc[key] = get(key, 0) + entry[-1]
        return cls._from_sums(dim, denom, acc)

    @classmethod
    def _from_sums(cls, dim: int, denom: int, acc: Mapping[tuple, int]):
        """From integer sums over ``denom`` keyed by index; zero sums drop."""
        return cls.from_sorted(dim, denom, [key + (n,) for key, n in sorted(acc.items()) if n])

    def scale(self, c: Scalar):
        c = rat(c)
        p = c.numerator
        return self.from_sorted(
            self.dim,
            self.denom * c.denominator,
            [entry[:-1] + (p * entry[-1],) for entry in self.numerators] if p else [],
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and self.denom == other.denom
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.denom, self.numerators))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, nonzeros={len(self.numerators)})"


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

OpEntry = tuple[int, int, int]


class LinearOperator(IntegerSparse):
    """A linear map on an n-dim space; column j holds the image of e_j.

    Its entries ``(i, j, n)`` say that the image of e_j has coefficient n / D
    on e_i.  The rows are runs of ``numerators``; :func:`twist` and
    :meth:`compose` group rows or columns from them on each call, and
    nothing else is kept.

    :meth:`from_rows` reads dense rows of exact scalars (envelopes, tests).
    :attr:`entries` is a dense Fraction view, built on demand.
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "LinearOperator":
        """Operator from dense square rows of exact scalars, ``rows[i][j]``
        being the e_i coefficient of the image of e_j."""
        grid = [[rat(v) for v in row] for row in rows]
        if any(len(row) != len(grid) for row in grid):
            raise ValueError("operators on a space must be square")
        nonzero = [(i, j, q) for i, row in enumerate(grid) for j, q in enumerate(row) if q]
        # the lcm of reduced denominators leaves the numerators in lowest terms
        d = math.lcm(*(q.denominator for *_, q in nonzero))
        return LinearOperator(
            len(grid), d, tuple((i, j, q.numerator * (d // q.denominator)) for i, j, q in nonzero)
        )

    # -- Fraction views -------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows: ``entries[i][j]`` is the e_i coefficient of the image of e_j."""
        grid = [[ZERO] * self.dim for _ in range(self.dim)]
        for i, j, n in self.numerators:
            grid[i][j] = Fraction(n, self.denom)
        return tuple(map(tuple, grid))

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        if other.dim != self.dim:
            raise ValueError("operator product dimension mismatch")
        rows = _lines(other, columns=False)
        return LinearOperator.from_numerators(
            self.dim,
            self.denom * other.denom,
            ((i, k, a * b) for i, j, a in self.numerators for _, k, b in rows[j]),
        )


def _lines(op: LinearOperator, columns: bool) -> list[list[OpEntry]]:
    """The entries ``(i, j, n)`` of op grouped by row i (or by column j),
    as references to its own numerators, built on every call."""
    lines: list[list[OpEntry]] = [[] for _ in range(op.dim)]
    axis = 1 if columns else 0
    for entry in op.numerators:
        lines[entry[axis]].append(entry)
    return lines


# ---------------------------------------------------------------------------
# structure-constant tensors
# ---------------------------------------------------------------------------

Entry = tuple[int, int, int, Fraction]
IntEntry = tuple[int, int, int, int]


class Tensor3(IntegerSparse):
    """Structure constants of one bilinear operation on an n-dim space.

    Its entries ``(i, j, k, n)`` say that op(e_i, e_j) has coefficient n / D
    on e_k.  Build instances with :meth:`from_sparse`,
    :meth:`from_numerators` or :meth:`from_sorted` (or :func:`combine` /
    :func:`twist`); the integer index groupings read by the kernels
    (:meth:`runs` and :meth:`packed`) are cached lazily.

    :meth:`nonzeros`, :meth:`row` and :attr:`entries` are Fraction views for
    witnesses, JSON output and tests; each is rebuilt on every call and never
    stored.
    """

    __slots__ = ("_groupings",)

    def __init__(self, dim: int, denom: int, numerators: tuple[IntEntry, ...]):
        """Wrap numerators that are already in the stored form."""
        self.dim = dim
        self.denom = denom
        self.numerators = numerators
        self._groupings: dict[tuple, dict] = {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Tensor3":
        return Tensor3(dim, 1, ())

    @staticmethod
    def from_sparse(
        dim: int, items: Iterable[tuple[int, int, int, Scalar]]
    ) -> "Tensor3":
        """Sum the given entries; repeated indices accumulate.

        Every index must be an int in ``[0, dim)``; anything else raises
        ValueError, so malformed envelope data never wraps around.  The sum
        runs in integers over the lcm of the denominators seen so far.
        """
        acc: dict[tuple[int, int, int], int] = {}
        denom = 1
        for i, j, k, c in items:
            check_indices("tensor", dim, i, j, k)
            if type(c) is int:
                num, den = c, 1
            else:
                q = rat(c)
                num, den = q.numerator, q.denominator
                if denom % den:
                    grow = den // math.gcd(denom, den)
                    denom *= grow
                    for key in acc:
                        acc[key] *= grow
            key = (i, j, k)
            acc[key] = acc.get(key, 0) + num * (denom // den)
        return Tensor3._from_sums(dim, denom, acc)

    # -- Fraction views -------------------------------------------------------

    def nonzeros(self) -> tuple[Entry, ...]:
        """The entries as exact rationals, sorted by (i, j, k)."""
        d = self.denom
        return tuple((i, j, k, Fraction(n, d)) for i, j, k, n in self.numerators)

    @property
    def entries(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense view: ``entries[i][j][k]`` is the e_k coefficient of op(e_i, e_j)."""
        n, d = self.dim, self.denom
        grid = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in self.numerators:
            grid[i][j][k] = Fraction(c, d)
        return tuple(tuple(tuple(row) for row in plane) for plane in grid)

    def row(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Dense coefficient vector of op(e_i, e_j)."""
        out = [ZERO] * self.dim
        nums = self.numerators
        # the entries of (i, j) are one run of the sorted numerators
        p = bisect.bisect_left(nums, (i, j))
        while p < len(nums) and nums[p][0] == i and nums[p][1] == j:
            out[nums[p][2]] = Fraction(nums[p][3], self.denom)
            p += 1
        return tuple(out)

    # -- integer groupings (cached) ------------------------------------------

    def runs(self, axis: int) -> dict[int, list[IntEntry]]:
        """a -> the entries ``(i, j, k, n)`` whose index at ``axis`` is a, in
        sorted order; for axis 0 each is a run of ``numerators``."""
        key = ("runs", axis)
        groups = self._groupings.get(key)
        if groups is None:
            groups = self._groupings[key] = {}
            for entry in self.numerators:
                index = entry[axis]
                if index in groups:
                    groups[index].append(entry)
                else:
                    groups[index] = [entry]
        return groups

    def packed(self, axis: int, wa: int, wb: int) -> dict[int, list[tuple[int, int]]]:
        """a -> [(p, n)] over the entries whose index at ``axis`` is a, the
        other two indices packed as ``p = first*wa + second*wb`` (in (i, j, k)
        order), so a kernel key is one addition away."""
        key = ("packed", axis, wa, wb)
        groups = self._groupings.get(key)
        if groups is None:
            groups = self._groupings[key] = {}
            a, b = (p for p in range(3) if p != axis)
            for entry in self.numerators:
                index, pair = entry[axis], (entry[a] * wa + entry[b] * wb, entry[3])
                if index in groups:
                    groups[index].append(pair)
                else:
                    groups[index] = [pair]
        return groups

    # -- algebra -------------------------------------------------------------

    def sub(self, other: "Tensor3") -> "Tensor3":
        return combine(self.dim, [(ONE, self), (-ONE, other)])

    def permuted(self, order: Sequence[int]) -> "Tensor3":
        """The entry at e = (i, j, k) moved to (e[order[0]], e[order[1]],
        e[order[2]]); (1, 0, 2) gives the opposite operation."""
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"{order!r} is not a permutation of (0, 1, 2)")
        a, b, c = order
        moved = sorted((e[a], e[b], e[c], e[3]) for e in self.numerators)
        return Tensor3(self.dim, self.denom, tuple(moved))

    def swap_args(self) -> "Tensor3":
        """The opposite operation: op'(x, y) = op(y, x)."""
        return self.permuted((1, 0, 2))

    def is_zero(self) -> bool:
        return not self.numerators


def check_indices(what: str, dim: int, *indices: object) -> None:
    """Raise ValueError unless every index is an int in ``[0, dim)``."""
    for index in indices:
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < dim:
            raise ValueError(f"{what} index {index!r} out of range for dimension {dim}")


def combine(dim: int, terms: Iterable[tuple[Scalar, Tensor3]]) -> Tensor3:
    """Exact linear combination of structure tensors.

    Each term's scale coeff / D is cleared to an integer weight over the lcm
    of those scales' denominators, so the sum runs over integer numerators.
    A lone term with coefficient 1 is returned as it is (tensors are
    immutable), so a generator resolved as an operation shares its storage
    and cached groupings.
    """
    kept = []
    for coeff, tensor in terms:
        coeff = rat(coeff)
        if coeff == 0:
            continue
        if tensor.dim != dim:
            raise ValueError("dimension mismatch in combination")
        kept.append((coeff, tensor))
    if len(kept) == 1 and kept[0][0] == 1:
        return kept[0][1]
    weighted = [(coeff / tensor.denom, tensor.numerators) for coeff, tensor in kept]
    common = math.lcm(*(scale.denominator for scale, _ in weighted))
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for scale, numerators in weighted:
        w = scale.numerator * (common // scale.denominator)
        for i, j, k, n in numerators:
            key = (i, j, k)
            acc[key] = get(key, 0) + w * n
    return Tensor3._from_sums(dim, common, acc)


def kron(a: Tensor3, b: Tensor3) -> Tensor3:
    """Kronecker product tensor; pair (p, q) sits at index p * b.dim + q."""
    nb = b.dim
    items = [
        (i1 * nb + i2, j1 * nb + j2, k1 * nb + k2, c1 * c2)
        for i1, j1, k1, c1 in a.numerators
        for i2, j2, k2, c2 in b.numerators
    ]
    return Tensor3.from_numerators(a.dim * nb, a.denom * b.denom, items)


def _integer_lines(
    op: LinearOperator | None, dim: int, columns: bool
) -> tuple[int, list[list[OpEntry]]]:
    """The denominator of op and its entries grouped by row (or column);
    None is the identity."""
    if op is None:
        return 1, [[(a, a, 1)] for a in range(dim)]
    if op.dim != dim:
        raise ValueError("operator/tensor dimension mismatch")
    return op.denom, _lines(op, columns)


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
    d_left, from_left = _integer_lines(left, n, columns=False)
    d_right, from_right = _integer_lines(right, n, columns=False)
    d_post, images = _integer_lines(post, n, columns=True)
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for a, b, k, c in op.numerators:
        for _, i, ci in from_left[a]:
            for _, j, cj in from_right[b]:
                cij = c * ci * cj
                for m, _, cm in images[k]:
                    key = (i, j, m)
                    acc[key] = get(key, 0) + cij * cm
    return Tensor3._from_sums(n, op.denom * d_left * d_right * d_post, acc)


# ---------------------------------------------------------------------------
# nested composition (the engine behind every quadratic-identity check)
# ---------------------------------------------------------------------------
#
# A quadratic identity compares sums of left-nested terms  outer(inner(u,v), w)
# against sums of right-nested terms  outer(u, inner(v, w)), where (u, v, w)
# is the basis triple (x, y, z) read in the term's argument order.  The
# residual kernel clears all denominators once per identity and sums integer
# products of sparse entries, so no Fraction is touched in the inner loop.
# It sums one x-slice at a time into a fresh dict keyed (y*n + z)*n + m
# (row-wise, as in Gustavson's sparse product), so its memory is one slice
# and a scan for the smallest failing triple can stop at the first failing
# slice; the exact values of both sides are rebuilt only at a witness
# triple.  The composition maps below, which the deformation series check
# reads, also sum integer products and turn each sum into a Fraction once.

NestedTerm = tuple  # (coeff, inner, outer) or (coeff, inner, outer, order)

# Routes to the x-slice.  A left-nested term outer(inner(u, v), w) joins
# inner (u, v) -> a with outer (a, w) -> m; a right-nested term
# outer(u, inner(v, w)) joins inner (v, w) -> a with outer (u, a) -> m.
# Whichever slot holds the triple's x, one tensor is walked by that index
# (its runs), and each walked entry picks, by its link index a, one group
# of the other tensor whose two remaining indices are packed into the key.
# A route is (walked tensor, its axis, position of the free index in a
# walked entry, the slot that index fills, position of the link index,
# grouped tensor, its axis, the slots of its two packed indices), with
# tensors 0 = inner, 1 = outer and slots 0, 1, 2, 3 = u, v, w, m; there is
# one route per nesting and slot of x.
_ROUTES = {
    True: (  # left-nested, x = u, v, w
        (0, 0, 1, 1, 2, 1, 0, (2, 3)),
        (0, 1, 0, 0, 2, 1, 0, (2, 3)),
        (1, 1, 2, 3, 0, 0, 2, (0, 1)),
    ),
    False: (  # right-nested, x = u, v, w
        (1, 0, 2, 3, 1, 0, 2, (1, 2)),
        (0, 0, 1, 2, 2, 1, 1, (0, 3)),
        (0, 1, 0, 1, 2, 1, 1, (0, 3)),
    ),
}


def _slice_plans(
    sides: Iterable[tuple[int, bool, Sequence[NestedTerm]]]
) -> tuple[int, int, list[tuple]]:
    """Each nonzero term of the given (sign, left_nested, terms) sides as a
    plan ``(weight, runs, free, free_weight, link, groups)`` for
    :func:`_slice`, with the dimension n and the common denominator L: the
    integer weights are L * sign * c / (D_inner * D_outer)."""
    weighted = []
    dims = set()
    for sign, left_nested, terms in sides:
        for coeff, inner, outer, *order in terms:
            if coeff == 0:
                continue
            dims.update((inner.dim, outer.dim))
            q = Fraction(coeff)
            scale = Fraction(sign * q.numerator, q.denominator * inner.denom * outer.denom)
            weighted.append((scale, left_nested, inner, outer, order[0] if order else (0, 1, 2)))
    if len(dims) > 1:
        raise ValueError("dimension mismatch in nested composition")
    n = dims.pop() if dims else 0
    common = math.lcm(*(scale.denominator for scale, *_ in weighted))
    # slot weights in a slice key (y*n + z)*n + m: y counts n*n, z counts n,
    # m counts 1; x is the slice itself
    arg_weight = (0, n * n, n)
    plans = []
    for scale, left_nested, inner, outer, order in weighted:
        if not (inner.numerators and outer.numerators):
            continue  # a zero product; its scale still counts in L
        slot_weight = [arg_weight[arg] for arg in order] + [1]
        walked, axis, free, free_slot, link, grouped, group_axis, (s1, s2) = _ROUTES[
            left_nested
        ][order.index(0)]
        pair = (inner, outer)
        plans.append((
            scale.numerator * (common // scale.denominator),
            pair[walked].runs(axis),
            free,
            slot_weight[free_slot],
            link,
            pair[grouped].packed(group_axis, slot_weight[s1], slot_weight[s2]),
        ))
    return n, common, plans


def _slice(plans: list[tuple], x: int) -> dict[int, int]:
    """The x-slice of the planned terms' sum: {(y*n + z)*n + m: integer}."""
    acc: dict[int, int] = {}
    get = acc.get
    for w, runs, free, free_weight, link, groups in plans:
        entries = runs.get(x)
        if not entries:
            continue
        for entry in entries:
            group = groups.get(entry[link])
            if group:
                base, wc = entry[free] * free_weight, w * entry[3]
                for packed, c in group:
                    key = base + packed
                    acc[key] = get(key, 0) + wc * c
    return acc


def _identity_plans(
    left_terms: Sequence[NestedTerm], right_terms: Sequence[NestedTerm]
) -> tuple[int, int, list[tuple]]:
    """The plans of L * (sum left - sum right); see :func:`_slice_plans`."""
    return _slice_plans(((1, True, left_terms), (-1, False, right_terms)))


def _failing_slices(planned: tuple[int, int, list[tuple]]) -> Iterator[tuple[int, dict[int, int]]]:
    """(x, slice) for each x, in increasing order, whose slice of the
    planned residual has a nonzero entry.  Only the x that some term's walked
    tensor holds are visited, and a slice is summed only when the one before
    it has been consumed, so a caller that stops at the first failing slice
    does no further work."""
    plans = planned[2]
    for x in sorted(set().union(*(runs for _, runs, *_ in plans))):
        acc = _slice(plans, x)
        if any(acc.values()):
            yield x, acc


def nested_residual(
    left_terms: Sequence[NestedTerm], right_terms: Sequence[NestedTerm]
) -> dict[tuple[int, int, int, int], int]:
    """Nonzero entries of L * (sum left - sum right) as exact integers.

    A left term ``(c, inner, outer)`` stands for c * outer(inner(x, y), z),
    a right term for c * outer(x, inner(y, z)).  A fourth entry, an order
    σ (a permutation of (0, 1, 2)), makes the term read its arguments as
    (u, v, w) = (t[σ[0]], t[σ[1]], t[σ[2]]) for the triple t = (x, y, z):
    (1, 0, 2) swaps x and y, (1, 2, 0) turns c * outer(inner(x, y), z)
    into c * outer(inner(y, z), x).  The result maps ``(x, y, z, m)`` to
    the e_m coefficient on the basis triple (x, y, z).  L > 0 is the lcm of
    the denominators of every term's scale c / (D_inner * D_outer), D being
    a tensor's shared denominator, so the residual is zero exactly where the
    two sides agree.  The sum runs one x-slice at a time (every slice is
    collected here; :func:`first_nested_difference` stops at the first
    failing one).
    """
    planned = _identity_plans(left_terms, right_terms)
    n = planned[0]
    out: dict[tuple[int, int, int, int], int] = {}
    for x, acc in _failing_slices(planned):
        for key, value in acc.items():
            if value:
                yz, m = divmod(key, n)
                out[(x, *divmod(yz, n), m)] = value
    return out


def nested_value(
    terms: Sequence[NestedTerm], left_nested: bool, triple: tuple[int, int, int]
) -> dict[int, Fraction]:
    """Exact nonzero coefficients {m: c} of one identity side at one triple."""
    n, common, plans = _slice_plans(((1, left_nested, terms),))
    x, y, z = triple
    base = (y * n + z) * n
    acc = _slice(plans, x)
    return {m: Fraction(v, common) for m in range(n) if (v := acc.get(base + m))}


Difference = tuple[tuple[int, int, int], dict[int, Fraction], dict[int, Fraction]]
Identity = tuple[Sequence[NestedTerm], Sequence[NestedTerm]]


def _first_difference(
    left_terms: Sequence[NestedTerm],
    right_terms: Sequence[NestedTerm],
    planned: tuple[int, int, list[tuple]],
) -> Difference | None:
    n = planned[0]
    for x, acc in _failing_slices(planned):
        yz = min(key for key, value in acc.items() if value) // n
        triple = (x, *divmod(yz, n))
        return (
            triple,
            nested_value(left_terms, True, triple),
            nested_value(right_terms, False, triple),
        )
    return None


def first_nested_difference(
    left_terms: Sequence[NestedTerm], right_terms: Sequence[NestedTerm]
) -> Difference | None:
    """Smallest basis triple where the two sides differ, with the exact
    values of both sides there, if any.  Slices are summed in increasing x
    and the scan stops at the first failing one: the triple is its smallest
    failing (y, z)."""
    return _first_difference(left_terms, right_terms, _identity_plans(left_terms, right_terms))


# Below this dimension a structure's identities are checked in this process
# only: a worker costs about 2-4 ms to fork, to fault in the pages it
# touches and to reap.  check_system on End(A) of chain graphs, for the 49
# nine-op identities (2-core x86_64, Python 3.11, medians of 31 interleaved
# runs, serial vs two workers): dim 9 took 5.0 vs 8.6 ms; dims 16 and 25
# broke even within the host's drift (10-21 ms either way); dim 36 took
# 31-44 vs 23-39 ms and dim 100 262 vs 162 ms.
_FORK_MIN_DIM = 30


def _worker_count(dim: int, identities: int) -> int:
    """How many processes share a check of ``identities`` identities on a
    space of dimension ``dim``: 1 (no fork) below :data:`_FORK_MIN_DIM`,
    where ``os.fork`` is missing, while a second thread is alive (forking such
    a process can deadlock the child) or when one CPU is usable; otherwise
    the usable CPUs, at most one per identity."""
    if dim < _FORK_MIN_DIM or not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, identities)


def first_nested_differences(identities: Sequence[Identity]) -> list[Difference | None]:
    """:func:`first_nested_difference` of each ``(left_terms, right_terms)``
    identity, in order.

    Every identity's plans, and with them every tensor grouping, are built
    here first, so a malformed term list raises ValueError before any work
    is shared out.  When :func:`_worker_count` gives W > 1, W - 1 forked
    workers and this process each take every W-th identity, the workers
    reading the groupings copy-on-write; the results are merged in identity
    order, so they equal the serial ones.
    """
    plans = [_identity_plans(left, right) for left, right in identities]
    workers = _worker_count(max((n for n, *_ in plans), default=0), len(plans))

    def one(index: int) -> Difference | None:
        return _first_difference(*identities[index], plans[index])

    if workers < 2:
        return [one(index) for index in range(len(plans))]
    return _forked(one, len(plans), workers)


def _forked(job, count: int, workers: int) -> list:
    """``[job(i) for i in range(count)]``, worker w computing the i with
    i % workers == w: worker 0 is this process, the others forked children
    that pickle their results back through a pipe.  A worker's exception
    is raised again here; a worker that ends without its results raises
    ChildProcessError.  Every child is reaped before this returns or
    raises, and killed first when this process stops early."""
    import pickle
    import signal

    children: dict[int, object] = {}  # pid -> read end of its pipe
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: nothing holds the pipe yet
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _work(job, range(w, count, workers), write)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        shares = [[job(i) for i in range(0, count, workers)]]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status or not data:
                raise ChildProcessError(
                    f"a check worker ended without its results "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            shares.append(value)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * count
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results


def _work(job, indices: range, write: int) -> None:
    """The body of a forked worker: pickle ``(True, results)`` or
    ``(False, exception)`` to the pipe ``write``, then end the process
    without returning to the caller's stack or flushing its buffers."""
    import pickle

    status = 1
    try:
        try:
            outcome = (True, [job(i) for i in indices])
        except Exception as exc:  # raised again in the parent
            outcome = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


CompositionMap = dict[tuple[int, int, int], dict[int, Fraction]]


def compose_left(inner: Tensor3, outer: Tensor3) -> CompositionMap:
    """Coefficients of outer(inner(x, y), z) on basis triples (x, y, z)."""
    sums: dict[tuple[int, int, int], dict[int, int]] = {}
    outer_rows = outer.runs(0)
    for i, j, a, c in inner.numerators:
        rows = outer_rows.get(a)
        if not rows:
            continue
        for _, k, m, c2 in rows:
            bucket = sums.setdefault((i, j, k), {})
            bucket[m] = bucket.get(m, 0) + c * c2
    return _rational_buckets(sums, inner.denom * outer.denom)


def compose_right(inner: Tensor3, outer: Tensor3) -> CompositionMap:
    """Coefficients of outer(x, inner(y, z)) on basis triples (x, y, z)."""
    sums: dict[tuple[int, int, int], dict[int, int]] = {}
    outer_cols = outer.runs(1)
    for j, k, a, c in inner.numerators:
        cols = outer_cols.get(a)
        if not cols:
            continue
        for i, _, m, c2 in cols:
            bucket = sums.setdefault((i, j, k), {})
            bucket[m] = bucket.get(m, 0) + c * c2
    return _rational_buckets(sums, inner.denom * outer.denom)


def _rational_buckets(
    sums: dict[tuple[int, int, int], dict[int, int]], denom: int
) -> CompositionMap:
    """Integer sums over ``denom`` turned into Fractions in place."""
    for bucket in sums.values():
        for m, v in bucket.items():
            bucket[m] = Fraction(v, denom)
    return sums


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
