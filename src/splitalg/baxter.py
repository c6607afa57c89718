"""Modified Baxter operators and their coalgebra duals.

An operator B on an algebra is a *t-Baxter operator* when

    B(x) B(y) = B( x B(y) + B(x) y + t x y )        for all x, y.

The dual notion on a coalgebra (a *t-coBaxter operator*) transposes every
map.  The canonical finite-dimensional examples live on upper-triangular
matrices: collapsing a matrix to the diagonal of its row sums (or column
sums), scaled by t, is a (-t)-Baxter operator; its transpose is a
(-t)-coBaxter operator on the triangular matrix coalgebra.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra_core import (
    CoalgebraData,
    FiniteAlgebra,
    triangular_matrix_algebra,
    triangular_pairs,
)
from .exactlin import (
    ONE,
    LinearOperator,
    Scalar,
    Tensor3,
    combine,
    rat,
    twist,
)
from .report import Report, compare_dual, compare_on_pairs


def check_baxter(algebra: FiniteAlgebra, op: LinearOperator, t: Scalar) -> Report:
    """Verify the t-Baxter identity on all basis pairs."""
    t = rat(t)
    if op.dim != algebra.dim:
        raise ValueError("operator/algebra dimension mismatch")
    report = Report(title=f"{t}-Baxter identity", passed=True)
    compare_on_pairs(report, "baxter", *baxter_sides(algebra.mult, op, t))
    return report


def baxter_sides(mult: Tensor3, op: LinearOperator, t: Fraction) -> tuple[Tensor3, Tensor3]:
    """Both sides of B(x) B(y) = B(x B(y) + B(x) y + t x y) as operations."""
    lhs = twist(mult, left=op, right=op)
    rhs = combine(
        mult.dim,
        [
            (ONE, twist(mult, right=op, post=op)),
            (ONE, twist(mult, left=op, post=op)),
            (t, twist(mult, post=op)),
        ],
    )
    return lhs, rhs


def check_cobaxter(delta: CoalgebraData, op: LinearOperator, t: Scalar) -> Report:
    """Verify the transposed identity on a coalgebra:

    (P (x) P) delta = t delta P + (id (x) P) delta P + (P (x) id) delta P,

    which is the t-Baxter identity of the transpose of P on the dual product.
    """
    t = rat(t)
    if op.dim != delta.dim:
        raise ValueError("operator/coalgebra dimension mismatch")
    report = Report(title=f"{t}-coBaxter identity", passed=True)
    sides = baxter_sides(delta.dual, transpose_operator(op), t)
    compare_dual(report, "cobaxter", *sides)
    return report


def transpose_operator(op: LinearOperator) -> LinearOperator:
    """The dual operator (matrix transpose): entry (i, j) moves to (j, i)."""
    return LinearOperator.from_sorted(
        op.dim, op.denom, sorted((j, i, n) for i, j, n in op.numerators)
    )


def commute(a: LinearOperator, b: LinearOperator) -> bool:
    return a.compose(b) == b.compose(a)


# ---------------------------------------------------------------------------
# triangular-matrix examples
# ---------------------------------------------------------------------------


def triangular_row_operator(n: int, t: Scalar) -> LinearOperator:
    """Collapse an upper-triangular matrix to t * (diagonal of row sums).

    On the basis E_ij this sends E_ij to t * E_ii.  Together with
    :func:`triangular_matrix_algebra` it satisfies the (-t)-Baxter identity.
    """
    return _collapse_to_diagonal(n, t, row=True)


def triangular_column_operator(n: int, t: Scalar) -> LinearOperator:
    """Collapse an upper-triangular matrix to t * (diagonal of column sums)."""
    return _collapse_to_diagonal(n, t, row=False)


def _collapse_to_diagonal(n: int, t: Scalar, row: bool) -> LinearOperator:
    """E_ij -> t * E_ii (row) or t * E_jj (column) on the triangular basis."""
    t = rat(t)
    index = {pair: a for a, pair in enumerate(triangular_pairs(n))}
    return LinearOperator.from_numerators(
        len(index),
        t.denominator,
        ((index[(i, i) if row else (j, j)], a, t.numerator) for (i, j), a in index.items()),
    )


def triangular_row_coproduct_operator(n: int, t: Scalar) -> LinearOperator:
    """Transpose of the row operator; a (-t)-coBaxter operator on the
    triangular matrix coalgebra (diagonal basis vectors fan out over their row)."""
    return transpose_operator(triangular_row_operator(n, t))


def triangular_baxter_example(n: int, t: Scalar) -> tuple[
    FiniteAlgebra, LinearOperator, LinearOperator, Fraction
]:
    """(algebra, row operator, column operator, Baxter parameter -t)."""
    t = rat(t)
    return (
        triangular_matrix_algebra(n),
        triangular_row_operator(n, t),
        triangular_column_operator(n, t),
        -t,
    )
