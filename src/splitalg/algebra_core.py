"""Finite-dimensional associative algebras and coalgebras over the rationals.

An algebra is a structure-constant tensor plus an optional unit vector and
optional basis labels.  A coalgebra is stored as its dual product: one
integer tensor holding each leg c * e_j (x) e_k of the coproduct of e_i as
entry (j, k, i), so every coalgebra identity is checked as its transpose,
as :func:`check_coassociative` does.  The two matrix families used
throughout the package are here too: full matrix algebras (endomorphism
spaces) and upper-triangular matrix algebras with their dual coalgebra.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable

from .exactlin import ONE, ZERO, Scalar, Tensor3
from .report import Report, compare_dual


@dataclasses.dataclass(frozen=True)
class FiniteAlgebra:
    """A bilinear product on a finite-dimensional space, maybe with a unit."""

    mult: Tensor3
    unit: tuple[Fraction, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.unit is not None and len(self.unit) != self.dim:
            raise ValueError("unit vector dimension mismatch")
        if self.labels is not None and len(self.labels) != self.dim:
            raise ValueError("labels length mismatch")

    @property
    def dim(self) -> int:
        return self.mult.dim


# ---------------------------------------------------------------------------
# coalgebras
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CoalgebraData:
    """A coproduct, stored as its dual product: entry (j, k, i) of ``dual``
    says the coproduct of e_i contains that coefficient times e_j (x) e_k.

    :meth:`items` and :attr:`rows` are Fraction views, built on every call
    and never stored, as :meth:`Tensor3.nonzeros` is.
    """

    dual: Tensor3

    @property
    def dim(self) -> int:
        return self.dual.dim

    @staticmethod
    def from_items(dim: int, items: Iterable[tuple[int, int, int, Scalar]]) -> "CoalgebraData":
        """Sum the given legs (i, j, k, c); every index must be an int in ``[0, dim)``."""
        return CoalgebraData(Tensor3.from_sparse(dim, ((j, k, i, c) for i, j, k, c in items)))

    def items(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        """The legs (i, j, k, c) as exact rationals, sorted by (i, j, k)."""
        return self.dual.permuted((2, 0, 1)).nonzeros()

    @property
    def rows(self) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
        """rows[i] lists the legs (j, k, c) of the coproduct of e_i, sorted."""
        rows: list[list[tuple[int, int, Fraction]]] = [[] for _ in range(self.dim)]
        for i, j, k, c in self.items():
            rows[i].append((j, k, c))
        return tuple(map(tuple, rows))


def check_coassociative(delta: CoalgebraData, title: str = "coassociativity") -> Report:
    """(delta (x) id) delta == (id (x) delta) delta, exactly: associativity
    of the dual product.  Every basis vector is checked, and each failing
    one gets a witness."""
    report = Report(title=title, passed=True)
    dual = delta.dual
    compare_dual(report, "coassoc", [(ONE, dual, dual)], [(ONE, dual, dual)], every_vector=True)
    return report


# ---------------------------------------------------------------------------
# matrix families
# ---------------------------------------------------------------------------


def _matrix_unit_algebra(n: int, pairs: list[tuple[int, int]]) -> FiniteAlgebra:
    """Matrix units E[i,j] for the given index pairs under composition,
    E[i,j] E[k,l] = [j == k] E[i,l], basis in the order of ``pairs``.  The
    pairs must be closed under that product and hold every (i, i), i < n,
    whose sum is the unit."""
    index = {pair: a for a, pair in enumerate(pairs)}
    items = []
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            if j == k:
                items.append((a, b, index[(i, l)], 1))
    unit = [ZERO] * len(pairs)
    for i in range(n):
        unit[index[(i, i)]] = ONE
    labels = tuple(f"E[{i},{j}]" for i, j in pairs)
    return FiniteAlgebra(
        Tensor3.from_sparse(len(pairs), items), unit=tuple(unit), labels=labels
    )


def full_matrix_algebra(n: int) -> FiniteAlgebra:
    """All n-by-n matrix units under composition; unit is the identity.
    E[p,q] sits at index p*n + q."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _matrix_unit_algebra(n, [(p, q) for p in range(n) for q in range(n)])


def triangular_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) with i <= j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def triangular_matrix_algebra(n: int) -> FiniteAlgebra:
    """Upper-triangular n-by-n matrix units E_ij (i <= j) under composition."""
    return _matrix_unit_algebra(n, triangular_pairs(n))


def triangular_matrix_coalgebra(n: int) -> CoalgebraData:
    """Basis X_ij (i <= j); the coproduct splits X_ij over intermediate k.

    Its dual algebra is exactly :func:`triangular_matrix_algebra`.
    """
    pairs = triangular_pairs(n)
    index = {pair: a for a, pair in enumerate(pairs)}
    items = []
    for (i, j), a in index.items():
        for k in range(i, j + 1):
            items.append((a, index[(i, k)], index[(k, j)], 1))
    return CoalgebraData.from_items(len(pairs), items)
