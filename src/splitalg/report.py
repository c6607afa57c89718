"""Uniform pass/fail reporting for axiom checks.

Every verifier in this package returns a :class:`Report`.  A report either
passes, or fails and carries at least one :class:`Witness` pinning down the
first (lexicographically smallest) basis tuple on which an identity breaks.
Reports are plain data so they can be printed, compared, and serialized.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Iterable

from .exactlin import (
    ONE, ZERO, Tensor3, combine, first_row_difference, nested_residual, nested_value
)


@dataclasses.dataclass(frozen=True)
class Witness:
    """One concrete counterexample to one identity.

    context  -- which identity failed, e.g. "ennea:4.2" or "coassoc".
    args     -- the basis tuple (indices) on which it failed.
    lhs, rhs -- the two evaluations that should have agreed.
    """

    context: str
    args: tuple
    lhs: Any
    rhs: Any

    def describe(self) -> str:
        return (
            f"{self.context} fails at basis tuple {self.args}: "
            f"lhs={format_value(self.lhs)} rhs={format_value(self.rhs)}"
        )


@dataclasses.dataclass
class Report:
    """Outcome of a verification run."""

    title: str
    passed: bool
    checks_run: int = 0
    skipped_undefined: int = 0
    witnesses: list[Witness] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed

    def add_failure(self, witness: Witness) -> None:
        self.witnesses.append(witness)
        self.passed = False

    def merge(self, other: "Report") -> None:
        """Fold another report into this one (title is kept)."""
        self.passed = self.passed and other.passed
        self.checks_run += other.checks_run
        self.skipped_undefined += other.skipped_undefined
        self.witnesses.extend(other.witnesses)
        self.notes.extend(other.notes)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"[{status}] {self.title}: {self.checks_run} checks"]
        if self.skipped_undefined:
            parts.append(f"{self.skipped_undefined} skipped (undefined)")
        text = ", ".join(parts)
        for w in self.witnesses[:MAX_PRINTED_WITNESSES]:
            text += "\n  " + w.describe()
        extra = len(self.witnesses) - MAX_PRINTED_WITNESSES
        if extra > 0:
            text += f"\n  ... and {extra} more witnesses"
        for note in self.notes:
            text += "\n  note: " + note
        return text


MAX_PRINTED_WITNESSES = 5


def compare_on_pairs(report: Report, context: str, lhs: Tensor3, rhs: Tensor3) -> bool:
    """Record whether two bilinear maps agree on every basis pair.

    Pairs count as checked in lexicographic order up to the first failing
    one (n*n when all agree); that pair becomes the witness, carrying the
    dense values of both sides.
    """
    diff = first_row_difference(lhs, rhs)
    n = lhs.dim
    if diff is None:
        report.checks_run += n * n
        return True
    (i, j), lvec, rvec = diff
    report.checks_run += i * n + j + 1
    report.add_failure(Witness(context, (i, j), lvec, rvec))
    return False


def compare_dual(
    report: Report, context: str, lhs: Any, rhs: Any, every_vector: bool = False
) -> bool:
    """Record whether a coalgebra identity holds, checked as its transpose on
    the dual product, and report it the coalgebra way.

    The sides are two dual products (Tensor3, for an identity between maps
    V -> V (x) V) or lists of left- and right-nested terms (V -> V (x) V (x)
    V).  The e_i* coefficient of a dual side at arguments e_a*, e_b*(, e_c*)
    is the coefficient of the leg e_a (x) e_b (x e_c) in the coalgebra side
    at e_i.  Basis vectors count as checked in order; a failing e_i gets one
    witness at its smallest failing leg, args ``(i, *leg)``, with the scalar
    values of both sides.  With ``every_vector`` every basis vector is
    checked and every failing one reported; otherwise checking stops at the
    first failing one.
    """
    if isinstance(lhs, Tensor3):
        dim = lhs.dim
        difference = combine(dim, [(ONE, lhs), (-ONE, rhs)])
        failing: Iterable = (entry[:3] for entry in difference.numerators)

        def values(pair: tuple[int, ...], i: int) -> tuple[Any, Any]:
            return lhs.row(*pair)[i], rhs.row(*pair)[i]

    else:
        dim = lhs[0][1].dim
        failing = nested_residual(lhs, rhs)

        def values(triple: tuple[int, ...], i: int) -> tuple[Any, Any]:
            return (
                nested_value(lhs, True, triple).get(i, ZERO),
                nested_value(rhs, False, triple).get(i, ZERO),
            )

    smallest: dict[int, tuple[int, ...]] = {}
    for key in failing:
        leg, i = tuple(key[:-1]), key[-1]
        if i not in smallest or leg < smallest[i]:
            smallest[i] = leg
    failed = sorted(smallest) if every_vector else sorted(smallest)[:1]
    report.checks_run += failed[0] + 1 if failed and not every_vector else dim
    for i in failed:
        report.add_failure(Witness(context, (i,) + smallest[i], *values(smallest[i], i)))
    return not failed


def format_value(value: Any) -> str:
    """Human-readable rendering of scalars/vectors appearing in witnesses."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{k}: {format_value(v)}" for k, v in items) + "}"
    return repr(value)
