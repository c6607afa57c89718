"""Uniform pass/fail reporting for axiom checks.

Every verifier in this package returns a :class:`Report`.  A report either
passes, or fails and carries at least one :class:`Witness` pinning down the
first (lexicographically smallest) basis tuple on which an identity breaks.
Reports are plain data so they can be printed, compared, and serialized.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Mapping

from .exactlin import ZERO, Tensor3, first_row_difference


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


def first_mismatch(
    context: str,
    prefix: tuple,
    lhs: Mapping[Any, Any],
    rhs: Mapping[Any, Any],
    missing: Any = ZERO,
) -> Witness | None:
    """Witness at the smallest key where two coefficient maps disagree.

    Absent keys read as ``missing``; the witness arguments are
    ``prefix + key``.
    """
    key = min(
        (k for k in lhs.keys() | rhs.keys() if lhs.get(k, missing) != rhs.get(k, missing)),
        default=None,
    )
    if key is None:
        return None
    return Witness(context, prefix + key, lhs.get(key, missing), rhs.get(key, missing))


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
