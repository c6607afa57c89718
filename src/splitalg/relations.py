"""Identity tables for splitting structures, stored once as data.

A *splitting structure* carries several bilinear operations subject to
quadratic identities: every identity equates a sum of left-nested terms
``outer(inner(x,y), z)`` with a sum of right-nested terms
``outer(x, inner(y,z))``.  This module stores those tables — two operations
with 3 identities, three with 7, four with 9, and the nine-operation family
with 49 identities and a scalar family parameter t — in one canonical place.
Checkers, the operad dimension counter, and the formal-deformation engine all
read the same data.

Coefficients are polynomials in t (:class:`TPoly`); named composite
operations (sums of generators, possibly t-weighted) are part of the system
and are kept *unexpanded* in the tables, because the unit-action checks need
to evaluate composites as single slots.  One composite, the one whose parts
name every generator, is the system's total operation
(:meth:`AxiomSystem.total`): ``star`` for two and three operations,
``starbar`` for four and nine, ``*_total`` for a deformation.
:meth:`AxiomSystem.at` turns every coefficient into a number once per t.
A :class:`Structure` is one
family's generator tensors at one t, and every identity check takes one.
It is the one place where operations are resolved: ``table`` is its system
at its t, evaluated on first read; ``tensor(name)`` is the tensor of any
operation, composite or generator, resolved from that table once; and
``terms(side)`` turns one identity side of the table into
(coefficient, inner, outer) tensor terms for the nested evaluator.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exactlin import (
    ZERO,
    NestedTerm,
    Scalar,
    Tensor3,
    combine,
    first_nested_differences,
    rat,
)
from .report import Report, Witness


class TPoly(tuple):
    """Polynomial in the family parameter t, as a coefficient tuple."""

    def __new__(cls, coeffs: Iterable[Scalar] = ()):  # trim trailing zeros
        vals = [rat(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return super().__new__(cls, vals)

    @staticmethod
    def const(c: Scalar) -> "TPoly":
        return TPoly([rat(c)])

    @staticmethod
    def t_power(power: int) -> "TPoly":
        return TPoly([0] * power + [1])

    def add(self, other: "TPoly") -> "TPoly":
        return TPoly(
            [a + b for a, b in itertools.zip_longest(self, other, fillvalue=ZERO)]
        )

    def mul(self, other: "TPoly") -> "TPoly":
        if not self or not other:
            return TPoly()
        out = [ZERO] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] += a * b
        return TPoly(out)

    def eval(self, t: Fraction) -> Fraction:
        value = ZERO
        for coeff in reversed(self):
            value = value * t + coeff
        return value

    def is_zero(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"TPoly({[str(c) for c in self]})"


P_ONE = TPoly.const(1)
P_T = TPoly.t_power(1)
P_T2 = TPoly.t_power(2)


class Term(NamedTuple):
    """One nested monomial in an identity.

    In a left-nested sum the term means  coeff * outer(inner(x, y), z);
    in a right-nested sum it means      coeff * outer(x, inner(y, z)).
    """

    coeff: TPoly
    inner: str
    outer: str


@dataclasses.dataclass(frozen=True)
class Relation:
    """One quadratic identity: sum(lhs, left-nested) = sum(rhs, right-nested)."""

    name: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]


# one side of an identity at a concrete t: (coefficient, inner, outer) terms
SideAt = tuple[tuple[Fraction, str, str], ...]


@dataclasses.dataclass(frozen=True)
class SystemAt:
    """An axiom system at one value of t, every coefficient a Fraction and
    every zero term dropped.  ``ops`` maps each operation, generators
    included, to its (coefficient, generator) combination; ``relations``
    holds each identity's two sides, in the system's order."""

    t: Fraction
    ops: dict[str, tuple[tuple[Fraction, str], ...]]
    relations: tuple[tuple[SideAt, SideAt], ...]


@dataclasses.dataclass(frozen=True)
class AxiomSystem:
    """Generators, named composite operations, and identities of a structure."""

    name: str
    generators: tuple[str, ...]
    composites: dict[str, tuple[tuple[TPoly, str], ...]]
    relations: tuple[Relation, ...]

    def resolve(self, op_name: str) -> tuple[tuple[TPoly, str], ...]:
        """Expand an operation name to a generator combination."""
        if op_name in self.composites:
            return self.composites[op_name]
        if op_name in self.generators:
            return ((P_ONE, op_name),)
        raise KeyError(f"unknown operation {op_name!r} in system {self.name!r}")

    def operation_names(self) -> tuple[str, ...]:
        return self.generators + tuple(self.composites)

    def total(self) -> str | None:
        """The total operation: the composite whose parts name every
        generator, or None when no composite does."""
        every = set(self.generators)
        return next(
            (name for name, parts in self.composites.items() if {g for _, g in parts} == every),
            None,
        )

    def at(self, t: Fraction) -> SystemAt:
        """The system at t: each coefficient evaluated once, zero terms dropped."""

        def nonzero(terms):
            return tuple((c, *names) for poly, *names in terms if (c := poly.eval(t)))

        return SystemAt(
            t,
            {name: nonzero(self.resolve(name)) for name in self.operation_names()},
            tuple((nonzero(rel.lhs), nonzero(rel.rhs)) for rel in self.relations),
        )


@dataclasses.dataclass(frozen=True)
class Structure:
    """Concrete tensors for the generators of a system at one value of t.

    The constructor is the one place that checks ``ops``: it holds exactly
    the system's generators, all of one dimension.  The table at t and each
    resolved operation are computed on first use and kept with the
    structure; they are not fields, so ``==`` and ``dataclasses.replace``
    see only the system, t and the generator tensors.
    """

    system: AxiomSystem
    t: Fraction
    ops: dict[str, Tensor3]

    def __post_init__(self):
        generators = self.system.generators
        missing = [name for name in generators if name not in self.ops]
        extra = sorted(set(self.ops) - set(generators))
        if missing or extra:
            raise ValueError(
                f"a {self.system.name} structure needs exactly its generators: "
                f"missing {missing}, extra {extra}"
            )
        if len({tensor.dim for tensor in self.ops.values()}) != 1:
            raise ValueError("operation tensors must share one dimension")
        object.__setattr__(self, "t", rat(self.t))

    @property
    def dim(self) -> int:
        return next(iter(self.ops.values())).dim

    @functools.cached_property
    def table(self) -> SystemAt:
        """The system at this structure's t."""
        return self.system.at(self.t)

    @functools.cached_property
    def _resolved(self) -> dict[str, Tensor3]:
        return {}

    def tensor(self, name: str) -> Tensor3:
        """Tensor of any named operation, composite or generator."""
        resolved = self._resolved
        if name not in resolved:
            parts = self.table.ops[name]
            resolved[name] = combine(self.dim, [(c, self.ops[gen]) for c, gen in parts])
        return resolved[name]

    def terms(self, side: SideAt) -> list[NestedTerm]:
        """One identity side of the table as (coefficient, inner, outer)
        tensor terms."""
        return [(c, self.tensor(inner), self.tensor(outer)) for c, inner, outer in side]


def _rel(name: str, coeff: TPoly, left: tuple[str, str], right: tuple[str, str]) -> Relation:
    """Single-term identity coeff*(x li y) lo z = coeff* x ro (y ri z)."""
    li, lo = left
    ro, ri = right
    return Relation(name, (Term(coeff, li, lo),), (Term(coeff, ri, ro),))


# the associativity of one product
ASSOCIATIVITY = AxiomSystem(
    name="assoc",
    generators=("mul",),
    composites={},
    relations=(
        Relation("assoc", (Term(P_ONE, "mul", "mul"),), (Term(P_ONE, "mul", "mul"),)),
    ),
)

# ---------------------------------------------------------------------------
# two operations / 3 identities  (associative splitting in two parts)
# ---------------------------------------------------------------------------

TWO_OP_SYSTEM = AxiomSystem(
    name="two_op",
    generators=("prec", "succ"),
    composites={"star": ((P_ONE, "prec"), (P_ONE, "succ"))},
    relations=(
        _rel("di:1", P_ONE, ("prec", "prec"), ("prec", "star")),
        _rel("di:2", P_ONE, ("succ", "prec"), ("succ", "prec")),
        _rel("di:3", P_ONE, ("star", "succ"), ("succ", "succ")),
    ),
)

# ---------------------------------------------------------------------------
# three operations / 7 identities  (associative splitting in three parts)
# ---------------------------------------------------------------------------

_THREE_OP_ROWS = (
    (("prec", "prec"), ("prec", "star")),
    (("succ", "prec"), ("succ", "prec")),
    (("star", "succ"), ("succ", "succ")),
    (("succ", "circ"), ("succ", "circ")),
    (("prec", "circ"), ("circ", "succ")),
    (("circ", "prec"), ("circ", "prec")),
    (("circ", "circ"), ("circ", "circ")),
)

THREE_OP_SYSTEM = AxiomSystem(
    name="three_op",
    generators=("prec", "succ", "circ"),
    composites={
        "star": ((P_ONE, "prec"), (P_ONE, "succ"), (P_ONE, "circ"))
    },
    relations=tuple(
        _rel(f"tri:{n}", P_ONE, left, right)
        for n, (left, right) in enumerate(_THREE_OP_ROWS, start=1)
    ),
)

# ---------------------------------------------------------------------------
# nine operations / 49 identities, with family parameter t
# ---------------------------------------------------------------------------
#
# Generator names are compass directions for the six arrow operations plus
# prec/succ/circ for the three parameter-weighted ones.  Identities come in
# seven blocks of seven; blocks 4-6 carry an overall factor t and block 7
# carries t^2 (so at t = 0 those blocks are vacuous).

_NINE_OP_BLOCKS: tuple[tuple[tuple[tuple[str, str], tuple[str, str]], ...], ...] = (
    (  # block 1
        (("nw", "nw"), ("nw", "starbar")),
        (("ne", "nw"), ("ne", "lhd")),
        (("wedge", "ne"), ("ne", "rhd")),
        (("ne", "up"), ("ne", "cbar")),
        (("nw", "up"), ("up", "rhd")),
        (("up", "nw"), ("up", "lhd")),
        (("up", "up"), ("up", "cbar")),
    ),
    (  # block 2
        (("sw", "nw"), ("sw", "wedge")),
        (("se", "nw"), ("se", "nw")),
        (("vee", "ne"), ("se", "ne")),
        (("se", "up"), ("se", "up")),
        (("sw", "up"), ("down", "ne")),
        (("down", "nw"), ("down", "nw")),
        (("down", "up"), ("down", "up")),
    ),
    (  # block 3
        (("lhd", "sw"), ("sw", "vee")),
        (("rhd", "sw"), ("se", "sw")),
        (("starbar", "se"), ("se", "se")),
        (("rhd", "down"), ("se", "down")),
        (("lhd", "down"), ("down", "se")),
        (("cbar", "sw"), ("down", "sw")),
        (("cbar", "down"), ("down", "down")),
    ),
    (  # block 4 (factor t)
        (("sw", "prec"), ("sw", "star")),
        (("se", "prec"), ("se", "prec")),
        (("vee", "succ"), ("se", "succ")),
        (("se", "circ"), ("se", "circ")),
        (("sw", "circ"), ("down", "succ")),
        (("down", "prec"), ("down", "prec")),
        (("down", "circ"), ("down", "circ")),
    ),
    (  # block 5 (factor t)
        (("nw", "prec"), ("prec", "vee")),
        (("ne", "prec"), ("succ", "sw")),
        (("wedge", "succ"), ("succ", "se")),
        (("ne", "circ"), ("succ", "down")),
        (("nw", "circ"), ("circ", "se")),
        (("up", "prec"), ("circ", "sw")),
        (("up", "circ"), ("circ", "down")),
    ),
    (  # block 6 (factor t)
        (("prec", "nw"), ("prec", "wedge")),
        (("succ", "nw"), ("succ", "nw")),
        (("star", "ne"), ("succ", "ne")),
        (("succ", "up"), ("succ", "up")),
        (("prec", "up"), ("circ", "ne")),
        (("circ", "nw"), ("circ", "nw")),
        (("circ", "up"), ("circ", "up")),
    ),
    (  # block 7 (factor t^2)
        (("prec", "prec"), ("prec", "star")),
        (("succ", "prec"), ("succ", "prec")),
        (("star", "succ"), ("succ", "succ")),
        (("succ", "circ"), ("succ", "circ")),
        (("prec", "circ"), ("circ", "succ")),
        (("circ", "prec"), ("circ", "prec")),
        (("circ", "circ"), ("circ", "circ")),
    ),
)

_NINE_OP_BLOCK_COEFF = (P_ONE, P_ONE, P_ONE, P_T, P_T, P_T, P_T2)

NINE_OP_GENERATORS = ("nw", "ne", "sw", "se", "up", "down", "prec", "succ", "circ")

NINE_OP_COMPOSITES: dict[str, tuple[tuple[TPoly, str], ...]] = {
    "rhd": ((P_ONE, "ne"), (P_ONE, "se"), (P_T, "succ")),
    "lhd": ((P_ONE, "nw"), (P_ONE, "sw"), (P_T, "prec")),
    "cbar": ((P_ONE, "up"), (P_ONE, "down"), (P_T, "circ")),
    "vee": ((P_ONE, "se"), (P_ONE, "sw"), (P_ONE, "down")),
    "wedge": ((P_ONE, "ne"), (P_ONE, "nw"), (P_ONE, "up")),
    "star": ((P_ONE, "prec"), (P_ONE, "succ"), (P_ONE, "circ")),
    "starbar": (
        (P_ONE, "nw"),
        (P_ONE, "ne"),
        (P_ONE, "sw"),
        (P_ONE, "se"),
        (P_ONE, "up"),
        (P_ONE, "down"),
        (P_T, "prec"),
        (P_T, "succ"),
        (P_T, "circ"),
    ),
}

NINE_OP_SYSTEM = AxiomSystem(
    name="nine_op",
    generators=NINE_OP_GENERATORS,
    composites=NINE_OP_COMPOSITES,
    relations=tuple(
        _rel(f"{b}.{r}", _NINE_OP_BLOCK_COEFF[b - 1], left, right)
        for b, block in enumerate(_NINE_OP_BLOCKS, start=1)
        for r, (left, right) in enumerate(block, start=1)
    ),
)

# ---------------------------------------------------------------------------
# four operations / 9 identities  (the t-free corner of the nine-op family)
# ---------------------------------------------------------------------------
#
# Same table as blocks 1-3, rows 1-3, with the composites re-read over the
# four corner generators only.

FOUR_OP_COMPOSITES: dict[str, tuple[tuple[TPoly, str], ...]] = {
    "lhd": ((P_ONE, "nw"), (P_ONE, "sw")),
    "rhd": ((P_ONE, "ne"), (P_ONE, "se")),
    "vee": ((P_ONE, "se"), (P_ONE, "sw")),
    "wedge": ((P_ONE, "ne"), (P_ONE, "nw")),
    "starbar": ((P_ONE, "nw"), (P_ONE, "ne"), (P_ONE, "sw"), (P_ONE, "se")),
}

FOUR_OP_SYSTEM = AxiomSystem(
    name="four_op",
    generators=("nw", "ne", "sw", "se"),
    composites=FOUR_OP_COMPOSITES,
    relations=tuple(
        _rel(f"q:{b}.{r}", P_ONE, *_NINE_OP_BLOCKS[b - 1][r - 1])
        for b in (1, 2, 3)
        for r in (1, 2, 3)
    ),
)


SYSTEMS = {
    system.name: system
    for system in (TWO_OP_SYSTEM, THREE_OP_SYSTEM, FOUR_OP_SYSTEM, NINE_OP_SYSTEM)
}

# The one-parameter formal deformations op(h) = op0 + h op1 of
# :mod:`splitalg.deformation`: name -> (base system, generators whose base
# part op0 is kept; the others deform from zero).
DEFORMATIONS: dict[str, tuple[AxiomSystem, tuple[str, ...]]] = {
    "two_two": (TWO_OP_SYSTEM, ("prec", "succ")),
    "two_three": (THREE_OP_SYSTEM, ("prec", "succ")),
    "three_three": (THREE_OP_SYSTEM, ("prec", "succ", "circ")),
    "four_four": (FOUR_OP_SYSTEM, FOUR_OP_SYSTEM.generators),
    "nine_nine": (NINE_OP_SYSTEM, NINE_OP_SYSTEM.generators),
}


# ---------------------------------------------------------------------------
# evaluation of systems on concrete structure tensors
# ---------------------------------------------------------------------------


def check_system(s: Structure, title: str | None = None) -> Report:
    """Verify every identity of a structure's system on its tensors.

    The title defaults to a base family's "two-op splitting" ... "nine-op
    splitting (t=T)", the one table that reads t, and to any other system's
    "<name> identities".  The witness for a failing identity is its
    lexicographically smallest failing basis triple.  All identities go to
    :func:`~splitalg.exactlin.first_nested_differences` at once, which
    shares them out over forked workers when the structure is large enough.
    """
    system = s.system
    if title is None and system.name in SYSTEMS:
        title = f"{system.name.split('_')[0]}-op splitting"
        if system.name == "nine_op":
            title += f" (t={s.t})"
    report = Report(title=title or f"{system.name} identities", passed=True)
    identities = [(s.terms(lhs), s.terms(rhs)) for lhs, rhs in s.table.relations]
    for relation, diff in zip(system.relations, first_nested_differences(identities)):
        report.checks_run += s.dim**3
        if diff is not None:
            key, lvec, rvec = diff
            report.add_failure(
                Witness(f"{system.name}:{relation.name}", key, lvec, rvec)
            )
    return report


def expand_side(
    system: AxiomSystem, terms: Sequence[Term]
) -> dict[tuple[str, str], TPoly]:
    """Expand one identity side to generator monomials (outer, inner) -> TPoly."""
    out: dict[tuple[str, str], TPoly] = {}
    for coeff, inner_name, outer_name in terms:
        for pi, gi in system.resolve(inner_name):
            for po, go in system.resolve(outer_name):
                key = (go, gi)
                total = out.get(key, TPoly()).add(coeff.mul(pi).mul(po))
                if total.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = total
    return out


def expand_relation(
    system: AxiomSystem, relation: Relation
) -> tuple[dict[tuple[str, str], TPoly], dict[tuple[str, str], TPoly]]:
    """Both sides of an identity as generator-monomial maps."""
    return expand_side(system, relation.lhs), expand_side(system, relation.rhs)
