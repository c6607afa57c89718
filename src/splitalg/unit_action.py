"""Adjoining a formal unit to a splitting structure.

A splitting structure has no unit of its own: the identities force any
two-sided unit for the total operation to act one-sidedly through the
individual operations.  One therefore *chooses* a unit action: for every
generating operation, two scalars saying what ``x op 1`` and ``1 op x``
are (each either ``x`` or ``0``).  Composite operations inherit their
scalars linearly, so a well-chosen rule table can make the associative
total operation genuinely unital even though every single generator is
one-sided.

Two corner evaluations may stay undefined: ``1 op 1`` only makes sense
when both one-sided scalars agree.  The compatibility check below runs
every identity on the augmented space ``k·1 ⊕ A`` and skips exactly the
argument triples whose expansion would evaluate an undefined corner,
counting them in the report.

The coherence check goes one step further: given unit actions on two
structures A and B of the same kind, it builds the standard structure on

    A ⊗ 1  ⊕  1 ⊗ B  ⊕  A ⊗ B,

where a product ``(a ⊗ b) op (a' ⊗ b')`` multiplies the left factors
with the unital total operation and the right factors with ``op`` itself
— except that when both right factors are the unit, the *left* factors
are multiplied with ``op`` instead.  The unit action is called coherent
when this mixed space satisfies all the identities again; coherence is
what lets the augmented free algebras carry bialgebra structures.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Set
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .exactlin import (
    ONE,
    ZERO,
    Scalar,
    Tensor3,
    first_nested_difference,
    rat,
)
from .relations import (
    NINE_OP_GENERATORS,
    NINE_OP_SYSTEM,
    AxiomSystem,
    Relation,
    resolve_tensor,
)
from .report import Report, Witness
from .splitting import EnneaStructure, _kron, check_ennea

# Rule scalars: the unit acts as the identity, or kills the argument.
IDENTITY: Scalar = ONE
NOTHING: Scalar = ZERO

# A rule table maps each generator name to (right, left) with
#   x op 1 = right * x      and      1 op x = left * x.
UnitRules = Mapping[str, tuple[Scalar, Scalar]]


def unit_rules(
    generators: Sequence[str],
    *,
    right_identity: Iterable[str] = (),
    left_identity: Iterable[str] = (),
) -> dict[str, tuple[Scalar, Scalar]]:
    """Rule table where the named generators absorb the unit as the identity.

    ``right_identity`` lists the operations with ``x op 1 = x``;
    ``left_identity`` those with ``1 op x = x``; every other unit action
    is zero.
    """
    right = set(right_identity)
    left = set(left_identity)
    unknown = (right | left) - set(generators)
    if unknown:
        raise KeyError(f"rule names not among the generators: {sorted(unknown)}")
    return {
        gen: (
            IDENTITY if gen in right else NOTHING,
            IDENTITY if gen in left else NOTHING,
        )
        for gen in generators
    }


def nine_op_unit_rules() -> dict[str, tuple[Scalar, Scalar]]:
    """The standard unit action for the nine-operation family.

    The north-west operation absorbs the unit on the right and the
    south-east one on the left; all other unit actions are zero.  Then
    the left and right halves, the vertical splittings, and the total
    operation all absorb the unit on their natural sides, and the total
    operation is genuinely unital.
    """
    return unit_rules(NINE_OP_GENERATORS, right_identity=("nw",), left_identity=("se",))


@dataclasses.dataclass(frozen=True)
class UnitScalars:
    """One operation's unit action: x op 1 = right*x, 1 op x = left*x."""

    right: Scalar
    left: Scalar

    @property
    def defined(self) -> bool:
        """Whether ``1 op 1`` makes sense (both sides give the same value)."""
        return self.right == self.left


def op_unit_scalars(
    system: AxiomSystem, rules: UnitRules, t: Fraction, name: str
) -> UnitScalars:
    """Unit-action scalars of a possibly composite operation at parameter t."""
    right = ZERO
    left = ZERO
    for poly, gen in system.resolve(name):
        value = poly.eval(t)
        r, l = rules[gen]
        right += value * rat(r)
        left += value * rat(l)
    return UnitScalars(right, left)


def unit_scalars(
    system: AxiomSystem, rules: UnitRules, t: Fraction
) -> dict[str, UnitScalars]:
    """Unit-action scalars of every operation of a system, composites
    included, at parameter t."""
    missing = set(system.generators) - set(rules)
    if missing:
        raise KeyError(f"unit rules missing for generators: {sorted(missing)}")
    return {
        name: op_unit_scalars(system, rules, t, name) for name in system.operation_names()
    }


def augment_tensor(tensor: Tensor3, scalars: UnitScalars) -> Tensor3:
    """Structure tensor of one operation on ``k·1 ⊕ A`` (unit at index 0).

    The undefined corner (both arguments the unit) is stored as zero; the
    compatibility check never reads it because it skips those triples.
    The sorted entries are written in order, not re-summed: the corner,
    the unit row ``1 op e_j``, then for each i the unit column entry
    ``e_i op 1`` ahead of the shifted entries of row i.
    """
    n = tensor.dim
    left, right = rat(scalars.left), rat(scalars.right)
    denom = math.lcm(tensor.denom, left.denominator, right.denominator)
    grow = denom // tensor.denom
    c_left = left.numerator * (denom // left.denominator)
    c_right = right.numerator * (denom // right.denominator)
    items: list[tuple[int, int, int, int]] = []
    if c_right and scalars.defined:
        items.append((0, 0, 0, c_right))
    if c_left:
        items.extend((0, j, j, c_left) for j in range(1, n + 1))
    numerators, p = tensor.numerators, 0
    for i in range(n):
        if c_right:
            items.append((i + 1, 0, i + 1, c_right))
        while p < len(numerators) and numerators[p][0] == i:
            _, j, k, c = numerators[p]
            items.append((i + 1, j + 1, k + 1, c * grow))
            p += 1
    return Tensor3.from_sorted(n + 1, denom, items)


def augmented_ops(
    system: AxiomSystem,
    ops: dict[str, Tensor3],
    t: Fraction,
    rules: UnitRules,
    scalars: Mapping[str, UnitScalars] | None = None,
) -> dict[str, Tensor3]:
    """Augment every operation — composites included — by the unit action.

    Composites must be augmented as wholes, not resolved from augmented
    generators: a composite can be defined at the unit-by-unit corner
    even though its constituents are not (the total operation is the
    standard example, with both one-sided sums equal to 1), and only the
    composite's own scalars put the right value there.  Away from that
    corner the two readings agree, since the one-sided scalars combine
    linearly.  ``scalars``, the table of :func:`unit_scalars`, is computed
    here when not given.
    """
    if scalars is None:
        scalars = unit_scalars(system, rules, t)
    return {
        name: augment_tensor(resolve_tensor(system, ops, t, name), scalars[name])
        for name in system.operation_names()
    }


@dataclasses.dataclass(frozen=True, eq=False)
class SkipPattern(Set):
    """Triples of the augmented cube (side ``dim + 1``, the unit at 0):
    (0, 0, .) if ``left``, (., 0, 0) if ``right`` and (0, 0, 0) if
    ``corner``.  Membership and size need no enumeration."""

    dim: int
    left: bool = False
    right: bool = False
    corner: bool = False

    def __contains__(self, triple: tuple[int, int, int]) -> bool:
        x, y, z = triple
        ends = (self.left and x == 0) or (self.right and z == 0)
        return y == 0 and (ends or (self.corner and x == z == 0))

    def __len__(self) -> int:
        lines = (self.left + self.right) * (self.dim + 1) - (self.left and self.right)
        return lines or int(self.corner)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        side = range(self.dim + 1)
        return (e for e in [(0, 0, k) for k in side] + [(i, 0, 0) for i in side[1:]] if e in self)


def relation_skip_set(
    system: AxiomSystem,
    rules: UnitRules,
    t: Fraction,
    relation: Relation,
    dim: int,
    scalars: Mapping[str, UnitScalars] | None = None,
) -> SkipPattern:
    """Augmented argument triples on which one identity is not defined.

    A left-nested term ``outer(inner(x, y), z)`` is undefined when
    ``inner`` has no unit-by-unit value and (x, y) is (unit, unit) — any
    z — or when ``inner(1, 1)`` is a nonzero multiple of the unit but
    ``outer`` has no unit-by-unit value, which pins (x, y, z) to the all-
    unit triple.  Right-nested terms mirror this in the last two slots.
    An identity instance is skipped when any of its terms is undefined.
    ``scalars``, the table of :func:`unit_scalars`, is computed here when
    not given.
    """
    if scalars is None:
        scalars = unit_scalars(system, rules, t)
    undefined = {"left": False, "right": False, "corner": False}
    for terms, left_nested in ((relation.lhs, True), (relation.rhs, False)):
        for coeff, inner_name, outer_name in terms:
            if coeff.eval(t) == 0:
                continue
            s_inner, s_outer = scalars[inner_name], scalars[outer_name]
            if not s_inner.defined:
                undefined["left" if left_nested else "right"] = True
            elif s_inner.right != 0 and not s_outer.defined:
                undefined["corner"] = True
    return SkipPattern(dim, **undefined)


def check_unit_compatibility(
    system: AxiomSystem,
    ops: dict[str, Tensor3],
    t: Fraction,
    rules: UnitRules,
    title: str | None = None,
) -> Report:
    """Verify every identity of a system on the unit-augmented space.

    Argument triples whose expansion hits an undefined unit-by-unit
    corner are skipped and counted in ``skipped_undefined``; everything
    else must hold exactly.
    """
    dims = {tensor.dim for tensor in ops.values()}
    if len(dims) != 1:
        raise ValueError("all operation tensors must share one dimension")
    dim = dims.pop()
    scalars = unit_scalars(system, rules, t)
    aug = augmented_ops(system, ops, t, rules, scalars)
    report = Report(
        title=title or f"{system.name} unit compatibility", passed=True
    )

    for relation in system.relations:
        skip = relation_skip_set(system, rules, t, relation, dim, scalars)
        # terms read the augmented table directly, so composite corner
        # values are used as stored, never re-resolved from generators
        lhs, rhs = (
            [
                (coeff.eval(t), aug[inner_name], aug[outer_name])
                for coeff, inner_name, outer_name in terms
            ]
            for terms in (relation.lhs, relation.rhs)
        )
        report.checks_run += (dim + 1) ** 3 - len(skip)
        report.skipped_undefined += len(skip)
        diff = first_nested_difference(lhs, rhs, skip)
        if diff is not None:
            key, lvec, rvec = diff
            report.add_failure(
                Witness(f"{system.name}:{relation.name}+unit", key, lvec, rvec)
            )
    return report


def coherence_ops(
    system: AxiomSystem,
    ops_a: dict[str, Tensor3],
    ops_b: dict[str, Tensor3],
    t: Fraction,
    rules: UnitRules,
    total_name: str,
) -> dict[str, Tensor3]:
    """Structure tensors on ``A⊗1 ⊕ 1⊗B ⊕ A⊗B`` for a unit action.

    Each operation is the Kronecker product of the augmented total
    operation on ``k·1 ⊕ A`` with the operation augmented by its rule
    scalars on ``k·1 ⊕ B``, restricted to the mixed space (inputs at
    ``1⊗1`` dropped) — except that two unit right factors flip the
    operation onto the left factors, so that block is the operation on A.
    The rule table must make the total operation unital, otherwise the
    mixed space has no consistent product and a ValueError is raised.

    Basis layout: ``x_i ⊗ 1`` at i, ``1 ⊗ y_j`` at p + j, and
    ``x_i ⊗ y_j`` at p + q + i*q + j.
    """
    s_total = op_unit_scalars(system, rules, t, total_name)
    if not (s_total.defined and s_total.right == ONE):
        raise ValueError(
            f"the rule table does not make {total_name!r} unital; "
            "the mixed-space construction needs a genuine unit"
        )
    p = next(iter(ops_a.values())).dim
    q = next(iter(ops_b.values())).dim
    total = augment_tensor(resolve_tensor(system, ops_a, t, total_name), s_total)
    # Kronecker index a*(q+1) + b, with 0 the unit in either factor, to the
    # mixed-space layout; 1⊗1 has no place there
    place: list[int | None] = [None, *range(p, p + q)]
    for i in range(p):
        place += [i, *range(p + q + i * q, p + q + (i + 1) * q)]

    out: dict[str, Tensor3] = {}
    for gen in system.generators:
        kron = _kron(total, augment_tensor(ops_b[gen], op_unit_scalars(system, rules, t, gen)))
        op_a = ops_a[gen]
        denom = math.lcm(kron.denom, op_a.denom)
        grow_a, grow_kron = denom // op_a.denom, denom // kron.denom
        # (x⊗1)(x'⊗1) = (x op x') ⊗ 1; the Kronecker product gives the
        # rest, once its unit-right-factor pairs and 1⊗1 inputs are dropped
        items = [(i, j, k, n * grow_a) for i, j, k, n in op_a.numerators]
        items.extend(
            (place[x], place[y], place[z], n * grow_kron)
            for x, y, z, n in kron.numerators
            if (x % (q + 1) or y % (q + 1)) and x and y
        )
        out[gen] = Tensor3.from_numerators(p + q + p * q, denom, items)
    return out


def check_coherence(
    system: AxiomSystem,
    ops_a: dict[str, Tensor3],
    ops_b: dict[str, Tensor3],
    t: Fraction,
    rules: UnitRules,
    total_name: str,
    title: str | None = None,
) -> Report:
    """Verify that a unit action is coherent: the mixed space on
    ``A⊗1 ⊕ 1⊗B ⊕ A⊗B`` satisfies all the identities again."""
    from .relations import check_system

    mixed = coherence_ops(system, ops_a, ops_b, t, rules, total_name)
    report = check_system(
        system, mixed, t, title=title or f"{system.name} coherence"
    )
    report.notes.append(
        f"mixed space of dimensions {next(iter(ops_a.values())).dim} and "
        f"{next(iter(ops_b.values())).dim}"
    )
    return report


def ennea_coherence(
    a: EnneaStructure, b: EnneaStructure, rules: UnitRules | None = None
) -> EnneaStructure:
    """The mixed-space nine-operation structure for two structures."""
    if a.t != b.t:
        raise ValueError("both structures must share the family parameter t")
    mixed = coherence_ops(
        NINE_OP_SYSTEM, a.ops, b.ops, a.t, rules or nine_op_unit_rules(), "starbar"
    )
    return EnneaStructure(t=a.t, ops=mixed)


def check_ennea_coherence(
    a: EnneaStructure, b: EnneaStructure, rules: UnitRules | None = None
) -> Report:
    """Coherence of a unit action for two nine-operation structures."""
    report = check_ennea(ennea_coherence(a, b, rules))
    report.title = "nine-operation coherence on the mixed space"
    return report
