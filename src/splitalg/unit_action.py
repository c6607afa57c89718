"""Adjoining a formal unit to a splitting structure.

A splitting structure has no unit of its own: the identities force any
two-sided unit for the total operation to act one-sidedly through the
individual operations.  One therefore *chooses* a unit action: for every
generating operation, two scalars saying what ``x op 1`` and ``1 op x``
are (each either ``x`` or ``0``).  Composite operations inherit their
scalars linearly, so a well-chosen rule table can make the associative
total operation genuinely unital even though every single generator is
one-sided.

The compatibility check runs every identity on ``k·1 ⊕ A`` without
building that space.  Its cube of argument triples (x, y, z), the unit at
index 0, splits by which arguments are the unit.  On the interior (none)
an identity is the identity on A.  On each of the three faces (one unit)
every term is a scalar times an operation on the other two arguments, so
a face equates two combinations of operations; it holds for every
structure when both resolve to the same generator coefficients.  On the
three edges (two units) and the corner it is an identity of scalars.
``1 op 1`` only makes sense when both one-sided scalars agree; an edge or
the corner where some term would evaluate an undefined one is skipped,
and its triples are counted in the report.

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
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactlin import (
    ONE,
    ZERO,
    Scalar,
    Tensor3,
    combine,
    first_nested_difference,
    rat,
)
from .relations import Structure, SystemAt, check_system
from .report import Report, Witness

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
        raise ValueError(f"rule names not among the generators: {sorted(unknown)}")
    return {
        gen: (
            IDENTITY if gen in right else NOTHING,
            IDENTITY if gen in left else NOTHING,
        )
        for gen in generators
    }


@dataclasses.dataclass(frozen=True)
class UnitScalars:
    """One operation's unit action: x op 1 = right*x, 1 op x = left*x."""

    right: Scalar
    left: Scalar

    @property
    def defined(self) -> bool:
        """Whether ``1 op 1`` makes sense (both sides give the same value)."""
        return self.right == self.left


def unit_scalars(at: SystemAt, rules: UnitRules) -> dict[str, UnitScalars]:
    """Unit-action scalars of every operation of a system, composites
    included, from its table at t."""
    missing = {gen for parts in at.ops.values() for _, gen in parts} - set(rules)
    if missing:
        raise ValueError(f"unit rules missing for generators: {sorted(missing)}")
    return {
        name: UnitScalars(
            sum((c * rat(rules[gen][0]) for c, gen in parts), ZERO),
            sum((c * rat(rules[gen][1]) for c, gen in parts), ZERO),
        )
        for name, parts in at.ops.items()
    }


def _regions(left_nested: bool, s_in: UnitScalars, s_out: UnitScalars, inner: str, outer: str):
    """One term with the unit in some of its arguments.  On the faces
    x, y, z = 1 it is a scalar times an operation on the other two arguments,
    in order; on the edges x = y, x = z, y = z = 1 a scalar times the
    remaining argument, and at the corner a scalar times the unit, or None
    where the term reads an undefined ``1 op 1``: the inner one on the edge
    x = y = 1 (left-nested) or y = z = 1 (right-nested) and at the corner,
    and the outer one at the corner when the inner one is not zero."""
    ri, li, ro, lo = s_in.right, s_in.left, s_out.right, s_out.left
    corner = ri * ro if s_in.defined and (s_out.defined or not ri) else None
    if left_nested:  # outer(inner(x, y), z)
        xy = ri * lo if s_in.defined else None
        return ((li, outer), (ri, outer), (ro, inner)), (xy, li * ro, ri * ro, corner)
    yz = ri * ro if s_in.defined else None
    return ((lo, inner), (li, outer), (ri, outer)), (li * lo, ri * lo, yz, corner)


# the smallest augmented triple of each edge and of the corner
_EDGE_TRIPLES = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0))


def _boundary(s, terms):
    """The number of skipped triples and (triple, lhs, rhs) at the first
    failure of each failing face, edge and corner of one identity on the
    structure ``s``.  ``terms`` are (left_nested, c, faces, edges), the last
    two from :func:`_regions`.

    An edge or the corner is skipped when a term there is undefined, and is
    otherwise an identity of scalars.  A face resolves both sides to
    generator coefficients at t: when those agree it holds for every
    structure, otherwise its first failure is the first entry of their
    difference tensor.
    """
    ops, dim = s.ops, s.dim
    skipped, failures = 0, []
    for r, triple in enumerate(_EDGE_TRIPLES):
        if any(edges[r] is None for *_, edges in terms):
            skipped += dim if any(triple) else 1
            continue
        lhs, rhs = (
            sum((c * e[r] for n, c, _, e in terms if n is side), ZERO) for side in (True, False)
        )
        if lhs != rhs:
            index = 1 if any(triple) else 0  # e_1 of A, or the unit
            failures.append((triple, {index: lhs} if lhs else {}, {index: rhs} if rhs else {}))
    for slot in range(3):
        coeffs: list[dict[str, Fraction]] = [{}, {}]
        for n, c, faces, _ in terms:
            scalar, name = faces[slot]
            if scalar:
                acc = coeffs[not n]
                for value, gen in s.table.ops[name]:
                    acc[gen] = acc.get(gen, ZERO) + c * scalar * value
        lhs, rhs = ({gen: v for gen, v in acc.items() if v} for acc in coeffs)
        if lhs == rhs:
            continue
        gens = lhs.keys() | rhs.keys()
        diff = combine(dim, [(lhs.get(g, ZERO) - rhs.get(g, ZERO), ops[g]) for g in gens])
        if diff.numerators:
            a, b = diff.numerators[0][:2]
            triple = [a + 1, b + 1]
            triple.insert(slot, 0)
            sums = (combine(dim, [(c, ops[g]) for g, c in side.items()]) for side in (lhs, rhs))
            vecs = ({k + 1: v for i, j, k, v in m.nonzeros() if (i, j) == (a, b)} for m in sums)
            failures.append((tuple(triple), *vecs))
    return skipped, failures


def check_unit_compatibility(
    s: Structure, rules: UnitRules, title: str | None = None
) -> Report:
    """Verify every identity of a structure's system on the unit-augmented
    space, region by region (see the module docstring).

    Edges and corners that read an undefined ``1 op 1`` are skipped and
    counted in ``skipped_undefined``.  The witness of a failing identity is
    its smallest failing triple over all regions, the unit at index 0.
    """
    system, dim = s.system, s.dim
    scalars = unit_scalars(s.table, rules)
    report = Report(title=title or f"{system.name} unit compatibility", passed=True)
    for relation, (lhs, rhs) in zip(system.relations, s.table.relations):
        terms = [
            (left_nested, c, *_regions(left_nested, scalars[inner], scalars[outer], inner, outer))
            for side, left_nested in ((lhs, True), (rhs, False))
            for c, inner, outer in side
        ]
        skipped, failures = _boundary(s, terms)
        report.checks_run += (dim + 1) ** 3 - skipped
        report.skipped_undefined += skipped
        # no interior triple has x = 0, so such a failure comes first
        if all(triple[0] for triple, *_ in failures):
            diff = first_nested_difference(s.terms(lhs), s.terms(rhs))
            if diff is not None:
                (x, y, z), lvec, rvec = diff
                shifted = ({m + 1: v for m, v in vec.items()} for vec in (lvec, rvec))
                failures.append(((x + 1, y + 1, z + 1), *shifted))
        if failures:
            context = f"{system.name}:{relation.name}+unit"
            report.add_failure(Witness(context, *min(failures, key=lambda f: f[0])))
    return report


def coherence_ops(a: Structure, b: Structure, rules: UnitRules, total_name: str) -> Structure:
    """The structure on ``A⊗1 ⊕ 1⊗B ⊕ A⊗B`` for a unit action.

    Each operation is built block by block (see the module docstring): the
    operation on A where both right factors are the unit, and elsewhere the
    unital total operation on the left factors times, on the right factors,
    the operation on B or its unit scalar (``1 op y`` or ``y op 1``).
    ``a`` and ``b`` must share one system and t, and the rule table must
    make the total operation unital, otherwise the mixed space has no
    consistent product; either failure raises ValueError.

    Basis layout: ``x_i ⊗ 1`` at i, ``1 ⊗ y_j`` at p + j, and
    ``x_i ⊗ y_j`` at p + q + i*q + j.
    """
    if a.system != b.system or a.t != b.t:
        raise ValueError("a mixed space needs two structures of one system and one t")
    system, t = a.system, a.t
    scalars = unit_scalars(a.table, rules)
    s_total = scalars[total_name]
    if not (s_total.defined and s_total.right == ONE):
        raise ValueError(
            f"the rule table does not make {total_name!r} unital; "
            "the mixed-space construction needs a genuine unit"
        )
    p, q = a.dim, b.dim
    dim = p + q + p * q

    def place(i: int | None, j: int | None) -> int:
        """Index of x_i ⊗ y_j, None standing for the unit of either factor."""
        if j is None:
            return i
        return p + j if i is None else p + q + i * q + j

    def products(left, right, denom: int) -> Tensor3:
        """(x⊗y)(x'⊗y') = (x·x') ⊗ (y·y') for entries (x, x', x·x', n) of
        ``left`` and (y, y', y·y', m) of ``right``, over ``denom``."""
        return Tensor3.from_numerators(
            dim,
            denom,
            [
                (place(i, j), place(i2, j2), place(k, k2), n * m)
                for i, i2, k, n in left
                for j, j2, k2, m in right
            ],
        )

    # the total operation on A, made unital on k·1 ⊕ A
    total = a.tensor(total_name)
    d = total.denom
    unital = [(None, None, None, d), *total.numerators]
    unital += [(None, i, i, d) for i in range(p)] + [(i, None, i, d) for i in range(p)]
    # (x⊗1)(x'⊗y) = (x·x') ⊗ (1 op y) and (x⊗y)(x'⊗1) = (x·x') ⊗ (y op 1),
    # before the unit scalars
    left_unit = [(None, j, j, 1) for j in range(q)]
    right_unit = [(j, None, j, 1) for j in range(q)]
    by_left = products([e for e in unital if e[0] is not None], left_unit, d)
    by_right = products([e for e in unital if e[1] is not None], right_unit, d)
    out: dict[str, Tensor3] = {}
    for gen in system.generators:
        op_a, op_b, s = a.ops[gen], b.ops[gen], scalars[gen]
        on_a = Tensor3(dim, op_a.denom, op_a.numerators)  # (x⊗1)(x'⊗1) = (x op x') ⊗ 1
        on_b = products(unital, op_b.numerators, d * op_b.denom)
        out[gen] = combine(dim, [(ONE, on_a), (ONE, on_b), (s.left, by_left), (s.right, by_right)])
    return Structure(system, t, out)


def check_coherence(
    a: Structure,
    b: Structure,
    rules: UnitRules,
    total_name: str,
    title: str | None = None,
) -> Report:
    """Verify that a unit action is coherent: the mixed space on
    ``A⊗1 ⊕ 1⊗B ⊕ A⊗B`` satisfies all the identities again."""
    mixed = coherence_ops(a, b, rules, total_name)
    report = check_system(mixed, title or f"{a.system.name} coherence")
    report.notes.append(f"mixed space of dimensions {a.dim} and {b.dim}")
    return report
