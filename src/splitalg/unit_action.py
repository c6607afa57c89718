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
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactlin import (
    ONE,
    ZERO,
    Scalar,
    Tensor3,
    combine,
    first_nested_difference,
    kron,
    rat,
)
from .relations import Structure, SystemAt, _side_terms, check_system, resolve_tensor
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
        raise KeyError(f"rule names not among the generators: {sorted(unknown)}")
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
        raise KeyError(f"unit rules missing for generators: {sorted(missing)}")
    return {
        name: UnitScalars(
            sum((c * rat(rules[gen][0]) for c, gen in parts), ZERO),
            sum((c * rat(rules[gen][1]) for c, gen in parts), ZERO),
        )
        for name, parts in at.ops.items()
    }


def augment_tensor(tensor: Tensor3, scalars: UnitScalars) -> Tensor3:
    """Structure tensor of one operation on ``k·1 ⊕ A`` (unit at index 0).

    The undefined corner (both arguments the unit) is stored as zero;
    :func:`coherence_ops` never reads it, since it drops the products whose
    right factors are both the unit.
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


def _boundary(ops, dim, at, terms):
    """The number of skipped triples and (triple, lhs, rhs) at the first
    failure of each failing face, edge and corner.  ``at`` is the system's
    table at t; ``terms`` are (left_nested, c, faces, edges), the last two
    from :func:`_regions`.

    An edge or the corner is skipped when a term there is undefined, and is
    otherwise an identity of scalars.  A face resolves both sides to
    generator coefficients at t: when those agree it holds for every
    structure, otherwise its first failure is the first entry of their
    difference tensor.
    """
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
                for value, gen in at.ops[name]:
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
            vecs = ({k + 1: v for i, j, k, v in s.nonzeros() if (i, j) == (a, b)} for s in sums)
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
    system, ops, dim = s.system, s.ops, s.dim
    at = system.at(s.t)
    scalars = unit_scalars(at, rules)
    report = Report(title=title or f"{system.name} unit compatibility", passed=True)
    cache: dict[str, Tensor3] = {}
    for relation, (lhs, rhs) in zip(system.relations, at.relations):
        terms = [
            (left_nested, c, *_regions(left_nested, scalars[inner], scalars[outer], inner, outer))
            for side, left_nested in ((lhs, True), (rhs, False))
            for c, inner, outer in side
        ]
        skipped, failures = _boundary(ops, dim, at, terms)
        report.checks_run += (dim + 1) ** 3 - skipped
        report.skipped_undefined += skipped
        # no interior triple has x = 0, so such a failure comes first
        if all(triple[0] for triple, *_ in failures):
            diff = first_nested_difference(
                _side_terms(at, ops, lhs, cache), _side_terms(at, ops, rhs, cache)
            )
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

    Each operation is the Kronecker product of the augmented total
    operation on ``k·1 ⊕ A`` with the operation augmented by its rule
    scalars on ``k·1 ⊕ B``, restricted to the mixed space (inputs at
    ``1⊗1`` dropped) — except that two unit right factors flip the
    operation onto the left factors, so that block is the operation on A.
    ``a`` and ``b`` must share one system and t, and the rule table must
    make the total operation unital, otherwise the mixed space has no
    consistent product; either failure raises ValueError.

    Basis layout: ``x_i ⊗ 1`` at i, ``1 ⊗ y_j`` at p + j, and
    ``x_i ⊗ y_j`` at p + q + i*q + j.
    """
    if a.system != b.system or a.t != b.t:
        raise ValueError("a mixed space needs two structures of one system and one t")
    system, t = a.system, a.t
    at = system.at(t)
    scalars = unit_scalars(at, rules)
    s_total = scalars[total_name]
    if not (s_total.defined and s_total.right == ONE):
        raise ValueError(
            f"the rule table does not make {total_name!r} unital; "
            "the mixed-space construction needs a genuine unit"
        )
    p, q = a.dim, b.dim
    total = augment_tensor(resolve_tensor(at, a.ops, t, total_name), s_total)
    # Kronecker index a*(q+1) + b, with 0 the unit in either factor, to the
    # mixed-space layout; 1⊗1 has no place there
    place: list[int | None] = [None, *range(p, p + q)]
    for i in range(p):
        place += [i, *range(p + q + i * q, p + q + (i + 1) * q)]

    out: dict[str, Tensor3] = {}
    for gen in system.generators:
        pair = kron(total, augment_tensor(b.ops[gen], scalars[gen]))
        op_a = a.ops[gen]
        denom = math.lcm(pair.denom, op_a.denom)
        grow_a, grow_pair = denom // op_a.denom, denom // pair.denom
        # (x⊗1)(x'⊗1) = (x op x') ⊗ 1; the Kronecker product gives the
        # rest, once its unit-right-factor pairs and 1⊗1 inputs are dropped
        items = [(i, j, k, n * grow_a) for i, j, k, n in op_a.numerators]
        items.extend(
            (place[x], place[y], place[z], n * grow_pair)
            for x, y, z, n in pair.numerators
            if (x % (q + 1) or y % (q + 1)) and x and y
        )
        out[gen] = Tensor3.from_numerators(p + q + p * q, denom, items)
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
