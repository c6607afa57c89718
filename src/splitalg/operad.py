"""Degree-3 dimension counts for binary quadratic presentations.

A presentation with g binary generators has 2 g^2 degree-3 monomials in one
variable ordering: the left-nested ones (x outer_gen( inner_gen(x, y), z ))
and the right-nested ones.  Each quadratic identity is one linear relation
among those monomials, so the degree-3 component has dimension

    dim_3 = 2 g^2 - rank(relation matrix).

The relation matrix is exact: its entries are the identity coefficients
evaluated at a concrete family parameter t.  It is very sparse (the 147
identities of ``deformed_nine_nine`` touch 648 of its 147 x 648 slots), so
:func:`relation_rows` builds each identity directly as a ``{column: int}``
row with its denominators cleared, and the rank comes from the sparse
fraction-free kernel :func:`splitalg.exactlin.rank_int_rows`; no dense matrix
is built on the way.

Monomial ordering (fixed, used by the JSON output too): left-nested monomials
first, at index outer*g + inner; then right-nested at g^2 + outer*g + inner,
with generators in presentation order.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .exactlin import ZERO, Scalar, integer_row, rank_int_rows, rat
from .relations import DEFORMATIONS, SYSTEMS, AxiomSystem, expand_relation


@dataclasses.dataclass(frozen=True)
class Degree3Count:
    system_name: str
    t: Fraction
    generators: int
    relations: int
    monomials: int          # 2 g^2
    nonzeros: int           # nonzero entries of the relation matrix
    rank: int
    dim3: int               # monomials - rank


def relation_rows(system: AxiomSystem, t: Scalar) -> list[dict[int, int]]:
    """One sparse integer row per identity, in relation order: +lhs
    coefficients on left-nested monomial columns, -rhs coefficients on
    right-nested ones, evaluated at t, zeros dropped and the row multiplied by
    the lcm of its denominators."""
    t = rat(t)
    gens = system.generators
    g = len(gens)
    col = {name: i for i, name in enumerate(gens)}
    rows = []
    for relation in system.relations:
        acc: dict[int, Fraction] = {}
        lhs, rhs = expand_relation(system, relation)
        for (outer, inner), poly in lhs.items():
            key = col[outer] * g + col[inner]
            acc[key] = acc.get(key, ZERO) + poly.eval(t)
        for (outer, inner), poly in rhs.items():
            key = g * g + col[outer] * g + col[inner]
            acc[key] = acc.get(key, ZERO) - poly.eval(t)
        rows.append(integer_row(acc))
    return rows


def degree3_dimension(system: AxiomSystem, t: Scalar = 0) -> Degree3Count:
    t = rat(t)
    g = len(system.generators)
    rows = relation_rows(system, t)
    r = rank_int_rows(rows)
    return Degree3Count(
        system_name=system.name,
        t=t,
        generators=g,
        relations=len(system.relations),
        monomials=2 * g * g,
        nonzeros=sum(len(row) for row in rows),
        rank=r,
        dim3=2 * g * g - r,
    )


# name -> (base system, generators kept nonzero at h = 0 by its one-parameter
# formal deformation, or None for the base system itself)
_PRESETS: dict[str, tuple[AxiomSystem, tuple[str, ...] | None]] = {
    **{name: (system, None) for name, system in SYSTEMS.items()},
    **{f"deformed_{name}": pair for name, pair in DEFORMATIONS.items()},
}

PRESET_NAMES = tuple(_PRESETS)


def builtin_presentation(name: str) -> AxiomSystem:
    """One named presentation, building only that one; a name outside
    :data:`PRESET_NAMES` raises KeyError."""
    base, nonzero_base = _PRESETS[name]
    if nonzero_base is None:
        return base
    from .deformation import cross_term_system

    return cross_term_system(base, nonzero_base=nonzero_base).system


def builtin_presentations() -> dict[str, AxiomSystem]:
    """Named presentations: the four base splitting families and their
    one-parameter formal deformations (cross-term systems)."""
    return {name: builtin_presentation(name) for name in PRESET_NAMES}
