"""Mechanical one-parameter formal deformations of splitting structures.

Deform every operation of a splitting structure as  op(h) = op0 + h op1.
Substituting into a quadratic identity and collecting powers of h gives

* degree 0 — the base identities on the unlabeled operations (terms through
  operations with zero base part drop; identities with no terms left drop),
* degree 1 — the cross-term system mixing unlabeled and labeled operations,
* degree 2 — the base identities on the labeled operations.

:func:`cross_term_system` performs that bookkeeping over the relation tables
of :mod:`splitalg.relations`, producing a new quadratic presentation over a
doubled alphabet (labeled generators get a ``1`` suffix, and composite slots
stay unexpanded so the printed systems and the unit checks can use them).

The second half of the module builds concrete instances on End(A) from a
pair of coproducts on one algebra (via the convolution Baxter operators) and
verifies them: against the generated presentation, against the one remaining
operator-level equation, and order by order as a truncated power series.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .exactlin import (
    ONE,
    ZERO,
    CompositionMap,
    LinearOperator,
    Scalar,
    Tensor3,
    accumulate,
    combine,
    compose_left,
    compose_right,
    first_discrepancy,
    rat,
    twist,
)
from .relations import (
    DEFORMATIONS,
    THREE_OP_SYSTEM,
    AxiomSystem,
    Relation,
    Structure,
    Term,
    check_system,
)
from .report import Report, Witness, compare_on_pairs

if TYPE_CHECKING:  # baxter_deformation imports what it builds with
    from .algebra_core import CoalgebraData, FiniteAlgebra


@dataclasses.dataclass(frozen=True)
class DeformedSystem:
    """The quadratic presentation of a one-parameter deformation."""

    base: AxiomSystem
    system: AxiomSystem
    degree0: tuple[str, ...]
    degree1: tuple[str, ...]
    degree2: tuple[str, ...]


def _labeled(name: str) -> str:
    return name + "1"


def cross_term_system(base: AxiomSystem, nonzero_base: Iterable[str]) -> DeformedSystem:
    """Polarize a relation table for op(h) = op0 + h op1.

    ``nonzero_base`` lists the generators whose base part op0 is kept;
    the others deform from zero (only their op1 exists).
    """
    nonzero = frozenset(nonzero_base)
    unknown = nonzero - set(base.generators)
    if unknown:
        raise ValueError(f"not generators of {base.name}: {sorted(unknown)}")

    generators = tuple(g for g in base.generators if g in nonzero) + tuple(
        _labeled(g) for g in base.generators
    )
    composites: dict[str, tuple] = {}
    base0_ok: dict[str, bool] = {g: g in nonzero for g in base.generators}
    for name, parts in base.composites.items():
        kept = tuple((poly, g) for poly, g in parts if g in nonzero)
        base0_ok[name] = bool(kept)
        if kept:
            composites[name] = kept
        composites[_labeled(name)] = tuple((poly, _labeled(g)) for poly, g in parts)

    def at0(name: str) -> str | None:
        return name if base0_ok[name] else None

    def polarize_terms(terms: Sequence[Term], degree: int) -> tuple[Term, ...]:
        out: list[Term] = []
        for coeff, inner, outer in terms:
            if degree == 0:
                if at0(inner) and at0(outer):
                    out.append(Term(coeff, inner, outer))
            elif degree == 2:
                out.append(Term(coeff, _labeled(inner), _labeled(outer)))
            else:
                if at0(inner):
                    out.append(Term(coeff, inner, _labeled(outer)))
                if at0(outer):
                    out.append(Term(coeff, _labeled(inner), outer))
        return tuple(out)

    relations: list[Relation] = []
    names_by_degree: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for degree in (0, 1, 2):
        for rel in base.relations:
            lhs = polarize_terms(rel.lhs, degree)
            rhs = polarize_terms(rel.rhs, degree)
            if not lhs and not rhs:
                continue
            name = f"d{degree}:{rel.name}"
            relations.append(Relation(name, lhs, rhs))
            names_by_degree[degree].append(name)

    # the unital total operation: base total + labeled total
    total = base.total()
    if total is not None:
        composites[f"{total}_total"] = composites.get(total, ()) + composites[_labeled(total)]

    system = AxiomSystem(
        name=f"{base.name}_deformed",
        generators=generators,
        composites=composites,
        relations=tuple(relations),
    )
    return DeformedSystem(
        base=base,
        system=system,
        degree0=tuple(names_by_degree[0]),
        degree1=tuple(names_by_degree[1]),
        degree2=tuple(names_by_degree[2]),
    )


# ---------------------------------------------------------------------------
# concrete instances on End(A) from a pair of coproducts
# ---------------------------------------------------------------------------

VARIANTS = ("two_three", "three_three", "four_four", "nine_nine")


@dataclasses.dataclass(frozen=True)
class DeformationInstance:
    """A deformed splitting structure on End(A) built from two coproducts."""

    variant: str
    deformed: DeformedSystem
    end: FiniteAlgebra
    ops: dict[str, Tensor3]                 # doubled-alphabet generators
    series: dict[str, list[Tensor3]]        # base generator -> [order0, order1]
    t_eval: Fraction                        # family parameter for coefficients
    r: Fraction
    r1: Fraction
    left_conv: LinearOperator               # id * (-) for delta, at r
    left_conv1: LinearOperator              # id * (-) for delta1, at r1


def two_operator_equation(
    end: FiniteAlgebra,
    first: LinearOperator,
    second: LinearOperator,
    r: Scalar,
    r1: Scalar,
) -> Report:
    """The single operator identity equivalent to the cross-term system when
    both operator families come from Baxter operators (first with parameter
    r, second with parameter r1):

        first(T second(S)) + first(second(T) S) + r1 first(T S)
      + second(T first(S)) + second(first(T) S) + r  second(T S)
      = second(T) first(S) + first(T) second(S).
    """
    r, r1 = rat(r), rat(r1)
    m = end.mult
    lhs = combine(
        m.dim,
        [
            (ONE, twist(m, right=second, post=first)),
            (ONE, twist(m, left=second, post=first)),
            (r1, twist(m, post=first)),
            (ONE, twist(m, right=first, post=second)),
            (ONE, twist(m, left=first, post=second)),
            (r, twist(m, post=second)),
        ],
    )
    rhs = combine(
        m.dim,
        [(ONE, twist(m, left=second, right=first)), (ONE, twist(m, left=first, right=second))],
    )
    report = Report(title="two-operator deformation equation", passed=True)
    compare_on_pairs(report, "operator-equation", lhs, rhs)
    return report


def baxter_deformation(
    variant: str,
    algebra: FiniteAlgebra,
    delta: CoalgebraData,
    delta1: CoalgebraData,
    t: Scalar,
    t1: Scalar,
) -> DeformationInstance:
    """Build a deformation instance on End(A) from two compatible coproducts.

    Both (algebra, delta, t) and (algebra, delta1, t1) must be t-twisted
    bialgebras.  Variants that mix one coproduct's left convolution with the
    other's right convolution also need the pairwise coproduct exchange law;
    the purely left-sided variants only need the two-operator deformation
    identity, which ``instance_operator_equation`` verifies directly.  The
    variant and its parameters are refused first, then the bialgebras and
    the exchange law are checked; each failure raises ValueError.  The
    variant picks the structure being deformed:

    * ``two_three``   two-op base (t must be 0) deformed with labeled
                      three-op operations from delta1;
    * ``three_three`` three-op base deformed with labeled three-op ops;
    * ``four_four``   four-corner base (t = t1 = 0) from the commuting
                      convolution pair, labeled corners swap in delta1;
    * ``nine_nine``   full nine-op base (t = t1, nonzero recommended),
                      labeled ops swap in delta1.
    """
    from .baxter import commute
    from .bialgebra import (
        EpsilonBialgebra,
        check_eps_bialgebra,
        check_hypercubic,
        convolution_structure,
    )
    from .splitting import ennea_from_commuting_pair, trialgebra_from_baxter

    t, t1 = rat(t), rat(t1)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    if variant == "two_three" and t != 0:
        raise ValueError("two_three needs the unlabeled coproduct at parameter 0")
    if variant == "four_four" and (t != 0 or t1 != 0):
        raise ValueError("four_four needs both coproducts at parameter 0")
    if variant == "nine_nine" and t != t1:
        raise ValueError("nine_nine needs one shared nonzero parameter")
    b = EpsilonBialgebra(algebra, delta, t)
    b1 = EpsilonBialgebra(algebra, delta1, t1)
    reports = [check_eps_bialgebra(b), check_eps_bialgebra(b1)]
    if variant == "four_four":
        # the labeled corners pair delta1's left convolution with
        # delta's right convolution, which needs the exchange law
        reports.append(check_hypercubic([delta, delta1]))
    for rep in reports:
        if not rep.passed:
            raise ValueError("precondition failed:\n" + rep.summary())
    cs = convolution_structure(b)
    cs1 = convolution_structure(b1)
    end = cs.end
    base, nonzero = DEFORMATIONS[variant]
    if base is THREE_OP_SYSTEM:
        unlabeled = trialgebra_from_baxter(end, cs.left_conv, t).ops
        labeled = trialgebra_from_baxter(end, cs1.left_conv, t1).ops
        t_eval = ZERO
    else:
        right = cs.right_conv  # both structures share delta's right convolution
        if not commute(cs1.left_conv, right):
            raise ValueError("labeled operator must commute with the right convolution")
        unlabeled = ennea_from_commuting_pair(end, cs.left_conv, right, t).ops
        labeled = ennea_from_commuting_pair(end, cs1.left_conv, right, t1).ops
        t_eval = t
    zero = Tensor3.zero(end.dim)
    ops = {g: unlabeled[g] for g in base.generators if g in nonzero}
    ops.update({_labeled(g): labeled[g] for g in base.generators})
    series = {g: [unlabeled[g] if g in nonzero else zero, labeled[g]] for g in base.generators}
    return DeformationInstance(
        variant=variant,
        deformed=cross_term_system(base, nonzero),
        end=end,
        ops=ops,
        series=series,
        t_eval=t_eval,
        r=t,
        r1=t1,
        left_conv=cs.left_conv,
        left_conv1=cs1.left_conv,
    )


def check_deformation_instance(instance: DeformationInstance) -> Report:
    """All generated relations (degrees 0, 1, 2) on the instance tensors."""
    structure = Structure(instance.deformed.system, instance.t_eval, instance.ops)
    return check_system(structure, f"deformed system ({instance.variant})")


def instance_operator_equation(instance: DeformationInstance) -> Report:
    """The operator-level equation for the instance's two left-convolution
    operators."""
    return two_operator_equation(
        instance.end, instance.left_conv, instance.left_conv1, instance.r, instance.r1
    )


# ---------------------------------------------------------------------------
# truncated power-series verification
# ---------------------------------------------------------------------------


def deformed_structure_check(
    base: AxiomSystem,
    series: Mapping[str, Sequence[Tensor3]],
    t_eval: Scalar = 0,
    order: int = 3,
    tau: Scalar = 1,
) -> Report:
    """Check the base identities order by order for op(h) = sum_m h^m op_m.

    ``series`` maps each base generator to its list of h-coefficients
    (missing orders are zero); ``tau`` rescales every order-1 coefficient,
    giving the one-parameter family op0 + (tau h) op1.  All coefficients of
    h^m for m < order must vanish identically; an order below 1 would check
    nothing and raises ValueError.
    """
    if order < 1:
        raise ValueError(f"the series order must be at least 1, got {order}")
    t_eval, tau = rat(t_eval), rat(tau)
    dims = {s[0].dim for s in series.values() if s}
    if len(dims) != 1:
        raise ValueError("series tensors must share one dimension")
    dim = dims.pop()

    at = base.at(t_eval)
    # The closure does not refer to itself, so no reference cycle keeps its
    # cache alive after the check returns.
    cache: dict[tuple[str, int], Tensor3] = {}

    def op_series(name: str, m: int) -> Tensor3:
        """The h^m coefficient of an operation, generators included."""
        key = (name, m)
        if key not in cache:
            parts = [(c * tau**m, series.get(gen, ())) for c, gen in at.ops[name]]
            cache[key] = combine(dim, [(w, coeffs[m]) for w, coeffs in parts if m < len(coeffs)])
        return cache[key]

    report = Report(
        title=f"order-by-order deformation check (order<{order}, tau={tau})",
        passed=True,
    )
    # every product at order m >= 2L - 1, L the longest coefficient list,
    # has a factor of order >= L, which is zero: those orders hold as they
    # stand and are counted without being summed
    summed = min(order, 2 * max(map(len, series.values())) - 1)
    report.checks_run += (order - summed) * len(base.relations) * dim**3
    for rel, (lhs, rhs) in zip(base.relations, at.relations):
        for m in range(summed):
            total: CompositionMap = {}
            for sign, terms, composer in ((ONE, lhs, compose_left), (-ONE, rhs, compose_right)):
                for c, inner, outer in terms:
                    value = c * sign
                    for p in range(m + 1):
                        part = composer(op_series(inner, p), op_series(outer, m - p))
                        accumulate(total, part, value)
            report.checks_run += dim**3
            diff = first_discrepancy(total, {})
            if diff is not None:
                key, lvec, _ = diff
                report.add_failure(Witness(f"{rel.name}@h^{m}", key, lvec, {}))
    return report
