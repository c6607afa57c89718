"""Mechanical one-parameter formal deformations of splitting structures.

Deform every operation of a splitting structure as  op(h) = op0 + h op1.
Substituting into a quadratic identity and collecting powers of h gives

* degree 0 — the base identities on the unlabeled operations (terms through
  operations with zero base part drop; identities with no terms left drop),
* degree 1 — the cross-term system mixing unlabeled and labeled operations,
* degree 2 — the base identities on the labeled operations.

:func:`cross_term_system` performs that bookkeeping for each variant of
:data:`splitalg.relations.DEFORMATIONS`, producing the quadratic presentation
``deformed_<variant>`` over a doubled alphabet (labeled generators get a
``1`` suffix, and composite slots stay unexpanded so the printed systems and
the unit checks can use them).

The second half of the module builds concrete instances on End(A) from a
pair of coproducts on one algebra (via the convolution Baxter operators),
each holding its tensors once as a Structure of the deformed system, and
verifies them: against the generated presentation, against the one remaining
operator-level equation, and order by order in h from the same tensors.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

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


def _labeled(name: str) -> str:
    return name + "1"


def cross_term_system(variant: str) -> AxiomSystem:
    """Polarize the relation table of ``DEFORMATIONS[variant]`` for
    op(h) = op0 + h op1, as the presentation ``deformed_<variant>``.

    The variant's kept generators keep their base part op0; the others
    deform from zero (only their op1 exists).  An identity of degree d in h
    is named ``d<d>:<base identity>``, and the identities come in degree
    order.
    """
    base, nonzero = DEFORMATIONS[variant]
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

    def polarize_terms(terms: Sequence[Term], degree: int) -> tuple[Term, ...]:
        out: list[Term] = []
        for coeff, inner, outer in terms:
            if degree == 0:
                if base0_ok[inner] and base0_ok[outer]:
                    out.append(Term(coeff, inner, outer))
            elif degree == 2:
                out.append(Term(coeff, _labeled(inner), _labeled(outer)))
            else:
                if base0_ok[inner]:
                    out.append(Term(coeff, inner, _labeled(outer)))
                if base0_ok[outer]:
                    out.append(Term(coeff, _labeled(inner), outer))
        return tuple(out)

    relations: list[Relation] = []
    for degree in (0, 1, 2):
        for rel in base.relations:
            lhs = polarize_terms(rel.lhs, degree)
            rhs = polarize_terms(rel.rhs, degree)
            if lhs or rhs:
                relations.append(Relation(f"d{degree}:{rel.name}", lhs, rhs))

    # the unital total operation: base total + labeled total
    total = base.total()
    if total is not None:
        composites[f"{total}_total"] = composites.get(total, ()) + composites[_labeled(total)]

    return AxiomSystem(
        name=f"deformed_{variant}",
        generators=generators,
        composites=composites,
        relations=tuple(relations),
    )


# ---------------------------------------------------------------------------
# concrete instances on End(A) from a pair of coproducts
# ---------------------------------------------------------------------------

VARIANTS = ("two_three", "three_three", "four_four", "nine_nine")


@dataclasses.dataclass(frozen=True)
class DeformationInstance:
    """A deformed splitting structure on End(A) built from two coproducts."""

    variant: str
    end: FiniteAlgebra
    structure: Structure                    # deformed_<variant>'s tensors
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
    * ``nine_nine``   full nine-op base (t = t1, nonzero),
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
    if variant == "nine_nine" and (t != t1 or t == 0):
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
    ops = {g: unlabeled[g] for g in base.generators if g in nonzero}
    ops.update({_labeled(g): labeled[g] for g in base.generators})
    return DeformationInstance(
        variant=variant,
        end=end,
        structure=Structure(cross_term_system(variant), t_eval, ops),
        r=t,
        r1=t1,
        left_conv=cs.left_conv,
        left_conv1=cs1.left_conv,
    )


def check_deformation_instance(instance: DeformationInstance) -> Report:
    """All generated relations (degrees 0, 1, 2) on the instance tensors."""
    return check_system(instance.structure, f"deformed system ({instance.variant})")


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
    instance: DeformationInstance, order: int = 3, tau: Scalar = 1
) -> Report:
    """Check the base identities order by order for op(h) = op0 + (tau h) op1,
    op0 the instance's unlabeled operation (zero where the deformation drops
    it) and op1 its labeled one.  All coefficients of h^m for m < order must
    vanish identically; an order below 1 would check nothing and raises
    ValueError."""
    if order < 1:
        raise ValueError(f"the series order must be at least 1, got {order}")
    tau = rat(tau)
    s = instance.structure
    base = DEFORMATIONS[instance.variant][0]
    at = base.at(s.t)
    zero = Tensor3.zero(s.dim)
    coeffs = {
        name: (s.tensor(name) if name in s.table.ops else zero, s.tensor(_labeled(name)).scale(tau))
        for name in at.ops
    }
    report = Report(
        title=f"order-by-order deformation check (order<{order}, tau={tau})",
        passed=True,
        checks_run=order * len(base.relations) * s.dim**3,
    )
    # every product at an order m >= 3 has a zero factor of order >= 2:
    # those orders hold as they stand and are counted without being summed
    for rel, (lhs, rhs) in zip(base.relations, at.relations):
        for m in range(min(order, 3)):
            total: CompositionMap = {}
            for sign, terms, composer in ((ONE, lhs, compose_left), (-ONE, rhs, compose_right)):
                for c, inner, outer in terms:
                    for p in (0, 1):
                        if 0 <= m - p <= 1:
                            part = composer(coeffs[inner][p], coeffs[outer][m - p])
                            accumulate(total, part, c * sign)
            diff = first_discrepancy(total, {})
            if diff is not None:
                key, lvec, _ = diff
                report.add_failure(Witness(f"{rel.name}@h^{m}", key, lvec, {}))
    return report
