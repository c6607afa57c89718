"""Bialgebras with a t-twisted product/coproduct compatibility.

The compatibility studied here (for a parameter t) is

    delta(x y) = x_(1) (x) x_(2) y  +  x y_(1) (x) y_(2)  +  t x (x) y.

Such structures canonically equip the endomorphism space End(A) with a
commuting pair of t-Baxter operators (left and right convolution with the
identity), and therefore with a nine-operation splitting of composition.
This module builds the convolution operators from the coproduct and hands
them to the generic commuting-pair construction.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

from .algebra_core import CoalgebraData, FiniteAlgebra, check_coassociative, full_matrix_algebra
from .exactlin import (
    ONE,
    ZERO,
    LinearOperator,
    Tensor3,
    combine,
    first_nested_difference,
    rat,
    twist,
)
from .baxter import transpose_operator
from .report import Report, Witness, compare_dual, compare_on_pairs
from .splitting import EnneaStructure, PreLieStructure, ennea_from_commuting_pair


@dataclasses.dataclass(frozen=True)
class EpsilonBialgebra:
    """An algebra and a coproduct tied by the t-twisted compatibility."""

    algebra: FiniteAlgebra
    delta: CoalgebraData
    t: Fraction

    def __post_init__(self):
        if self.algebra.dim != self.delta.dim:
            raise ValueError("algebra/coproduct dimension mismatch")
        object.__setattr__(self, "t", rat(self.t))

    @property
    def dim(self) -> int:
        return self.algebra.dim


def first_compat_failure(
    mult: Tensor3, dual: Tensor3, t: Fraction
) -> tuple[tuple[int, int, int, int], Fraction, Fraction] | None:
    """The smallest (i, j, a, b) where the t-twisted compatibility fails,
    with both sides' e_a (x) e_b coefficients at (e_i, e_j), or None when it
    holds on every basis pair.  This is the one place its terms are written.
    On the triples (i, j, a), output b, the left-nested terms (read as
    (i, a, j)) sum to the right side and the right-nested one (read as
    (a, i, j)) is delta(x y); ``legs`` and ``split`` hold the leg
    e_a (x) e_b of delta(e_k) at (k, a, b) and at (a, k, b)."""
    n = mult.dim
    legs, split = dual.permuted((2, 0, 1)), dual.permuted((0, 2, 1))
    diagonal = Tensor3(n, 1, tuple((u, u, 0, 1) for u in range(n)))  # u (x) u -> e_0
    carry = Tensor3(n, 1, tuple((0, y, y, 1) for y in range(n)))  # (e_0, y) -> y
    order = (0, 2, 1)
    rhs_terms = [
        (ONE, legs, mult, order),  # x_(1) (x) x_(2) y
        (ONE, mult.permuted(order), split, order),  # x y_(1) (x) y_(2)
        (t, diagonal, carry, order),  # t x (x) y
    ]
    diff = first_nested_difference(rhs_terms, [(ONE, mult, split, (2, 0, 1))])
    if diff is None:
        return None
    triple, rhs, lhs = diff
    b = min(m for m in lhs.keys() | rhs.keys() if lhs.get(m) != rhs.get(m))
    return triple + (b,), lhs.get(b, ZERO), rhs.get(b, ZERO)


def check_eps_bialgebra(b: EpsilonBialgebra) -> Report:
    """Coassociativity plus the t-twisted product compatibility."""
    report = check_coassociative(b.delta, f"t-twisted bialgebra (t={b.t})")
    failure = first_compat_failure(b.algebra.mult, b.delta.dual, b.t)
    if failure is None:
        report.checks_run += b.dim**2
    else:
        i, j, *_ = failure[0]
        report.checks_run += i * b.dim + j + 1
        report.add_failure(Witness("product-compat", *failure))
    return report


def check_hypercubic(deltas: Sequence[CoalgebraData]) -> Report:
    """Pairwise coproduct exchange laws (i = j gives coassociativity):

    (delta_i (x) id) delta_j == (id (x) delta_j) delta_i   for all i, j.
    """
    if not deltas:
        raise ValueError("at least one coproduct is needed")
    if len({d.dim for d in deltas}) != 1:
        raise ValueError("all coproducts must share one dimension")
    report = Report(title=f"coproduct exchange laws ({len(deltas)} coproducts)", passed=True)
    duals = [delta.dual for delta in deltas]
    for pi, p in enumerate(duals):
        for qi, q in enumerate(duals):
            if not compare_dual(report, f"exchange[{pi},{qi}]", [(ONE, p, q)], [(ONE, q, p)]):
                return report
    return report


# ---------------------------------------------------------------------------
# convolution on End(A)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConvolutionStructure:
    """End(A) with composition, the convolution product, and the two
    one-sided convolutions with the identity map."""

    end: FiniteAlgebra
    conv: Tensor3
    left_conv: LinearOperator  # T  ->  id * T
    right_conv: LinearOperator  # T  ->  T * id
    id_vec: tuple[Fraction, ...]


def convolution_structure(b: EpsilonBialgebra) -> ConvolutionStructure:
    """Build End(A) data: basis E[p,q] at index p*n+q sends e_q to e_p."""
    n = b.dim
    end = full_matrix_algebra(n)
    dim = n * n
    # (T * S)(e_i) = sum c * T(e_j) S(e_k); on matrix units T = E[a,j],
    # S = E[a2,k] this is c * e_a e_a2 as a column of E[.,i].
    mult, dual = b.algebra.mult, b.delta.dual
    conv = Tensor3.from_numerators(
        dim,
        dual.denom * mult.denom,
        (
            (a * n + j, a2 * n + k, m * n + i, c * cm)
            for j, k, i, c in dual.numerators
            for a, a2, m, cm in mult.numerators
        ),
    )
    # id = sum of the E[a,a], at indices a*(n+1): column q of id*(-) holds
    # the entries id * E_q of conv, column p of (-)*id the entries E_p * id
    diagonal = set(range(0, dim, n + 1))
    nums = conv.numerators
    left = ((k, q, c) for p, q, k, c in nums if p in diagonal)
    right = ((k, p, c) for p, q, k, c in nums if q in diagonal)
    return ConvolutionStructure(
        end,
        conv,
        LinearOperator.from_numerators(dim, conv.denom, left),
        LinearOperator.from_numerators(dim, conv.denom, right),
        end.unit,
    )


def convolution_report(b: EpsilonBialgebra) -> Report:
    """The package's central mechanism, verified on the nose:

    convolution is associative, and both one-sided convolutions with the
    identity are t-Baxter operators for composition, and they commute.
    """
    from .algebra_core import ASSOCIATIVITY
    from .baxter import check_baxter, commute
    from .relations import check_system

    cs = convolution_structure(b)
    report = Report(title="convolution structure", passed=True)
    report.merge(check_system(ASSOCIATIVITY, {"mul": cs.conv}, ZERO, "conv assoc"))
    report.merge(check_baxter(cs.end, cs.left_conv, b.t))
    report.merge(check_baxter(cs.end, cs.right_conv, b.t))
    report.checks_run += 1
    if not commute(cs.left_conv, cs.right_conv):
        report.add_failure(Witness("convolution-commute", (), "id*T*id", "order-dependent"))
    return report


def ennea_on_end(b: EpsilonBialgebra) -> EnneaStructure:
    """The nine-operation splitting of composition on End(A), written with
    the two one-sided convolutions with the identity, id*T and T*id:

    T se S = (id*T*id) S       T ne S = (id*T)(S*id)    T sw S = (T*id)(id*S)
    T nw S = T (id*S*id)       T up S = t T (S*id)      T down S = t (T*id) S
    T prec S = T (id*S)        T succ S = (id*T) S      T circ S = t T S

    These are the formulas of
    :func:`~splitalg.splitting.ennea_from_commuting_pair` for B = id*(-) and
    G = (-)*id, applied without validating the operators first.
    """
    cs = convolution_structure(b)
    return ennea_from_commuting_pair(cs.end, cs.left_conv, cs.right_conv, b.t, validate=False)


# ---------------------------------------------------------------------------
# the pre-Lie product on A itself, and derivations
# ---------------------------------------------------------------------------


def prelie_from_bialgebra(b: EpsilonBialgebra) -> PreLieStructure:
    """x bowtie y = y_(1) x y_(2) (sandwich by the coproduct legs of y)."""
    mult, dual = b.algebra.mult, b.delta.dual
    runs = mult.runs(0)
    return PreLieStructure(
        Tensor3.from_numerators(
            b.dim,
            dual.denom * mult.denom**2,
            (
                (i, j, m, c * c1 * c2)
                for p, q, j, c in dual.numerators
                for _, i, a, c1 in runs.get(p, ())  # e_p e_i = c1 e_a
                for _, q2, m, c2 in runs.get(a, ())  # e_a e_q = c2 e_m
                if q2 == q
            ),
        )
    )


def is_derivation(algebra: FiniteAlgebra, op: LinearOperator) -> Report:
    """D(x y) = D(x) y + x D(y) on all basis pairs."""
    report = Report(title="derivation of the product", passed=True)
    compare_on_pairs(report, "derivation", *derivation_sides(algebra.mult, op))
    return report


def derivation_sides(mult: Tensor3, op: LinearOperator) -> tuple[Tensor3, Tensor3]:
    """Both sides of D(x y) = D(x) y + x D(y) as operations."""
    rhs = combine(mult.dim, [(ONE, twist(mult, left=op)), (ONE, twist(mult, right=op))])
    return twist(mult, post=op), rhs


def is_coderivation(delta: CoalgebraData, op: LinearOperator) -> Report:
    """delta(D(x)) = (D (x) id) delta(x) + (id (x) D) delta(x): the transpose
    of D is a derivation of the dual product."""
    report = Report(title="coderivation of the coproduct", passed=True)
    sides = derivation_sides(delta.dual, transpose_operator(op))
    compare_dual(report, "coderivation", *sides)
    return report


def check_derivations(b: EpsilonBialgebra, candidate: LinearOperator | None = None) -> Report:
    """Two facts about the bowtie product of a t-twisted bialgebra:

    * for every a, the map x -> a bowtie x + t a x is a derivation of the
      product;
    * any map that is both a derivation and a coderivation is a derivation
      of bowtie itself.
    """
    n, mult = b.dim, b.algebra.mult
    bowtie = prelie_from_bialgebra(b).op
    report = Report(title="derivation properties of bowtie", passed=True)
    shifted = combine(n, [(ONE, bowtie), (b.t, mult)])  # a bowtie x + t a x
    # triples (a, x, y): shifted(a, x) y + x shifted(a, y) against shifted(a, x y)
    diff = first_nested_difference(
        [(ONE, shifted, mult), (ONE, shifted, mult.swap_args(), (0, 2, 1))],
        [(ONE, mult, shifted)],
    )
    if diff is not None:
        (a, x, y), rhs, lhs = diff
        report.checks_run += (a * n + x) * n + y + 1
        lvec, rvec = (tuple(side.get(m, ZERO) for m in range(n)) for side in (lhs, rhs))
        report.add_failure(Witness(f"bowtie-derivation[a={a}]", (x, y), lvec, rvec))
        return report
    report.checks_run += n**3
    if candidate is not None:
        hyp1 = is_derivation(b.algebra, candidate)
        hyp2 = is_coderivation(b.delta, candidate)
        report.merge(hyp1)
        report.merge(hyp2)
        if hyp1.passed and hyp2.passed:
            compare_on_pairs(report, "bideriv-bowtie", *derivation_sides(bowtie, candidate))
        else:
            report.notes.append(
                "candidate is not a bi-derivation; bowtie conclusion not applicable"
            )
    return report
