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
import itertools
from fractions import Fraction
from typing import Sequence

from .algebra_core import CoalgebraData, FiniteAlgebra, check_coassociative, full_matrix_algebra
from .exactlin import (
    ONE,
    ZERO,
    LinearOperator,
    Scalar,
    Tensor3,
    combine,
    rat,
    twist,
)
from .baxter import transpose_operator
from .report import Report, Witness, compare_dual, compare_on_pairs, first_mismatch
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


def check_eps_bialgebra(b: EpsilonBialgebra) -> Report:
    """Coassociativity plus the t-twisted product compatibility."""
    report = check_coassociative(b.delta, f"t-twisted bialgebra (t={b.t})")
    n = b.dim
    rows, t = b.delta.rows, b.t
    # (i, j) -> the nonzero (k, c) of e_i e_j, in increasing k
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i, j, k, c in b.algebra.mult.nonzeros():
        products.setdefault((i, j), []).append((k, c))
    for i in range(n):
        for j in range(n):
            lhs: dict[tuple[int, int], Fraction] = {}
            for k, ck in products.get((i, j), ()):  # delta(x y)
                for a, bb, c in rows[k]:
                    lhs[(a, bb)] = lhs.get((a, bb), ZERO) + ck * c
            rhs: dict[tuple[int, int], Fraction] = {}
            for a, bb, c in rows[i]:  # x_(1) (x) x_(2) y
                for m, cm in products.get((bb, j), ()):
                    rhs[(a, m)] = rhs.get((a, m), ZERO) + c * cm
            for a, bb, c in rows[j]:  # x y_(1) (x) y_(2)
                for m, cm in products.get((i, a), ()):
                    rhs[(m, bb)] = rhs.get((m, bb), ZERO) + c * cm
            if t != 0:
                rhs[(i, j)] = rhs.get((i, j), ZERO) + t
            report.checks_run += 1
            witness = first_mismatch("product-compat", (i, j), lhs, rhs)
            if witness is not None:
                report.add_failure(witness)
                return report
    return report


def check_hypercubic(deltas: Sequence[CoalgebraData]) -> Report:
    """Pairwise coproduct exchange laws (i = j gives coassociativity):

    (delta_i (x) id) delta_j == (id (x) delta_j) delta_i   for all i, j.
    """
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
    n = b.dim
    bowtie = prelie_from_bialgebra(b).op
    report = Report(title="derivation properties of bowtie", passed=True)
    shifted = combine(n, [(ONE, bowtie), (b.t, b.algebra.mult)])
    runs = shifted.runs(0)
    for a in range(n):
        # column j: a bowtie e_j + t a e_j
        op = LinearOperator.from_numerators(
            n, shifted.denom, ((k, j, c) for _, j, k, c in runs.get(a, ()))
        )
        sides = derivation_sides(b.algebra.mult, op)
        if not compare_on_pairs(report, f"bowtie-derivation[a={a}]", *sides):
            return report
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


# ---------------------------------------------------------------------------
# free extension of coproducts from generators to words
# ---------------------------------------------------------------------------


def word_span(num_gens: int, cap: int, with_unit: bool) -> list[tuple[int, ...]]:
    """All generator words of length <= cap (length >= 1 unless with_unit),
    ordered by length then lexicographically."""
    words: list[tuple[int, ...]] = [()] if with_unit else []
    for length in range(1, cap + 1):
        words.extend(itertools.product(range(num_gens), repeat=length))
    return words


def deconcatenation_base(num_gens: int) -> CoalgebraData:
    """Unit-extended base: unit -> unit (x) unit, X -> unit (x) X + X (x) unit."""
    items = [(0, 0, 0, 1)]
    for g in range(1, num_gens + 1):
        items.append((g, 0, g, 1))
        items.append((g, g, 0, 1))
    return CoalgebraData.from_items(num_gens + 1, items)


def extend_coproduct(
    num_gens: int,
    base: CoalgebraData,
    t: Scalar,
    cap: int,
    with_unit: bool = False,
) -> tuple[list[tuple[int, ...]], CoalgebraData]:
    """Extend a coproduct from generators to all words of length <= cap.

    The extension peels the first letter x off a word x w and applies the
    t-twisted compatibility as a recursion:

        delta(x w) = delta(x) . (1 (x) w) + (x (x) 1) . delta(w) + t x (x) w

    where the dot is letterwise concatenation on each tensor leg.  The base
    coproduct is indexed over [unit +] generators (dimension num_gens + 1 in
    the unital case, where the unit row must be unit (x) unit).
    """
    t = rat(t)
    expected_dim = num_gens + (1 if with_unit else 0)
    if base.dim != expected_dim:
        raise ValueError(
            f"base coproduct must have dimension {expected_dim} "
            f"({'unit + ' if with_unit else ''}generators)"
        )
    base_rows = base.rows
    if with_unit and base_rows[0] != ((0, 0, ONE),):
        raise ValueError("unital base must send the unit to unit (x) unit")
    words = word_span(num_gens, cap, with_unit)
    index = {w: a for a, w in enumerate(words)}

    def gen_word(base_index: int) -> tuple[int, ...]:
        # base space indices -> generator words (unit = empty word)
        if with_unit:
            return () if base_index == 0 else (base_index - 1,)
        return (base_index,)

    rows: list[dict[tuple[int, int], Fraction]] = [dict() for _ in words]

    def add(word_idx: int, left: tuple[int, ...], right: tuple[int, ...], c: Fraction) -> None:
        if c == 0:
            return
        key = (index[left], index[right])
        rows[word_idx][key] = rows[word_idx].get(key, ZERO) + c

    for a, word in enumerate(words):
        if len(word) == 0:
            add(a, (), (), ONE)
            continue
        if len(word) == 1:
            base_index = word[0] + (1 if with_unit else 0)
            for j, k, c in base_rows[base_index]:
                add(a, gen_word(j), gen_word(k), c)
            continue
        x, rest = word[:1], word[1:]
        base_index = word[0] + (1 if with_unit else 0)
        for j, k, c in base_rows[base_index]:  # delta(x) . (1 (x) w)
            add(a, gen_word(j), gen_word(k) + rest, c)
        for (j, k), c in rows[index[rest]].items():  # (x (x) 1) . delta(w)
            add(a, x + words[j], words[k], c)
        add(a, x, rest, t)

    data = CoalgebraData.from_items(
        len(words),
        ((i, j, k, c) for i, row in enumerate(rows) for (j, k), c in row.items()),
    )
    return words, data


def free_extension_report(
    num_gens: int,
    bases: Sequence[tuple[CoalgebraData, Scalar]],
    cap: int,
    with_unit: bool = False,
) -> tuple[list[CoalgebraData], Report]:
    """Extend one or more base coproducts to words and verify, within the cap:

    * each extension is coassociative,
    * each satisfies its own t-twisted product compatibility on all word
      pairs whose concatenation stays inside the cap,
    * all pairs satisfy the coproduct exchange laws.

    Every coproduct leg of a length-L word has legs of length <= L, so all
    three checks are exact within the cap (nothing is truncated away).
    """
    report = Report(title=f"free extension (cap={cap})", passed=True)
    extended: list[CoalgebraData] = []
    words: list[tuple[int, ...]] = []
    for base, t in bases:
        words, data = extend_coproduct(num_gens, base, t, cap, with_unit)
        extended.append(data)
    report.notes.append(f"word span of size {len(words)}, products checked up to length {cap}")
    for data, (_, t) in zip(extended, bases):
        report.merge(check_coassociative(data, "extension coassociativity"))
        if not _check_word_compat(report, data, rat(t), words, cap, with_unit):
            return extended, report
    report.merge(check_hypercubic(extended))
    return extended, report


def _check_word_compat(
    report: Report, data: CoalgebraData, t: Fraction, words: list, cap: int, with_unit: bool
) -> bool:
    """The t-twisted product compatibility of an extended coproduct on every
    word pair whose concatenation stays inside the cap; False after the
    first failure, which is added to the report."""
    rows = data.rows
    index = {w: a for a, w in enumerate(words)}
    for u in words:
        for v in words:
            if len(u) + len(v) > cap or (not with_unit and (not u or not v)):
                continue
            lhs = {(j, k): c for j, k, c in rows[index[u + v]]}
            rhs: dict[tuple[int, int], Fraction] = {}
            for j, k, c in rows[index[u]]:  # u_(1) (x) u_(2) v
                key = (j, index[words[k] + v])
                rhs[key] = rhs.get(key, ZERO) + c
            for j, k, c in rows[index[v]]:  # u v_(1) (x) v_(2)
                key = (index[u + words[j]], k)
                rhs[key] = rhs.get(key, ZERO) + c
            if t != 0:
                key = (index[u], index[v])
                rhs[key] = rhs.get(key, ZERO) + t
            report.checks_run += 1
            witness = first_mismatch(f"extension-compat(t={t})", (u, v), lhs, rhs)
            if witness is not None:
                report.add_failure(witness)
                return False
    return True
