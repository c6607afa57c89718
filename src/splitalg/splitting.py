"""Splitting structures: families of operations refining one associative product.

The three families implemented here split an associative product into two,
three, four, or nine operations (see :mod:`splitalg.relations` for the
identity tables).  The main constructions:

* a t-Baxter operator on an algebra induces a three-operation splitting
  (x before y = x B(y), x after y = B(x) y, x middle y = t x y);
* a t-Baxter operator on a three-operation structure refines it into the
  nine-operation family, and a *commuting pair* of t-Baxter operators on an
  algebra does the same in one step;
* two three-operation structures tensor into a nine-operation one;
* every three- or nine-operation structure yields pre-Lie products whose
  commutator brackets all agree with the commutator of the total product.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .algebra_core import FiniteAlgebra
from .exactlin import (
    ONE,
    ZERO,
    LinearOperator,
    Scalar,
    Tensor3,
    combine,
    first_nested_difference,
    rat,
    twist,
)
from .relations import (
    FOUR_OP_SYSTEM,
    NINE_OP_GENERATORS,
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    TWO_OP_SYSTEM,
    check_system,
    resolve_tensor,
)
from .report import Report, Witness, compare_on_pairs


@dataclasses.dataclass(frozen=True)
class TrialgebraStructure:
    """Three operations (prec, succ, circ) splitting an associative product."""

    prec: Tensor3
    succ: Tensor3
    circ: Tensor3

    def __post_init__(self):
        if not (self.prec.dim == self.succ.dim == self.circ.dim):
            raise ValueError("operation tensors must share one dimension")

    @property
    def dim(self) -> int:
        return self.prec.dim

    def ops(self) -> dict[str, Tensor3]:
        return {"prec": self.prec, "succ": self.succ, "circ": self.circ}

    def star(self) -> Tensor3:
        """The recovered total product prec + succ + circ."""
        return combine(self.dim, [(ONE, self.prec), (ONE, self.succ), (ONE, self.circ)])

    def weighted_star(self, t: Scalar) -> Tensor3:
        """prec + succ + t*circ (the total used by Baxter-built structures)."""
        return combine(
            self.dim, [(ONE, self.prec), (ONE, self.succ), (rat(t), self.circ)]
        )

    def opposite(self) -> "TrialgebraStructure":
        return TrialgebraStructure(
            prec=self.succ.swap_args(),
            succ=self.prec.swap_args(),
            circ=self.circ.swap_args(),
        )


def check_dialgebra(prec: Tensor3, succ: Tensor3) -> Report:
    """The two-operation identities (circ-free splitting)."""
    return check_system(
        TWO_OP_SYSTEM, {"prec": prec, "succ": succ}, ZERO, "two-op splitting"
    )


def check_trialgebra(s: TrialgebraStructure) -> Report:
    return check_system(THREE_OP_SYSTEM, s.ops(), ZERO, "three-op splitting")


def check_quadri(ops: dict[str, Tensor3]) -> Report:
    """The four-operation (corner) identities; ops needs nw/ne/sw/se."""
    return check_system(FOUR_OP_SYSTEM, ops, ZERO, "four-op splitting")


@dataclasses.dataclass(frozen=True)
class EnneaStructure:
    """Nine operations with family parameter t.

    ``ops`` holds the generator tensors (nw ne sw se up down prec succ circ);
    composite operations (lhd, rhd, cbar, vee, wedge, star, starbar) are
    derived on demand via :meth:`derived`.
    """

    t: Fraction
    ops: dict[str, Tensor3]

    def __post_init__(self):
        missing = set(NINE_OP_GENERATORS) - set(self.ops)
        extra = set(self.ops) - set(NINE_OP_GENERATORS)
        if missing or extra:
            raise ValueError(f"need exactly the nine generators, missing={missing}, extra={extra}")
        dims = {tensor.dim for tensor in self.ops.values()}
        if len(dims) != 1:
            raise ValueError("operation tensors must share one dimension")
        object.__setattr__(self, "t", rat(self.t))

    @property
    def dim(self) -> int:
        return self.ops["nw"].dim

    def derived(self, name: str) -> Tensor3:
        """Tensor of any named operation, composite or generator."""
        return resolve_tensor(NINE_OP_SYSTEM, self.ops, self.t, name)


def check_ennea(e: EnneaStructure) -> Report:
    """All forty-nine identities of the nine-operation family."""
    return check_system(NINE_OP_SYSTEM, e.ops, e.t, f"nine-op splitting (t={e.t})")


# ---------------------------------------------------------------------------
# constructions from Baxter operators
# ---------------------------------------------------------------------------


def _require(report: Report) -> None:
    if not report.passed:
        raise ValueError("precondition failed:\n" + report.summary())


def trialgebra_from_baxter(
    algebra: FiniteAlgebra, op: LinearOperator, t: Scalar, validate: bool = True
) -> TrialgebraStructure:
    """Split a product along a t-Baxter operator B:

    x prec y = x B(y),   x succ y = B(x) y,   x circ y = t x y.
    """
    t = rat(t)
    if validate:
        from .baxter import check_baxter

        _require(check_baxter(algebra, op, t))
    mult = algebra.mult
    return TrialgebraStructure(
        prec=twist(mult, right=op), succ=twist(mult, left=op), circ=mult.scale(t)
    )


def star_morphism_report(
    algebra: FiniteAlgebra, op: LinearOperator, s: TrialgebraStructure, t: Scalar
) -> Report:
    """B maps the split total product to the original product:
    B(x star_t y) = B(x) B(y), with star_t = prec + succ + t*circ... the
    Baxter-built structure stores circ = t*(product), so the total here is
    prec + succ + circ."""
    report = Report(title="operator is a morphism from the split total", passed=True)
    compare_on_pairs(
        report,
        "star-morphism",
        twist(s.star(), post=op),
        twist(algebra.mult, left=op, right=op),
    )
    return report


def is_baxter_on_trialgebra(
    s: TrialgebraStructure, op: LinearOperator, t: Scalar
) -> Report:
    """The t-Baxter identity, operation by operation, on a three-op structure."""
    from .baxter import baxter_sides

    t = rat(t)
    if op.dim != s.dim:
        raise ValueError("operator/structure dimension mismatch")
    report = Report(title=f"{t}-Baxter on three-op structure", passed=True)
    for name, tensor in s.ops().items():
        if not compare_on_pairs(report, f"baxter[{name}]", *baxter_sides(tensor, op, t)):
            break
    return report


def ennea_from_baxter_on_trialgebra(
    s: TrialgebraStructure, op: LinearOperator, t: Scalar, validate: bool = True
) -> EnneaStructure:
    """Refine a three-op structure along a t-Baxter operator G on it:

    x se y = G(x) succ y      x ne y = x succ G(y)
    x sw y = G(x) prec y      x nw y = x prec G(y)
    x down y = G(x) circ y    x up y = x circ G(y)

    keeping prec/succ/circ as they are.
    """
    t = rat(t)
    if validate:
        _require(is_baxter_on_trialgebra(s, op, t))
    return EnneaStructure(
        t=t,
        ops={
            "se": twist(s.succ, left=op),
            "ne": twist(s.succ, right=op),
            "sw": twist(s.prec, left=op),
            "nw": twist(s.prec, right=op),
            "down": twist(s.circ, left=op),
            "up": twist(s.circ, right=op),
            "prec": s.prec,
            "succ": s.succ,
            "circ": s.circ,
        },
    )


def ennea_from_commuting_pair(
    algebra: FiniteAlgebra,
    first: LinearOperator,
    second: LinearOperator,
    t: Scalar,
    validate: bool = True,
) -> EnneaStructure:
    """Nine-way splitting from two commuting t-Baxter operators B, G:

    x se y = B(G(x)) y    x ne y = B(x) G(y)    x sw y = G(x) B(y)
    x nw y = x B(G(y))    x up y = t x G(y)     x down y = t G(x) y
    x prec y = x B(y)     x succ y = B(x) y     x circ y = t x y
    """
    t = rat(t)
    if validate:
        from .baxter import check_baxter, commute

        _require(check_baxter(algebra, first, t))
        _require(check_baxter(algebra, second, t))
        if not commute(first, second):
            raise ValueError("precondition failed: the two operators do not commute")
    mult = algebra.mult
    both = first.compose(second)
    return EnneaStructure(
        t=t,
        ops={
            "se": twist(mult, left=both),
            "ne": twist(mult, left=first, right=second),
            "sw": twist(mult, left=second, right=first),
            "nw": twist(mult, right=both),
            "up": twist(mult, right=second).scale(t),
            "down": twist(mult, left=second).scale(t),
            "prec": twist(mult, right=first),
            "succ": twist(mult, left=first),
            "circ": mult.scale(t),
        },
    )


def quadri_from_commuting_pair(
    algebra: FiniteAlgebra,
    first: LinearOperator,
    second: LinearOperator,
    validate: bool = True,
) -> dict[str, Tensor3]:
    """Four-corner splitting from two commuting 0-Baxter operators."""
    e = ennea_from_commuting_pair(algebra, first, second, 0, validate=validate)
    return {name: e.ops[name] for name in ("nw", "ne", "sw", "se")}


def _kron(a: Tensor3, b: Tensor3) -> Tensor3:
    """Kronecker product tensor; pair (p, q) sits at index p * b.dim + q."""
    nb = b.dim
    items = [
        (i1 * nb + i2, j1 * nb + j2, k1 * nb + k2, c1 * c2)
        for i1, j1, k1, c1 in a.numerators
        for i2, j2, k2, c2 in b.numerators
    ]
    return Tensor3.from_numerators(a.dim * nb, a.denom * b.denom, items)


def tensor_ennea(a: TrialgebraStructure, b: TrialgebraStructure, t: Scalar) -> EnneaStructure:
    """Nine-op structure on the tensor product of two three-op structures.

    Each of the nine operations pairs one operation of ``a`` with one of
    ``b``; the three that the nine-op identities weight by t absorb a factor
    1/t (t must be nonzero), so that the grand total is exactly the tensor
    product of the two total operations:  star-bar = star (x) star'.
    """
    t = rat(t)
    if t == 0:
        raise ValueError("the tensor construction needs a nonzero parameter t")
    inv = ONE / t
    return EnneaStructure(
        t=t,
        ops={
            "nw": _kron(a.prec, b.prec),
            "ne": _kron(a.succ, b.prec),
            "sw": _kron(a.prec, b.succ),
            "se": _kron(a.succ, b.succ),
            "up": _kron(a.circ, b.prec),
            "down": _kron(a.circ, b.succ),
            "prec": _kron(a.prec, b.circ).scale(inv),
            "succ": _kron(a.succ, b.circ).scale(inv),
            "circ": _kron(a.circ, b.circ).scale(inv),
        },
    )


# ---------------------------------------------------------------------------
# projections, involutions
# ---------------------------------------------------------------------------


def horizontal_trialgebra(e: EnneaStructure) -> TrialgebraStructure:
    """Column sums (lhd, rhd, cbar) form a three-op structure."""
    return TrialgebraStructure(
        prec=e.derived("lhd"), succ=e.derived("rhd"), circ=e.derived("cbar")
    )


def vertical_trialgebra(e: EnneaStructure) -> TrialgebraStructure:
    """Row sums (wedge, vee, t*star) form a three-op structure."""
    return TrialgebraStructure(
        prec=e.derived("wedge"),
        succ=e.derived("vee"),
        circ=e.derived("star").scale(e.t),
    )


def nested_splitting_report(e: EnneaStructure) -> Report:
    """The middle operation of each projection splits again into three.

    Horizontally, cbar = up + down + t*circ is itself a three-op structure;
    vertically, t*star = t*prec + t*succ + t*circ is one.  Both totals
    (projection recombined) equal the grand total operation.
    """
    report = Report(title="nested splitting", passed=True)
    t = e.t

    horizontal = horizontal_trialgebra(e)
    inner_h = TrialgebraStructure(
        prec=e.ops["up"], succ=e.ops["down"], circ=e.ops["circ"].scale(t)
    )
    report.checks_run += 1
    if inner_h.star() != horizontal.circ:
        report.add_failure(
            Witness("nested:horizontal-sum", (), "up+down+t*circ", "cbar")
        )
    report.merge(check_trialgebra(inner_h))

    vertical = vertical_trialgebra(e)
    inner_v = TrialgebraStructure(
        prec=e.ops["prec"].scale(t),
        succ=e.ops["succ"].scale(t),
        circ=e.ops["circ"].scale(t),
    )
    report.checks_run += 1
    if inner_v.star() != vertical.circ:
        report.add_failure(
            Witness("nested:vertical-sum", (), "t*(prec+succ+circ)", "t*star")
        )
    report.merge(check_trialgebra(inner_v))

    grand = e.derived("starbar")
    report.checks_run += 2
    if horizontal.weighted_star(1) != grand:
        report.add_failure(Witness("nested:horizontal-total", (), "lhd+rhd+cbar", "starbar"))
    if vertical.weighted_star(1) != grand:
        report.add_failure(Witness("nested:vertical-total", (), "wedge+vee+t*star", "starbar"))
    return report


def transpose_ennea(e: EnneaStructure) -> EnneaStructure:
    """Swap the two splitting directions (needs t != 0); an involution."""
    t = e.t
    if t == 0:
        raise ValueError("the transpose needs a nonzero family parameter")
    inv = ONE / t
    return EnneaStructure(
        t=t,
        ops={
            "nw": e.ops["nw"],
            "se": e.ops["se"],
            "circ": e.ops["circ"],
            "ne": e.ops["sw"],
            "sw": e.ops["ne"],
            "up": e.ops["prec"].scale(t),
            "prec": e.ops["up"].scale(inv),
            "down": e.ops["succ"].scale(t),
            "succ": e.ops["down"].scale(inv),
        },
    )


def opposite_ennea(e: EnneaStructure) -> EnneaStructure:
    """Reverse all arguments; diagonal arrows trade places."""
    swap = {
        "nw": "se",
        "se": "nw",
        "ne": "sw",
        "sw": "ne",
        "up": "down",
        "down": "up",
        "prec": "succ",
        "succ": "prec",
        "circ": "circ",
    }
    return EnneaStructure(
        t=e.t,
        ops={name: e.ops[source].swap_args() for name, source in swap.items()},
    )


# ---------------------------------------------------------------------------
# pre-Lie products
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PreLieStructure:
    """One bilinear operation with left-symmetric associator."""

    op: Tensor3

    @property
    def dim(self) -> int:
        return self.op.dim

    def bracket(self) -> Tensor3:
        """The commutator op(x,y) - op(y,x); a Lie bracket when op is pre-Lie."""
        return self.op.sub(self.op.swap_args())


def check_prelie(p: PreLieStructure) -> Report:
    """Left symmetry of the associator: a(x,y,z) = a(y,x,z).

    The left side is a(x,y,z) = (xy)z - x(yz) and the right side
    a(y,x,z) = (yx)z - y(xz), both as nested terms read in argument orders:
    x(yz) is the opposite product applied to (yz, x), and (yx)z the opposite
    product applied to (z, yx).
    """
    op, opposite = p.op, p.op.swap_args()
    left = [(ONE, op, op), (-ONE, op, opposite, (1, 2, 0))]
    right = [(ONE, op, opposite, (2, 1, 0)), (-ONE, op, op, (1, 0, 2))]
    return _nested_report("pre-Lie (left-symmetric associator)", "prelie", p.dim, left, right)


def check_jacobi(bracket: Tensor3) -> Report:
    """Jacobi identity for an (assumed antisymmetric) bracket tensor:
    [[x, y], z] + [[y, z], x] + [[z, x], y] = 0.  The witness is the smallest
    failing basis triple, with the cyclic sum there."""
    cyclic = [(ONE, bracket, bracket, order) for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    return _nested_report("Jacobi identity", "jacobi", bracket.dim, cyclic, [])


def _nested_report(title: str, context: str, dim: int, left, right) -> Report:
    """All dim**3 basis triples checked; the smallest failing one is the witness."""
    report = Report(title=title, passed=True, checks_run=dim**3)
    diff = first_nested_difference(left, right)
    if diff is not None:
        report.add_failure(Witness(context, *diff))
    return report


def prelie_from_trialgebra(s: TrialgebraStructure) -> PreLieStructure:
    """x bowtie y = x succ y + x circ y - y prec x.

    Folding circ into succ turns any three-op structure into a two-op one,
    and the standard pre-Lie product of a two-op splitting is
    succ' - swap(prec); this is that product.
    """
    op = combine(s.dim, [(ONE, s.succ), (ONE, s.circ), (-ONE, s.prec.swap_args())])
    return PreLieStructure(op)


def prelie_pair_from_ennea(e: EnneaStructure) -> tuple[PreLieStructure, PreLieStructure]:
    """Two pre-Lie products from the two projections of a nine-op structure.

    The first comes from the column sums (rhd/lhd/cbar), the second from the
    row sums (wedge/vee/t*star); both commutator brackets equal the
    commutator of the grand total operation.
    """
    return (
        prelie_from_trialgebra(horizontal_trialgebra(e)),
        prelie_from_trialgebra(vertical_trialgebra(e)),
    )
