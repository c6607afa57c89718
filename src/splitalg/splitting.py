"""Splitting structures: families of operations refining one associative product.

The families split an associative product into two, three, four, or nine
operations.  A structure of any family is a :class:`splitalg.relations.Structure`,
its generator tensors at one value of t, checked against that family's
identity table (see :mod:`splitalg.relations`).  The main constructions:

* a t-Baxter operator on an algebra induces a three-operation splitting
  (x before y = x B(y), x after y = B(x) y, x middle y = t x y);
* a t-Baxter operator on a three-operation structure refines it into the
  nine-operation family, and a *commuting pair* of t-Baxter operators on an
  algebra does the same in one step;
* two three-operation structures tensor into a nine-operation one;
* every three- or nine-operation structure yields pre-Lie products (each a
  plain tensor) whose commutator brackets all agree with the commutator of
  the total product.
"""

from __future__ import annotations

from .algebra_core import FiniteAlgebra
from .exactlin import (
    ONE,
    ZERO,
    LinearOperator,
    Scalar,
    Tensor3,
    combine,
    first_nested_difference,
    kron,
    rat,
    twist,
)
from .relations import NINE_OP_SYSTEM, THREE_OP_SYSTEM, Structure, check_system
from .report import Report, Witness, compare_on_pairs


def _trialgebra(prec: Tensor3, succ: Tensor3, circ: Tensor3) -> Structure:
    """A three-operation structure; its identities read no t."""
    return Structure(THREE_OP_SYSTEM, ZERO, {"prec": prec, "succ": succ, "circ": circ})


# ---------------------------------------------------------------------------
# constructions from Baxter operators
# ---------------------------------------------------------------------------


def _require(report: Report) -> None:
    if not report.passed:
        raise ValueError("precondition failed:\n" + report.summary())


def trialgebra_from_baxter(
    algebra: FiniteAlgebra, op: LinearOperator, t: Scalar, validate: bool = True
) -> Structure:
    """Split a product along a t-Baxter operator B:

    x prec y = x B(y),   x succ y = B(x) y,   x circ y = t x y.
    """
    t = rat(t)
    if validate:
        from .baxter import check_baxter

        _require(check_baxter(algebra, op, t))
    mult = algebra.mult
    return _trialgebra(twist(mult, right=op), twist(mult, left=op), mult.scale(t))


def star_morphism_report(algebra: FiniteAlgebra, op: LinearOperator, s: Structure) -> Report:
    """B maps the split total product to the original product:
    B(x star_t y) = B(x) B(y), with star_t = prec + succ + t*circ... the
    Baxter-built structure stores circ = t*(product), so the total here is
    prec + succ + circ."""
    report = Report(title="operator is a morphism from the split total", passed=True)
    compare_on_pairs(
        report,
        "star-morphism",
        twist(s.tensor("star"), post=op),
        twist(algebra.mult, left=op, right=op),
    )
    return report


def is_baxter_on_trialgebra(s: Structure, op: LinearOperator, t: Scalar) -> Report:
    """The t-Baxter identity, operation by operation, on a three-op structure."""
    from .baxter import baxter_sides

    t = rat(t)
    if op.dim != s.dim:
        raise ValueError("operator/structure dimension mismatch")
    report = Report(title=f"{t}-Baxter on three-op structure", passed=True)
    for name, tensor in s.ops.items():
        if not compare_on_pairs(report, f"baxter[{name}]", *baxter_sides(tensor, op, t)):
            break
    return report


def ennea_from_baxter_on_trialgebra(
    s: Structure, op: LinearOperator, t: Scalar, validate: bool = True
) -> Structure:
    """Refine a three-op structure along a t-Baxter operator G on it:

    x se y = G(x) succ y      x ne y = x succ G(y)
    x sw y = G(x) prec y      x nw y = x prec G(y)
    x down y = G(x) circ y    x up y = x circ G(y)

    keeping prec/succ/circ as they are.
    """
    t = rat(t)
    if validate:
        _require(is_baxter_on_trialgebra(s, op, t))
    prec, succ, circ = s.ops["prec"], s.ops["succ"], s.ops["circ"]
    return Structure(
        NINE_OP_SYSTEM,
        t,
        {
            "se": twist(succ, left=op),
            "ne": twist(succ, right=op),
            "sw": twist(prec, left=op),
            "nw": twist(prec, right=op),
            "down": twist(circ, left=op),
            "up": twist(circ, right=op),
            "prec": prec,
            "succ": succ,
            "circ": circ,
        },
    )


def ennea_from_commuting_pair(
    algebra: FiniteAlgebra,
    first: LinearOperator,
    second: LinearOperator,
    t: Scalar,
    validate: bool = True,
) -> Structure:
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
    return Structure(
        NINE_OP_SYSTEM,
        t,
        {
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


def tensor_ennea(a: Structure, b: Structure, t: Scalar) -> Structure:
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
    pa, sa, ca = a.ops["prec"], a.ops["succ"], a.ops["circ"]
    pb, sb, cb = b.ops["prec"], b.ops["succ"], b.ops["circ"]
    return Structure(
        NINE_OP_SYSTEM,
        t,
        {
            "nw": kron(pa, pb),
            "ne": kron(sa, pb),
            "sw": kron(pa, sb),
            "se": kron(sa, sb),
            "up": kron(ca, pb),
            "down": kron(ca, sb),
            "prec": kron(pa, cb).scale(inv),
            "succ": kron(sa, cb).scale(inv),
            "circ": kron(ca, cb).scale(inv),
        },
    )


# ---------------------------------------------------------------------------
# projections, involutions
# ---------------------------------------------------------------------------


def horizontal_trialgebra(e: Structure) -> Structure:
    """Column sums (lhd, rhd, cbar) form a three-op structure."""
    return _trialgebra(e.tensor("lhd"), e.tensor("rhd"), e.tensor("cbar"))


def vertical_trialgebra(e: Structure) -> Structure:
    """Row sums (wedge, vee, t*star) form a three-op structure."""
    return _trialgebra(e.tensor("wedge"), e.tensor("vee"), e.tensor("star").scale(e.t))


def nested_splitting_report(e: Structure) -> Report:
    """The middle operation of each projection splits again into three.

    Horizontally, cbar = up + down + t*circ is itself a three-op structure;
    vertically, t*star = t*prec + t*succ + t*circ is one.  Both totals
    (projection recombined) equal the grand total operation.
    """
    report = Report(title="nested splitting", passed=True)
    t = e.t

    horizontal = horizontal_trialgebra(e)
    inner_h = _trialgebra(e.ops["up"], e.ops["down"], e.ops["circ"].scale(t))
    report.checks_run += 1
    if inner_h.tensor("star") != horizontal.ops["circ"]:
        report.add_failure(
            Witness("nested:horizontal-sum", (), "up+down+t*circ", "cbar")
        )
    report.merge(check_system(inner_h))

    vertical = vertical_trialgebra(e)
    inner_v = _trialgebra(*(e.ops[name].scale(t) for name in ("prec", "succ", "circ")))
    report.checks_run += 1
    if inner_v.tensor("star") != vertical.ops["circ"]:
        report.add_failure(
            Witness("nested:vertical-sum", (), "t*(prec+succ+circ)", "t*star")
        )
    report.merge(check_system(inner_v))

    grand = e.tensor("starbar")
    report.checks_run += 2
    if horizontal.tensor("star") != grand:
        report.add_failure(Witness("nested:horizontal-total", (), "lhd+rhd+cbar", "starbar"))
    if vertical.tensor("star") != grand:
        report.add_failure(Witness("nested:vertical-total", (), "wedge+vee+t*star", "starbar"))
    return report


def transpose_ennea(e: Structure) -> Structure:
    """Swap the two splitting directions (needs t != 0); an involution."""
    t = e.t
    if t == 0:
        raise ValueError("the transpose needs a nonzero family parameter")
    inv = ONE / t
    return Structure(
        NINE_OP_SYSTEM,
        t,
        {
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


def opposite_ennea(e: Structure) -> Structure:
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
    return Structure(
        NINE_OP_SYSTEM, e.t, {name: e.ops[source].swap_args() for name, source in swap.items()}
    )


# ---------------------------------------------------------------------------
# pre-Lie products, each one bilinear operation as a tensor
# ---------------------------------------------------------------------------


def check_prelie(op: Tensor3) -> Report:
    """Left symmetry of the associator: a(x,y,z) = a(y,x,z).

    The left side is a(x,y,z) = (xy)z - x(yz) and the right side
    a(y,x,z) = (yx)z - y(xz), both as nested terms read in argument orders:
    x(yz) is the opposite product applied to (yz, x), and (yx)z the opposite
    product applied to (z, yx).
    """
    opposite = op.swap_args()
    left = [(ONE, op, op), (-ONE, op, opposite, (1, 2, 0))]
    right = [(ONE, op, opposite, (2, 1, 0)), (-ONE, op, op, (1, 0, 2))]
    return _nested_report("pre-Lie (left-symmetric associator)", "prelie", op.dim, left, right)


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


def prelie_from_trialgebra(s: Structure) -> Tensor3:
    """x bowtie y = x succ y + x circ y - y prec x.

    Folding circ into succ turns any three-op structure into a two-op one,
    and the standard pre-Lie product of a two-op splitting is
    succ' - swap(prec); this is that product.
    """
    prec, succ, circ = s.ops["prec"], s.ops["succ"], s.ops["circ"]
    return combine(s.dim, [(ONE, succ), (ONE, circ), (-ONE, prec.swap_args())])


def prelie_pair_from_ennea(e: Structure) -> tuple[Tensor3, Tensor3]:
    """Two pre-Lie products from the two projections of a nine-op structure.

    The first comes from the column sums (rhd/lhd/cbar), the second from the
    row sums (wedge/vee/t*star); both commutator brackets equal the
    commutator of the grand total operation.
    """
    return (
        prelie_from_trialgebra(horizontal_trialgebra(e)),
        prelie_from_trialgebra(vertical_trialgebra(e)),
    )
