"""Formal one-parameter deformations: derived identity systems and instances.

The three reference systems below (six, seven, and nine cross-term
equations) are frozen as published; the derivation engine must reproduce
each as term multisets after expanding named composite operations into
generators.
"""

from __future__ import annotations

import gc
from collections import Counter
from fractions import Fraction

import pytest

from splitalg import (
    FOUR_OP_SYSTEM,
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    TWO_OP_SYSTEM,
    EpsilonBialgebra,
    Structure,
    Tensor3,
    WeightedDigraph,
    baxter_deformation,
    chain_coproduct,
    check_deformation_instance,
    check_eps_bialgebra,
    check_system,
    cross_term_system,
    deformed_structure_check,
    instance_operator_equation,
    path_algebra,
    two_operator_equation,
    weighted_coproduct,
)
from splitalg.bialgebra import convolution_structure
from splitalg.splitting import ennea_from_commuting_pair, trialgebra_from_baxter

F = Fraction

# -- frozen reference systems -------------------------------------------------
#
# Each equation is (lhs, rhs) with lhs terms meaning outer(inner(x, y), z)
# and rhs terms meaning outer(x, inner(y, z)); every printed coefficient
# is 1.  Composite names are expanded through the dictionaries right below.

DENDRIFORM_WITH_LABELED_TRIDENDRIFORM = {
    "composites": {
        "star": ("prec", "succ"),
        "star1": ("prec1", "succ1", "circ1"),
    },
    "equations": [
        ([("prec1", "prec"), ("prec", "prec1")], [("star1", "prec"), ("star", "prec1")]),
        ([("succ1", "prec"), ("succ", "prec1")], [("prec", "succ1"), ("prec1", "succ")]),
        ([("star1", "succ"), ("star", "succ1")], [("succ", "succ1"), ("succ1", "succ")]),
        ([("succ", "circ1")], [("circ1", "succ")]),
        ([("prec", "circ1")], [("succ", "circ1")]),
        ([("circ1", "prec")], [("prec", "circ1")]),
    ],
}

TRIDENDRIFORM_WITH_LABELED_TRIDENDRIFORM = {
    "composites": {
        "star": ("prec", "succ", "circ"),
        "star1": ("prec1", "succ1", "circ1"),
    },
    "equations": [
        ([("prec1", "prec"), ("prec", "prec1")], [("star1", "prec"), ("star", "prec1")]),
        ([("succ1", "prec"), ("succ", "prec1")], [("prec", "succ1"), ("prec1", "succ")]),
        ([("star1", "succ"), ("star", "succ1")], [("succ", "succ1"), ("succ1", "succ")]),
        ([("succ", "circ1"), ("succ1", "circ")], [("circ1", "succ"), ("circ", "succ1")]),
        ([("prec", "circ1"), ("prec1", "circ")], [("succ", "circ1"), ("succ1", "circ")]),
        ([("circ1", "prec"), ("circ", "prec1")], [("prec", "circ1"), ("prec1", "circ")]),
        ([("circ1", "circ"), ("circ", "circ1")], [("circ", "circ1"), ("circ1", "circ")]),
    ],
}

QUADRI_WITH_LABELED_QUADRI = {
    "composites": {
        "lhd": ("nw", "sw"),
        "rhd": ("ne", "se"),
        "wedge": ("nw", "ne"),
        "vee": ("sw", "se"),
        "starbar": ("nw", "ne", "sw", "se"),
        "lhd1": ("nw1", "sw1"),
        "rhd1": ("ne1", "se1"),
        "wedge1": ("nw1", "ne1"),
        "vee1": ("sw1", "se1"),
        "starbar1": ("nw1", "ne1", "sw1", "se1"),
    },
    "equations": [
        ([("nw1", "nw"), ("nw", "nw1")], [("starbar1", "nw"), ("starbar", "nw1")]),
        ([("ne", "nw1"), ("ne1", "nw")], [("lhd1", "ne"), ("lhd", "ne1")]),
        ([("wedge1", "ne"), ("wedge", "ne1")], [("rhd1", "ne"), ("rhd", "ne1")]),
        ([("sw1", "nw"), ("sw", "nw1")], [("wedge1", "sw"), ("wedge", "sw1")]),
        ([("se1", "nw"), ("se", "nw1")], [("nw", "se1"), ("nw1", "se")]),
        ([("vee1", "ne"), ("vee", "ne1")], [("ne1", "se"), ("ne", "se1")]),
        ([("lhd", "sw1"), ("lhd1", "sw")], [("vee", "sw1"), ("vee1", "sw")]),
        ([("rhd", "sw1"), ("rhd1", "sw")], [("sw1", "se"), ("sw", "se1")]),
        ([("starbar", "se1"), ("starbar1", "se")], [("se1", "se"), ("se", "se1")]),
    ],
}

GENERIC_T = F(7)  # a point no built-in coefficient polynomial vanishes at


def expand_reference_side(composites, terms):
    out: Counter = Counter()
    for inner, outer in terms:
        for gi in composites.get(inner, (inner,)):
            for go in composites.get(outer, (outer,)):
                out[(gi, go)] += 1
    return tuple(sorted(out.items()))


def reference_canonical(data):
    eqs = [
        (
            expand_reference_side(data["composites"], lhs),
            expand_reference_side(data["composites"], rhs),
        )
        for lhs, rhs in data["equations"]
    ]
    return sorted(eqs)


def expand_derived_side(system, terms):
    out: Counter = Counter()
    for coeff, inner, outer in terms:
        c = coeff.eval(GENERIC_T)
        for pi, gi in system.resolve(inner):
            for po, go in system.resolve(outer):
                out[(gi, go)] += c * pi.eval(GENERIC_T) * po.eval(GENERIC_T)
    return tuple(sorted((k, v) for k, v in out.items() if v))


def derived_canonical(deformed):
    system = deformed.system
    eqs = [
        (expand_derived_side(system, rel.lhs), expand_derived_side(system, rel.rhs))
        for rel in system.relations
        if rel.name in deformed.degree1
    ]
    return sorted(eqs)


# -- derived systems reproduce the frozen references --------------------------


def test_six_equation_system_is_reproduced_exactly():
    deformed = cross_term_system(THREE_OP_SYSTEM, ("prec", "succ"))
    assert len(deformed.degree1) == 6
    assert derived_canonical(deformed) == reference_canonical(
        DENDRIFORM_WITH_LABELED_TRIDENDRIFORM
    )


def test_seven_equation_system_is_reproduced_exactly():
    deformed = cross_term_system(THREE_OP_SYSTEM, THREE_OP_SYSTEM.generators)
    assert len(deformed.degree1) == 7
    assert derived_canonical(deformed) == reference_canonical(
        TRIDENDRIFORM_WITH_LABELED_TRIDENDRIFORM
    )


def test_nine_equation_system_is_reproduced_exactly():
    deformed = cross_term_system(FOUR_OP_SYSTEM, FOUR_OP_SYSTEM.generators)
    assert len(deformed.degree1) == 9
    assert derived_canonical(deformed) == reference_canonical(QUADRI_WITH_LABELED_QUADRI)


# -- structure of the polarized systems ---------------------------------------


def test_polarized_system_shapes():
    cases = [
        (TWO_OP_SYSTEM, ("prec", "succ"), (3, 3, 3), 4),
        (THREE_OP_SYSTEM, ("prec", "succ"), (3, 6, 7), 5),
        (THREE_OP_SYSTEM, THREE_OP_SYSTEM.generators, (7, 7, 7), 6),
        (FOUR_OP_SYSTEM, FOUR_OP_SYSTEM.generators, (9, 9, 9), 8),
        (NINE_OP_SYSTEM, NINE_OP_SYSTEM.generators, (49, 49, 49), 18),
    ]
    for base, nonzero, (d0, d1, d2), gens in cases:
        deformed = cross_term_system(base, nonzero)
        assert len(deformed.degree0) == d0
        assert len(deformed.degree1) == d1
        assert len(deformed.degree2) == d2
        assert len(deformed.system.generators) == gens
        assert len(deformed.system.relations) == d0 + d1 + d2
        assert deformed.system.name == base.name + "_deformed"


def test_total_operation_names():
    assert "star_total" in cross_term_system(THREE_OP_SYSTEM, ("prec", "succ")).system.composites
    deformed = cross_term_system(NINE_OP_SYSTEM, NINE_OP_SYSTEM.generators)
    assert "starbar_total" in deformed.system.composites


def test_unknown_kept_generator_is_rejected():
    with pytest.raises(ValueError):
        cross_term_system(THREE_OP_SYSTEM, ("prec", "bogus"))


def test_degree2_relations_are_the_relabeled_base():
    deformed = cross_term_system(THREE_OP_SYSTEM, ("prec", "succ"))
    by_name = {r.name: r for r in deformed.system.relations}
    for base_rel in THREE_OP_SYSTEM.relations:
        rel = by_name[f"d2:{base_rel.name}"]
        assert [(c, i + "1", o + "1") for c, i, o in base_rel.lhs] == list(rel.lhs)
        assert [(c, i + "1", o + "1") for c, i, o in base_rel.rhs] == list(rel.rhs)


# -- concrete instances on End(A) ---------------------------------------------


def two_vertex_setup():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    return pa.algebra, weighted_coproduct(pa), chain_coproduct(pa)


def test_two_three_instance_passes_all_generated_relations():
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    assert inst.t_eval == 0 and (inst.r, inst.r1) == (0, -1)
    report = check_deformation_instance(inst)
    assert report.passed, report.summary()
    assert report.checks_run == 16 * 9**3


def test_three_three_instance_passes():
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("three_three", alg, dw, dch, 0, -1)
    report = check_deformation_instance(inst)
    assert report.passed
    assert report.checks_run == 21 * 9**3


def test_four_four_instance_passes():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    alg = pa.algebra
    d1 = weighted_coproduct(pa)
    d2 = weighted_coproduct(pa, weights=[F(3, 2)])
    inst = baxter_deformation("four_four", alg, d1, d2, 0, 0)
    report = check_deformation_instance(inst)
    assert report.passed
    assert report.checks_run == 27 * 9**3


def test_nine_nine_identical_pair_is_the_trivial_deformation():
    alg, _, dch = two_vertex_setup()
    inst = baxter_deformation("nine_nine", alg, dch, dch, -1, -1)
    assert inst.t_eval == -1
    report = check_deformation_instance(inst)
    assert report.passed
    assert report.checks_run == 147 * 9**3


def test_variant_preconditions_are_enforced():
    alg, dw, dch = two_vertex_setup()
    with pytest.raises(ValueError):
        baxter_deformation("bogus", alg, dw, dch, 0, -1)
    with pytest.raises(ValueError):  # first coproduct is not a 1-compatible one
        baxter_deformation("two_three", alg, dw, dch, 1, -1)
    with pytest.raises(ValueError):  # shared nonzero parameter required
        baxter_deformation("nine_nine", alg, dch, dw, -1, 0)
    with pytest.raises(ValueError):  # exchange law fails for two chain weightings
        dch2 = chain_coproduct(path_algebra(WeightedDigraph.build(2, [(0, 1, 1)])), weights=[F(3, 2)])
        baxter_deformation("nine_nine", alg, dch, dch2, -1, -1)


def pq_chain_setup():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, F(2, 3))]))
    return (
        pa.algebra,
        weighted_coproduct(pa),
        chain_coproduct(pa),
        weighted_coproduct(pa, weights=[F(3, 2)]),
        chain_coproduct(pa, weights=[F(-1, 4)]),
    )


# variant -> (base system, generators kept at h = 0, builder of both
# structures, which coproducts of pq_chain_setup it takes, t, t1)
DIRECT_VARIANTS = {
    "two_three": (THREE_OP_SYSTEM, ("prec", "succ"), "tri", (1, 2), 0, -1),
    "three_three": (THREE_OP_SYSTEM, ("prec", "succ", "circ"), "tri", (1, 2), 0, -1),
    "four_four": (FOUR_OP_SYSTEM, FOUR_OP_SYSTEM.generators, "ennea", (1, 3), 0, 0),
    "nine_nine": (NINE_OP_SYSTEM, NINE_OP_SYSTEM.generators, "ennea", (2, 2), -1, -1),
}


@pytest.mark.parametrize("case", sorted(DIRECT_VARIANTS))
def test_instance_equals_the_structures_built_directly(case):
    """ops, series, t_eval and the presentation of every variant, against the
    splitting constructions applied to the convolution operators."""
    base, kept, builder, (d, d1), t, t1 = DIRECT_VARIANTS[case]
    setup = pq_chain_setup()
    alg, delta, delta1 = setup[0], setup[d], setup[d1]
    inst = baxter_deformation(case, alg, delta, delta1, t, t1)

    cs = convolution_structure(EpsilonBialgebra(alg, delta, F(t)))
    cs1 = convolution_structure(EpsilonBialgebra(alg, delta1, F(t1)))
    if builder == "tri":
        unlabeled = trialgebra_from_baxter(cs.end, cs.left_conv, t).ops
        labeled = trialgebra_from_baxter(cs.end, cs1.left_conv, t1).ops
        t_eval = 0
    else:
        unlabeled = ennea_from_commuting_pair(cs.end, cs.left_conv, cs.right_conv, t).ops
        labeled = ennea_from_commuting_pair(cs.end, cs1.left_conv, cs.right_conv, t1).ops
        t_eval = t
    zero = Tensor3.zero(cs.end.dim)
    want_ops = {g: unlabeled[g] for g in base.generators if g in kept}
    want_ops.update({g + "1": labeled[g] for g in base.generators})
    want_series = {
        g: [unlabeled[g] if g in kept else zero, labeled[g]] for g in base.generators
    }

    assert inst.variant == case and inst.end == cs.end
    assert inst.ops == want_ops
    assert inst.series == want_series
    assert inst.t_eval == t_eval and (inst.r, inst.r1) == (t, t1)
    assert inst.deformed == cross_term_system(base, kept)


PARAMETER_ERRORS = [
    (
        ("bogus", 1, 2, 0, -1),
        "unknown variant 'bogus'; pick one of "
        "('two_three', 'three_three', 'four_four', 'nine_nine')",
    ),
    (("two_three", 1, 2, 1, -1), "two_three needs the unlabeled coproduct at parameter 0"),
    (("four_four", 1, 3, 0, 1), "four_four needs both coproducts at parameter 0"),
    (("four_four", 1, 3, 1, 0), "four_four needs both coproducts at parameter 0"),
    (("nine_nine", 2, 1, -1, 0), "nine_nine needs one shared nonzero parameter"),
    (("nine_nine", 2, 4, -1, -1), "labeled operator must commute with the right convolution"),
]


@pytest.mark.parametrize("args,message", PARAMETER_ERRORS)
def test_parameter_errors_keep_their_messages(args, message):
    variant, d, d1, t, t1 = args
    setup = pq_chain_setup()
    with pytest.raises(ValueError) as caught:
        baxter_deformation(variant, setup[0], setup[d], setup[d1], t, t1)
    assert str(caught.value) == message


def test_a_failed_bialgebra_precondition_names_the_failing_check():
    alg, _, dch, _, _ = pq_chain_setup()
    with pytest.raises(ValueError) as caught:
        baxter_deformation("two_three", alg, dch, dch, 0, -1)
    assert str(caught.value).startswith("precondition failed:\n[FAIL] t-twisted bialgebra (t=0)")
    # with a bad parameter as well, the parameter is refused first
    assert not check_eps_bialgebra(EpsilonBialgebra(alg, dch, F(1))).passed
    with pytest.raises(ValueError) as caught:
        baxter_deformation("two_three", alg, dch, dch, 1, -1)
    assert str(caught.value) == "two_three needs the unlabeled coproduct at parameter 0"


def test_operator_level_equation_on_convolution_operators():
    alg, dw, dch = two_vertex_setup()
    assert instance_operator_equation(baxter_deformation("two_three", alg, dw, dch, 0, -1)).passed
    # and directly on the two left-convolution operators
    cs = convolution_structure(EpsilonBialgebra(alg, dw, F(0)))
    cs1 = convolution_structure(EpsilonBialgebra(alg, dch, F(-1)))
    assert two_operator_equation(cs.end, cs.left_conv, cs1.left_conv, F(0), F(-1)).passed
    # a wrong weight pair breaks it
    assert not two_operator_equation(cs.end, cs.left_conv, cs1.left_conv, F(1), F(-1)).passed


@pytest.mark.parametrize("tau", [F(0), F(1), F(2)])
@pytest.mark.parametrize("order", [3, 4])
def test_series_structure_check(tau, order):
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    report = deformed_structure_check(
        inst.deformed.base, inst.series, inst.t_eval, order=order, tau=tau
    )
    assert report.passed, report.summary()
    assert report.checks_run == 7 * order * 9**3


@pytest.mark.parametrize("order", [0, -3])
def test_series_check_refuses_an_order_below_one(order):
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    with pytest.raises(ValueError, match=f"order must be at least 1, got {order}"):
        deformed_structure_check(inst.deformed.base, inst.series, inst.t_eval, order=order)


def test_tau_zero_equals_the_truncated_series():
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    tau_zero = deformed_structure_check(
        inst.deformed.base, inst.series, inst.t_eval, order=3, tau=F(0)
    )
    truncated = deformed_structure_check(
        inst.deformed.base,
        {name: s[:1] for name, s in inst.series.items()},
        inst.t_eval,
        order=3,
        tau=F(1),
    )
    assert tau_zero.passed and truncated.passed
    assert tau_zero.checks_run == truncated.checks_run


def test_broken_series_is_caught():
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    series = dict(inst.series)
    series["prec"] = [series["prec"][0], series["succ"][1]]  # wrong order-1 part
    report = deformed_structure_check(inst.deformed.base, series, inst.t_eval, order=3)
    assert not report.passed
    assert report.witnesses


@pytest.mark.parametrize("order", range(1, 7))
def test_orders_past_the_last_nonzero_product_are_counted_not_summed(order):
    """Orders m >= 2L - 1 (L the longest coefficient list) hold as they
    stand: the report equals the one that sums every order, which padding
    each list with zero tensors forces."""
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    series = dict(inst.series)
    series["prec"] = [series["prec"][0], series["succ"][1]]  # wrong order-1 part
    series["circ"] = [*series["circ"], series["succ"][1]]  # a nonzero order-2 part: L = 3
    zero = Tensor3.zero(inst.end.dim)
    padded = {name: [*s, *[zero] * order] for name, s in series.items()}
    for tau in (F(1), F(-2, 3)):
        got = deformed_structure_check(inst.deformed.base, series, inst.t_eval, order, tau)
        want = deformed_structure_check(inst.deformed.base, padded, inst.t_eval, order, tau)
        assert got == want
        assert got.checks_run == 7 * order * 9**3
    # the order-2 part makes order 4 fail, which 2L - 1 = 5 still sums
    failing_orders = {int(w.context.rsplit("^", 1)[1]) for w in got.witnesses}
    assert failing_orders == set(range(1, min(order, 5)))


def test_instance_tensors_satisfy_relations_via_check_system_directly():
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    report = check_system(Structure(inst.deformed.system, inst.t_eval, inst.ops))
    assert report.passed


def test_structure_check_leaves_no_tensor_in_cyclic_garbage():
    """The series cache is freed by reference counting when the check returns."""
    alg, dw, dch = two_vertex_setup()
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert deformed_structure_check(inst.deformed.base, inst.series, inst.t_eval).passed
        gc.collect()
        left_over = [obj for obj in gc.garbage if isinstance(obj, Tensor3)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left_over == []
