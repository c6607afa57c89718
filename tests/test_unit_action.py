"""Adjoining a unit that acts through per-operation scalars."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from splitalg import (
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    EpsilonBialgebra,
    Tensor3,
    WeightedDigraph,
    baxter_deformation,
    chain_coproduct,
    check_ennea_coherence,
    check_unit_compatibility,
    ennea_from_commuting_pair,
    ennea_on_end,
    nine_op_unit_rules,
    path_algebra,
    triangular_baxter_example,
    unit_rules,
    weighted_coproduct,
)
from splitalg.relations import NINE_OP_GENERATORS
from splitalg.unit_action import (
    UnitScalars,
    augment_tensor,
    augmented_ops,
    check_coherence,
    coherence_ops,
    op_unit_scalars,
    relation_skip_set,
)

F = Fraction


def end_nine_op():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    return ennea_on_end(b)


def small_nine_op(use_column=False):
    alg, row, col, param = triangular_baxter_example(2, F(1))
    op = col if use_column else row
    return ennea_from_commuting_pair(alg, op, op, param)


def test_unit_rules_constructor():
    rules = unit_rules(("a", "b"), right_identity=("a",), left_identity=("b",))
    assert rules == {"a": (F(1), F(0)), "b": (F(0), F(1))}
    with pytest.raises(KeyError):
        unit_rules(("a",), right_identity=("c",))


def test_standard_nine_op_rules():
    rules = nine_op_unit_rules()
    assert rules["nw"] == (F(1), F(0))
    assert rules["se"] == (F(0), F(1))
    for name in ("ne", "sw", "up", "down", "prec", "succ", "circ"):
        assert rules[name] == (F(0), F(0))


def test_composite_scalars_at_minus_one():
    rules = nine_op_unit_rules()
    expected = {
        "lhd": (F(1), F(0), False),
        "rhd": (F(0), F(1), False),
        "wedge": (F(1), F(0), False),
        "vee": (F(0), F(1), False),
        "cbar": (F(0), F(0), True),
        "star": (F(0), F(0), True),
        "starbar": (F(1), F(1), True),
    }
    for name, (right, left, defined) in expected.items():
        s = op_unit_scalars(NINE_OP_SYSTEM, rules, F(-1), name)
        assert (s.right, s.left, s.defined) == (right, left, defined), name
        # and the independent recomputation agrees
        assert oracles.unit_scalars(NINE_OP_SYSTEM, rules, F(-1), name) == (right, left)


def test_augment_tensor_layout():
    op = Tensor3.from_sparse(2, [(0, 1, 0, F(5))])
    big = augment_tensor(op, UnitScalars(right=F(2), left=F(3)))
    assert big.dim == 3
    # interior shifted by one
    assert big.entries[1][2][1] == F(5)
    # unit actions on each side
    for j in range(1, 3):
        assert big.entries[0][j][j] == F(3)
        assert big.entries[j][0][j] == F(2)
    # unit times unit is undefined (left != right): stored as zero
    assert big.entries[0][0][0] == 0
    whole = augment_tensor(op, UnitScalars(right=F(2), left=F(2)))
    assert whole.entries[0][0][0] == F(2)


def test_augmented_ops_cover_composites_with_joint_scalars():
    e = small_nine_op()
    rules = nine_op_unit_rules()
    table = augmented_ops(NINE_OP_SYSTEM, e.ops, e.t, rules)
    assert set(table) == set(NINE_OP_SYSTEM.operation_names())
    # the grand total is unital even though its corner generators are not
    assert table["starbar"].entries[0][0][0] == F(1)
    assert table["nw"].entries[0][0][0] == 0


def test_end_structure_is_unit_compatible_with_frozen_counts():
    e = end_nine_op()
    rules = nine_op_unit_rules()
    report = check_unit_compatibility(NINE_OP_SYSTEM, e.ops, e.t, rules)
    assert report.passed, report.summary()
    assert report.checks_run == 48688
    assert report.skipped_undefined == 312


def test_skip_sets_match_the_independent_pattern_count():
    e = end_nine_op()
    rules = nine_op_unit_rules()
    per_relation = {}
    for relation in NINE_OP_SYSTEM.relations:
        got = relation_skip_set(NINE_OP_SYSTEM, rules, e.t, relation, e.dim)
        want = oracles.skip_triples(NINE_OP_SYSTEM, rules, e.t, relation, e.dim)
        assert got == want, relation.name
        per_relation[relation.name] = len(got)
    assert sum(per_relation.values()) == 312
    assert per_relation["1.1"] == e.dim + 1
    assert sum(1 for v in per_relation.values() if v) == 24


SKIP_RULES = (
    (NINE_OP_SYSTEM, nine_op_unit_rules()),
    (NINE_OP_SYSTEM, unit_rules(NINE_OP_GENERATORS, right_identity=("nw", "ne"), left_identity=("se",))),
    (THREE_OP_SYSTEM, unit_rules(("prec", "succ", "circ"), right_identity=("prec",), left_identity=("succ",))),
    # prec and succ both defined at the corner, circ not: every pattern kind occurs
    (THREE_OP_SYSTEM, {"prec": (F(1), F(1)), "succ": (F(1), F(1)), "circ": (F(1), F(0))}),
)


@pytest.mark.parametrize("system,rules", SKIP_RULES)
def test_skip_pattern_matches_the_enumerated_triples(system, rules):
    """Membership and size of each relation's skip pattern agree with the
    enumerated skip set, on every triple of the augmented cube."""
    for t, dim in itertools.product((F(0), F(1), F(-2, 3)), range(1, 6)):
        cube = list(itertools.product(range(dim + 1), repeat=3))
        for relation in system.relations:
            got = relation_skip_set(system, rules, t, relation, dim)
            want = oracles.skip_triples(system, rules, t, relation, dim)
            assert len(got) == len(want), (relation.name, t, dim)
            assert [triple in got for triple in cube] == [triple in want for triple in cube]
            assert set(got) == want


def test_skip_patterns_cover_every_kind():
    system, rules = SKIP_RULES[-1]
    kinds = {
        (p.left, p.right, p.corner)
        for relation in system.relations
        for p in (relation_skip_set(system, rules, t, relation, 2) for t in (F(0), F(1)))
    }
    assert {(True, False, False), (False, True, False), (True, True, False)} <= kinds
    assert {(False, False, True), (True, False, True), (False, True, True)} <= kinds


def test_small_structure_is_unit_compatible():
    e = small_nine_op()
    report = check_unit_compatibility(NINE_OP_SYSTEM, e.ops, e.t, nine_op_unit_rules())
    assert report.passed
    assert report.checks_run + report.skipped_undefined == 49 * (e.dim + 1) ** 3


def test_perturbed_rules_fail_with_witness():
    e = end_nine_op()
    bad = unit_rules(NINE_OP_GENERATORS, right_identity=("nw", "ne"), left_identity=("se",))
    report = check_unit_compatibility(NINE_OP_SYSTEM, e.ops, e.t, bad)
    assert not report.passed
    assert len(report.witnesses) == 17
    w = report.witnesses[0]
    assert w.context == "nine_op:1.1+unit"
    assert w.args == (1, 1, 0)
    assert (w.lhs, w.rhs) == ({1: F(1)}, {1: F(2)})


def test_coherence_on_mixed_two_factor_space():
    a = small_nine_op()
    b = small_nine_op(use_column=True)
    report = check_ennea_coherence(a, b)
    assert report.passed, report.summary()
    assert report.checks_run == 49 * 15**3
    # swapping the factors works too
    assert check_ennea_coherence(b, a).passed


def test_coherence_requires_matching_parameters_and_unital_total():
    a = small_nine_op()
    alg, row, _, param = triangular_baxter_example(2, F(2, 3))
    other = ennea_from_commuting_pair(alg, row, row, param)
    with pytest.raises(ValueError):
        check_ennea_coherence(a, other)
    silent = unit_rules(NINE_OP_GENERATORS)  # all zero: total is not unital
    with pytest.raises(ValueError):
        check_coherence(NINE_OP_SYSTEM, a.ops, a.ops, a.t, silent, "starbar")


THREE_OP_TABLES = {
    "prec-right/succ-left": unit_rules(
        THREE_OP_SYSTEM.generators, right_identity=("prec",), left_identity=("succ",)
    ),
    "circ-both": unit_rules(
        THREE_OP_SYSTEM.generators, right_identity=("circ",), left_identity=("circ",)
    ),
    # scalars other than 0 and 1 that still sum to a unital total
    "weighted": {"prec": (F(2), F(0)), "succ": (F(0), F(3, 2)), "circ": (F(-1), F(-1, 2))},
}

COHERENCE_CASES = [
    (NINE_OP_SYSTEM, nine_op_unit_rules(), F(-1), "starbar", 2, 2),
    (NINE_OP_SYSTEM, nine_op_unit_rules(), F(-1), "starbar", 1, 3),
    (NINE_OP_SYSTEM, nine_op_unit_rules(), F(2, 3), "starbar", 3, 2),
    *(
        (THREE_OP_SYSTEM, rules, F(1), "star", p, q)
        for rules in THREE_OP_TABLES.values()
        for p, q in ((1, 3), (3, 1), (2, 2))
    ),
]


@pytest.mark.parametrize("case", range(len(COHERENCE_CASES)))
def test_coherence_ops_match_the_dense_mixed_space_product(case):
    """The mixed-space tensors equal the product written out pair by pair,
    on random tensors (the construction does not need the identities)."""
    system, rules, t, total_name, p, q = COHERENCE_CASES[case]
    rng = random.Random(1000 + case)
    ops_a = {gen: oracles.random_tensor(rng, p, 4) for gen in system.generators}
    ops_b = {gen: oracles.random_tensor(rng, q, 4) for gen in system.generators}
    got = coherence_ops(system, ops_a, ops_b, t, rules, total_name)
    want = oracles.dense_coherence(system, ops_a, ops_b, t, rules, total_name)
    assert set(got) == set(system.generators)
    for gen in system.generators:
        assert got[gen].dim == p + q + p * q
        assert got[gen].entries == oracles.frozen(want[gen]), gen


@pytest.mark.parametrize(
    "system,rules,total_name",
    [
        (THREE_OP_SYSTEM, unit_rules(THREE_OP_SYSTEM.generators, right_identity=("prec",)),
         "star"),
        (NINE_OP_SYSTEM, unit_rules(NINE_OP_GENERATORS, right_identity=("nw",)), "starbar"),
    ],
)
def test_coherence_ops_refuse_a_non_unital_total(system, rules, total_name):
    ops = {gen: Tensor3.zero(2) for gen in system.generators}
    with pytest.raises(ValueError, match="does not make"):
        coherence_ops(system, ops, ops, F(1), rules, total_name)


def test_coherence_fails_with_a_witness_when_b_is_perturbed():
    a = small_nine_op()
    b = small_nine_op(use_column=True)
    bent = dict(b.ops, nw=b.ops["nw"].add(Tensor3.from_sparse(b.dim, [(0, 1, 2, F(1))])))
    report = check_coherence(NINE_OP_SYSTEM, a.ops, bent, a.t, nine_op_unit_rules(), "starbar")
    assert not report.passed
    assert report.checks_run == 49 * 15**3
    assert len(report.witnesses) == 17
    w = report.witnesses[0]
    assert (w.context, w.args, w.lhs, w.rhs) == ("nine_op:1.1", (3, 3, 4), {5: F(1)}, {})


def deformed_instance():
    pa = path_algebra(WeightedDigraph.build(2, [(0, 1, 1)]))
    return baxter_deformation(
        "two_three", pa.algebra, weighted_coproduct(pa), chain_coproduct(pa), 0, -1
    )


@pytest.mark.parametrize("labeled", [False, True])
def test_deformed_unit_choices(labeled):
    """Both unit choices work on the deformed structure: the unit can act
    through the base pair (prec, succ) or through the labeled pair
    (prec1, succ1), and either way the total operation is unital."""
    inst = deformed_instance()
    system = inst.deformed.system
    suffix = "1" if labeled else ""
    rules = unit_rules(
        system.generators,
        right_identity=("prec" + suffix,),
        left_identity=("succ" + suffix,),
    )
    report = check_unit_compatibility(system, inst.ops, inst.t_eval, rules)
    assert report.passed, report.summary()
    assert report.checks_run == 15883
    assert report.skipped_undefined == 117
    total = op_unit_scalars(system, rules, inst.t_eval, "star_total")
    assert (total.right, total.left) == (F(1), F(1))
