"""Adjoining a unit that acts through per-operation scalars."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import random
import tracemalloc
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
    check_unit_compatibility,
    combine,
    ennea_from_commuting_pair,
    ennea_on_end,
    path_algebra,
    trialgebra_from_baxter,
    triangular_baxter_example,
    unit_rules,
    weighted_coproduct,
)
from splitalg.cli import _rules_from_args, main
from splitalg.jsonio import operations_to_json, save
from splitalg.operad import builtin_presentation
from splitalg.relations import ASSOCIATIVITY, NINE_OP_GENERATORS, Structure
from splitalg.unit_action import (
    check_coherence,
    coherence_ops,
    unit_scalars,
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
    with pytest.raises(ValueError, match=r"rule names not among the generators: \['c'\]"):
        unit_rules(("a",), right_identity=("c",))


def test_standard_nine_op_rules():
    """The unit action the CLI defaults to on the nine-op family."""
    rules = _rules_from_args(NINE_OP_SYSTEM, argparse.Namespace(right=None, left=None))
    assert rules == oracles.NINE_OP_RULES
    assert rules["nw"] == (F(1), F(0))
    assert rules["se"] == (F(0), F(1))
    for name in ("ne", "sw", "up", "down", "prec", "succ", "circ"):
        assert rules[name] == (F(0), F(0))


def test_composite_scalars_at_minus_one():
    rules = oracles.NINE_OP_RULES
    expected = {
        "lhd": (F(1), F(0), False),
        "rhd": (F(0), F(1), False),
        "wedge": (F(1), F(0), False),
        "vee": (F(0), F(1), False),
        "cbar": (F(0), F(0), True),
        "star": (F(0), F(0), True),
        "starbar": (F(1), F(1), True),
    }
    scalars = unit_scalars(NINE_OP_SYSTEM.at(F(-1)), rules)
    for name, (right, left, defined) in expected.items():
        s = scalars[name]
        assert (s.right, s.left, s.defined) == (right, left, defined), name
        # and the independent recomputation agrees
        assert oracles.unit_scalars(NINE_OP_SYSTEM, rules, F(-1), name) == (right, left)


def test_end_structure_is_unit_compatible_with_frozen_counts():
    e = end_nine_op()
    rules = oracles.NINE_OP_RULES
    report = check_unit_compatibility(e, rules)
    assert report.passed, report.summary()
    assert report.checks_run == 48688
    assert report.skipped_undefined == 312


def skipped_per_relation(system, ops, t, rules):
    """relation name -> skipped triples, each identity checked on its own."""
    return {
        relation.name: check_unit_compatibility(
            Structure(dataclasses.replace(system, relations=(relation,)), t, ops), rules
        ).skipped_undefined
        for relation in system.relations
    }


def test_skip_sets_match_the_independent_pattern_count():
    e = end_nine_op()
    rules = oracles.NINE_OP_RULES
    per_relation = skipped_per_relation(NINE_OP_SYSTEM, e.ops, e.t, rules)
    for relation in NINE_OP_SYSTEM.relations:
        want = oracles.skip_triples(NINE_OP_SYSTEM, rules, e.t, relation, e.dim)
        assert per_relation[relation.name] == len(want), relation.name
    assert sum(per_relation.values()) == 312
    assert per_relation["1.1"] == e.dim + 1
    assert sum(1 for v in per_relation.values() if v) == 24


SKIP_RULES = (
    (NINE_OP_SYSTEM, oracles.NINE_OP_RULES),
    (NINE_OP_SYSTEM, unit_rules(NINE_OP_GENERATORS, right_identity=("nw", "ne"), left_identity=("se",))),
    (THREE_OP_SYSTEM, unit_rules(("prec", "succ", "circ"), right_identity=("prec",), left_identity=("succ",))),
    # prec and succ both defined at the corner, circ not: every pattern kind occurs
    (THREE_OP_SYSTEM, {"prec": (F(1), F(1)), "succ": (F(1), F(1)), "circ": (F(1), F(0))}),
)


T_VALUES = (F(0), F(1), F(-2, 3))


@pytest.mark.parametrize("system,rules", SKIP_RULES)
def test_skip_pattern_matches_the_enumerated_triples(system, rules):
    """Each identity skips as many triples as the augmented cube has
    undefined ones, at every t and dimension."""
    for t, dim in itertools.product(T_VALUES, range(1, 6)):
        ops = {gen: Tensor3.zero(dim) for gen in system.generators}
        per_relation = skipped_per_relation(system, ops, t, rules)
        for relation in system.relations:
            want = oracles.skip_triples(system, rules, t, relation, dim)
            assert per_relation[relation.name] == len(want), (relation.name, t, dim)


def skip_kind(system, rules, t, relation):
    """(left, right, corner): whether some nonzero term of the identity
    leaves its inner 1 op 1 undefined, left- or right-nested, or reads an
    undefined outer 1 op 1 after a nonzero inner one."""
    kind = [False, False, False]
    for terms, left_nested in ((relation.lhs, True), (relation.rhs, False)):
        for coeff, inner, outer in terms:
            if coeff.eval(t):
                inner_right, inner_left = oracles.unit_scalars(system, rules, t, inner)
                outer_right, outer_left = oracles.unit_scalars(system, rules, t, outer)
                if inner_right != inner_left:
                    kind[0 if left_nested else 1] = True
                elif inner_right and outer_right != outer_left:
                    kind[2] = True
    return tuple(kind)


def genuine_ops(system, n, t):
    """A structure of the system at t, of dim 1 (n = 1) or 3 (n = 2): the
    splitting of the triangular matrices along their row operator."""
    alg, row, _, param = triangular_baxter_example(n, -t)
    if system is NINE_OP_SYSTEM:
        return ennea_from_commuting_pair(alg, row, row, param).ops
    return trialgebra_from_baxter(alg, row, param).ops


def random_rules(seed, system):
    """A seeded rule table with scalars in {0, 1, -1, 1/2}; about half the
    generators get two equal scalars, so that their 1 op 1 is defined."""
    rng = random.Random(seed)
    values = (F(0), F(1), F(-1), F(1, 2))
    rules = {}
    for gen in system.generators:
        right = rng.choice(values)
        rules[gen] = (right, right if rng.random() < 0.5 else rng.choice(values))
    return rules


def oracle_cases():
    """(system, rules, t, ops): every SKIP_RULES table and four seeded ones
    at every t, each on a seeded random structure of dim 1 to 4 and on a
    genuine structure of dim 1 or 3."""
    tables = [
        *SKIP_RULES,
        *((system, random_rules(seed, system))
          for seed, system in enumerate((NINE_OP_SYSTEM, THREE_OP_SYSTEM) * 2)),
    ]
    cases = []
    for k, ((system, rules), t) in enumerate(itertools.product(tables, T_VALUES)):
        rng = random.Random(k)
        dim = 1 + k % 4
        ops = {gen: oracles.random_tensor(rng, dim, rng.randint(0, 8)) for gen in system.generators}
        cases += [(system, rules, t, ops), (system, rules, t, genuine_ops(system, 1 + k % 2, t))]
    return cases


ORACLE_CASES = oracle_cases()


def region(triple):
    """The slots of an augmented triple that hold the unit (index 0)."""
    return tuple(slot for slot, index in enumerate(triple) if index == 0)


# a rule table or a structure perturbed so that some identity first fails in
# the named region: (region, system, t, rule-table seed or None for the
# standard table, structure bump (generator, i, j, k, delta) or None)
PERTURBED = [
    ((), NINE_OP_SYSTEM, F(-2, 3), None, ("nw", 2, 1, 0, F(5, 6))),
    ((), THREE_OP_SYSTEM, F(1), None, ("succ", 1, 1, 2, F(-4, 3))),
    ((0,), NINE_OP_SYSTEM, F(-2, 3), 2, None),
    ((1,), THREE_OP_SYSTEM, F(1), 1, None),
    ((2,), NINE_OP_SYSTEM, F(1), 4, None),
    ((0, 1), NINE_OP_SYSTEM, F(0), 0, None),
    ((0, 2), NINE_OP_SYSTEM, F(0), 0, None),
    ((1, 2), NINE_OP_SYSTEM, F(-2, 3), 2, None),
    ((0, 1, 2), NINE_OP_SYSTEM, F(1), 4, None),
]


def perturbed_case(system, t, seed, bump):
    """(system, rules, t, ops) for one PERTURBED entry, on the genuine
    structure of dim 3."""
    if seed is None:
        rules = oracles.NINE_OP_RULES if system is NINE_OP_SYSTEM else unit_rules(
            system.generators, right_identity=("prec",), left_identity=("succ",)
        )
    else:
        rules = random_rules(seed, system)
    ops = genuine_ops(system, 2, t)
    if bump is not None:
        gen, *entry = bump
        ops[gen] = combine(ops[gen].dim, [(1, ops[gen]), (1, Tensor3.from_sparse(ops[gen].dim, [tuple(entry)]))])
    return system, rules, t, ops


def assert_matches_oracle(system, rules, t, ops):
    """The report equals the brute-force augmented-cube oracle's, witnesses
    included; returns the oracle's witnesses."""
    report = check_unit_compatibility(Structure(system, t, ops), rules)
    passed, checks, skipped, witnesses = oracles.unit_compatibility_oracle(system, ops, t, rules)
    assert (report.passed, report.checks_run, report.skipped_undefined) == (passed, checks, skipped)
    assert [(w.context, w.args, w.lhs, w.rhs) for w in report.witnesses] == witnesses
    return witnesses


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_unit_compatibility_matches_the_augmented_cube_oracle(case):
    assert_matches_oracle(*ORACLE_CASES[case])


@pytest.mark.parametrize("case", range(len(PERTURBED)))
def test_perturbations_fail_first_in_each_region_as_the_oracle_does(case):
    where, *spec = PERTURBED[case]
    witnesses = assert_matches_oracle(*perturbed_case(*spec))
    assert where in {region(args) for _, args, _, _ in witnesses}


def test_perturbations_reach_every_region():
    assert {where for where, *_ in PERTURBED} == {
        region(triple) for triple in itertools.product((0, 1), repeat=3)
    }


def test_skip_patterns_cover_every_kind():
    """The oracle cases reach every kind of undefined triple: the lines
    (0, 0, .) and (., 0, 0), alone or together, each with or without an
    undefined outer corner, and that corner alone."""
    kinds = {
        skip_kind(system, rules, t, relation)
        for system, rules, t, _ in ORACLE_CASES
        for relation in system.relations
    }
    assert {(True, False, False), (False, True, False), (True, True, False)} <= kinds
    assert {(False, False, True), (True, False, True), (False, True, True)} <= kinds


def test_empty_operations_at_dim_65536_need_no_augmented_copy():
    dim = 65536
    ops = {gen: Tensor3.zero(dim) for gen in NINE_OP_GENERATORS}
    tracemalloc.start()
    try:
        report = check_unit_compatibility(Structure(NINE_OP_SYSTEM, F(-1), ops), oracles.NINE_OP_RULES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, report.summary()
    assert report.checks_run + report.skipped_undefined == 49 * (dim + 1) ** 3
    assert peak < 8_000_000


def test_small_structure_is_unit_compatible():
    e = small_nine_op()
    report = check_unit_compatibility(e, oracles.NINE_OP_RULES)
    assert report.passed
    assert report.checks_run + report.skipped_undefined == 49 * (e.dim + 1) ** 3


def test_perturbed_rules_fail_with_witness():
    e = end_nine_op()
    bad = unit_rules(NINE_OP_GENERATORS, right_identity=("nw", "ne"), left_identity=("se",))
    report = check_unit_compatibility(e, bad)
    assert not report.passed
    assert len(report.witnesses) == 17
    w = report.witnesses[0]
    assert w.context == "nine_op:1.1+unit"
    assert w.args == (1, 1, 0)
    assert (w.lhs, w.rhs) == ({1: F(1)}, {1: F(2)})


def test_coherence_on_mixed_two_factor_space():
    a = small_nine_op()
    b = small_nine_op(use_column=True)
    rules = oracles.NINE_OP_RULES
    report = check_coherence(a, b, rules)
    assert report.passed, report.summary()
    assert report.checks_run == 49 * 15**3
    # swapping the factors works too
    assert check_coherence(b, a, rules).passed


def test_coherence_requires_matching_parameters_and_unital_total(tmp_path, capsys):
    a = small_nine_op()
    alg, row, _, param = triangular_baxter_example(2, F(2, 3))
    other = ennea_from_commuting_pair(alg, row, row, param)
    paths = [str(tmp_path / f"{name}.json") for name in ("a", "other")]
    for path, e in zip(paths, (a, other)):
        save(path, operations_to_json(e))
    assert main(["verify", "coherence", "--file", paths[0], "--file2", paths[1]]) == 2
    assert capsys.readouterr().err == "error: both operations files must share family and t\n"
    silent = unit_rules(NINE_OP_GENERATORS)  # all zero: total is not unital
    with pytest.raises(ValueError):
        check_coherence(a, a, silent)


def test_coherence_refuses_structures_of_another_system_or_t():
    a = small_nine_op()
    alg, row, _, param = triangular_baxter_example(2, F(2, 3))
    other_t = ennea_from_commuting_pair(alg, row, row, param)
    three = trialgebra_from_baxter(alg, row, param)
    for b in (other_t, three):
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="two structures of one system and one t"):
                check_coherence(*pair, oracles.NINE_OP_RULES)


def test_coherence_accepts_equal_systems_built_apart():
    """A deformed family's table is rebuilt on each lookup, as the CLI does
    for each operations file; equal tables count as one system."""
    first, second = (builtin_presentation("deformed_two_three") for _ in range(2))
    assert first is not second and first == second
    rng = random.Random(7)
    ops = {gen: oracles.random_tensor(rng, 1, 2) for gen in first.generators}
    rules = unit_rules(first.generators, right_identity=("prec",), left_identity=("succ",))
    mixed = coherence_ops(Structure(first, 0, ops), Structure(second, 0, ops), rules)
    assert mixed.system is first and mixed.dim == 3


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
    (NINE_OP_SYSTEM, oracles.NINE_OP_RULES, F(-1), 2, 2),
    (NINE_OP_SYSTEM, oracles.NINE_OP_RULES, F(-1), 1, 3),
    (NINE_OP_SYSTEM, oracles.NINE_OP_RULES, F(2, 3), 3, 2),
    *(
        (THREE_OP_SYSTEM, rules, F(1), p, q)
        for rules in THREE_OP_TABLES.values()
        for p, q in ((1, 3), (3, 1), (2, 2))
    ),
]


@pytest.mark.parametrize("case", range(len(COHERENCE_CASES)))
def test_coherence_ops_match_the_dense_mixed_space_product(case):
    """The mixed-space tensors equal the product written out pair by pair,
    on random tensors (the construction does not need the identities)."""
    system, rules, t, p, q = COHERENCE_CASES[case]
    rng = random.Random(1000 + case)
    ops_a = {gen: oracles.random_tensor(rng, p, 4) for gen in system.generators}
    ops_b = {gen: oracles.random_tensor(rng, q, 4) for gen in system.generators}
    got = coherence_ops(Structure(system, t, ops_a), Structure(system, t, ops_b), rules)
    want = oracles.dense_coherence(system, ops_a, ops_b, t, rules, system.total())
    assert got.system is system and got.t == t and got.dim == p + q + p * q
    for gen in system.generators:
        assert got.ops[gen].entries == oracles.frozen(want[gen]), gen


@pytest.mark.parametrize(
    "system,rules,total",
    [
        (THREE_OP_SYSTEM, unit_rules(THREE_OP_SYSTEM.generators, right_identity=("prec",)),
         "star"),
        (NINE_OP_SYSTEM, unit_rules(NINE_OP_GENERATORS, right_identity=("nw",)), "starbar"),
    ],
)
def test_coherence_ops_refuse_a_non_unital_total(system, rules, total):
    s = Structure(system, F(1), {gen: Tensor3.zero(2) for gen in system.generators})
    with pytest.raises(ValueError, match=f"does not make '{total}' unital"):
        coherence_ops(s, s, rules)


def test_coherence_ops_refuse_a_system_without_a_total():
    s = Structure(ASSOCIATIVITY, F(1), {"mul": Tensor3.zero(2)})
    with pytest.raises(ValueError, match="^system 'assoc' has no total operation composite$"):
        coherence_ops(s, s, {"mul": (F(1), F(1))})


def test_coherence_fails_with_a_witness_when_b_is_perturbed():
    a = small_nine_op()
    b = small_nine_op(use_column=True)
    bent = dict(b.ops, nw=combine(b.dim, [(1, b.ops["nw"]), (1, Tensor3.from_sparse(b.dim, [(0, 1, 2, F(1))]))]))
    report = check_coherence(a, dataclasses.replace(b, ops=bent), oracles.NINE_OP_RULES)
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
    report = check_unit_compatibility(Structure(system, inst.t_eval, inst.ops), rules)
    assert report.passed, report.summary()
    assert report.checks_run == 15883
    assert report.skipped_undefined == 117
    total = unit_scalars(system.at(inst.t_eval), rules)["star_total"]
    assert (total.right, total.left) == (F(1), F(1))
