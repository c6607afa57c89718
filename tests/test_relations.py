"""Structure of the built-in identity tables and their resolution logic."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from splitalg import (
    FOUR_OP_SYSTEM,
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    TWO_OP_SYSTEM,
    Structure,
    Tensor3,
    TPoly,
    check_system,
)
from splitalg.operad import builtin_presentation
from splitalg.relations import (
    ASSOCIATIVITY,
    NINE_OP_GENERATORS,
    P_ONE,
    P_T,
    SYSTEMS,
    expand_relation,
)

F = Fraction


def test_tpoly_evaluates_by_coefficient_list():
    p = TPoly((F(1), F(-2), F(3)))  # 1 - 2t + 3t^2
    assert p.eval(F(0)) == 1
    assert p.eval(F(1)) == 2
    assert p.eval(F(1, 2)) == F(3, 4)
    assert P_ONE.eval(F(7)) == 1
    assert P_T.eval(F(7)) == 7


def test_relation_counts_per_system():
    assert len(TWO_OP_SYSTEM.relations) == 3
    assert len(THREE_OP_SYSTEM.relations) == 7
    assert len(FOUR_OP_SYSTEM.relations) == 9
    assert len(NINE_OP_SYSTEM.relations) == 49


def test_generator_counts_per_system():
    assert TWO_OP_SYSTEM.generators == ("prec", "succ")
    assert THREE_OP_SYSTEM.generators == ("prec", "succ", "circ")
    assert FOUR_OP_SYSTEM.generators == ("nw", "ne", "sw", "se")
    assert NINE_OP_SYSTEM.generators == NINE_OP_GENERATORS
    assert len(NINE_OP_GENERATORS) == 9


def test_nine_op_block_weights():
    """The 49 identities come in 7 blocks of 7 with weights 1,1,1,t,t,t,t^2."""
    weights = {}
    for rel in NINE_OP_SYSTEM.relations:
        block = rel.name.split(".")[0]
        coeffs = {term.coeff for term in rel.lhs + rel.rhs}
        weights.setdefault(block, set()).update(coeffs)
    assert set(weights) == {str(i) for i in range(1, 8)}
    for block in ("1", "2", "3"):
        assert weights[block] == {P_ONE}
    expected_t = {P_ONE, P_T}
    for block in ("4", "5", "6", "7"):
        assert P_T in weights[block] or TPoly((F(0), F(0), F(1))) in weights[block]
    assert all(w <= expected_t | {TPoly((F(0), F(0), F(1)))} for w in weights.values())


def test_each_relation_has_terms_on_both_sides():
    for system in SYSTEMS.values():
        for rel in system.relations:
            assert rel.lhs and rel.rhs, f"{system.name}:{rel.name}"


def test_composites_resolve_to_generators():
    star = dict(NINE_OP_SYSTEM.composites)["starbar"]
    gens = [gen for _, gen in star]
    assert sorted(gens) == sorted(NINE_OP_GENERATORS)
    weighted = {gen: poly for poly, gen in star}
    for gen in ("nw", "ne", "sw", "se", "up", "down"):
        assert weighted[gen] == P_ONE
    for gen in ("prec", "succ", "circ"):
        assert weighted[gen] == P_T


def test_four_op_composites():
    comp = {name: sorted(g for _, g in pairs) for name, pairs in FOUR_OP_SYSTEM.composites.items()}
    assert comp["lhd"] == ["nw", "sw"]
    assert comp["rhd"] == ["ne", "se"]
    assert comp["wedge"] == ["ne", "nw"]
    assert comp["vee"] == ["se", "sw"]
    assert comp["starbar"] == ["ne", "nw", "se", "sw"]


TOTALS = {
    "two_op": "star",
    "three_op": "star",
    "four_op": "starbar",
    "nine_op": "starbar",
    "deformed_two_two": "star_total",
    "deformed_two_three": "star_total",
    "deformed_three_three": "star_total",
    "deformed_four_four": "starbar_total",
    "deformed_nine_nine": "starbar_total",
}


@pytest.mark.parametrize("preset", sorted(TOTALS))
def test_total_is_the_composite_naming_every_generator(preset):
    system = builtin_presentation(preset)
    total = system.total()
    assert total == TOTALS[preset]
    assert {gen for _, gen in system.composites[total]} == set(system.generators)


def test_a_presentation_without_a_total_has_none():
    assert ASSOCIATIVITY.total() is None  # no composites
    partial = dict(NINE_OP_SYSTEM.composites)
    del partial["starbar"]  # star names only prec, succ and circ
    assert dataclasses.replace(NINE_OP_SYSTEM, composites=partial).total() is None


def test_resolve_unknown_name_raises():
    with pytest.raises(KeyError):
        TWO_OP_SYSTEM.resolve("circ")
    assert TWO_OP_SYSTEM.resolve("prec") == ((P_ONE, "prec"),)


def test_structure_tensor_matches_manual_expansion():
    rng = random.Random(3)
    ops = {name: oracles.random_tensor(rng, 3) for name in NINE_OP_GENERATORS}
    t = F(2, 3)
    s = Structure(NINE_OP_SYSTEM, t, ops)
    for name in NINE_OP_SYSTEM.operation_names():
        want = oracles.expand_named(NINE_OP_SYSTEM, ops, t, name)
        assert s.tensor(name).entries == want.entries, name
        assert s.tensor(name) is s.tensor(name)
    assert s.table == NINE_OP_SYSTEM.at(t)


def test_structure_evaluates_its_table_once(monkeypatch):
    """All 16 nine-op operations resolved twice read the table's 134
    coefficients once; the cached table and tensors are not fields."""
    ops = {name: Tensor3.zero(2) for name in NINE_OP_GENERATORS}
    s = Structure(NINE_OP_SYSTEM, F(2, 3), ops)
    calls = []
    evaluate = TPoly.eval
    monkeypatch.setattr(TPoly, "eval", lambda poly, t: calls.append(t) or evaluate(poly, t))
    for _ in range(2):
        for name in NINE_OP_SYSTEM.operation_names():
            s.tensor(name)
    assert len(NINE_OP_SYSTEM.operation_names()) == 16
    assert len(calls) == 134
    fresh = dataclasses.replace(s)
    assert fresh == s and "table" not in vars(fresh)


@pytest.mark.parametrize("family", ["two_op", "three_op", "nine_op", "deformed_two_three"])
def test_structure_holds_exactly_the_generators_in_one_dimension(family):
    system = builtin_presentation(family)
    ops = {gen: Tensor3.zero(2) for gen in system.generators}
    first, *others = system.generators
    assert Structure(system, 1, ops).dim == 2
    missing = {gen: ops[gen] for gen in others}
    extra = dict(ops, lhs=Tensor3.zero(2))
    for faulty, message in (
        (missing, rf"missing \['{first}'\], extra \[\]"),
        (extra, r"missing \[\], extra \['lhs'\]"),
        (dict(ops, **{first: Tensor3.zero(3)}), "share one dimension"),
    ):
        with pytest.raises(ValueError, match=message):
            Structure(system, 1, faulty)


@pytest.mark.parametrize(
    "family,t,title",
    [
        ("two_op", F(0), "two-op splitting"),
        ("three_op", F(0), "three-op splitting"),
        ("four_op", F(0), "four-op splitting"),
        ("nine_op", F(-1), "nine-op splitting (t=-1)"),
        ("deformed_two_three", F(0), "deformed_two_three identities"),
    ],
)
def test_check_system_titles_a_structure_by_its_family(family, t, title):
    system = builtin_presentation(family)
    s = Structure(system, t, {gen: Tensor3.zero(2) for gen in system.generators})
    assert check_system(s).title == title


def test_check_system_agrees_with_brute_force_on_random_ops():
    """The fast composition-map path and naive triple loops agree per relation."""
    rng = random.Random(17)
    ops = {name: oracles.random_tensor(rng, 2, entries=4) for name in ("prec", "succ")}
    t = F(0)
    report = check_system(Structure(TWO_OP_SYSTEM, t, ops))
    failing = {w.context.split(":", 1)[1] for w in report.witnesses}
    for rel in TWO_OP_SYSTEM.relations:
        holds = oracles.brute_relation_holds(TWO_OP_SYSTEM, ops, t, rel)
        assert holds == (rel.name not in failing), rel.name
    assert report.checks_run == 3 * 2**3


def test_expand_relation_collects_generator_monomials():
    rel = NINE_OP_SYSTEM.relations[0]
    lhs, rhs = expand_relation(NINE_OP_SYSTEM, rel)
    assert lhs and rhs
    for side in (lhs, rhs):
        for (outer, inner), poly in side.items():
            assert outer in NINE_OP_GENERATORS and inner in NINE_OP_GENERATORS
            assert isinstance(poly, TPoly) and not poly.is_zero()
