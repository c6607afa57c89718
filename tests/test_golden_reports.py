"""Golden JSON for a fixed set of reports and one CLI envelope.

Every case below renders a report (or the ``construct end-ennea`` envelope)
with the package's own JSON writer and compares the text byte for byte with
``golden_reports.json``.  The expected file pins witnesses, ``checks_run``
counts and notes, so any rewrite of the checkers or the tensor kernel must
reproduce them exactly.

Regenerate the expected file (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import oracles
from splitalg import (
    CoalgebraData,
    EpsilonBialgebra,
    LinearOperator,
    Structure,
    Tensor3,
    WeightedDigraph,
    baxter_deformation,
    chain_coproduct,
    check_baxter,
    check_cobaxter,
    check_coassociative,
    check_deformation_instance,
    check_ennea,
    check_eps_bialgebra,
    check_hypercubic,
    check_prelie,
    check_trialgebra,
    check_unit_compatibility,
    convolution_structure,
    deformed_structure_check,
    ennea_from_commuting_pair,
    ennea_on_end,
    path_algebra,
    splitting_coproduct,
    triangular_baxter_example,
    triangular_matrix_coalgebra,
    triangular_row_coproduct_operator,
    two_operator_equation,
    weighted_coproduct,
)
from splitalg.bialgebra import check_derivations, is_coderivation, is_derivation
from splitalg.cli import main
from splitalg.jsonio import dump_json, graph_to_json, report_to_json, save
from splitalg.relations import (
    ASSOCIATIVITY,
    FOUR_OP_SYSTEM,
    THREE_OP_SYSTEM,
    TWO_OP_SYSTEM,
    check_system,
)
from splitalg.splitting import (
    is_baxter_on_trialgebra,
    prelie_from_trialgebra,
    star_morphism_report,
    trialgebra_from_baxter,
)

F = Fraction
GOLDEN = Path(__file__).with_name("golden_reports.json")


def _chain2(weight=F(1)):
    return path_algebra(WeightedDigraph.build(2, [(0, 1, weight)]))


def _chain_bialgebra(weight=F(1), t=F(-1)):
    pa = _chain2(weight)
    return EpsilonBialgebra(pa.algebra, chain_coproduct(pa), t)


def _weighted_conv():
    pa = _chain2()
    return convolution_structure(EpsilonBialgebra(pa.algebra, weighted_coproduct(pa), F(0)))


def _inner_derivation(algebra, a):
    """D(x) = e_a x - x e_a, a derivation of any associative product."""
    n = algebra.dim
    grid = [[F(0)] * n for _ in range(n)]
    for i, j, k, c in algebra.mult.nonzeros():
        if i == a:
            grid[k][j] += c
        if j == a:
            grid[k][i] -= c
    return LinearOperator.from_rows(grid)


def _perturbed(op, row, col, delta):
    grid = [list(r) for r in op.entries]
    grid[row][col] += delta
    return LinearOperator.from_rows(grid)


def _baxter_cases():
    alg, row, col, param = triangular_baxter_example(4, F(1))
    cs = convolution_structure(_chain_bialgebra())
    yield "baxter/triangular4", check_baxter(alg, row, param)
    yield "baxter/triangular4_column", check_baxter(alg, col, param)
    yield "baxter/triangular4_weight_plus_one", check_baxter(alg, row, param + 1)
    yield "baxter/triangular4_perturbed", check_baxter(
        alg, _perturbed(row, 9, 8, F(1, 2)), param
    )
    yield "baxter/conv_left", check_baxter(cs.end, cs.left_conv, F(-1))
    yield "baxter/conv_right", check_baxter(cs.end, cs.right_conv, F(-1))
    yield "baxter/conv_right_wrong_weight", check_baxter(cs.end, cs.right_conv, F(1, 2))


def _trialgebra_cases():
    cs = convolution_structure(_chain_bialgebra(F(2, 3)))
    s = trialgebra_from_baxter(cs.end, cs.left_conv, F(-1))
    yield "trialgebra/baxter_on_trialgebra", is_baxter_on_trialgebra(s, cs.right_conv, F(-1))
    yield "trialgebra/baxter_on_trialgebra_fail", is_baxter_on_trialgebra(
        s, cs.right_conv, F(0)
    )
    zero = Tensor3.zero(s.dim)
    yield "trialgebra/baxter_on_trialgebra_fail_succ", is_baxter_on_trialgebra(
        dataclasses.replace(s, ops=dict(s.ops, prec=zero)), cs.right_conv, F(0)
    )
    yield "trialgebra/baxter_on_trialgebra_fail_circ", is_baxter_on_trialgebra(
        dataclasses.replace(s, ops=dict(s.ops, prec=zero, succ=zero)), cs.right_conv, F(0)
    )
    yield "trialgebra/star_morphism", star_morphism_report(cs.end, cs.left_conv, s, F(-1))
    yield "trialgebra/star_morphism_fail", star_morphism_report(
        cs.end, cs.right_conv, s, F(-1)
    )
    alg, row, col, param = triangular_baxter_example(3, F(2, 3))
    s3 = trialgebra_from_baxter(alg, row, param)
    yield "trialgebra/star_morphism_triangular", star_morphism_report(alg, row, s3, param)
    yield "trialgebra/star_morphism_triangular_fail", star_morphism_report(
        alg, col, s3, param
    )


def _derivation_cases():
    b = _chain_bialgebra()
    alg, _, _, _ = triangular_baxter_example(3, F(1))
    n = b.dim
    ident = oracles.identity_operator(n)
    zero = ident.scale(0)
    yield "derivation/inner", is_derivation(alg, _inner_derivation(alg, 1))
    yield "derivation/inner_perturbed", is_derivation(
        alg, _perturbed(_inner_derivation(alg, 1), 4, 5, F(1))
    )
    yield "derivation/identity", is_derivation(b.algebra, ident)
    yield "derivation/bowtie", check_derivations(b)
    yield "derivation/bowtie_zero_candidate", check_derivations(b, candidate=zero)
    yield "derivation/bowtie_identity_candidate", check_derivations(b, candidate=ident)
    yield "derivation/bowtie_wrong_parameter", check_derivations(
        _chain_bialgebra(F(3), F(0))
    )


def _operator_equation_cases():
    pa = _chain2()
    cs = _weighted_conv()
    cs1 = convolution_structure(EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1)))
    yield "operator_equation/pass", two_operator_equation(
        cs.end, cs.left_conv, cs1.left_conv, F(0), F(-1)
    )
    yield "operator_equation/wrong_weights", two_operator_equation(
        cs.end, cs.left_conv, cs1.left_conv, F(1), F(-1)
    )
    yield "operator_equation/right_left", two_operator_equation(
        cs.end, cs.right_conv, cs1.left_conv, F(0), F(-1)
    )
    yield "operator_equation/left_right_0_2", two_operator_equation(
        cs.end, cs.left_conv, cs.right_conv, F(0), F(2)
    )


def _coalgebra_cases():
    t = F(2, 3)
    delta3 = triangular_matrix_coalgebra(3)
    psi = triangular_row_coproduct_operator(3, t)
    yield "coalgebra/cobaxter", check_cobaxter(delta3, psi, -t)
    yield "coalgebra/cobaxter_fail", check_cobaxter(delta3, psi, -t + 1)
    broken = CoalgebraData.from_items(
        3, [(0, 1, 0, F(1)), (1, 2, 2, F(1, 2)), (2, 0, 1, F(-1))]
    )
    yield "coalgebra/coassociative_fail", check_coassociative(broken)
    b = _chain_bialgebra()
    yield "coalgebra/eps_bialgebra", check_eps_bialgebra(b)
    yield "coalgebra/eps_bialgebra_fail", check_eps_bialgebra(
        EpsilonBialgebra(b.algebra, b.delta, F(0))
    )
    pa = _chain2()
    yield "coalgebra/hypercubic_fail", check_hypercubic(
        [chain_coproduct(pa), chain_coproduct(pa, weights=[F(3, 2)])]
    )
    yield "coalgebra/coderivation_fail", is_coderivation(
        b.delta, oracles.identity_operator(b.dim)
    )
    yield "coalgebra/coderivation_fail_late", is_coderivation(
        b.delta, _perturbed(oracles.identity_operator(b.dim).scale(0), 2, 2, F(1))
    )
    skew = Tensor3.from_sparse(
        3, [(0, 1, 2, F(1)), (1, 2, 0, F(2, 3)), (2, 2, 1, F(-1)), (1, 0, 1, F(1))]
    )
    yield "coalgebra/prelie_fail", check_prelie(skew)
    pa3 = path_algebra(WeightedDigraph.build(3, [(0, 1, F(2, 3)), (1, 2, F(-5, 2))]))
    yield "coalgebra/hypercubic_fail_third_pair", check_hypercubic(
        [
            weighted_coproduct(pa3),
            weighted_coproduct(pa3, weights=[F(1, 2), F(3)]),
            chain_coproduct(pa3),
            splitting_coproduct(pa3),
        ]
    )
    alg, row, _, param = triangular_baxter_example(3, F(2, 3))
    yield "coalgebra/prelie_rational", check_prelie(
        prelie_from_trialgebra(trialgebra_from_baxter(alg, row, param))
    )


def _unit_cases():
    e = ennea_on_end(_chain_bialgebra())
    rules = oracles.NINE_OP_RULES
    yield "unit/nine_op", check_unit_compatibility(e, rules)
    swapped = dict(rules, nw=rules["se"], se=rules["nw"])
    yield "unit/nine_op_swapped", check_unit_compatibility(e, swapped)


def _bump(tensor, i, j, k, delta):
    """The tensor with ``delta`` added to one structure constant."""
    return Tensor3.from_sparse(tensor.dim, tensor.nonzeros() + ((i, j, k, delta),))


def _bumped_ops(ops, name, i, j, k, delta):
    return dict(ops, **{name: _bump(ops[name], i, j, k, delta)})


def _bumped(s, name, i, j, k, delta):
    """The structure with ``delta`` added to one constant of one operation."""
    return dataclasses.replace(s, ops=_bumped_ops(s.ops, name, i, j, k, delta))


def _identity_system_cases():
    end = ennea_on_end(_chain_bialgebra(F(2, 3)))
    yield "ennea/end_perturbed_rational", check_ennea(_bumped(end, "ne", 1, 4, 2, F(1, 2)))
    alg, row, col, param = triangular_baxter_example(2, F(2, 3))
    pair = ennea_from_commuting_pair(alg, row, row, param)
    yield "ennea/commuting_pair_rational_t", check_ennea(pair)
    yield "ennea/commuting_pair_rational_t_fail", check_ennea(
        _bumped(pair, "circ", 0, 1, 1, F(3, 7))
    )
    tri = trialgebra_from_baxter(alg, row, param)
    yield "trialgebra/check_fail", check_trialgebra(_bumped(tri, "prec", 0, 0, 0, F(1, 5)))
    two = {name: tri.ops[name] for name in ("prec", "succ")}
    yield "dialgebra/check_fail", check_system(
        Structure(TWO_OP_SYSTEM, F(0), two), "two-op splitting"
    )
    corners = {name: pair.ops[name] for name in ("nw", "ne", "sw", "se")}
    yield "quadri/check_fail", check_system(
        Structure(FOUR_OP_SYSTEM, F(0), _bumped_ops(corners, "sw", 1, 2, 0, F(-2, 9))),
        "four-op splitting",
    )
    skew = Tensor3.from_sparse(
        3, [(0, 1, 2, F(1, 2)), (1, 2, 0, F(2, 3)), (2, 2, 1, F(-1)), (1, 0, 1, F(1))]
    )
    yield "algebra/associativity_fail", check_system(
        Structure(ASSOCIATIVITY, F(0), {"mul": skew}), "algebra axioms"
    )
    rules = oracles.NINE_OP_RULES
    yield "unit/nine_op_perturbed_rational", check_unit_compatibility(
        _bumped(end, "nw", 2, 1, 3, F(5, 6)), rules
    )
    tri_rules = {"prec": (F(1), F(0)), "succ": (F(0), F(1)), "circ": (F(0), F(0))}
    yield "unit/three_op_perturbed_rational", check_unit_compatibility(
        Structure(THREE_OP_SYSTEM, F(2, 3), _bumped_ops(tri.ops, "succ", 1, 1, 2, F(-4, 3))),
        tri_rules,
    )
    pa3 = path_algebra(WeightedDigraph.build(3, [(0, 1, F(3)), (1, 2, F(-7, 2))]))
    end3 = ennea_on_end(EpsilonBialgebra(pa3.algebra, chain_coproduct(pa3), F(-1)))
    # dim 36 (37 with the unit), the size the benchmark checks: the witnesses
    # of the fourteen failing identities lie in slices x = 0, 4, 5 and 30
    bumped3 = _bumped(end3, "se", 30, 29, 35, F(2, 3))
    yield "ennea/end_chain3_perturbed", check_ennea(bumped3)
    yield "unit/end_chain3_perturbed", check_unit_compatibility(bumped3, rules)
    pa = _chain2()
    inst = baxter_deformation(
        "two_three", pa.algebra, weighted_coproduct(pa), chain_coproduct(pa), 0, -1
    )
    yield "deformation/instance_fail", check_deformation_instance(
        dataclasses.replace(inst, ops=_bumped_ops(inst.ops, "succ1", 3, 4, 5, F(7, 4)))
    )
    succ0, succ1 = inst.series["succ"]
    series = dict(inst.series, succ=[succ0, _bump(succ1, 1, 4, 2, F(-2, 5))])
    yield "deformation/series_fail", deformed_structure_check(
        inst.deformed.base, series, inst.t_eval, order=3, tau=F(3, 2)
    )


def _end_ennea_envelope(vertices: int, weights) -> str:
    graph = WeightedDigraph.build(
        vertices, [(v, v + 1, w) for v, w in zip(range(vertices - 1), weights)]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "graph.json")
        save(path, graph_to_json(graph))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["construct", "end-ennea", "--graph", path])
    assert code == 0
    return out.getvalue()


def compute() -> dict:
    """Every golden case, as the JSON value stored in the expected file."""
    golden: dict = {}
    for cases in (
        _baxter_cases,
        _trialgebra_cases,
        _derivation_cases,
        _operator_equation_cases,
        _coalgebra_cases,
        _unit_cases,
        _identity_system_cases,
    ):
        for name, report in cases():
            golden[name] = report_to_json(report)
    golden["envelope/end_ennea_chain2"] = json.loads(_end_ennea_envelope(2, [F(2, 3)]))
    # the bytes of an envelope whose tensors have denominators (4/9, 3/5, ...)
    fifths = _end_ennea_envelope(2, [F(3, 5)])
    golden["envelope/end_ennea_chain2_3_5"] = json.loads(fifths)
    golden["envelope/end_ennea_chain2_3_5_sha256"] = hashlib.sha256(fifths.encode()).hexdigest()
    chain3 = _end_ennea_envelope(3, [F(1), F(-5, 2)])
    golden["envelope/end_ennea_chain3_sha256"] = hashlib.sha256(chain3.encode()).hexdigest()
    return golden


def test_reports_match_golden_json():
    computed = compute()
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(computed) == sorted(expected)
    mismatched = [
        name
        for name in sorted(expected)
        if dump_json({name: computed[name]}) != dump_json({name: expected[name]})
    ]
    assert mismatched == []
    # the entries above are compared after both pass through the writer; the
    # stored file is the writer's own text, so its bytes pin the writer too
    assert dump_json(computed) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(dump_json(compute()), encoding="utf-8")
