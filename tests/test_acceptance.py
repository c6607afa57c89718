"""End-to-end acceptance suite.

One test per headline guarantee of the package.  Each test re-runs the full
check it names, asserts the exact expected numbers, enforces the stated time
budget, and prints a single summary line (visible with ``pytest -s`` or in
the verbose test listing).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import oracles
import test_deformation as td
from splitalg import (
    FOUR_OP_SYSTEM,
    NINE_OP_SYSTEM,
    THREE_OP_SYSTEM,
    EpsilonBialgebra,
    FiniteAlgebra,
    LinearOperator,
    Structure,
    WeightedDigraph,
    baxter_deformation,
    builtin_presentations,
    chain_coproduct,
    check_baxter,
    check_cobaxter,
    check_coherence,
    check_deformation_instance,
    check_eps_bialgebra,
    check_hypercubic,
    check_jacobi,
    check_prelie,
    check_system,
    check_unit_compatibility,
    combine,
    convolution_report,
    cross_term_system,
    deformed_structure_check,
    degree3_dimension,
    ennea_from_commuting_pair,
    ennea_on_end,
    horizontal_trialgebra,
    instance_operator_equation,
    opposite_ennea,
    path_algebra,
    prelie_pair_from_ennea,
    splitting_coproduct,
    tensor_ennea,
    transpose_ennea,
    transpose_operator,
    trialgebra_from_baxter,
    triangular_baxter_example,
    triangular_matrix_coalgebra,
    triangular_row_coproduct_operator,
    unit_rules,
    vertical_trialgebra,
    weighted_coproduct,
)
from splitalg.relations import NINE_OP_GENERATORS, TPoly
from splitalg.unit_action import unit_scalars

F = Fraction


def stamp(label, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeded the {budget}s budget"
        print(f"acceptance {label}: PASS ({elapsed:.2f}s < {budget:g}s)")
    else:
        print(f"acceptance {label}: PASS ({elapsed:.2f}s)")


def line_graph(n):
    return WeightedDigraph.build(n, [(i, i + 1, F(1)) for i in range(n - 1)])


def two_vertex_setup():
    pa = path_algebra(line_graph(2))
    return pa.algebra, weighted_coproduct(pa), chain_coproduct(pa)


def test_criterion_1_degree3_dimension_table():
    started = time.perf_counter()
    presets = builtin_presentations()
    expected = {
        "two_op": (3, 5),
        "three_op": (7, 11),
        "four_op": (9, 23),
        "nine_op": (49, 113),
        "deformed_two_three": (16, 34),
        "deformed_three_three": (21, 51),
        "deformed_four_four": (27, 101),
        "deformed_nine_nine": (147, 501),
    }
    for t in (F(1), F(2), F(1, 2)):
        for name, (rank, dim3) in expected.items():
            count = degree3_dimension(presets[name], t)
            assert (count.rank, count.dim3) == (rank, dim3), (name, t)
    stamp("criterion 1 (degree-3 dimensions)", started, 10.0)


def test_criterion_2_triangular_operators():
    started = time.perf_counter()
    for t in (F(1), F(-1), F(2, 3)):
        for n in (2, 3, 4):
            alg, row, col, param = triangular_baxter_example(n, t)
            assert param == -t
            assert check_baxter(alg, row, param).passed
            assert check_baxter(alg, col, param).passed
        # rescaling an operator rescales its weight
        alg, row, _, param = triangular_baxter_example(3, t)
        for c in (F(2), F(-1, 3)):
            assert check_baxter(alg, row.scale(c), c * param).passed
        # the coproduct-side analogue on the matrix coalgebra
        for n in (2, 3):
            delta = triangular_matrix_coalgebra(n)
            psi = triangular_row_coproduct_operator(n, t)
            assert check_cobaxter(delta, psi, -t).passed
    stamp("criterion 2 (triangular weighted operators)", started, 1.0)


def test_criterion_3_construction_chain():
    started = time.perf_counter()
    pa = path_algebra(line_graph(2))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    assert check_eps_bialgebra(b).passed

    conv = convolution_report(b)  # associativity, both operators, commutation
    assert conv.passed and conv.checks_run == 892

    e = ennea_on_end(b)
    assert e.dim == 9
    nine = check_system(e)
    assert nine.passed and nine.checks_run == 49 * 9**3

    for projection in (horizontal_trialgebra, vertical_trialgebra):
        tri = check_system(projection(e))
        assert tri.passed and tri.checks_run == 7 * 9**3

    first, second = prelie_pair_from_ennea(e)
    grand = e.tensor("starbar")
    bracket = grand.sub(grand.swap_args())
    for p in (first, second):
        assert check_prelie(p).passed
        assert p.sub(p.swap_args()).entries == bracket.entries
    assert check_jacobi(bracket).passed
    stamp("criterion 3 (construction chain on the 2-vertex path algebra)", started, 30.0)


def test_criterion_4_coproduct_exchange_laws():
    started = time.perf_counter()
    graphs = [line_graph(2), line_graph(3), WeightedDigraph.build(3, [(0, 1, 1), (0, 2, 1)])]
    for graph in graphs:
        pa = path_algebra(graph)
        report = check_hypercubic([weighted_coproduct(pa), splitting_coproduct(pa)])
        assert report.passed, report.summary()
        assert report.checks_run == 4 * pa.dim
    # two different weightings of the same graph are also compatible
    for n in (2, 3):
        pa = path_algebra(line_graph(n))
        pair = [
            weighted_coproduct(pa),
            weighted_coproduct(pa, weights=[F(2), F(1, 3)][: n - 1]),
        ]
        report = check_hypercubic(pair)
        assert report.passed and report.checks_run == 4 * pa.dim
    stamp("criterion 4 (coproduct exchange laws)", started, 1.0)


def test_criterion_5_printed_cross_term_systems():
    started = time.perf_counter()
    cases = [
        (THREE_OP_SYSTEM, ("prec", "succ"), 6, td.DENDRIFORM_WITH_LABELED_TRIDENDRIFORM),
        (
            THREE_OP_SYSTEM,
            THREE_OP_SYSTEM.generators,
            7,
            td.TRIDENDRIFORM_WITH_LABELED_TRIDENDRIFORM,
        ),
        (FOUR_OP_SYSTEM, FOUR_OP_SYSTEM.generators, 9, td.QUADRI_WITH_LABELED_QUADRI),
    ]
    for base, kept, count, reference in cases:
        deformed = cross_term_system(base, kept)
        assert len(deformed.degree1) == count
        assert td.derived_canonical(deformed) == td.reference_canonical(reference)
    stamp("criterion 5 (derived cross-term systems match the frozen ones)", started)


def test_criterion_6_deformation_instances():
    started = time.perf_counter()
    alg, dw, dch = two_vertex_setup()

    # operator-level identity on the convolution operators
    inst = baxter_deformation("two_three", alg, dw, dch, 0, -1)
    assert instance_operator_equation(inst).passed

    # the assignment satisfies every generated relation
    report = check_deformation_instance(inst)
    assert report.passed and report.checks_run == 16 * 9**3

    # formal-series check at several truncation orders and family values
    for order in (3, 4):
        for tau in (F(0), F(1), F(2)):
            series = deformed_structure_check(
                inst.deformed.base, inst.series, inst.t_eval, order=order, tau=tau
            )
            assert series.passed and series.checks_run == 7 * order * 9**3

    # the zero family member coincides with the undeformed structure
    tau_zero = deformed_structure_check(
        inst.deformed.base, inst.series, inst.t_eval, order=3, tau=F(0)
    )
    trivial = deformed_structure_check(
        inst.deformed.base,
        {name: s[:1] for name, s in inst.series.items()},
        inst.t_eval,
        order=3,
        tau=F(1),
    )
    assert tau_zero.passed and trivial.passed
    assert tau_zero.checks_run == trivial.checks_run
    for name, s in inst.series.items():
        at_zero = combine(9, [(F(0) ** k, part) for k, part in enumerate(s)])
        assert at_zero.entries == s[0].entries, name
    stamp("criterion 6 (deformation instances on the 2-vertex chain)", started, 60.0)


def test_criterion_7_tensor_product_structure():
    started = time.perf_counter()
    alg, row, col, param = triangular_baxter_example(2, F(1))
    a = trialgebra_from_baxter(alg, row, param)
    b = trialgebra_from_baxter(alg, col, param)
    for t in (F(1), F(-1)):
        e = tensor_ennea(a, b, t)
        assert e.dim == 9
        report = check_system(e)
        assert report.passed and report.checks_run == 49 * 9**3
        # the grand total is the tensor product of the two factor totals
        grand = e.tensor("starbar")
        ta, tb = a.tensor("star"), b.tensor("star")
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for p in range(3):
                        for q in range(3):
                            for r in range(3):
                                assert grand.entries[3 * i + p][3 * j + q][3 * k + r] == (
                                    ta.entries[i][j][k] * tb.entries[p][q][r]
                                )
    stamp("criterion 7 (tensor product of two operator-built structures)", started, 10.0)


def test_criterion_8_unit_action():
    started = time.perf_counter()
    pa = path_algebra(line_graph(2))
    b = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
    e = ennea_on_end(b)
    rules = oracles.NINE_OP_RULES

    report = check_unit_compatibility(e, rules)
    assert report.passed
    assert report.checks_run == 48688
    # every skipped tuple is one whose expansion hits an undefined unit corner
    want_skips = sum(
        len(oracles.skip_triples(NINE_OP_SYSTEM, rules, e.t, rel, e.dim))
        for rel in NINE_OP_SYSTEM.relations
    )
    assert report.skipped_undefined == want_skips == 312

    # coherence across two independent structures, in both factor orders
    alg, row, col, param = triangular_baxter_example(2, F(1))
    small_a = ennea_from_commuting_pair(alg, row, row, param)
    small_b = ennea_from_commuting_pair(alg, col, col, param)
    for a, b in ((small_a, small_b), (small_b, small_a)):
        coherence = check_coherence(a, b, rules)
        assert coherence.passed and coherence.checks_run == 49 * 15**3

    # both unit choices on the deformed structure
    inst = baxter_deformation(
        "two_three", pa.algebra, weighted_coproduct(pa), chain_coproduct(pa), 0, -1
    )
    system = inst.deformed.system
    for suffix in ("", "1"):
        choice = unit_rules(
            system.generators,
            right_identity=("prec" + suffix,),
            left_identity=("succ" + suffix,),
        )
        deformed = check_unit_compatibility(Structure(system, inst.t_eval, inst.ops), choice)
        assert deformed.passed
        assert deformed.checks_run == 15883
        assert deformed.skipped_undefined == 117
        total = unit_scalars(system.at(inst.t_eval), choice)["star_total"]
        assert (total.right, total.left) == (F(1), F(1))
    stamp("criterion 8 (unit action and coherence)", started)


def test_criterion_9_randomized_invariants():
    started = time.perf_counter()
    rng = random.Random(20260819)

    # involutions and verdict preservation on arbitrary structures
    for _ in range(5):
        ops = {name: oracles.random_tensor(rng, 2) for name in NINE_OP_GENERATORS}
        e = Structure(NINE_OP_SYSTEM, F(rng.randint(1, 5), rng.randint(1, 3)), ops)
        for move in (opposite_ennea, transpose_ennea):
            twice = move(move(e))
            assert all(twice.ops[k].entries == e.ops[k].entries for k in e.ops)
        assert check_system(e).passed == check_system(opposite_ennea(e)).passed

    # generic-parameter certification at three independent points
    nine = builtin_presentations()["nine_op"]
    for t in (F(3), F(-2), F(5, 7)):
        assert degree3_dimension(nine, t).dim3 == 113
    # every coefficient is quadratic in the parameter, so three samples pin
    # it down: a Lagrange rebuild from 1, 2, 3 must predict the value at -5
    for _ in range(10):
        poly = TPoly(tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)))
        xs = [F(1), F(2), F(3)]
        ys = [poly.eval(x) for x in xs]
        x = F(-5)
        rebuilt = sum(
            (
                ys[i]
                * Fraction(
                    (x - xs[(i + 1) % 3]) * (x - xs[(i + 2) % 3]),
                    (xs[i] - xs[(i + 1) % 3]) * (xs[i] - xs[(i + 2) % 3]),
                )
                for i in range(3)
            ),
            F(0),
        )
        assert rebuilt == poly.eval(x)

    # valid structures: opposite stays valid, pre-Lie brackets behave
    for t in (F(1), F(-2), F(3, 4)):
        alg, row, col, param = triangular_baxter_example(2, t)
        e = ennea_from_commuting_pair(alg, col, col, param)
        assert check_system(e).passed and check_system(opposite_ennea(e)).passed
        first, second = prelie_pair_from_ennea(e)
        for p in (first, second):
            assert check_prelie(p).passed
            bracket = p.sub(p.swap_args())
            assert bracket.swap_args().entries == bracket.scale(-1).entries
            assert check_jacobi(bracket).passed
        # rescaling law at a random factor
        c = F(rng.randint(1, 9), rng.randint(1, 4))
        assert check_baxter(alg, row.scale(c), c * param).passed

    # coproduct-side duality is a genuine equivalence for arbitrary operators
    delta = triangular_matrix_coalgebra(2)
    for _ in range(8):
        op = LinearOperator.from_rows([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        s = F(rng.choice([-1, 0, 1, 2]))
        left = check_cobaxter(delta, op, s).passed
        right = check_baxter(FiniteAlgebra(delta.dual), transpose_operator(op), s).passed
        assert left == right
    stamp("criterion 9 (randomized invariants)", started)
