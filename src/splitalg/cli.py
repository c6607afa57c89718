"""Command-line workbench for splitting structures.

Verbs:

  verify     baxter | trialgebra | ennea | graph-bialgebra | unit-action
             | coherence — run exact identity checks and report witnesses
  construct  path-algebra | end-ennea — build objects from a graph file
  operad     dim3 — degree-3 dimension of a presentation, exactly
  deform     derive | check — the formal-deformation engine
  demo       headline table: expected vs computed degree-3 dimensions

All file input/output uses the kind-tagged JSON envelopes of
:mod:`splitalg.jsonio`; scalars are fraction strings, never floats.

Exit status: 0 when every check passes, 1 when some identity fails,
2 on bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .relations import AxiomSystem, Relation, TPoly
    from .report import Report

# Each command imports the modules it runs, so a process loads only those.
# The parser's choices are spelled out here for the same reason; the tests
# pin them to ``relations.DEFORMATIONS`` and to the two graph recipes of
# ``cmd_deform_check``.
DERIVE_VARIANTS = ("four_four", "nine_nine", "three_three", "two_three", "two_two")
CHECK_VARIANTS = ("four_four", "two_three")

EXPECTED_DIM3 = {
    "two_op": 5,
    "three_op": 11,
    "four_op": 23,
    "nine_op": 113,
    "deformed_two_two": 23,
    "deformed_two_three": 34,
    "deformed_three_three": 51,
    "deformed_four_four": 101,
    "deformed_nine_nine": 501,
}


def _fraction(text: str) -> Fraction:
    from .exactlin import rat

    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part.strip()]


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _refuse_unread_weights2(args: argparse.Namespace, reader: str) -> None:
    """``--weights2`` is read by one variant only; with any other it is refused."""
    if args.weights2 is not None and args.variant != reader:
        raise ValueError(f"--weights2 is read only with --variant {reader}")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit_reports(args: argparse.Namespace, reports: Sequence[Report]) -> int:
    if args.json:
        from . import jsonio

        if len(reports) == 1:
            payload = jsonio.report_to_json(reports[0])
        else:
            payload = {
                "kind": "reports",
                "reports": [jsonio.report_to_json(r) for r in reports],
            }
        sys.stdout.write(jsonio.dump_json(payload))
    else:
        for report in reports:
            print(report.summary())
    return 0 if all(r.passed for r in reports) else 1


def _emit_data(args: argparse.Namespace, data: dict, text: str) -> int:
    if args.json:
        from . import jsonio

        sys.stdout.write(jsonio.dump_json(data))
    else:
        print(text)
    return 0


def _write_or_print(args: argparse.Namespace, data: dict) -> int:
    from . import jsonio

    if args.output:
        jsonio.save(args.output, data)
        if not args.json:
            print(f"wrote {data['kind']} envelope to {args.output}")
    else:
        sys.stdout.write(jsonio.dump_json(data))
    return 0


def _rules_from_args(system: AxiomSystem, args: argparse.Namespace) -> dict:
    from .unit_action import unit_rules

    right = args.right
    left = args.left
    if right is None and left is None:
        if "nw" in system.generators and "se" in system.generators:
            right, left = ("nw",), ("se",)
        elif "prec" in system.generators and "succ" in system.generators:
            right, left = ("prec",), ("succ",)
        else:
            raise ValueError(
                "no default unit action for this family; give --right/--left"
            )
    return unit_rules(
        system.generators, right_identity=right or (), left_identity=left or ()
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify_baxter(args: argparse.Namespace) -> int:
    from . import jsonio
    from .baxter import check_baxter, check_cobaxter

    if bool(args.algebra) == bool(args.coproduct):
        raise ValueError("give exactly one of --algebra and --coproduct (the transposed check)")
    operator = jsonio.operator_from_json(jsonio.load(args.operator))
    if args.coproduct:
        delta = jsonio.coproduct_from_json(jsonio.load(args.coproduct))
        return _emit_reports(args, [check_cobaxter(delta, operator, args.t)])
    algebra = jsonio.algebra_from_json(jsonio.load(args.algebra))
    return _emit_reports(args, [check_baxter(algebra, operator, args.t)])


def cmd_verify_family(args: argparse.Namespace) -> int:
    from . import jsonio
    from .relations import check_system

    structure = jsonio.operations_from_json(jsonio.load(args.file))
    if structure.system.name != args.family:
        raise ValueError(f"expected a {args.family} operations file, got {structure.system.name!r}")
    return _emit_reports(args, [check_system(structure)])


def cmd_verify_graph_bialgebra(args: argparse.Namespace) -> int:
    from . import jsonio
    from .algebra_core import check_coassociative
    from .bialgebra import EpsilonBialgebra, check_eps_bialgebra, check_hypercubic
    from .graphalg import chain_coproduct, path_algebra, splitting_coproduct, weighted_coproduct

    _refuse_unread_weights2(args, "weighted")
    graph = jsonio.graph_from_json(jsonio.load(args.file))
    pa = path_algebra(graph)
    weighted = weighted_coproduct(pa)
    reports: list[Report] = []
    if args.variant == "weighted":
        reports.append(
            check_eps_bialgebra(EpsilonBialgebra(pa.algebra, weighted, 0))
        )
        if args.weights2 is not None:
            other = weighted_coproduct(pa, args.weights2)
            reports.append(check_hypercubic([weighted, other]))
    elif args.variant == "chain":
        delta = chain_coproduct(pa)
        reports.append(
            check_eps_bialgebra(EpsilonBialgebra(pa.algebra, delta, Fraction(-1)))
        )
    else:  # splitting
        delta = splitting_coproduct(pa)
        reports.append(check_coassociative(delta, "vertex-splitting coassociativity"))
        reports.append(check_hypercubic([weighted, delta]))
        if graph.vertices == 1:
            reports.append(
                check_eps_bialgebra(EpsilonBialgebra(pa.algebra, delta, Fraction(-1)))
            )
    return _emit_reports(args, reports)


def cmd_verify_unit_action(args: argparse.Namespace) -> int:
    from . import jsonio
    from .unit_action import check_unit_compatibility

    structure = jsonio.operations_from_json(jsonio.load(args.file))
    rules = _rules_from_args(structure.system, args)
    return _emit_reports(args, [check_unit_compatibility(structure, rules)])


def cmd_verify_coherence(args: argparse.Namespace) -> int:
    from . import jsonio
    from .unit_action import check_coherence

    a = jsonio.operations_from_json(jsonio.load(args.file))
    b = jsonio.operations_from_json(jsonio.load(args.file2)) if args.file2 else a
    if b.system.name != a.system.name or b.t != a.t:
        raise ValueError("both operations files must share family and t")
    mixed = a.dim + b.dim + a.dim * b.dim
    if mixed > jsonio.MAX_ENVELOPE_DIM:
        raise ValueError(
            f"the mixed space would have dimension {mixed}, "
            f"above the limit {jsonio.MAX_ENVELOPE_DIM}"
        )
    rules = _rules_from_args(a.system, args)
    report = check_coherence(a, b, rules)
    return _emit_reports(args, [report])


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct_path_algebra(args: argparse.Namespace) -> int:
    from . import jsonio
    from .graphalg import chain_coproduct, path_algebra, splitting_coproduct, weighted_coproduct

    graph = jsonio.graph_from_json(jsonio.load(args.graph))
    pa = path_algebra(graph)
    if args.coproduct is None:
        return _write_or_print(args, jsonio.algebra_to_json(pa.algebra))
    if args.coproduct == "weighted":
        delta = weighted_coproduct(pa)
    elif args.coproduct == "chain":
        delta = chain_coproduct(pa)
    else:
        delta = splitting_coproduct(pa)
    return _write_or_print(args, jsonio.coproduct_to_json(delta))


def cmd_construct_end_ennea(args: argparse.Namespace) -> int:
    from . import jsonio
    from .bialgebra import EpsilonBialgebra, ennea_on_end
    from .graphalg import chain_coproduct, path_algebra

    graph = jsonio.graph_from_json(jsonio.load(args.graph))
    pa = path_algebra(graph)
    bial = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), Fraction(-1))
    return _write_or_print(args, jsonio.operations_to_json(ennea_on_end(bial)))


# ---------------------------------------------------------------------------
# operad
# ---------------------------------------------------------------------------


def cmd_operad_dim3(args: argparse.Namespace) -> int:
    from .operad import PRESET_NAMES, builtin_presentation, degree3_dimension

    if args.preset:
        if args.preset not in PRESET_NAMES:
            known = ", ".join(sorted(PRESET_NAMES))
            raise ValueError(f"unknown preset {args.preset!r}; known: {known}")
        system = builtin_presentation(args.preset)
    else:
        from . import jsonio

        system = jsonio.system_from_json(jsonio.load(args.file))
    count = degree3_dimension(system, args.t)
    data = {
        "kind": "degree3",
        "system": count.system_name,
        "t": str(count.t),
        "generators": count.generators,
        "relations": count.relations,
        "monomials": count.monomials,
        "nonzeros": count.nonzeros,
        "rank": count.rank,
        "dim3": count.dim3,
    }
    text = (
        f"{count.system_name} at t={count.t}: {count.generators} generators, "
        f"{count.relations} identities, degree-3 monomials {count.monomials}, "
        f"relation rank {count.rank} over {count.nonzeros} nonzeros, "
        f"dim3 = {count.dim3}"
    )
    return _emit_data(args, data, text)


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------


def _format_tpoly(poly: TPoly) -> str:
    from .relations import P_ONE

    if poly == P_ONE:
        return ""
    parts = []
    for power, coeff in enumerate(poly):
        if coeff == 0:
            continue
        if power == 0:
            parts.append(str(coeff))
        else:
            base = "t" if power == 1 else f"t^{power}"
            if coeff == 1:
                parts.append(base)
            elif coeff == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{coeff} {base}")
    if not parts:
        return "0"
    body = " + ".join(parts).replace("+ -", "- ")
    return body if len(parts) == 1 else f"({body})"


def format_relation(relation: Relation) -> str:
    """One identity as readable text, generators named as in the system."""

    def side(terms, left_nested: bool) -> str:
        rendered = []
        for coeff, inner, outer in terms:
            shape = (
                f"(x {inner} y) {outer} z" if left_nested else f"x {outer} (y {inner} z)"
            )
            poly = _format_tpoly(coeff)
            rendered.append(f"{poly} {shape}".strip())
        return " + ".join(rendered) if rendered else "0"

    return f"{relation.name}:  {side(relation.lhs, True)}  =  {side(relation.rhs, False)}"


def cmd_deform_derive(args: argparse.Namespace) -> int:
    from .deformation import cross_term_system

    system = cross_term_system(args.variant)
    if args.json:
        from . import jsonio

        sys.stdout.write(jsonio.dump_json(jsonio.system_to_json(system)))
        return 0
    print(
        f"{system.name}: {len(system.generators)} generators "
        f"{', '.join(system.generators)}; {len(system.relations)} identities"
    )
    labels = ("base identities", "cross-term identities", "labeled identities")
    for degree, label in enumerate(labels):
        relations = [rel for rel in system.relations if rel.name.startswith(f"d{degree}:")]
        print(f"-- {label} ({len(relations)})")
        for rel in relations:
            print("  " + format_relation(rel))
    return 0


def cmd_deform_check(args: argparse.Namespace) -> int:
    from . import jsonio
    from .deformation import (
        baxter_deformation,
        check_deformation_instance,
        deformed_structure_check,
        instance_operator_equation,
    )
    from .graphalg import chain_coproduct, path_algebra, weighted_coproduct

    _refuse_unread_weights2(args, "four_four")
    if not args.taus:
        raise ValueError("--taus needs at least one rescaling")
    graph = jsonio.graph_from_json(jsonio.load(args.graph))
    pa = path_algebra(graph)
    weighted = weighted_coproduct(pa)
    if args.variant == "two_three":
        delta, delta1 = weighted, chain_coproduct(pa)
        t, t1 = Fraction(0), Fraction(-1)
    else:  # four_four
        weights2 = [Fraction(1)] * len(graph.arcs) if args.weights2 is None else args.weights2
        delta, delta1 = weighted, weighted_coproduct(pa, weights2)
        t, t1 = Fraction(0), Fraction(0)
    instance = baxter_deformation(args.variant, pa.algebra, delta, delta1, t, t1)
    reports = [check_deformation_instance(instance), instance_operator_equation(instance)]
    for tau in args.taus:
        reports.append(deformed_structure_check(instance, order=args.order, tau=tau))
    return _emit_reports(args, reports)


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    import random

    from . import jsonio
    from .baxter import check_baxter, triangular_baxter_example
    from .bialgebra import EpsilonBialgebra, check_eps_bialgebra
    from .graphalg import chain_coproduct, path_algebra
    from .operad import builtin_presentation, degree3_dimension

    rng = random.Random(args.seed)
    rows = []
    all_ok = True
    for name, expected in EXPECTED_DIM3.items():
        count = degree3_dimension(builtin_presentation(name), Fraction(1))
        ok = count.dim3 == expected
        all_ok = all_ok and ok
        rows.append((name, expected, count.dim3, ok))

    reports: list[Report] = []
    t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    algebra, row_op, col_op, minus_t = triangular_baxter_example(3, t)
    reports.append(check_baxter(algebra, row_op, minus_t))
    reports.append(check_baxter(algebra, col_op, minus_t))

    graph = jsonio.graph_from_json(
        {
            "kind": "graph",
            "vertices": 2,
            "arcs": [{"src": 0, "dst": 1, "weight": str(Fraction(rng.randint(1, 9)))}],
        }
    )
    pa = path_algebra(graph)
    reports.append(
        check_eps_bialgebra(
            EpsilonBialgebra(pa.algebra, chain_coproduct(pa), Fraction(-1))
        )
    )
    for report in reports:
        all_ok = all_ok and report.passed

    if args.json:
        payload = {
            "kind": "demo",
            "dimensions": [
                {"preset": name, "expected": exp, "computed": got, "match": ok}
                for name, exp, got, ok in rows
            ],
            "reports": [jsonio.report_to_json(r) for r in reports],
            "passed": all_ok,
        }
        sys.stdout.write(jsonio.dump_json(payload))
    else:
        width = max(len(name) for name, *_ in rows)
        print(f"degree-3 dimensions at t=1 ({'preset'.ljust(width)}  expected computed)")
        for name, exp, got, ok in rows:
            mark = "ok" if ok else "MISMATCH"
            print(f"  {name.ljust(width)}  {str(exp).rjust(8)} {str(got).rjust(8)}  {mark}")
        print(f"spot checks (seed {args.seed}, t = {t}):")
        for report in reports:
            print("  " + report.summary().replace("\n", "\n  "))
        print("demo: " + ("all green" if all_ok else "MISMATCHES FOUND"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    ``main`` call in the process (never at import, so a process that runs no
    command pays nothing).  Parsing leaves it unchanged: each call gets a
    fresh namespace, and every default is immutable."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON envelopes"
    )

    parser = argparse.ArgumentParser(
        prog="splitalg",
        description="exact-arithmetic workbench for splitting algebraic structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks").add_subparsers(
        dest="target", required=True
    )

    p = verify.add_parser("baxter", parents=[common], help="t-Baxter operator identity")
    p.add_argument("--algebra", help="algebra envelope file")
    p.add_argument("--coproduct", help="coproduct envelope file (transposed check)")
    p.add_argument("--operator", required=True, help="operator envelope file")
    p.add_argument("--t", type=_fraction, required=True, help="identity parameter")
    p.set_defaults(func=cmd_verify_baxter)

    p = verify.add_parser(
        "trialgebra", parents=[common], help="three-operation splitting identities"
    )
    p.add_argument("--file", required=True, help="three_op operations envelope")
    p.set_defaults(func=cmd_verify_family, family="three_op")

    p = verify.add_parser(
        "ennea", parents=[common], help="nine-operation splitting identities"
    )
    p.add_argument("--file", required=True, help="nine_op operations envelope")
    p.set_defaults(func=cmd_verify_family, family="nine_op")

    p = verify.add_parser(
        "graph-bialgebra",
        parents=[common],
        help="coproduct laws on a path algebra built from a graph",
    )
    p.add_argument("--file", required=True, help="graph envelope file")
    p.add_argument(
        "--variant",
        choices=("weighted", "chain", "splitting"),
        default="chain",
        help="which coproduct to check (default: chain)",
    )
    p.add_argument(
        "--weights2",
        type=_fraction_list,
        help="second arc weighting; with --variant weighted, also check the exchange law",
    )
    p.set_defaults(func=cmd_verify_graph_bialgebra)

    p = verify.add_parser(
        "unit-action", parents=[common], help="unit-action compatibility"
    )
    p.add_argument("--file", required=True, help="operations envelope")
    p.add_argument("--right", type=_name_list, help="ops with x op 1 = x (comma list)")
    p.add_argument("--left", type=_name_list, help="ops with 1 op x = x (comma list)")
    p.set_defaults(func=cmd_verify_unit_action)

    p = verify.add_parser(
        "coherence", parents=[common], help="unit-action coherence on the mixed space"
    )
    p.add_argument("--file", required=True, help="operations envelope")
    p.add_argument("--file2", help="second operations envelope (default: reuse --file)")
    p.add_argument("--right", type=_name_list, help="ops with x op 1 = x (comma list)")
    p.add_argument("--left", type=_name_list, help="ops with 1 op x = x (comma list)")
    p.set_defaults(func=cmd_verify_coherence)

    construct = sub.add_parser("construct", help="build objects").add_subparsers(
        dest="target", required=True
    )

    p = construct.add_parser(
        "path-algebra", parents=[common], help="path algebra (or a coproduct) of a graph"
    )
    p.add_argument("--graph", required=True, help="graph envelope file")
    p.add_argument(
        "--coproduct",
        choices=("weighted", "chain", "splitting"),
        help="emit this coproduct instead of the algebra",
    )
    p.add_argument("-o", "--output", help="write the envelope here (default: stdout)")
    p.set_defaults(func=cmd_construct_path_algebra)

    p = construct.add_parser(
        "end-ennea",
        parents=[common],
        help="nine-operation structure on End(A) from a chain-shaped graph",
    )
    p.add_argument("--graph", required=True, help="graph envelope file")
    p.add_argument("-o", "--output", help="write the envelope here (default: stdout)")
    p.set_defaults(func=cmd_construct_end_ennea)

    operad = sub.add_parser("operad", help="operad computations").add_subparsers(
        dest="target", required=True
    )

    p = operad.add_parser(
        "dim3", parents=[common], help="degree-3 dimension of a presentation"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="built-in presentation name")
    group.add_argument("--file", help="presentation envelope file")
    p.add_argument(
        "--t", type=_fraction, default=Fraction(0), help="parameter value (default 0)"
    )
    p.set_defaults(func=cmd_operad_dim3)

    deform = sub.add_parser("deform", help="formal deformations").add_subparsers(
        dest="target", required=True
    )

    p = deform.add_parser(
        "derive", parents=[common], help="print the cross-term identity system"
    )
    p.add_argument(
        "--variant", choices=DERIVE_VARIANTS, required=True,
        help="which base/deforming pair",
    )
    p.set_defaults(func=cmd_deform_derive)

    p = deform.add_parser(
        "check", parents=[common], help="verify a deformation instance from a graph"
    )
    p.add_argument("--graph", required=True, help="graph envelope file")
    p.add_argument(
        "--variant", choices=CHECK_VARIANTS, default="two_three",
        help="instance recipe (default two_three)",
    )
    p.add_argument(
        "--weights2", type=_fraction_list,
        help="second arc weighting for four_four (default: all ones)",
    )
    p.add_argument("--order", type=int, default=4, help="series truncation order")
    p.add_argument(
        "--taus", type=_fraction_list, default=(Fraction(1),),
        help="rescalings of the degree-1 part to test (comma list)",
    )
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser(
        "demo", parents=[common], help="expected-vs-computed dimension table"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early (``| head -1``), which is not bad input:
        # exit as a writer killed by SIGPIPE would, 128 + 13, and point stdout
        # at the null device so the interpreter's last flush stays quiet
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
