"""Fuzzing the operations-envelope decoder through the CLI.

Every case starts from the End(A) envelope of the 2-vertex chain (dim 9).
Malformed rewrites must exit 2 with one ``error:`` line and no traceback;
well-formed rewrites must give the report that the Fraction-summing oracle
decoder (``oracles.fraction_decoded_tensor``) leads to.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from splitalg import EnneaStructure, WeightedDigraph, check_ennea, check_unit_compatibility
from splitalg.cli import main
from splitalg.jsonio import graph_to_json, report_to_json, save
from splitalg.relations import NINE_OP_GENERATORS, NINE_OP_SYSTEM
from splitalg.unit_action import nine_op_unit_rules

F = Fraction
VERBS = ("ennea", "unit-action")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def envelope(workdir):
    graph = workdir / "chain2.json"
    save(str(graph), graph_to_json(WeightedDigraph.build(2, [(0, 1, F(3))])))
    target = workdir / "end2.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "end-ennea", "--graph", str(graph), "-o", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["dim"] == 9 and all(data["ops"][name] for name in ("nw", "se"))
    return data


def run_cli(workdir, data, verb):
    """Exit code, stdout and stderr of ``verify <verb> --json`` on an envelope."""
    path = workdir / "case.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", verb, "--file", str(path), "--json"])
    return code, out.getvalue(), err.getvalue()


# -- malformed envelopes -----------------------------------------------------

BAD_SCALARS = [True, False, 1.5, 0.0, "1/0", "-3/0", "0/0", "abc", "", "1/2/3", None, [1], {"a": "1"}]
BAD_INDICES = [-1, -7, 9, 12, "0", 1.0, True, False, None, [0]]
BAD_ENTRIES = ["x", 3, None, {}, []]


def _entry_position(data, draw):
    name = draw(st.sampled_from(sorted(n for n, items in data["ops"].items() if items)))
    return name, draw(st.integers(0, len(data["ops"][name]) - 1))


@st.composite
def malformed(draw, data):
    bad = copy.deepcopy(data)
    kind = draw(
        st.sampled_from(
            ["coeff", "index", "short", "long", "entry", "missing", "family", "t", "dim",
             "ops", "ops_names", "tensor"]
        )
    )
    if kind in ("coeff", "index", "short", "long", "entry"):
        name, pos = _entry_position(bad, draw)
        item = bad["ops"][name][pos]
        if kind == "coeff":
            item[3] = draw(st.sampled_from(BAD_SCALARS))
        elif kind == "index":
            item[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_INDICES))
        elif kind == "short":
            bad["ops"][name][pos] = item[: draw(st.integers(0, 3))]
        elif kind == "long":
            bad["ops"][name][pos] = item + ["1"]
        else:
            bad["ops"][name][pos] = draw(st.sampled_from(BAD_ENTRIES))
    elif kind == "missing":
        del bad[draw(st.sampled_from(["kind", "family", "t", "dim", "ops"]))]
    elif kind == "family":
        bad["family"] = draw(st.sampled_from([["x"], 3, None, {}, "no_such_family", "two_op"]))
    elif kind == "t":
        bad["t"] = draw(st.sampled_from(BAD_SCALARS))
    elif kind == "dim":
        bad["dim"] = draw(st.sampled_from([0, -1, 2.5, True, "9", None, [9]]))
    elif kind == "ops":
        bad["ops"] = draw(st.sampled_from([[], "x", 3, None, {}]))
    elif kind == "ops_names":
        if draw(st.booleans()):
            del bad["ops"][draw(st.sampled_from(NINE_OP_GENERATORS))]
        else:
            bad["ops"]["bogus"] = []
    else:  # one operation's tensor is not a list of entries
        bad["ops"][draw(st.sampled_from(NINE_OP_GENERATORS))] = draw(
            st.sampled_from([{}, "x", 1, None])
        )
    return bad


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_envelopes_exit_2_with_one_line(workdir, envelope, data):
    bad = data.draw(malformed(envelope))
    for verb in VERBS:
        code, out, err = run_cli(workdir, bad, verb)
        assert code == 2, (verb, bad)
        assert out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


# -- well-formed rewrites ----------------------------------------------------

def random_rational(rng) -> Fraction:
    """A rational with a small or a very large (up to 2**80) denominator."""
    bound = rng.choice([30, 2**80])
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def unreduced(value: Fraction, factor: int) -> str:
    """A fraction string that is not in lowest terms when factor > 1."""
    return f"{value.numerator * factor}/{value.denominator * factor}"


def rewritten(data, rng, change: bool):
    """The envelope with every tensor's entries rewritten: values split into
    parts with large denominators, cancelling pairs added, values spelled
    unreduced and entries shuffled; with ``change``, one value is really
    changed as well."""
    good = copy.deepcopy(data)
    dim = good["dim"]

    def key():
        return [rng.randrange(dim) for _ in range(3)]

    for name in sorted(good["ops"]):
        items = []
        for i, j, k, c in good["ops"][name]:
            parts = [random_rational(rng) for _ in range(rng.randint(0, 2))]
            items += [[i, j, k, str(part)] for part in parts]
            rest = F(c) - sum(parts, F(0))
            items.append([i, j, k, unreduced(rest, rng.choice([1, 1, 2, 6]))])
        for _ in range(rng.randint(0, 2)):
            x, at = random_rational(rng), key()
            items += [at + [str(x)], at + [unreduced(-x, 3)]]
        rng.shuffle(items)
        good["ops"][name] = items
    if change:
        bump = random_rational(rng) or F(1)
        good["ops"][rng.choice(sorted(good["ops"]))].append(key() + [str(bump)])
    return good


def oracle_reports(data):
    t = F(data["t"])
    ops = {
        name: oracles.fraction_decoded_tensor(data["dim"], items)
        for name, items in data["ops"].items()
    }
    return {
        "ennea": check_ennea(EnneaStructure(t=t, ops=ops)),
        "unit-action": check_unit_compatibility(NINE_OP_SYSTEM, ops, t, nine_op_unit_rules()),
    }


@settings(max_examples=12, derandomize=True, deadline=None)
@given(rng=st.randoms(use_true_random=False), change=st.booleans())
def test_rewrites_give_the_fraction_decoders_report(workdir, envelope, rng, change):
    good = rewritten(envelope, rng, change)
    for verb, report in oracle_reports(good).items():
        code, out, err = run_cli(workdir, good, verb)
        assert err == ""
        assert code == (0 if report.passed else 1)
        assert json.loads(out) == report_to_json(report)


def test_rewrites_of_the_exact_values_still_pass(workdir, envelope):
    good = copy.deepcopy(envelope)
    for name, items in good["ops"].items():
        good["ops"][name] = [
            [i, j, k, unreduced(F(c) - F(1, 2**70 + 1), 5)] for i, j, k, c in items
        ] + [[i, j, k, f"1/{2**70 + 1}"] for i, j, k, _ in items]
    for verb in VERBS:
        code, out, _ = run_cli(workdir, good, verb)
        assert code == 0
        assert json.loads(out)["passed"] is True


# -- graph envelopes ---------------------------------------------------------

GRAPH_COMMANDS = (
    ["verify", "graph-bialgebra", "--file"],
    ["construct", "path-algebra", "--graph"],
    ["construct", "end-ennea", "--graph"],
    ["deform", "check", "--graph"],
)
GRAPH = graph_to_json(WeightedDigraph.build(3, [(0, 1, F(3)), (1, 2, F(-1, 2))]))
BAD_VERTEX_COUNTS = [True, False, 0, -2, "3", 3.0, None, [3], {}]
BAD_ENDPOINTS = [-1, 3, 7, "0", 1.0, True, False, None, [0]]


def run_graph_cli(workdir, data, command):
    path = workdir / "graph_case.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + [str(path)])
    return code, out.getvalue(), err.getvalue()


@st.composite
def malformed_graph(draw):
    bad = copy.deepcopy(GRAPH)
    kind = draw(st.sampled_from(["vertices", "missing", "arcs", "arc", "end", "no_end", "weight"]))
    arc = bad["arcs"][draw(st.integers(0, len(bad["arcs"]) - 1))]
    if kind == "vertices":
        bad["vertices"] = draw(st.sampled_from(BAD_VERTEX_COUNTS))
    elif kind == "missing":
        del bad[draw(st.sampled_from(["kind", "vertices", "arcs"]))]
    elif kind == "arcs":
        bad["arcs"] = draw(st.sampled_from([{}, "x", 3, None, True]))
    elif kind == "arc":
        bad["arcs"][bad["arcs"].index(arc)] = draw(
            st.sampled_from([[0, 1, "1"], [0, 1], "x", 3, None])
        )
    elif kind == "end":
        arc[draw(st.sampled_from(["src", "dst"]))] = draw(st.sampled_from(BAD_ENDPOINTS))
    elif kind == "no_end":
        del arc[draw(st.sampled_from(["src", "dst"]))]
    else:
        arc["weight"] = draw(st.sampled_from(BAD_SCALARS))
    return bad


@settings(max_examples=40, derandomize=True, deadline=None)
@given(bad=malformed_graph())
def test_malformed_graph_envelopes_exit_2_with_one_line(workdir, bad):
    for command in GRAPH_COMMANDS:
        code, out, err = run_graph_cli(workdir, bad, command)
        assert code == 2, (command, bad)
        assert out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


def test_graph_weight_spellings_give_the_same_output(workdir):
    """Integer weights, unreduced fraction strings and an absent weight of 1
    read as the same graph."""
    plain = graph_to_json(WeightedDigraph.build(3, [(0, 1, F(1)), (1, 2, F(-1, 2))]))
    spelled = copy.deepcopy(plain)
    del spelled["arcs"][0]["weight"]
    spelled["arcs"][1]["weight"] = "-3/6"
    as_int = copy.deepcopy(plain)
    as_int["arcs"][0]["weight"] = 1
    for command in GRAPH_COMMANDS[:3]:
        expected = run_graph_cli(workdir, plain, command)
        assert expected[0] == 0
        assert run_graph_cli(workdir, spelled, command) == expected
        assert run_graph_cli(workdir, as_int, command) == expected
