"""Fuzzing the envelope decoders through the CLI.

Operations envelopes start from the End(A) envelope of the 2-vertex chain
(dim 9): malformed rewrites must exit 2 with one ``error:`` line and no
traceback; well-formed rewrites must give the report that the
Fraction-summing oracle decoder (``oracles.fraction_decoded_tensor``) leads
to.  Graph, algebra, operator, coproduct and presentation envelopes get the
same malformed-input contract, and valid input spelled differently must
give byte-identical output.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from splitalg import (
    WeightedDigraph,
    builtin_presentations,
    check_ennea,
    check_unit_compatibility,
    triangular_baxter_example,
    triangular_matrix_coalgebra,
    triangular_row_coproduct_operator,
)
from splitalg.cli import main
from splitalg.jsonio import (
    algebra_to_json,
    coproduct_to_json,
    graph_to_json,
    operator_to_json,
    report_to_json,
    save,
    system_to_json,
)
from splitalg.relations import NINE_OP_GENERATORS, NINE_OP_SYSTEM, Structure

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
    structure = Structure(NINE_OP_SYSTEM, t, ops)
    return {
        "ennea": check_ennea(structure),
        "unit-action": check_unit_compatibility(structure, oracles.NINE_OP_RULES),
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


def test_a_graph_above_the_size_cap_exits_2_before_any_algebra_is_built(workdir, monkeypatch):
    import splitalg.graphalg as graphalg
    from splitalg.jsonio import MAX_GRAPH_BASIS

    def no_algebra(*args, **kwargs):
        raise AssertionError("path_algebra was called")

    monkeypatch.setattr(graphalg, "path_algebra", no_algebra)
    arcless = {"kind": "graph", "vertices": 2_000_000, "arcs": []}
    # 13 vertices and 23 arcs (i -> i + 1, i -> i + 2) make 1,568 paths: the
    # arcs fit the cap, the paths do not
    many_paths = {
        "kind": "graph",
        "vertices": 13,
        "arcs": [{"src": i, "dst": j} for i in range(12) for j in (i + 1, i + 2) if j < 13],
    }
    for data in (arcless, many_paths):
        for command in GRAPH_COMMANDS:
            code, out, err = run_graph_cli(workdir, data, command)
            assert (code, out) == (2, ""), (command, err)
            assert err.startswith("error: graph too large:") and err.count("\n") == 1
            assert f"at most {MAX_GRAPH_BASIS} basis elements" in err


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



# -- algebra, operator, coproduct and presentation envelopes ------------------

_ALGEBRA, _ROW_OPERATOR, _, MINUS_T = triangular_baxter_example(3, F(2, 3))
ENVELOPES = {
    "algebra": algebra_to_json(_ALGEBRA),
    "operator": operator_to_json(_ROW_OPERATOR),
    "coproduct": coproduct_to_json(triangular_matrix_coalgebra(3)),
    "co_operator": operator_to_json(triangular_row_coproduct_operator(3, F(2, 3))),
    "presentation": system_to_json(builtin_presentations()["nine_op"]),
}
KINDS = ("algebra", "operator", "coproduct", "presentation")


def run_kind_cli(workdir, kind, data, t=MINUS_T, envelopes=ENVELOPES):
    """Exit code, stdout and stderr of the command that reads ``data`` as its
    ``kind`` envelope; its other inputs are taken from ``envelopes``."""
    files = {}
    for name, envelope in envelopes.items():
        files[name] = str(workdir / f"kind_{name}.json")
        Path(files[name]).write_text(json.dumps(data if name == kind else envelope))
    if kind == "presentation":
        argv = ["operad", "dim3", "--file", files["presentation"]]
    elif kind == "coproduct":
        argv = ["verify", "baxter", "--coproduct", files["coproduct"],
                "--operator", files["co_operator"]]
    else:
        argv = ["verify", "baxter", "--algebra", files["algebra"],
                "--operator", files["operator"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [f"--t={t}", "--json"])
    return code, out.getvalue(), err.getvalue()


BAD_LISTS = [{}, {"a": 1}, "x", "00", 3, None, True]


def _bad_entry(draw, entries):
    """``entries`` (a list of [i, j, k, coeff]) with one entry broken."""
    pos = draw(st.integers(0, len(entries) - 1))
    item = list(entries[pos])
    how = draw(st.sampled_from(["coeff", "index", "short", "long", "entry"]))
    if how == "coeff":
        item[3] = draw(st.sampled_from(BAD_SCALARS))
    elif how == "index":
        item[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_INDICES + [6]))
    elif how == "short":
        item = item[: draw(st.integers(0, 3))]
    elif how == "long":
        item = item + ["1"]
    else:
        item = draw(st.sampled_from(BAD_ENTRIES))
    return entries[:pos] + [item] + entries[pos + 1:]


def _bad_dim(draw):
    # 5 is a valid count that does not match the data (dim 6)
    return draw(st.sampled_from([0, -1, 2.5, True, "6", None, [6], 5]))


@st.composite
def malformed_algebra(draw):
    bad = copy.deepcopy(ENVELOPES["algebra"])
    how = draw(st.sampled_from(["missing", "dim", "mult", "entry", "unit", "labels"]))
    if how == "missing":
        del bad[draw(st.sampled_from(["kind", "dim", "mult"]))]
    elif how == "dim":
        bad["dim"] = _bad_dim(draw)
    elif how == "mult":
        bad["mult"] = draw(st.sampled_from(BAD_LISTS[:-2] + [True]))
    elif how == "entry":
        bad["mult"] = _bad_entry(draw, bad["mult"])
    elif how == "unit":
        bad["unit"] = draw(st.sampled_from(
            [{}, "100101", 3, True, ["1"] * 5, ["1"] * 7]
            + [["1"] * 5 + [value] for value in BAD_SCALARS]
        ))
    else:
        bad["labels"] = draw(st.sampled_from(
            [5, "abcdef", {}, True, ["a"] * 5, ["a"] * 7, ["a"] * 5 + [1], ["a"] * 5 + [None]]
        ))
    return bad


@st.composite
def malformed_operator(draw):
    bad = copy.deepcopy(ENVELOPES["operator"])
    rows = bad["matrix"]
    pos = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["missing", "dim", "matrix", "rows", "row", "entry"]))
    if how == "missing":
        del bad[draw(st.sampled_from(["kind", "dim", "matrix"]))]
    elif how == "dim":
        bad["dim"] = _bad_dim(draw)
    elif how == "matrix":
        bad["matrix"] = draw(st.sampled_from(BAD_LISTS[:-2] + [True]))
    elif how == "rows":
        bad["matrix"] = draw(st.sampled_from([rows[:-1], rows + [rows[0]], []]))
    elif how == "row":
        rows[pos] = draw(st.sampled_from(
            ["".join(rows[pos]), rows[pos][:-1], rows[pos] + ["0"], None, 3, {}]
        ))
    else:
        rows[pos][draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(BAD_SCALARS))
    return bad


@st.composite
def malformed_coproduct(draw):
    bad = copy.deepcopy(ENVELOPES["coproduct"])
    how = draw(st.sampled_from(["missing", "dim", "items", "entry"]))
    if how == "missing":
        del bad[draw(st.sampled_from(["kind", "dim", "items"]))]
    elif how == "dim":
        bad["dim"] = _bad_dim(draw)
    elif how == "items":
        bad["items"] = draw(st.sampled_from(BAD_LISTS[:-2] + [True]))
    else:
        bad["items"] = _bad_entry(draw, bad["items"])
    return bad


@st.composite
def malformed_presentation(draw):
    bad = copy.deepcopy(ENVELOPES["presentation"])
    relations = bad["relations"]
    relation = relations[draw(st.integers(0, len(relations) - 1))]
    how = draw(st.sampled_from(
        ["missing", "name", "generators", "composites", "relations", "relation",
         "relation_field", "relation_name", "side", "term", "coeff"]
    ))
    if how == "missing":
        del bad[draw(st.sampled_from(["kind", "name", "generators", "relations"]))]
    elif how == "name":
        bad["name"] = draw(st.sampled_from([7, None, [], {}, True]))
    elif how == "generators":
        bad["generators"] = draw(st.sampled_from(
            ["nw", 3, None, {}, ["nw", 1], bad["generators"] + ["nw"]]
        ))
    elif how == "composites":
        bad["composites"] = draw(st.sampled_from(
            [[], "x", 3, None, {"nw": [[["1"], "ne"]]}, {"s": [[["1"], "bogus"]]}, {"s": [["1"]]},
             {"s": "nw"}]
        ))
    elif how == "relations":
        bad["relations"] = draw(st.sampled_from([5, "x", {}, None, True]))
    elif how == "relation":
        relations[relations.index(relation)] = draw(st.sampled_from(
            [[relation["name"], relation["lhs"], relation["rhs"]], "r", 3, None]
        ))
    elif how == "relation_field":
        del relation[draw(st.sampled_from(["name", "lhs", "rhs"]))]
    elif how == "relation_name":
        relation["name"] = draw(st.sampled_from([7, None, [], {}]))
    elif how == "side":
        relation[draw(st.sampled_from(["lhs", "rhs"]))] = draw(st.sampled_from(["x", 3, None, {}]))
    elif how == "term":
        side = relation["lhs"]
        side[draw(st.integers(0, len(side) - 1))] = draw(st.sampled_from(
            [[["1"], "nw"], [["1"], "nw", "nw", "nw"], "x", None, [["1"], "nw", "bogus"],
             [["1"], 3, "nw"]]
        ))
    else:
        side = relation["rhs"]
        term = side[draw(st.integers(0, len(side) - 1))]
        term[0] = draw(st.sampled_from(
            ["1", 1, None, {}] + [[value] for value in BAD_SCALARS] + [["1", "1/0"]]
        ))
    return bad


MALFORMED = {
    "algebra": malformed_algebra(),
    "operator": malformed_operator(),
    "coproduct": malformed_coproduct(),
    "presentation": malformed_presentation(),
}


@pytest.mark.parametrize("kind", KINDS)
def test_the_kind_fixtures_are_valid(workdir, kind):
    code, out, err = run_kind_cli(workdir, kind, ENVELOPES[kind])
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == ("degree3" if kind == "presentation" else "report")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_kind_envelopes_exit_2_with_one_line(workdir, kind, data):
    bad = data.draw(MALFORMED[kind])
    code, out, err = run_kind_cli(workdir, kind, bad)
    assert code == 2, (kind, bad)
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def respelled_scalar(text, rng):
    """The same rational as an int, a plain string or an unreduced fraction."""
    value = F(text)
    choice = rng.randrange(3)
    if choice == 0 and value.denominator == 1:
        return value.numerator
    if choice == 1:
        return unreduced(value, rng.choice([2, 3, 10]))
    return str(value)


def respelled_entries(entries, rng):
    """[i, j, k, coeff] entries with values split into parts, cancelling
    pairs added, coefficients respelled and the order shuffled."""
    items = []
    for *key, c in entries:
        part = random_rational(rng)
        items += [key + [str(part)], key + [respelled_scalar(str(F(c) - part), rng)]]
    items += [[0, 1, 2, "5/7"], [0, 1, 2, "-10/14"]]
    rng.shuffle(items)
    return items


def respelled(kind, data, rng):
    good = copy.deepcopy(data)
    if kind == "algebra":
        good["mult"] = respelled_entries(good["mult"], rng)
        good["unit"] = [respelled_scalar(c, rng) for c in good["unit"]]
    elif kind == "operator":
        good["matrix"] = [[respelled_scalar(c, rng) for c in row] for row in good["matrix"]]
    elif kind == "coproduct":
        good["items"] = respelled_entries(good["items"], rng)
    else:
        for relation in good["relations"]:
            for side in ("lhs", "rhs"):
                for term in relation[side]:
                    term[0] = [respelled_scalar(c, rng) for c in term[0]] + ["0"] * rng.randrange(2)
        for parts in good["composites"].values():
            for part in parts:
                part[0] = [respelled_scalar(c, rng) for c in part[0]]
    return good


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", [MINUS_T, MINUS_T + 1])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_kind_envelope_spellings_give_the_same_output(workdir, kind, t, rng):
    """Passing (t = -2/3) and failing (t = 1/3) runs alike: the respelled
    envelope gives byte-identical output and the same exit code."""
    expected = run_kind_cli(workdir, kind, ENVELOPES[kind], t)
    assert expected[2] == ""
    assert run_kind_cli(workdir, kind, respelled(kind, ENVELOPES[kind], rng), t) == expected


TWO_DIM = {
    "algebra": {"kind": "algebra", "dim": 2, "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
    "operator": {"kind": "operator", "dim": 2, "matrix": [["0", "0"], ["0", "1"]]},
    "coproduct": {"kind": "coproduct", "dim": 2, "items": [[0, 0, 0, "1"]]},
    "co_operator": {"kind": "operator", "dim": 2, "matrix": [["0", "0"], ["0", "1"]]},
    "presentation": {"kind": "presentation", "name": "p", "generators": ["a"], "relations": []},
}
NAMED_FIELD_CASES = [
    ("operator", {"matrix": ["00", "01"]}, "matrix"),
    ("operator", {"matrix": None}, "matrix"),
    ("algebra", {"unit": "10"}, "unit"),
    ("algebra", {"labels": 5}, "labels"),
    ("algebra", {"mult": None}, "mult"),
    ("coproduct", {"items": None}, "items"),
    ("coproduct", {"items": [[0, 0, "1"]]}, "items"),
    ("coproduct", {"items": {"a": 1}}, "items"),
    ("presentation", {"name": None}, "name"),
    ("presentation", {"name": 7}, "name"),
    ("presentation", {"relations": 5}, "relations"),
    ("presentation", {"relations": [{"name": "r", "rhs": []}]}, "relations"),
    ("presentation", {"relations": [["r", [], []]]}, "relations"),
]


@pytest.mark.parametrize("kind,changes,field", NAMED_FIELD_CASES)
def test_bad_field_is_named_in_the_one_error_line(workdir, kind, changes, field):
    """The error names the envelope kind and the field (None deletes it)."""
    data = dict(TWO_DIM[kind], **changes)
    data = {key: value for key, value in data.items() if value is not None}
    code, out, err = run_kind_cli(workdir, kind, data, F(-1), TWO_DIM)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {kind} field '{field}'")
    assert len(err.strip().splitlines()) == 1
