"""Command-line entry point, exercised in process."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import splitalg
from splitalg import (
    Tensor3,
    WeightedDigraph,
    ennea_from_commuting_pair,
    trialgebra_from_baxter,
    triangular_baxter_example,
)
from splitalg.cli import main
from splitalg.jsonio import (
    graph_to_json,
    load,
    operations_to_json,
    operator_to_json,
    save,
    tensor_to_json,
)
from splitalg.operad import PRESET_NAMES, builtin_presentation
from splitalg.relations import TPoly
from splitalg.unit_action import unit_rules

F = Fraction
SRC = str(Path(splitalg.__file__).resolve().parents[1])


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "line2.json"
    save(str(path), graph_to_json(WeightedDigraph.build(2, [(0, 1, 1)])))
    return str(path)


@pytest.fixture()
def graph3_file(tmp_path):
    path = tmp_path / "line3.json"
    save(str(path), graph_to_json(WeightedDigraph.build(3, [(0, 1, 1), (1, 2, F(1, 2))])))
    return str(path)


def test_demo_passes(capsys):
    assert main(["demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "113" in out and "501" in out
    assert "PASS" in out or "ok" in out


def test_demo_json(capsys):
    assert main(["demo", "--seed", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {row["preset"]: row for row in payload["dimensions"]}
    assert rows["nine_op"]["computed"] == 113
    assert rows["deformed_nine_nine"]["computed"] == 501
    assert all(row["match"] for row in payload["dimensions"])


@pytest.mark.parametrize(
    "preset,expected",
    [("two_op", 5), ("three_op", 11), ("four_op", 23), ("nine_op", 113)],
)
def test_operad_dim3_presets(capsys, preset, expected):
    assert main(["operad", "dim3", "--preset", preset, "--t", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim3"] == expected


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_operad_dim3_names_the_system_by_its_preset(capsys, preset):
    assert main(["operad", "dim3", "--preset", preset, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["system"] == preset


def test_operad_dim3_unknown_preset(capsys):
    assert main(["operad", "dim3", "--preset", "bogus"]) == 2
    assert "error:" in capsys.readouterr().err


def test_operad_dim3_from_presentation_file(tmp_path, capsys):
    from splitalg import builtin_presentations
    from splitalg.jsonio import system_to_json

    path = tmp_path / "pres.json"
    save(str(path), system_to_json(builtin_presentations()["three_op"]))
    assert main(["operad", "dim3", "--file", str(path), "--t", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim3"] == 11


def test_verify_graph_bialgebra_variants(graph_file, graph3_file, capsys):
    assert main(["verify", "graph-bialgebra", "--file", graph_file]) == 0
    assert main(["verify", "graph-bialgebra", "--file", graph3_file, "--variant", "weighted"]) == 0
    assert (
        main(
            [
                "verify",
                "graph-bialgebra",
                "--file",
                graph3_file,
                "--variant",
                "weighted",
                "--weights2",
                "2,1/3",
            ]
        )
        == 0
    )
    assert main(["verify", "graph-bialgebra", "--file", graph3_file, "--variant", "splitting"]) == 0
    capsys.readouterr()


def test_verify_graph_bialgebra_refuses_weights2_it_would_not_read(graph_file, capsys):
    # malformed for a 1-arc graph, and never read by the chain variant
    assert main(["verify", "graph-bialgebra", "--file", graph_file, "--weights2", "1,2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --weights2 is read only with --variant weighted\n"


def test_verify_graph_bialgebra_rejects_branching_chain(tmp_path, capsys):
    path = tmp_path / "branch.json"
    save(str(path), graph_to_json(WeightedDigraph.build(3, [(0, 1, 1), (0, 2, 1)])))
    assert main(["verify", "graph-bialgebra", "--file", str(path), "--variant", "chain"]) == 2
    assert "branches" in capsys.readouterr().err


def test_construct_and_verify_roundtrip(graph_file, tmp_path, capsys):
    ops_path = tmp_path / "end9.json"
    assert main(["construct", "end-ennea", "--graph", graph_file, "-o", str(ops_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "ennea", "--file", str(ops_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    # unit action on the same envelope
    assert main(["verify", "unit-action", "--file", str(ops_path)]) == 0
    capsys.readouterr()


# Each command turns every coefficient of each table it reads into a number
# once: the nine-op table holds 134 (9 generators, 27 composite parts and 98
# identity terms); `deform check` reads its deformed table (53 for two_three,
# 112 for four_four), then the base table (20 and 34) once per tau.
DEFORM_CHECK = ["deform", "check", "--graph", "GRAPH", "--order", "4", "--taus=2/3,-5/4"]


@pytest.mark.parametrize(
    "argv, evaluations",
    [
        (["verify", "ennea", "--file", "ENVELOPE"], 134),
        (["verify", "unit-action", "--file", "ENVELOPE"], 134),
        ([*DEFORM_CHECK, "--variant", "two_three"], 53 + 2 * 20),
        ([*DEFORM_CHECK, "--variant", "four_four"], 112 + 2 * 34),
    ],
)
def test_each_command_evaluates_each_table_coefficient_once(
    graph_file, tmp_path, capsys, monkeypatch, argv, evaluations
):
    envelope = str(tmp_path / "end9.json")
    assert main(["construct", "end-ennea", "--graph", graph_file, "-o", envelope]) == 0
    calls = []
    evaluate = TPoly.eval
    monkeypatch.setattr(TPoly, "eval", lambda poly, t: calls.append(t) or evaluate(poly, t))
    paths = {"ENVELOPE": envelope, "GRAPH": graph_file}
    assert main([paths.get(arg, arg) for arg in argv]) == 0
    assert len(calls) == evaluations
    capsys.readouterr()


def save_operations(path, structure):
    save(str(path), operations_to_json(structure))
    return str(path)


def small_structures(tmp_path):
    """Operations envelopes of the three- and nine-op structures that the
    row operator of the 2-by-2 triangular matrices gives: (three, nine)."""
    alg, row, _, param = triangular_baxter_example(2, F(1))
    tri = trialgebra_from_baxter(alg, row, param)
    nine = ennea_from_commuting_pair(alg, row, row, param)
    return (
        save_operations(tmp_path / "three.json", tri),
        save_operations(tmp_path / "nine.json", nine),
    )


def test_verify_coherence_on_the_end_envelope(graph_file, tmp_path, capsys):
    ops_path = str(tmp_path / "end9.json")
    assert main(["construct", "end-ennea", "--graph", graph_file, "-o", ops_path]) == 0
    capsys.readouterr()
    assert main(["verify", "coherence", "--file", ops_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["checks_run"] == 49 * (9 + 9 + 81) ** 3 == 47_544_651
    assert payload["notes"] == ["mixed space of dimensions 9 and 9"]


def test_verify_coherence_fails_on_a_perturbed_second_factor(tmp_path, capsys):
    _, nine = small_structures(tmp_path)
    data = load(nine)
    data["ops"]["nw"].append([2, 2, 0, "1"])
    bent = str(tmp_path / "bent.json")
    save(bent, data)
    assert main(["verify", "coherence", "--file", nine, "--file2", bent]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] nine_op coherence: 165375 checks")
    assert "nine_op:1.1 fails at basis tuple" in out


def test_verify_coherence_refuses_mismatched_files(tmp_path, capsys):
    three, nine = small_structures(tmp_path)
    data = load(nine)
    data["t"] = "2"
    other_t = str(tmp_path / "other_t.json")
    save(other_t, data)
    for second in (three, other_t):
        assert main(["verify", "coherence", "--file", nine, "--file2", second]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: both operations files must share family and t\n"


def test_verify_coherence_on_a_deformed_four_four_envelope_uses_starbar_total(
    tmp_path, monkeypatch
):
    """The mixed space multiplies the left factors with the system's total,
    starbar_total (every generator), not with the base's starbar."""
    import splitalg.unit_action as unit_action

    system = builtin_presentation("deformed_four_four")
    rng = random.Random(5)
    ops = {gen: oracles.random_tensor(rng, 2, 3) for gen in system.generators}
    path = str(tmp_path / "d44.json")
    envelope = {"kind": "operations", "family": "deformed_four_four", "t": "0", "dim": 2}
    save(path, {**envelope, "ops": {gen: tensor_to_json(op) for gen, op in ops.items()}})
    built = []
    real = unit_action.coherence_ops
    monkeypatch.setattr(unit_action, "coherence_ops", lambda *a: built.append(real(*a)) or built[-1])
    assert main(["verify", "coherence", "--file", path]) in (0, 1)
    rules = unit_rules(system.generators, right_identity=("nw",), left_identity=("se",))
    want, base_only = (
        oracles.dense_coherence(system, ops, ops, F(0), rules, total)
        for total in ("starbar_total", "starbar")
    )
    assert want != base_only
    assert {gen: op.entries for gen, op in built[0].ops.items()} == {
        gen: oracles.frozen(grid) for gen, grid in want.items()
    }


def test_verify_coherence_refuses_a_mixed_space_above_the_envelope_bound(
    tmp_path, capsys, monkeypatch
):
    import splitalg.unit_action as unit_action

    def never(*args):
        raise AssertionError("the mixed space was built")

    monkeypatch.setattr(unit_action, "coherence_ops", never)
    path = str(tmp_path / "empty256.json")
    system = builtin_presentation("nine_op")
    save(path, {"kind": "operations", "family": "nine_op", "t": "-1", "dim": 256,
                "ops": {gen: [] for gen in system.generators}})
    assert main(["verify", "coherence", "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the mixed space would have dimension 66048, above the limit 65536\n"
    )


def test_verify_trialgebra_passes_fails_and_refuses_another_family(tmp_path, capsys):
    three, nine = small_structures(tmp_path)
    assert main(["verify", "trialgebra", "--file", three]) == 0
    assert capsys.readouterr().out == "[PASS] three-op splitting: 189 checks\n"
    data = load(three)
    data["ops"]["circ"].append([0, 0, 0, "1/2"])
    bent = str(tmp_path / "bent.json")
    save(bent, data)
    assert main(["verify", "trialgebra", "--file", bent]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] three-op splitting: 189 checks")
    assert "three_op:tri:" in out and "fails at basis tuple" in out
    assert main(["verify", "trialgebra", "--file", nine]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a three_op operations file, got 'nine_op'\n"


def test_verify_unit_action_refuses_a_rule_name_outside_the_family(tmp_path, capsys):
    _, nine = small_structures(tmp_path)
    for flag in ("--right", "--left"):
        assert main(["verify", "unit-action", "--file", nine, flag, "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rule names not among the generators: ['nope']\n"


def test_verify_ennea_fails_on_perturbed_envelope(graph_file, tmp_path, capsys):
    ops_path = tmp_path / "end9.json"
    main(["construct", "end-ennea", "--graph", graph_file, "-o", str(ops_path)])
    capsys.readouterr()
    data = load(str(ops_path))
    dim = data["dim"]
    bad = Tensor3.from_sparse(dim, [(0, 0, 0, F(1))])
    from splitalg.jsonio import tensor_to_json

    data["ops"]["nw"] = tensor_to_json(bad)
    save(str(ops_path), data)
    assert main(["verify", "ennea", "--file", str(ops_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_construct_path_algebra_emits_the_requested_envelope(graph3_file, capsys):
    assert main(["construct", "path-algebra", "--graph", graph3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "algebra"
    assert payload["dim"] == 6
    assert main(["construct", "path-algebra", "--graph", graph3_file, "--coproduct", "chain"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "coproduct"
    assert payload["dim"] == 6


def test_deform_derive_groups(capsys):
    assert main(["deform", "derive", "--variant", "two_three"]) == 0
    out = capsys.readouterr().out
    assert "base identities (3)" in out
    assert "cross-term identities (6)" in out
    assert "labeled identities (7)" in out
    assert main(["deform", "derive", "--variant", "four_four"]) == 0
    out = capsys.readouterr().out
    assert "cross-term identities (9)" in out


def test_deform_derive_json_is_a_presentation(capsys):
    assert main(["deform", "derive", "--variant", "two_three", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "presentation"
    assert payload["name"] == "deformed_two_three"
    assert len(payload["relations"]) == 16


def test_deform_check_two_three(graph_file, capsys):
    assert main(["deform", "check", "--graph", graph_file, "--taus", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_deform_check_four_four(graph_file, capsys):
    assert (
        main(
            [
                "deform",
                "check",
                "--graph",
                graph_file,
                "--variant",
                "four_four",
                "--weights2",
                "3/2",
            ]
        )
        == 0
    )
    capsys.readouterr()


def test_deform_check_refuses_weights2_it_would_not_read(graph_file, capsys):
    assert main(["deform", "check", "--graph", graph_file, "--weights2", "3/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --weights2 is read only with --variant four_four\n"


def test_deform_check_four_four_refuses_empty_weights2(graph_file, capsys):
    # an empty list is one weight short for a 1-arc graph, not the default
    args = ["deform", "check", "--graph", graph_file, "--variant", "four_four", "--weights2="]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need one weight per arc\n"


def test_deform_check_unsupported_variant(graph_file, capsys):
    # only two_three and four_four have a graph recipe, so the parser refuses
    # the others as it refuses any unknown choice
    with pytest.raises(SystemExit) as exc:
        main(["deform", "check", "--graph", graph_file, "--variant", "nine_nine"])
    assert exc.value.code == 2
    assert "invalid choice: 'nine_nine'" in capsys.readouterr().err


def test_deform_check_order_one_million_counts_the_zero_orders(graph_file, capsys):
    # the series has two orders, so from order 3 on every product is zero
    started = time.perf_counter()
    assert main(["deform", "check", "--graph", graph_file, "--order", "1000000", "--json"]) == 0
    elapsed = time.perf_counter() - started
    series = json.loads(capsys.readouterr().out)["reports"][2]
    assert series["title"] == "order-by-order deformation check (order<1000000, tau=1)"
    assert series["passed"] is True
    assert series["checks_run"] == 7 * 1_000_000 * 9**3
    assert elapsed < 1.0


@pytest.mark.parametrize("order", ["0", "-3"])
def test_deform_check_order_below_one_is_a_usage_error(graph_file, capsys, order):
    assert main(["deform", "check", "--graph", graph_file, f"--order={order}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the series order must be at least 1, got {order}\n"


def test_deform_check_refuses_an_empty_taus_list(graph_file, capsys):
    # with no rescaling the series check would not run at all
    assert main(["deform", "check", "--graph", graph_file, "--taus="]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --taus needs at least one rescaling\n"


def test_missing_file_is_a_usage_error(capsys):
    assert main(["verify", "ennea", "--file", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_reader_that_stops_after_one_line_gets_exit_141_and_no_error(graph3_file):
    """``splitalg construct end-ennea … | head -1``: the 158 kB envelope
    outgrows the pipe, so the writer meets the closed read end.  Output is
    left buffered, as a shell gives it, whatever PYTHONUNBUFFERED says here."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "splitalg.cli", "construct", "end-ennea", "--graph", graph3_file]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"{\n"
    assert (proc.returncode, err) == (141, b"")


def test_wrong_envelope_kind_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    save(str(path), graph_to_json(WeightedDigraph.build(1, [])))
    assert main(["verify", "ennea", "--file", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _assert_one_line_usage_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_out_of_range_tensor_index_is_a_usage_error(tmp_path, capsys):
    algebra = {"kind": "algebra", "dim": 2, "mult": [[0, 0, 0, "1"], [1, 5, 1, "1"]]}
    save(str(tmp_path / "alg.json"), algebra)
    save(str(tmp_path / "op.json"), operator_to_json(oracles.identity_operator(2)))
    argv = ["verify", "baxter", "--algebra", str(tmp_path / "alg.json"),
            "--operator", str(tmp_path / "op.json"), "--t", "-1"]
    assert main(argv) == 2
    _assert_one_line_usage_error(capsys)


def test_negative_coproduct_index_is_a_usage_error(tmp_path, capsys):
    coproduct = {"kind": "coproduct", "dim": 2, "items": [[-1, 0, 1, "1"]]}
    save(str(tmp_path / "delta.json"), coproduct)
    save(str(tmp_path / "op.json"), operator_to_json(oracles.identity_operator(2)))
    argv = ["verify", "baxter", "--coproduct", str(tmp_path / "delta.json"),
            "--operator", str(tmp_path / "op.json"), "--t", "-1"]
    assert main(argv) == 2
    _assert_one_line_usage_error(capsys)


@pytest.mark.parametrize("both", [True, False])
def test_verify_baxter_takes_exactly_one_of_algebra_and_coproduct(tmp_path, capsys, both):
    # with a coproduct the transposed check runs, which would not read the
    # algebra: a missing algebra file goes unnoticed unless the pair is refused
    save(str(tmp_path / "delta.json"), {"kind": "coproduct", "dim": 2, "items": []})
    save(str(tmp_path / "op.json"), operator_to_json(oracles.identity_operator(2)))
    argv = ["verify", "baxter", "--operator", str(tmp_path / "op.json"), "--t=1"]
    if both:
        argv += ["--algebra", str(tmp_path / "no-such-file.json"),
                 "--coproduct", str(tmp_path / "delta.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: give exactly one of --algebra and --coproduct (the transposed check)\n"
    )


@pytest.mark.parametrize(
    "dim, message",
    [
        (10_000, "operator/coalgebra dimension mismatch"),
        (2_000_000, "coproduct field 'dim' must be at most 65536, got 2000000"),
    ],
)
def test_legless_coproduct_of_another_dim_is_a_usage_error(tmp_path, capsys, dim, message):
    save(str(tmp_path / "delta.json"), {"kind": "coproduct", "dim": dim, "items": []})
    save(str(tmp_path / "op.json"), operator_to_json(oracles.identity_operator(2)))
    argv = ["verify", "baxter", "--coproduct", str(tmp_path / "delta.json"),
            "--operator", str(tmp_path / "op.json"), "--t", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def _empty_nine_op_envelope(dim):
    from splitalg.relations import NINE_OP_GENERATORS

    return {
        "kind": "operations",
        "family": "nine_op",
        "t": "1",
        "dim": dim,
        "ops": {name: [] for name in NINE_OP_GENERATORS},
    }


@pytest.mark.parametrize("verb", ["ennea", "unit-action"])
@pytest.mark.parametrize("dim", [-3, 0, 2.5, True, "2", None])
def test_invalid_envelope_dim_is_a_usage_error(tmp_path, capsys, verb, dim):
    path = tmp_path / "ops.json"
    save(str(path), _empty_nine_op_envelope(dim))
    assert main(["verify", verb, "--file", str(path)]) == 2
    _assert_one_line_usage_error(capsys)


@pytest.mark.parametrize("verb", ["ennea", "unit-action"])
def test_smallest_valid_envelope_dim_is_accepted(tmp_path, capsys, verb):
    path = tmp_path / "ops.json"
    save(str(path), _empty_nine_op_envelope(1))
    assert main(["verify", verb, "--file", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def _zero_denominator_graph(tmp_path):
    path = tmp_path / "graph.json"
    graph = {"kind": "graph", "vertices": 2, "arcs": [{"src": 0, "dst": 1, "weight": "1/0"}]}
    save(str(path), graph)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "end-ennea", "--graph"],
        ["verify", "graph-bialgebra", "--variant", "chain", "--file"],
    ],
)
def test_zero_denominator_arc_weight_is_a_usage_error(tmp_path, capsys, argv):
    assert main([*argv, _zero_denominator_graph(tmp_path)]) == 2
    _assert_one_line_usage_error(capsys)


# 10**5000 has 5001 digits, past the interpreter's default limit of 4300 on
# reading and printing integers; Fraction would build it without complaint
HUGE_SCALAR = "1e5000"


@pytest.mark.parametrize("where", ["coefficient", "t", "weight"])
def test_a_scalar_past_the_digit_limit_is_a_usage_error(tmp_path, capsys, where):
    path = str(tmp_path / "input.json")
    if where == "weight":
        arc = {"src": 0, "dst": 1, "weight": HUGE_SCALAR}
        save(path, {"kind": "graph", "vertices": 2, "arcs": [arc]})
        argv = ["construct", "end-ennea", "--graph", path]
    else:
        envelope = _empty_nine_op_envelope(2)
        if where == "t":
            envelope["t"] = HUGE_SCALAR
        else:
            envelope["ops"]["nw"] = [[0, 1, 1, HUGE_SCALAR]]
        save(path, envelope)
        argv = ["verify", "ennea", "--file", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    limit = sys.get_int_max_str_digits()
    assert err.endswith(f": scalar '{HUGE_SCALAR}' needs more than {limit} digits\n")


@pytest.mark.parametrize("text", [HUGE_SCALAR, "-1E-5000", "3.5e5000"])
def test_a_parameter_past_the_digit_limit_is_refused(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["operad", "dim3", "--preset", "nine_op", f"--t={text}"])
    assert exc.value.code == 2
    assert f"argument --t: not an exact rational: '{text}'" in capsys.readouterr().err


def _presentation(**changes):
    from splitalg import builtin_presentations
    from splitalg.jsonio import system_to_json

    data = system_to_json(builtin_presentations()["three_op"])
    data.update(changes)
    return data


def _run_dim3_file(tmp_path, data):
    path = tmp_path / "pres.json"
    save(str(path), data)
    return main(["operad", "dim3", "--file", str(path), "--t", "1"])


def test_zero_denominator_presentation_coefficient_is_a_usage_error(tmp_path, capsys):
    data = _presentation()
    data["relations"][0]["lhs"][0][0] = ["1/0"]
    assert _run_dim3_file(tmp_path, data) == 2
    _assert_one_line_usage_error(capsys)


TWO_GENERATOR_RELATION = {"name": "r", "lhs": [[["1"], "a", "a"]], "rhs": [[["1"], "a", "a"]]}


def _relation(lhs):
    return [{"name": "r", "lhs": lhs, "rhs": []}]


MALFORMED_PRESENTATIONS = {
    "duplicate-generators": (
        {"generators": ["a", "a"], "relations": [TWO_GENERATOR_RELATION]}, "distinct"
    ),
    "generators-string": (
        {"generators": "ab", "relations": [TWO_GENERATOR_RELATION]}, "list of strings"
    ),
    "generator-not-string": ({"generators": ["a", 1], "relations": []}, "list of strings"),
    "composite-shadows-generator": (
        {"generators": ["a", "b"], "composites": {"a": [[["1"], "b"]]}}, "name of a generator"
    ),
    "composite-part-unknown": (
        {"generators": ["a", "b"], "composites": {"s": [[["1"], "c"]]}}, "names no generator"
    ),
    "composite-part-not-pair": (
        {"generators": ["a", "b"], "composites": {"s": [["1"]]}}, "[coeff, generator]"
    ),
    "composites-not-object": ({"generators": ["a", "b"], "composites": []}, "object"),
    "term-not-triple": (
        {"generators": ["a", "b"], "relations": _relation([[["1"], "a"]])}, "[coeff, inner, outer]"
    ),
    "term-unknown-operation": (
        {"generators": ["a", "b"], "relations": _relation([[["1"], "a", "c"]])},
        "unknown operation 'c'",
    ),
    "side-not-list": ({"generators": ["a", "b"], "relations": _relation("a")}, "list of terms"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRESENTATIONS))
def test_malformed_presentation_is_a_usage_error(tmp_path, capsys, case):
    changes, message = MALFORMED_PRESENTATIONS[case]
    data = _presentation(composites={}, relations=[])
    data.update(changes)
    assert _run_dim3_file(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("preset,nonzeros", [("nine_op", 162), ("deformed_nine_nine", 648)])
def test_operad_dim3_reports_relation_nonzeros(capsys, preset, nonzeros):
    assert main(["operad", "dim3", "--preset", preset, "--t", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nonzeros"] == nonzeros
    assert payload["monomials"] == 2 * payload["generators"] ** 2
    assert payload["rank"] == payload["relations"]


def _nine_op_envelope_with(**changes):
    data = _empty_nine_op_envelope(2)
    data["ops"]["nw"] = [[0, 0, 0, "1"]]
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "case,field",
    [
        ("ops_is_a_list", "'ops'"),
        ("t_missing", "'t'"),
        ("family_is_a_list", "'family'"),
        ("three_item_entry", "'nw'"),
    ],
)
@pytest.mark.parametrize("verb", ["ennea", "unit-action"])
def test_malformed_operations_envelope_names_the_field(tmp_path, capsys, verb, case, field):
    data = _nine_op_envelope_with()
    if case == "ops_is_a_list":
        data["ops"] = []
    elif case == "t_missing":
        del data["t"]
    elif case == "family_is_a_list":
        data["family"] = ["x"]
    else:
        data["ops"]["nw"] = [[0, 0, 0]]
    path = tmp_path / "ops.json"
    save(str(path), data)
    assert main(["verify", verb, "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: operations ")
    assert len(err.strip().splitlines()) == 1
    assert field in err


def test_operations_envelope_must_hold_the_family_generators(tmp_path, capsys):
    data = _nine_op_envelope_with()
    del data["ops"]["se"]
    data["ops"]["bogus"] = []
    path = tmp_path / "ops.json"
    save(str(path), data)
    assert main(["verify", "unit-action", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "missing ['se']" in err and "unknown ['bogus']" in err


def test_graph_bialgebra_on_an_80_vertex_arcless_graph_is_quick(tmp_path, capsys):
    """The compatibility check walks each basis pair's nonzero products, not
    dense rows, which took 30 s on these 80 vertices (6,400 pairs)."""
    import time

    path = tmp_path / "arcless80.json"
    save(str(path), graph_to_json(WeightedDigraph.build(80, [])))
    started = time.perf_counter()
    code = main(["verify", "graph-bialgebra", "--file", str(path), "--variant", "chain", "--json"])
    elapsed = time.perf_counter() - started
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["checks_run"] == 80 + 80 * 80
    assert elapsed < 10, f"{elapsed:.2f} s"


def test_a_cyclic_graph_is_a_usage_error_naming_the_cycle(tmp_path, capsys):
    """No command takes a length cap, so the error names the cycle and
    nothing a command line cannot pass."""
    path = tmp_path / "cycle3.json"
    save(str(path), graph_to_json(WeightedDigraph.build(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])))
    assert main(["construct", "end-ennea", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the graph has a cycle, so its path algebra is infinite\n"
    assert "max_len" not in captured.err
