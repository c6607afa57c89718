"""One process, one parser: ``main`` reuses the parser it built first, so no
command may leave state in it that changes a later command's output.

The golden envelopes of ``test_golden_reports.py`` and the golden help
pages and usage errors of ``test_cli_help.py`` run back to back in this
process, with a usage error and a ``--help`` exit in between, and every
output must stay byte-identical to the golden files.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import test_cli_help
import test_golden_reports
from splitalg import WeightedDigraph
from splitalg.cli import build_parser
from splitalg.jsonio import dump_json, graph_to_json, save


def golden_reports_text() -> str:
    return dump_json(test_golden_reports.compute())


def test_commands_leave_no_state_in_the_shared_parser():
    parser = build_parser()
    expected_reports = test_golden_reports.GOLDEN.read_text(encoding="utf-8")
    golden_help = test_cli_help._golden()
    same_python = golden_help["python"] == list(sys.version_info[:2])

    assert golden_reports_text() == expected_reports
    usage_error = test_cli_help.run(["operad", "dim3", "--t", "1/2"])
    assert usage_error["code"] == 2 and usage_error["stderr"].startswith("usage: splitalg")
    help_page = test_cli_help.run(["deform", "check", "--help"])
    assert help_page["code"] == 0 and help_page["stdout"].startswith("usage: splitalg")

    computed = test_cli_help.compute()
    assert sorted(computed["cases"]) == sorted(golden_help["cases"])
    if same_python:
        assert computed["cases"] == golden_help["cases"]
    assert golden_reports_text() == expected_reports
    assert build_parser() is parser


def test_deform_check_without_taus_prints_the_same_reports_twice(tmp_path):
    path = str(tmp_path / "chain2.json")
    save(path, graph_to_json(WeightedDigraph.build(2, [(0, 1, Fraction(3, 2))])))
    argv = ["deform", "check", "--graph", path, "--json"]
    first = test_cli_help.run(argv)
    second = test_cli_help.run(argv)
    assert first["code"] == 0 and first["stderr"] == ""
    assert first["stdout"].count('"title"') == 3  # instance, operator equation, one tau
    assert second == first
    assert build_parser().parse_args(argv).taus == (Fraction(1),)
