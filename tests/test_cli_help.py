"""Golden text of every ``--help`` page and every usage error of the CLI.

Each case runs ``splitalg.cli.main`` in process on one argument list and
records its exit code, stdout and stderr.  For the top-level parser and
every command group and command there are three cases: ``--help``, an
unknown option, and (where a target or an option is required) no further
arguments; the last two are usage errors and exit 2.
``test_cases_cover_every_command`` makes sure a new command cannot be
added without a golden case.

argparse formats help differently across Python minor versions, so the
expected file records the version it was written with and the comparison
runs only on that version.  Regenerate it (only when the help is meant to
change) with

    PYTHONPATH=src python tests/test_cli_help.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from splitalg.cli import build_parser, main

GOLDEN = Path(__file__).with_name("golden_help.json")
WIDTH = "80"


def command_paths(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """Every command path of the parser with its own parser, groups included,
    top level first."""
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from command_paths(child, prefix + (name,))


def requires_arguments(parser: argparse.ArgumentParser) -> bool:
    return any(action.required for action in parser._actions) or any(
        group.required for group in parser._mutually_exclusive_groups
    )


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def case_argvs() -> list[list[str]]:
    argvs = []
    for path, parser in command_paths(build_parser()):
        argvs += [[*path, "--help"], [*path, "--no-such-option"]]
        if requires_arguments(parser):
            argvs.append(list(path))
    return argvs


def compute() -> dict:
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = WIDTH
    try:
        cases = {" ".join(argv): run(argv) for argv in case_argvs()}
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous
    return {"python": list(sys.version_info[:2]), "columns": int(WIDTH), "cases": cases}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_cover_every_command():
    assert sorted(" ".join(argv) for argv in case_argvs()) == sorted(_golden()["cases"])


def test_every_usage_error_exits_2():
    cases = _golden()["cases"]
    for name, case in cases.items():
        if name.endswith("--help"):
            assert case["code"] == 0 and case["stderr"] == "", name
        else:
            assert case["code"] == 2 and case["stdout"] == "", name
            assert case["stderr"].startswith("usage: splitalg"), name


def test_help_and_usage_errors_match_golden():
    golden = _golden()
    if golden["python"] != list(sys.version_info[:2]):
        pytest.skip(f"golden help text was written with Python {golden['python']}")
    computed, expected = compute()["cases"], golden["cases"]
    mismatched = [name for name in sorted(expected) if computed[name] != expected[name]]
    assert mismatched == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
