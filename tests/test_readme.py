"""The README's "Library" example runs as printed.

The block is run in a fresh interpreter, and what it prints must be the
output written in the comment after each ``print``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import splitalg

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(splitalg.__file__).resolve().parents[1])


def library_block() -> str:
    """The first Python code block under the README's "Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_prints_its_commented_outputs():
    code = library_block()
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected == [
        "[PASS] three-op splitting: 1512 checks",
        "[PASS] nine-op splitting (t=-1): 35721 checks",
        "113",
    ]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected
