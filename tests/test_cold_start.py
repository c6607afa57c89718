"""Importing the package and building the CLI parser load no submodule.

``splitalg/__init__.py`` resolves its public names on first access, and
each CLI command imports the modules it runs.  The parser is built on the
first ``main`` call, never at import, and only once per process.  These
tests pin that, in fresh interpreters where it matters, and pin the public
names.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitalg
from splitalg import cli

SRC = str(Path(splitalg.__file__).resolve().parents[1])

# Every public name the package exports, by submodule: those it exported
# when it still imported all its submodules eagerly, less the definitions
# since deleted because no command reached them, with the three structure
# classes of ``splitting`` replaced by the one ``relations.Structure``.
EXPORTED = {
    "algebra_core": (
        "CoalgebraData", "FiniteAlgebra", "check_coassociative",
        "full_matrix_algebra", "triangular_matrix_algebra", "triangular_matrix_coalgebra",
    ),
    "baxter": (
        "check_baxter", "check_cobaxter", "commute", "transpose_operator",
        "triangular_baxter_example", "triangular_column_operator",
        "triangular_row_coproduct_operator", "triangular_row_operator",
    ),
    "bialgebra": (
        "ConvolutionStructure", "EpsilonBialgebra", "check_eps_bialgebra", "check_hypercubic",
        "convolution_report", "convolution_structure", "ennea_on_end", "prelie_from_bialgebra",
    ),
    "deformation": (
        "DeformationInstance", "DeformedSystem", "baxter_deformation",
        "check_deformation_instance", "cross_term_system", "deformed_structure_check",
        "instance_operator_equation", "two_operator_equation",
    ),
    "exactlin": ("LinearOperator", "Scalar", "Tensor3", "combine", "rat"),
    "graphalg": (
        "PathAlgebra", "WeightedDigraph", "chain_coproduct", "chain_order", "path_algebra",
        "splitting_coproduct", "weighted_coproduct",
    ),
    "operad": ("Degree3Count", "builtin_presentations", "degree3_dimension"),
    "relations": (
        "FOUR_OP_SYSTEM", "NINE_OP_SYSTEM", "THREE_OP_SYSTEM", "TWO_OP_SYSTEM", "AxiomSystem",
        "Relation", "Structure", "Term", "TPoly", "check_system", "resolve_tensor",
    ),
    "report": ("Report", "Witness"),
    "splitting": (
        "check_ennea", "check_jacobi", "check_prelie", "check_trialgebra",
        "ennea_from_baxter_on_trialgebra", "ennea_from_commuting_pair", "horizontal_trialgebra",
        "opposite_ennea", "prelie_pair_from_ennea", "tensor_ennea", "transpose_ennea",
        "trialgebra_from_baxter", "vertical_trialgebra",
    ),
    "unit_action": ("check_coherence", "check_unit_compatibility", "unit_rules"),
}
EXPORTED_NAMES = sorted(
    (name, module) for module, names in EXPORTED.items() for name in names
)

REPORT_MODULES = (
    "import sys\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'splitalg')))\n"
)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def loaded_after(code: str) -> list[str]:
    result = fresh_python("-c", code + "\n" + REPORT_MODULES)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_importing_the_cli_loads_only_the_package_and_the_cli():
    assert loaded_after("import splitalg.cli") == ["splitalg", "splitalg.cli"]


def test_cli_help_as_a_module_loads_no_other_submodule():
    """``python -m splitalg.cli --help``: the only modules imported on the way
    (``-X importtime`` lists each one) are the package itself and the cli."""
    result = fresh_python("-X", "importtime", "-m", "splitalg.cli", "--help")
    assert result.returncode == 0 and result.stdout.startswith("usage: splitalg")
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert sorted(m for m in imported if m.split(".")[0] == "splitalg") == ["splitalg"]


def test_building_the_parser_loads_no_submodule():
    code = "from splitalg.cli import build_parser\nbuild_parser()"
    assert loaded_after(code) == ["splitalg", "splitalg.cli"]


def test_the_parser_is_built_once_on_the_first_command_and_never_at_import():
    """``main`` builds the parser on its first call and reuses it: a usage
    error, ``--help`` and commands that pass or fail all share one build.
    Builds are counted as constructions of the top-level parser."""
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    init(self, *args, **kwargs)\n"
        "    if self.prog == 'splitalg':\n"
        "        built.append(self)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "from splitalg import cli\n"
        "assert built == [], built\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for argv in (['operad', 'dim3', '--preset', 'two_op'], ['operad', 'dim3'],\n"
        "                 ['demo', '--help'], ['operad', 'dim3', '--preset', 'no_such'],\n"
        "                 ['operad', 'dim3', '--preset', 'three_op', '--t', '1/2']):\n"
        "        try:\n"
        "            codes.append(cli.main(argv))\n"
        "        except SystemExit as exc:\n"
        "            codes.append(exc.code)\n"
        "assert codes == [0, 2, 0, 2, 0], codes\n"
        "assert len(built) == 1 and built[0] is cli.build_parser(), built\n"
    )
    loaded_after(code)


def test_a_public_name_loads_its_submodule_and_what_that_imports():
    assert loaded_after("from splitalg import Report") == [
        "splitalg", "splitalg.exactlin", "splitalg.report"
    ]


def test_an_unknown_attribute_raises_attribute_error_and_loads_nothing():
    code = (
        "import splitalg\n"
        "try:\n"
        "    splitalg.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "try:\n"
        "    from splitalg import no_such_name\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ImportError')\n"
        "assert not hasattr(splitalg, 'no_such_name')\n"
    )
    assert loaded_after(code) == ["splitalg"]


@pytest.mark.parametrize("name,module", EXPORTED_NAMES)
def test_every_exported_name_is_the_submodules_own_object(name, module):
    namespace: dict = {}
    exec(f"from splitalg import {name}", namespace)
    submodule = __import__(f"splitalg.{module}", fromlist=[name])
    assert namespace[name] is getattr(submodule, name)


def test_public_names_are_listed():
    assert sorted(splitalg.__all__) == sorted(name for name, _ in EXPORTED_NAMES)
    assert set(splitalg.__all__) <= set(dir(splitalg))
    assert set(EXPORTED) <= set(dir(splitalg))


def test_cli_variant_tuples_match_the_library():
    from splitalg.deformation import VARIANTS
    from splitalg.relations import DEFORMATIONS

    # deform check has a graph recipe for two variants only
    assert cli.CHECK_VARIANTS == ("four_four", "two_three")
    assert set(cli.CHECK_VARIANTS) <= set(VARIANTS)
    assert cli.DERIVE_VARIANTS == tuple(sorted(DEFORMATIONS))


def test_operad_dim3_json_loads_five_library_modules():
    """``jsonio`` imports ``graphalg`` and ``algebra_core`` only inside the
    decoders that build their objects, so writing a report skips both."""
    code = (
        "import contextlib, io\n"
        "from splitalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['operad', 'dim3', '--preset', 'two_op', '--json']) == 0\n"
    )
    assert loaded_after(code) == [
        "splitalg", "splitalg.cli", "splitalg.exactlin", "splitalg.jsonio",
        "splitalg.operad", "splitalg.relations", "splitalg.report",
    ]


def test_operad_dim3_deformed_preset_loads_no_construction_module():
    """A deformed preset builds its cross-term system in ``deformation``,
    which imports ``bialgebra``, ``baxter``, ``splitting`` and
    ``algebra_core`` only inside ``baxter_deformation``, so none of them
    loads."""
    code = (
        "import contextlib, io\n"
        "from splitalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['operad', 'dim3', '--preset', 'deformed_two_two', '--json']) == 0\n"
    )
    assert loaded_after(code) == [
        "splitalg", "splitalg.cli", "splitalg.deformation", "splitalg.exactlin",
        "splitalg.jsonio", "splitalg.operad", "splitalg.relations", "splitalg.report",
    ]


def test_verify_graph_bialgebra_json_loads_eleven_modules(tmp_path):
    """The chain-variant graph bialgebra check, as the deformation workload
    runs it, loads the modules of the path algebra, the coproducts, the
    compatibility check and the JSON report, and nothing more."""
    from splitalg.graphalg import WeightedDigraph
    from splitalg.jsonio import graph_to_json, save

    path = str(tmp_path / "chain2.json")
    save(path, graph_to_json(WeightedDigraph.build(2, [(0, 1, 3)])))
    code = (
        "import contextlib, io\n"
        "from splitalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify', 'graph-bialgebra', '--file', {path!r},"
        " '--variant', 'chain', '--json']) == 0\n"
    )
    assert loaded_after(code) == [
        "splitalg", "splitalg.algebra_core", "splitalg.baxter", "splitalg.bialgebra",
        "splitalg.cli", "splitalg.exactlin", "splitalg.graphalg", "splitalg.jsonio",
        "splitalg.relations", "splitalg.report", "splitalg.splitting",
    ]


@pytest.mark.parametrize("verb", ["unit-action", "coherence"])
def test_verify_unit_action_and_coherence_load_six_library_modules(tmp_path, verb):
    """Both unit-action checks read the identity table and the operations
    envelope and run on the identity kernel; neither loads a construction
    module (``splitting``, ``algebra_core``)."""
    from splitalg import ennea_from_commuting_pair, triangular_baxter_example
    from splitalg.jsonio import operations_to_json, save

    alg, row, _, param = triangular_baxter_example(2, 1)
    e = ennea_from_commuting_pair(alg, row, row, param)
    path = str(tmp_path / "nine.json")
    save(path, operations_to_json("nine_op", e.t, e.ops))
    code = (
        "import contextlib, io\n"
        "from splitalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify', {verb!r}, '--file', {path!r}]) == 0\n"
    )
    assert loaded_after(code) == [
        "splitalg", "splitalg.cli", "splitalg.exactlin", "splitalg.jsonio",
        "splitalg.operad", "splitalg.relations", "splitalg.report", "splitalg.unit_action",
    ]
