"""Exact-arithmetic workbench for splitting algebraic structures.

Everything runs over the rationals with :class:`fractions.Fraction` —
no floats, no tolerances.  The package covers:

* modified Baxter operators and their transposed coalgebra version
  (:mod:`splitalg.baxter`);
* the identity tables of every splitting family, and one
  :class:`Structure` type for a family's operations at a value of t,
  which every identity check takes (:mod:`splitalg.relations`);
* two-, three-, four-, and nine-operation splittings of associative
  products, with tensor products, opposites, transposes, and the
  derived pre-Lie products (plain tensors) and Lie brackets
  (:mod:`splitalg.splitting`);
* twisted bialgebras, convolution on endomorphism spaces, and the
  nine-operation structure living there (:mod:`splitalg.bialgebra`);
* path algebras of weighted acyclic graphs and their coproducts
  (:mod:`splitalg.graphalg`);
* exact degree-3 dimensions of binary quadratic operad presentations
  (:mod:`splitalg.operad`);
* a mechanical formal-deformation engine: cross-term identity systems,
  operator-level equations, and order-by-order series checks
  (:mod:`splitalg.deformation`);
* unit actions: compatibility on the augmented space and coherence on
  mixed tensor spaces (:mod:`splitalg.unit_action`);
* kind-tagged JSON envelopes and a command-line driver
  (:mod:`splitalg.jsonio`, :mod:`splitalg.cli`).

Every function, class and method here is run by a ``splitalg`` command,
read by the benchmark, or one of a few kept on purpose: the paper's
propositions that no command routes yet (nested splitting, the star
morphism, the refinement along a Baxter operator on a three-operation
structure, tensor products, transposes, opposites, pre-Lie and Jacobi,
the convolution report and the bowtie derivations), the triangular
coBaxter examples, and the graph and operator envelope writers.

Importing the package loads none of its submodules.  Each public name is
imported from its submodule on first access (PEP 562, module
``__getattr__``), so a program pays only for the modules it uses.
"""

from __future__ import annotations

import importlib

# Every public name, grouped by the submodule that defines it.
_EXPORTS_BY_MODULE = {
    "algebra_core": (
        "CoalgebraData",
        "FiniteAlgebra",
        "check_coassociative",
        "full_matrix_algebra",
        "triangular_matrix_algebra",
        "triangular_matrix_coalgebra",
    ),
    "baxter": (
        "check_baxter",
        "check_cobaxter",
        "commute",
        "transpose_operator",
        "triangular_baxter_example",
        "triangular_column_operator",
        "triangular_row_coproduct_operator",
        "triangular_row_operator",
    ),
    "bialgebra": (
        "ConvolutionStructure",
        "EpsilonBialgebra",
        "check_eps_bialgebra",
        "check_hypercubic",
        "convolution_report",
        "convolution_structure",
        "ennea_on_end",
        "prelie_from_bialgebra",
    ),
    "deformation": (
        "DeformationInstance",
        "DeformedSystem",
        "baxter_deformation",
        "check_deformation_instance",
        "cross_term_system",
        "deformed_structure_check",
        "instance_operator_equation",
        "two_operator_equation",
    ),
    "exactlin": ("LinearOperator", "Scalar", "Tensor3", "combine", "rat"),
    "graphalg": (
        "PathAlgebra",
        "WeightedDigraph",
        "chain_coproduct",
        "chain_order",
        "path_algebra",
        "splitting_coproduct",
        "weighted_coproduct",
    ),
    "operad": ("Degree3Count", "builtin_presentations", "degree3_dimension"),
    "relations": (
        "FOUR_OP_SYSTEM",
        "NINE_OP_SYSTEM",
        "THREE_OP_SYSTEM",
        "TWO_OP_SYSTEM",
        "AxiomSystem",
        "Relation",
        "Structure",
        "Term",
        "TPoly",
        "check_system",
        "resolve_tensor",
    ),
    "report": ("Report", "Witness"),
    "splitting": (
        "check_ennea",
        "check_jacobi",
        "check_prelie",
        "check_trialgebra",
        "ennea_from_baxter_on_trialgebra",
        "ennea_from_commuting_pair",
        "horizontal_trialgebra",
        "opposite_ennea",
        "prelie_pair_from_ennea",
        "tensor_ennea",
        "transpose_ennea",
        "trialgebra_from_baxter",
        "vertical_trialgebra",
    ),
    "unit_action": ("check_coherence", "check_unit_compatibility", "unit_rules"),
}
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's submodule (or a submodule by name) on first
    access and bind the result in the package namespace."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS_BY_MODULE:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_EXPORTS_BY_MODULE))
