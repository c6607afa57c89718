"""Spans around the program's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every
``splitalg.*`` namespace that binds it (``relations`` imports
``compose_left`` directly, ``cli`` imports ``ennea_on_end``, and so on),
and on the class for methods.  Nothing under ``src/`` changes.

Each span records its name, start, end, parent span and the id of the CLI
command it ran under.  Times are read from a trace clock that stops while
the tracer does its own bookkeeping (pushing spans, computing counts), so
the self times of all spans add up exactly to the traced command time.
What that bookkeeping costs shows as ``trace.overhead_frac``, which
compares wall-clock pass times with tracing on and off.

A target that a later refactor removes is reported as absent; a counter
that no longer fits the value it reads is reported as unavailable.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

ROOT_SPAN = "cli.main"


# -- counters ---------------------------------------------------------------
# A counter reads a call's arguments (before the call) or its result (after)
# and returns increments for named per-layer counts.


def _tensor_built(args, kwargs, result):
    tensor = args[0]
    n = tensor.dim
    nnz = sum(1 for plane in tensor.entries for row in plane for c in row if c)
    return {"exactlin.tensors_built": 1, "exactlin.dense_slots": n**3, "exactlin.nnz": nnz}


def _composed(args, kwargs, result):
    return {
        "exactlin.compose_calls": 1,
        "exactlin.compose_out_entries": sum(len(bucket) for bucket in result.values()),
    }


def _rank_input(args, kwargs):
    return {"exactlin.rank_entries": sum(len(row) for row in args[0])}


def _resolve_lookup(args, kwargs):
    op_name = args[3] if len(args) > 3 else kwargs["op_name"]
    cache = args[4] if len(args) > 4 else kwargs.get("cache")
    hit = cache is not None and op_name in cache
    return {"relations.resolve_calls": 1, "relations.resolve_hits": int(hit)}


def _coproduct_legs(args, kwargs, result):
    return {"graphalg.coproduct_legs": sum(len(row) for row in result.rows)}


def _unit_skipped(args, kwargs, result):
    return {"unit_action.skipped": result.skipped_undefined}


def _bytes_read(args, kwargs):
    return {"jsonio.bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"jsonio.bytes_written": os.path.getsize(args[0])}


def _calls(metric):
    return lambda args, kwargs, result: {metric: 1}


# -- targets ----------------------------------------------------------------
# layer (reported as "<layer>_s", the summed self time) -> functions, each as
# (path under splitalg, counter read before the call, counter read after).

_DECODERS = (
    "graph_from_json", "algebra_from_json", "operator_from_json",
    "coproduct_from_json", "operations_from_json", "system_from_json",
    "tensor_from_json", "scalar_from_json", "tpoly_from_json",
)
_ENCODERS = (
    "graph_to_json", "algebra_to_json", "operator_to_json", "coproduct_to_json",
    "operations_to_json", "system_to_json", "report_to_json", "tensor_to_json",
    "dump_json",
)

LAYERS: dict[str, tuple[tuple[str, object, object], ...]] = {
    "exactlin.compose": (
        ("exactlin.compose_left", None, _composed),
        ("exactlin.compose_right", None, _composed),
    ),
    "exactlin.accumulate": (("exactlin.accumulate", None, None),),
    "exactlin.compare": (("exactlin.first_discrepancy", None, None),),
    "exactlin.tensor_build": (
        ("exactlin.Tensor3.__init__", None, _tensor_built),
        ("exactlin.Tensor3.from_sparse", None, None),
        ("exactlin.combine", None, None),
    ),
    "exactlin.matrix_apply": (
        ("exactlin.Matrix.apply", None, _calls("exactlin.matrix_apply_calls")),
    ),
    "exactlin.tensor_apply": (
        ("exactlin.Tensor3.apply", None, _calls("exactlin.tensor_apply_calls")),
    ),
    "exactlin.rank": (
        ("exactlin.rank", None, None),
        ("exactlin.rank_int_rows", _rank_input, None),
    ),
    "relations.check_system": (("relations.check_system", None, None),),
    "relations.resolve": (("relations.resolve_tensor", _resolve_lookup, None),),
    "relations.expand": (
        ("relations.expand_relation", None, None),
        ("relations.expand_side", None, None),
    ),
    "operad.relation_matrix": (("operad.relation_matrix", None, None),),
    "operad.presets": (("operad.builtin_presentations", None, None),),
    "operad.degree3": (("operad.degree3_dimension", None, None),),
    "bialgebra.ennea_on_end": (("bialgebra.ennea_on_end", None, None),),
    "bialgebra.convolution": (
        ("bialgebra.convolution_structure", None, _calls("bialgebra.convolution_calls")),
    ),
    "bialgebra.compat_check": (
        ("bialgebra.check_eps_bialgebra", None, None),
        ("bialgebra.check_hypercubic", None, None),
    ),
    "unit_action.augment": (
        ("unit_action.augmented_ops", None, None),
        ("unit_action.augment_tensor", None, None),
    ),
    "unit_action.skip_set": (("unit_action.relation_skip_set", None, None),),
    "unit_action.check": (
        ("unit_action.check_unit_compatibility", None, _unit_skipped),
    ),
    "jsonio.load": (("jsonio.load", _bytes_read, None),),
    "jsonio.save": (("jsonio.save", None, _bytes_written),),
    "jsonio.decode": tuple((f"jsonio.{name}", None, None) for name in _DECODERS),
    "jsonio.encode": tuple((f"jsonio.{name}", None, None) for name in _ENCODERS),
    "deformation.operator_equation": (
        ("deformation.two_operator_equation", None, None),
        ("deformation.instance_operator_equation", None, None),
    ),
    "deformation.instance": (
        ("deformation.baxter_deformation", None, None),
        ("deformation.check_deformation_instance", None, None),
    ),
    "deformation.series_check": (("deformation.deformed_structure_check", None, None),),
    "deformation.cross_term": (("deformation.cross_term_system", None, None),),
    "algebra_core.coassoc": (("algebra_core.check_coassociative", None, None),),
    "splitting.construct": (
        ("splitting.trialgebra_from_baxter", None, None),
        ("splitting.ennea_from_commuting_pair", None, None),
    ),
    "baxter.check_baxter": (("baxter.check_baxter", None, None),),
    "baxter.commute": (("baxter.commute", None, None),),
    "graphalg.path_algebra": (("graphalg.path_algebra", None, None),),
    "graphalg.coproduct": (
        ("graphalg.weighted_coproduct", None, _coproduct_legs),
        ("graphalg.chain_coproduct", None, _coproduct_legs),
        ("graphalg.splitting_coproduct", None, _coproduct_legs),
    ),
}

class Tracer:
    """Wraps the targets in :data:`LAYERS` and records spans while installed."""

    def __init__(self) -> None:
        self.paused = 0.0  # bookkeeping time removed from the trace clock
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.stack: list[int] = []
        self.command = -1
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._layer_of: dict[str, str] = {ROOT_SPAN: "cli.self"}
        self._restore: list[tuple[object, str, object]] = []

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for path, before, after in targets:
                if not self._wrap(path, before, after):
                    self.absent.append(path)
                self._layer_of[path] = layer

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, path: str, before, after) -> bool:
        module_name, *attrs = path.split(".")
        try:
            module = importlib.import_module(f"splitalg.{module_name}")
        except ImportError:
            return False
        if len(attrs) == 2:  # a method: patch it on its class
            cls = getattr(module, attrs[0], None)
            raw = None if cls is None else cls.__dict__.get(attrs[1])
            if raw is None:
                return False
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrapper(path, raw.__func__, before, after))
            else:
                wrapped = self._wrapper(path, raw, before, after)
            self._restore.append((cls, attrs[1], raw))
            setattr(cls, attrs[1], wrapped)
            return True
        original = getattr(module, attrs[0], None)
        if not callable(original):
            return False
        wrapper = self._wrapper(path, original, before, after)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "splitalg" or name.startswith("splitalg.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, attr, value))
                    setattr(loaded, attr, wrapper)
        return True

    def _wrapper(self, path: str, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            if before is not None:
                tracer._count(path, before, args, kwargs)
            index = tracer._open(path, entered - tracer.paused)
            tracer.paused += perf_counter() - entered
            try:
                result = fn(*args, **kwargs)
            finally:
                left = perf_counter()
                tracer._close(index, left - tracer.paused)
            if after is not None:
                tracer._count(path, after, args, kwargs, result)
            tracer.paused += perf_counter() - left
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, start, None, parent, self.command])
        self.stack.append(index)
        return index

    def _close(self, index: int, end: float) -> None:
        self.spans[index][2] = end
        self.stack.pop()

    def _count(self, path, counter, *call) -> None:
        if path in self.broken_counters:
            return
        try:
            increments = counter(*call)
        except (AttributeError, TypeError, KeyError, IndexError, OSError):
            self.broken_counters.add(path)
            return
        for key, value in increments.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def run_command(self, command_id: int, fn, *args):
        """Run one CLI command under a root span named ``cli.main``."""
        self.command = command_id
        entered = perf_counter()
        index = self._open(ROOT_SPAN, entered - self.paused)
        self.paused += perf_counter() - entered
        try:
            return fn(*args)
        finally:
            left = perf_counter()
            self._close(index, left - self.paused)
            self.paused += perf_counter() - left
            self.command = -1

    # -- per-pass results ---------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Self time per layer, the counts made and the traced time so far; resets."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        traced = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is None:
                traced += end - start
            else:
                self_time[parent] -= end - start
        out: dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS}
        out["cli.self_s"] = 0.0
        for (name, *_), seconds in zip(self.spans, self_time):
            out[f"{self._layer_of[name]}_s"] += seconds
        out.update(self.counts)
        out["trace.pass_s"] = traced
        self.spans.clear()
        self.counts.clear()
        return out
