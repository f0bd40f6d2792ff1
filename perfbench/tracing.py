"""Per-layer tracing of dgla from outside the package.

The tracer wraps the public functions and methods of each module of
`src/dgla` (the layers) and records, while installed:

* spans (name, start, end, parent) wherever a call crosses from one layer
  into another, or enters a function whose own time is a metric; they are
  kept in memory and written out by `write_spans`;
* each layer's self time: the time during which the innermost traced call
  belongs to that layer;
* call counts and work counts at the same boundaries.

Methods are wrapped on their class.  A module-level function is wrapped in
every dgla module that imported it by name, so calls from another layer go
through the wrapper while calls inside its own module do not; the functions
in NAMED are wrapped in their own module as well.  Only public names are
touched, and no private attribute of a dgla object is read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULE_LAYER = {
    "cli": "cli",
    "formats": "formats",
    "exprs": "formats",
    "linalg": "linalg",
    "freelie": "freelie",
    "dg": "dg",
    "minimal": "minimal",
    "invert": "invert",
    "homotopy": "homotopy",
}
LAYERS = ("cli", "formats", "linalg", "freelie", "dg", "minimal", "invert", "homotopy")

# Functions wrapped in their own module too, because a metric needs every call.
NAMED = {
    "cli.main",
    "dg.validate",
    "homotopy.der_boundary_matrix",
    "homotopy.derivation_basis",
    "invert.invert_relative_quasi_iso",
    "minimal.build_minimal_model",
    "formats.load_document",
}
# name -> metric holding the time of its outermost calls
INCLUSIVE = {
    "dg.HomologyData.__init__": "dg.homology.s",
    "dg.validate": "dg.validate.s",
    "homotopy.der_boundary_matrix": "homotopy.der_boundary_matrix.s",
}

# Per-layer metrics and their units, in the order they are reported.
METRICS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "freelie.degree_basis.builds": "count",
    "freelie.degree_basis.hit_rate": "ratio",
    "freelie.degree_basis.embeds": "count",
    "freelie.degree_basis.yield": "ratio",
    "freelie.bracket_table.builds": "count",
    "freelie.normalize.calls": "count",
    "dg.d_matrix.builds": "count",
    "dg.homology.builds": "count",
    "dg.homology.s": "s",
    "dg.validate.calls": "count",
    "dg.validate.s": "s",
    "dg.findim_bracket.calls": "count",
    "minimal.stages": "count",
    "minimal.basis_builds_per_stage": "ratio",
    "homotopy.der_boundary_matrix.s": "s",
    "homotopy.der_boundary_matrix.cols": "count",
    "homotopy.relderivation.builds": "count",
    "homotopy.derivation_basis.calls": "count",
    "invert.calls": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.rref.rank_frac": "ratio",
    "linalg.apply.calls": "count",
    "linalg.apply.cells": "count",
    "linalg.apply.nonzero_frac": "ratio",
    "formats.bytes_in": "B",
    "trace.overhead_s": "s",
}
COUNT_METRICS = tuple(name for name, unit in METRICS.items() if unit != "s")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Install with `install()`, reset per measured pass, read `metrics()`."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._hooks = {
            "freelie.FreeGLA.degree_basis": self._on_degree_basis,
            "freelie.FreeGLA.embed_tree": self._on_embed_tree,
            "freelie.FreeGLA.bracket_table": self._on_bracket_table,
            "dg.QuasiFreeDGLA.d_matrix": self._on_d_matrix,
            "minimal.build_minimal_model": self._on_build_minimal_model,
            "homotopy.der_boundary_matrix": self._on_der_boundary_matrix,
            "linalg.Matrix.rref": self._on_rref,
            "linalg.Matrix.apply": self._on_apply,
            "formats.load_document": self._on_load_document,
        }
        self.reset()

    # -- state ----------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded; call before each traced pass."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = dict.fromkeys(INCLUSIVE.values(), 0.0)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[str] = []  # names of the traced calls in progress
        self._frames: list[list] = []  # [child time, layer, span id] of spans in progress
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # keys seen per memoized method, holding the object so its id stays unique
        self._seen: dict[str, dict] = defaultdict(dict)
        self.counts = defaultdict(int)

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"dgla.{short}") for short in MODULE_LAYER}
        importers = list(modules.values()) + [importlib.import_module("dgla")]
        for short, module in modules.items():
            layer = MODULE_LAYER[short]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, short, layer)
                elif inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped = self._wrap(obj, name, layer)
                    for site in importers:
                        if site is module and name not in NAMED:
                            continue
                        if vars(site).get(attr) is obj:
                            self._patch(site, attr, wrapped)

    def _wrap_class(self, cls, short: str, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name, layer))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = self._hooks.get(name)
        inclusive = INCLUSIVE.get(name)
        always_span = name in NAMED or inclusive is not None
        index = self._name_index.setdefault(name, len(self._names))
        if index == len(self._names):
            self._names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer._stack
            caller = stack[-1] if stack else None
            frames = tracer._frames
            if not always_span and frames and frames[-1][1] == layer:
                stack.append(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                if hook is not None:
                    hook(args, result, caller)
                return result
            active = tracer._active
            outermost = active[name] == 0
            active[name] += 1
            span = len(tracer.span_name)
            tracer.span_name.append(index)
            tracer.span_parent.append(frames[-1][2] if frames else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [0.0, layer, span]
            frames.append(frame)
            stack.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                frames.pop()
                active[name] -= 1
                elapsed = end - start
                tracer.self_s[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if inclusive is not None and outermost:
                    tracer.inclusive[inclusive] += elapsed
                tracer.span_start[span] = start
                tracer.span_end[span] = end
            if hook is not None:
                hook(args, result, caller)
            return result

        return wrapper

    # -- hooks: work counts at the boundaries -------------------------------------

    def _first(self, name: str, key, obj) -> bool:
        seen = self._seen[name]
        if key in seen:
            return False
        seen[key] = obj
        return True

    def _on_degree_basis(self, args, result, caller):
        gla, k = args[0], args[1]
        if self._first("degree_basis", (id(gla), k), gla):
            self.counts["basis_builds"] += 1
            self.counts["basis_dims"] += result.dim
            if self._active["minimal.build_minimal_model"]:
                self.counts["basis_builds_in_minimal"] += 1

    def _on_embed_tree(self, args, result, caller):
        if caller == "freelie.FreeGLA.degree_basis":
            self.counts["embeds"] += 1

    def _on_bracket_table(self, args, result, caller):
        gla, p, q = args[0], args[1], args[2]
        if self._first("bracket_table", (id(gla), p, q), gla):
            self.counts["bracket_table_builds"] += 1

    def _on_d_matrix(self, args, result, caller):
        algebra, k = args[0], args[1]
        if self._first("d_matrix", (id(algebra), k), algebra):
            self.counts["d_matrix_builds"] += 1

    def _on_build_minimal_model(self, args, result, caller):
        self.counts["stages"] += len(result.stages)

    def _on_der_boundary_matrix(self, args, result, caller):
        self.counts["der_cols"] += result.cols

    def _on_rref(self, args, result, caller):
        m = args[0]
        if self._first("rref", id(m), m):
            self.counts["rref_cells"] += m.rows * m.cols
            self.counts["rref_rows"] += m.rows
            self.counts["rref_rank"] += len(result[1])

    def _on_apply(self, args, result, caller):
        m, v = args[0], args[1]
        self.counts["apply_cells"] += m.rows * m.cols
        self.counts["apply_entries"] += len(v)
        self.counts["apply_nonzero"] += sum(1 for a in v if a)

    def _on_load_document(self, args, result, caller):
        self.counts["bytes_in"] += Path(args[0]).stat().st_size

    # -- results ------------------------------------------------------------------

    def metrics(self, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
        c, n = self.counts, self.calls
        basis_calls = n["freelie.FreeGLA.degree_basis"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(
            {
                "freelie.degree_basis.builds": c["basis_builds"],
                "freelie.degree_basis.hit_rate": _ratio(basis_calls - c["basis_builds"], basis_calls),
                "freelie.degree_basis.embeds": c["embeds"],
                "freelie.degree_basis.yield": _ratio(c["basis_dims"], c["embeds"]),
                "freelie.bracket_table.builds": c["bracket_table_builds"],
                "freelie.normalize.calls": n["freelie.FreeGLA.normalize"],
                "dg.d_matrix.builds": c["d_matrix_builds"],
                "dg.homology.builds": n["dg.HomologyData.__init__"],
                "dg.validate.calls": n["dg.validate"],
                "dg.findim_bracket.calls": n["dg.FiniteDimDGLA.bracket"],
                "minimal.stages": c["stages"],
                "minimal.basis_builds_per_stage": _ratio(c["basis_builds_in_minimal"], c["stages"]),
                "homotopy.der_boundary_matrix.cols": c["der_cols"],
                "homotopy.relderivation.builds": n["homotopy.RelDerivation.__init__"],
                "homotopy.derivation_basis.calls": n["homotopy.derivation_basis"],
                "invert.calls": n["invert.invert_relative_quasi_iso"],
                "linalg.rref.calls": n["linalg.Matrix.rref"],
                "linalg.rref.cells": c["rref_cells"],
                "linalg.rref.rank_frac": _ratio(c["rref_rank"], c["rref_rows"]),
                "linalg.apply.calls": n["linalg.Matrix.apply"],
                "linalg.apply.cells": c["apply_cells"],
                "linalg.apply.nonzero_frac": _ratio(c["apply_nonzero"], c["apply_entries"]),
                "formats.bytes_in": c["bytes_in"],
                "trace.overhead_s": traced_run_s - untraced_run_s,
            }
        )
        out.update(self.inclusive)
        return {name: out[name] for name in METRICS}

    def write_spans(self, path) -> None:
        """Write the spans of the last pass as JSON: names plus one
        [name index, start, end, parent span] row per span."""
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self._names, "spans": [list(r) for r in rows]}, fh)
