"""Run-time tracing of splitspin from outside the program.

``Tracer.install()`` wraps, in place, every function and method that a
splitspin layer module defines in its source: module attributes (including
the names other splitspin modules imported from it) and methods of the
module's classes.  Each call records a span (name, start, end, parent span,
job id) in flat in-memory arrays; ``write()`` stores them when the run ends.
The scalar layer (``fields``) is only counted, not spanned: it is called
millions of times per job, and its time shows up as the self time of the
callers.  Self time is a span's duration minus the part its child spans
cover.

Only the traced run pays for this; end-to-end metrics come from untraced
runs.
"""

from __future__ import annotations

import array
import json
import os
import sys
import time

# module -> layer; serialize, config and cli form one layer whose own work
# is reported as cli.self_s (config parsing, dispatch, JSON emission).
LAYER_OF = {
    "linalg": "linalg",
    "quadratic": "quadratic",
    "algebra": "algebra",
    "idempotents": "idempotents",
    "axial": "axial",
    "two_gen": "two_gen",
    "cover": "cover",
    "serialize": "serialize",
    "config": "cli",
    "cli": "cli",
}
WRAPPED_DUNDERS = {"__init__", "__matmul__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__"}

# per-layer metric -> (kind, span names); kinds are documented in README.md
SPAN_METRICS = {
    "linalg.rref_calls": ("calls", ["linalg.Matrix.rref"]),
    "linalg.rref_s": ("time", ["linalg.Matrix.rref"]),
    "linalg.matrices_built": ("calls", ["linalg.Matrix.__init__"]),
    "linalg.matmul_calls": ("calls", ["linalg.Matrix.__matmul__"]),
    "linalg.matmul_s": ("time", ["linalg.Matrix.__matmul__"]),
    "linalg.apply_calls": ("calls", ["linalg.Matrix.apply"]),
    "linalg.apply_s": ("time", ["linalg.Matrix.apply"]),
    "algebra.products": ("calls", ["algebra.Algebra._mul_coords"]),
    "algebra.product_s": ("time", ["algebra.Algebra._mul_coords"]),
    "algebra.closure_s": ("time", ["algebra.Algebra.subalgebra", "algebra.Algebra.quotient"]),
    "axial.check_axis_calls": ("calls", ["axial.check_axis"]),
    "axial.check_axis_s": ("time", ["axial.check_axis"]),
    "axial.frobenius_s": ("time", ["axial.frobenius"]),
    "axial.radical_s": ("time", ["axial.algebra_radical"]),
    "axial.automorphism_s": ("time", ["axial.is_automorphism"]),
    "cover.verify_s": ("time", ["cover.verify_cover"]),
    "quadratic.norm_one_s": ("time", ["quadratic.QuadraticSpace.find_norm_one"]),
    "idempotents.scan_s": ("time", ["idempotents.enumerate_idempotents_bruteforce"]),
    "idempotents.classify_s": ("time", ["idempotents.classify_idempotent"]),
    "two_gen.axet_s": ("time", ["two_gen.axet"]),
    "two_gen.rho_order_s": ("time", ["two_gen.rho_order"]),
}
SELF_LAYERS = ("linalg", "quadratic", "algebra", "idempotents", "axial", "two_gen", "cover", "cli")
COUNTERS = ("fields.scalars_created", "fields.coercions", "quadratic.norm_one_found",
            "idempotents.vectors_scanned", "two_gen.axes_found")
METRIC_UNITS = {
    **{name: ("count" if kind == "calls" else "s") for name, (kind, _) in SPAN_METRICS.items()},
    **{name: "count" for name in COUNTERS},
    "two_gen.reflections_applied": "count",
    "serialize.to_json_s": "s",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
}


# span name -> (counter, amount added after each call, from its arguments and result)
HOOKS = {
    "quadratic.QuadraticSpace.find_norm_one": (
        "quadratic.norm_one_found", lambda args, result: len(result.vectors)),
    "idempotents.enumerate_idempotents_bruteforce": (
        "idempotents.vectors_scanned", lambda args, result: args[0].field.p ** args[0].dim),
    "two_gen.axet": ("two_gen.axes_found", lambda args, result: result.size.order or 0),
}

OUTERMOST_NAME, OUTERMOST_LAYER, UNDER_AXET = 1, 2, 4


class Tracer:
    """Wraps splitspin in place; meant for a process of its own."""

    def __init__(self):
        self.job = 0
        self.names: list[str] = []
        self.layers: list[str] = []
        self.depth: list[int] = []  # open spans per name id
        self.layer_depth = dict.fromkeys(LAYER_OF.values(), 0)
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.jobs = array.array("i")
        self.flags = array.array("B")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.axet_id = -1

    def install(self) -> None:
        import splitspin
        from splitspin import fields

        modules = {name: sys.modules[f"splitspin.{name}"] for name in LAYER_OF}
        wrapped = {}
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if _defined_in(value, module):
                    wrapped[value] = self._span_wrapper(f"{mod_name}.{attr}", LAYER_OF[mod_name], value)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(value, mod_name, module)
        # rebind every name that refers to a wrapped function, in every module
        for module in [splitspin, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        self.axet_id = self.names.index("two_gen.axet")
        self._count(fields.Scalar, "__init__", "fields.scalars_created")
        self._count(fields.Field, "scalar", "fields.coercions")

    def _wrap_class(self, cls, mod_name, module) -> None:
        layer = LAYER_OF[mod_name]
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{mod_name}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                if _defined_in(value.__func__, module):
                    setattr(cls, attr, type(value)(self._span_wrapper(name, layer, value.__func__)))
            elif _defined_in(value, module):
                setattr(cls, attr, self._span_wrapper(name, layer, value))

    def _span_wrapper(self, name, layer, func):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.depth.append(0)
        starts, ends, name_ids, parents, jobs, flags, stack, depth, layer_depth, counts = (
            self.starts, self.ends, self.name_ids, self.parents, self.jobs, self.flags,
            self.stack, self.depth, self.layer_depth, self.counts)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(name_id)
            jobs.append(tracer.job)
            flags.append((depth[name_id] == 0) * OUTERMOST_NAME
                         | (layer_depth[layer] == 0) * OUTERMOST_LAYER
                         | (depth[tracer.axet_id] > 0) * UNDER_AXET)
            ends.append(0.0)
            depth[name_id] += 1
            layer_depth[layer] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[name_id] -= 1
                layer_depth[layer] -= 1
            if hook is not None:
                counts[hook[0]] += hook[1](args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def _count(self, cls, attr, counter) -> None:
        inner = cls.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return inner(*args, **kwargs)

        setattr(cls, attr, counted)

    # -- extraction --------------------------------------------------------------

    def _self_times(self) -> array.array:
        """Span duration minus the durations of its direct children."""
        own = array.array("d", (e - s for s, e in zip(self.starts, self.ends)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def layer_metrics(self) -> dict:
        ids = {name: i for i, name in enumerate(self.names)}
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)  # outermost calls of each name only
        layer_total = dict.fromkeys(self.layer_depth, 0.0)  # outermost calls within a layer
        reflections = 0
        apply_id = ids["linalg.Matrix.apply"]
        for nid, flag, start, end in zip(self.name_ids, self.flags, self.starts, self.ends):
            calls[nid] += 1
            if flag & OUTERMOST_NAME:
                inclusive[nid] += end - start
            if flag & OUTERMOST_LAYER:
                layer_total[self.layers[nid]] += end - start
            if nid == apply_id and flag & UNDER_AXET:
                reflections += 1
        metrics = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            source = calls if kind == "calls" else inclusive
            metrics[metric] = sum(source[ids[name]] for name in names)
        metrics["two_gen.reflections_applied"] = reflections
        metrics["serialize.to_json_s"] = layer_total["serialize"]
        self_by_layer = dict.fromkeys(self.layer_depth, 0.0)
        for nid, own in zip(self.name_ids, self._self_times()):
            self_by_layer[self.layers[nid]] += own
        for layer in SELF_LAYERS:
            metrics[f"{layer}.self_s"] = self_by_layer[layer]
        metrics.update(self.counts)
        return metrics

    def write(self, path: str, workload: str, seed: int, round_no: int) -> None:
        """Spans as flat columns in <path>.bin, described by <path>.json
        together with the call count and self time of every span name."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        per_name = {}
        for nid, own in zip(self.name_ids, self._self_times()):
            entry = per_name.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        columns = [("start", self.starts), ("end", self.ends), ("name", self.name_ids),
                   ("parent", self.parents), ("job", self.jobs)]
        with open(path + ".bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "workload": workload, "seed": seed, "round": round_no, "spans": len(self.starts),
            "names": self.names, "layers": self.layers, "byteorder": sys.byteorder,
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "per_name": {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(per_name.items())},
            "counters": self.counts,
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)


def _defined_in(value, module) -> bool:
    code = getattr(value, "__code__", None)
    return code is not None and code.co_filename == module.__file__
