"""Outside-in layer trace of the solve pipeline.

Each layer is timed by wrapping a public function at the module binding
through which the pipeline calls it, so no program code changes.  A span
is (name, start, end, parent span, operation id); spans stay in memory
until the run ends.  Sizes are read from the wrapped functions' return
values (and, for the engine, its edge-list argument).
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (span name, module holding the binding the pipeline calls, attribute)
WRAPPED = [
    ("pipeline.validate_instance", "tmatch.pipeline", "validate_instance"),
    ("detect.find_all_forbidden", "tmatch.detect", "find_all_forbidden"),
    ("detect.find_dense", "tmatch.detect", "find_dense"),
    ("detect.classify_problematic", "tmatch.detect", "classify_problematic"),
    ("potentials.extract_potential", "tmatch.pipeline", "extract_potential"),
    ("potentials.unit_potentials", "tmatch.pipeline", "unit_potentials"),
    ("gadgets.build_auxiliary", "tmatch.pipeline", "build_auxiliary"),
    ("lb.solve_min_weight_lb", "tmatch.lb", "solve_min_weight_lb"),
    ("lb.solve_min_cardinality_capped", "tmatch.lb", "solve_min_cardinality_capped"),
    ("lb.solve_lb", "tmatch.lb", "solve_lb"),
    ("lb.greedy_feasible", "tmatch.lb", "greedy_feasible"),
    ("blossom.maximum_weight_perfect_matching", "tmatch.lb", "maximum_weight_perfect_matching"),
    ("blossom.verify_optimum", "tmatch.blossom", "verify_optimum"),
    ("recover.matching_to_cotmatching", "tmatch.recover", "matching_to_cotmatching"),
    ("recover.cover_unproblematic", "tmatch.recover", "cover_unproblematic"),
    ("recover.finalize", "tmatch.recover", "finalize"),
    ("recover.verify_solution", "tmatch.recover", "verify_solution"),
]
SPAN_NAMES = [name for (name, _, _) in WRAPPED]
LAYERS = ["pipeline", "detect", "potentials", "gadgets", "lb", "blossom", "recover"]
GADGET_KINDS = ["clique", "biclique", "partite", "dense"]


def _detect_sizes(res, args):
    records, _, stats = res
    return {"detect.probe_ops": stats.probe_ops, "detect.records": len(records)}


def _gadget_sizes(aux, args):
    sizes = {"gadgets.aux_vertices": aux.graph.n, "gadgets.aux_edges": aux.graph.m}
    for kind in GADGET_KINDS:
        sizes[f"gadgets.{kind}"] = sum(1 for info in aux.gadgets if info.kind == kind)
    return sizes


def _lb_sizes(res, args):
    ex = res.expanded
    return {
        "lb.star_vertices": ex.star_vertices,
        "lb.hat_vertices": ex.hat_vertices,
        "lb.hat_edges": ex.hat_edges,
    }


def _engine_sizes(res, args):
    mate = res[0]
    return {"blossom.vertices": len(mate), "blossom.edges": len(args[1])}


def _repairs(result, args):
    fired = [d for d in result.diagnostics if d.get("rule") != "cardinality-track"]
    return {"recover.repairs": len(fired)}


SIZE_HOOKS = {
    "detect.find_all_forbidden": _detect_sizes,
    "gadgets.build_auxiliary": _gadget_sizes,
    "lb.solve_lb": _lb_sizes,
    "blossom.maximum_weight_perfect_matching": _engine_sizes,
    "recover.finalize": _repairs,
}
# Each size, and the span whose calls it is averaged over.
SIZE_SOURCE = {
    "detect.probe_ops": "detect.find_all_forbidden",
    "detect.records": "detect.find_all_forbidden",
    "gadgets.aux_vertices": "gadgets.build_auxiliary",
    "gadgets.aux_edges": "gadgets.build_auxiliary",
    **{f"gadgets.{kind}": "gadgets.build_auxiliary" for kind in GADGET_KINDS},
    "lb.star_vertices": "lb.solve_lb",
    "lb.hat_vertices": "lb.solve_lb",
    "lb.hat_edges": "lb.solve_lb",
    "blossom.vertices": "blossom.maximum_weight_perfect_matching",
    "blossom.edges": "blossom.maximum_weight_perfect_matching",
    "recover.repairs": "recover.finalize",
}


class Tracer:
    """Collects spans and sizes while installed; restores every binding
    on exit."""

    def __init__(self):
        self.spans: list = []  # (name index, start, end, parent index, op id)
        self.sizes: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, idx: int, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        hook = SIZE_HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, self.op)
            if hook is not None:
                for key, value in hook(res, args).items():
                    sizes[key] += value
            return res

        return traced

    def __enter__(self):
        for idx, (name, module, attr) in enumerate(WRAPPED):
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(idx, name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def metrics(self, op_bounds: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the ops whose (start, end) are given."""
        ops = max(1, len(op_bounds))
        busy = sum(t1 - t0 for (t0, t1) in op_bounds)
        child = defaultdict(float)
        for (_, t0, t1, parent, _) in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = [0.0] * len(WRAPPED)
        calls = [0] * len(WRAPPED)
        top = 0.0
        for i, (idx, t0, t1, parent, _) in enumerate(self.spans):
            self_s[idx] += (t1 - t0) - child[i]
            calls[idx] += 1
            if parent < 0:
                top += t1 - t0
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(SPAN_NAMES):
            out[f"{name}.self_s"] = (self_s[idx] / ops, "s/op")
            out[f"{name}.calls"] = (calls[idx] / ops, "calls/op")
        for layer in LAYERS:
            layer_s = sum(
                self_s[idx] for idx, name in enumerate(SPAN_NAMES) if name.split(".")[0] == layer
            )
            out[f"share.{layer}"] = (100.0 * layer_s / busy if busy else 0.0, "%")
        for name, source in SIZE_SOURCE.items():
            source_calls = calls[SPAN_NAMES.index(source)]
            out[name] = (self.sizes[name] / source_calls if source_calls else 0.0, "count")
        aux = self.sizes["gadgets.aux_vertices"]
        probes = self.sizes["detect.probe_ops"]
        out["lb.expansion_factor"] = (self.sizes["lb.hat_vertices"] / aux if aux else 0.0, "ratio")
        out["detect.records_per_probe"] = (
            self.sizes["detect.records"] / probes if probes else 0.0, "ratio"
        )
        out["solve.unattributed_s"] = ((busy - top) / ops, "s/op")
        return out

    def dump(self, op_bounds: list[tuple[float, float]]) -> dict:
        """Spans and operations, in seconds from the first operation's start."""
        origin = op_bounds[0][0]
        return {
            "names": SPAN_NAMES,
            "spans": [
                [idx, t0 - origin, t1 - origin, parent, op]
                for (idx, t0, t1, parent, op) in self.spans
            ],
            "ops": [[t0 - origin, t1 - origin] for (t0, t1) in op_bounds],
        }
