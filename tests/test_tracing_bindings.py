"""The traced benchmark wraps named functions at their module bindings and
reads the reduction's size fields; deleting or renaming any of them breaks
``perfbench/run.py --trace 1``.  This reads ``perfbench/tracing.py`` as
text, so nothing under ``perfbench/`` is imported or written."""

import ast
import importlib
from pathlib import Path

import tmatch.lb
from tmatch import Graph, Variant, solve
from tmatch.lb import ExpandedInstance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED list in {TRACING}")


def test_traced_bindings_exist():
    wrapped = _wrapped()
    assert wrapped
    missing = [
        (mod, attr)
        for (_, mod, attr) in wrapped
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing


def test_traced_expansion_fields_exist():
    ex = ExpandedInstance(star_vertices=1, hat_vertices=3, hat_edges=4, engine_calls=1)
    assert (ex.star_vertices, ex.hat_vertices, ex.hat_edges) == (1, 3, 4)


def test_engine_binding_call_shape(monkeypatch):
    # The engine's size hook reads the edge list as the second positional
    # argument and the mate as the first result, at the tmatch.lb binding.
    # Two disjoint weighted K4s are two components: two engine calls.
    seen = []
    real = tmatch.lb.maximum_weight_perfect_matching

    def engine(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append((args, res))
        return res

    monkeypatch.setattr(tmatch.lb, "maximum_weight_perfect_matching", engine)
    pot = [1, 2, 3, 1, 2, 2, 1, 3]
    pairs = [(b + u, b + v) for b in (0, 4) for u in range(4) for v in range(u + 1, 4)]
    res = solve(Graph(8, [(u, v, pot[u] + pot[v]) for (u, v) in pairs], 3), Variant.restricted())
    assert len(seen) == res.stats["engine_calls"] == 2
    for (args, out) in seen:
        assert len(args) >= 2
        (n, edges) = args[:2]
        assert isinstance(edges, list) and all(len(e) == 3 for e in edges)
        mate = out[0]
        assert isinstance(mate, list) and len(mate) == n
