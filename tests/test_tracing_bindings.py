"""The traced benchmark wraps named functions at their module bindings and
reads the reduction's size fields; deleting or renaming any of them breaks
``perfbench/run.py --trace 1``.  This reads ``perfbench/tracing.py`` as
text, so nothing under ``perfbench/`` is imported or written."""

import ast
import importlib
from pathlib import Path

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
    ex = ExpandedInstance(star_vertices=1, hat_vertices=3, hat_edges=4)
    assert (ex.star_vertices, ex.hat_vertices, ex.hat_edges) == (1, 3, 4)
