"""Shared pieces of the benchmark: workload names, the instance file
format, and the operation each workload times.

The instance file is plain JSON written by ``generate.py`` and read by
``measure.py`` and ``check.py``, so the measuring process receives only
the generated inputs.  An instance is one or more graphs plus metadata;
one operation makes the workload's library call on each of its graphs.
Edge weights are stored in input units.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("acceptance-mix", "scale-weighted", "scale-unweighted", "detect-scale")
DETECT = "detect-scale"


def graph_to_json(g, variant) -> dict:
    return {
        "n": g.n,
        "t": g.t,
        "variant": [variant.kind, variant.p, variant.q],
        "edges": [[u, v, w // 2] for (u, v, w) in g.edges],
    }


def graph_from_json(d: dict):
    from tmatch import Graph, Variant

    kind, p, q = d["variant"]
    variant = Variant.restricted() if kind == "restricted" else Variant.kpq(p, q)
    return Graph(d["n"], [tuple(e) for e in d["edges"]], d["t"]), variant


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj))
    tmp.replace(path)


def read_json(path: Path):
    return json.loads(path.read_text())


def operation(workload: str):
    """The library call one operation makes, and how its answer is
    reduced to a hashable canonical form for checking."""
    if workload == DETECT:
        from tmatch.pipeline import forbidden_records

        def answer(records) -> tuple:
            return tuple(
                (r.kind, r.vertices, r.classes, r.core, r.member_ids, r.id)
                for r in records
            )

        return forbidden_records, answer

    from tmatch import solve

    def answer(result) -> tuple:
        return (result.weight_doubled, tuple(result.tmatching))

    return solve, answer
