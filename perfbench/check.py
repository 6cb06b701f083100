"""Answer checks, run in their own process after the timed loop.

* acceptance-mix: the weight equals ``oracle.brute_force_optimum``.
* scale-*: the weight equals the optimum of an independent 0/1 cover
  ILP solved by ``scipy.optimize.milp``: minimise the complement's
  weight such that every degree-(t+1) vertex and every detected forbidden
  subgraph loses an edge.  It trusts detection, which Tier-1 criterion 2
  checks against brute force.
* every solve: the returned edge set is a t-matching of the stated
  weight that contains no forbidden subgraph whole.
* detect-scale: every record is a real subgraph of the graph with the
  variant's shape, and every planted structure is found (brute force on
  each planted block, which shares no edge with the rest of the graph).

    python3 perfbench/check.py --instances FILE --results FILE --out FILE
"""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path

from common import DETECT, graph_from_json, read_json, write_json
from tmatch import Graph
from tmatch.detect import find_all_forbidden
from tmatch.oracle import brute_force_optimum, brute_force_subgraphs


def _pairs(kind: str, vertices, classes) -> list[tuple[int, int]]:
    if kind == "clique":
        return list(itertools.combinations(vertices, 2))
    return [(a, b) for ci, cj in itertools.combinations(classes, 2) for a in ci for b in cj]


def _check_tmatching(g: Graph, subgraphs, weight_doubled: int, tmatching) -> str:
    chosen = set(tmatching)
    if len(chosen) != len(tmatching) or not all(0 <= e < g.m for e in chosen):
        return "edge ids repeated or out of range"
    deg = [0] * g.n
    for e in chosen:
        (u, v, _) = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    if max(deg, default=0) > g.t:
        return "a vertex keeps more than t edges"
    if sum(g.edges[e][2] for e in chosen) != weight_doubled:
        return "stated weight differs from the edge set's weight"
    for (kind, vertices, classes) in subgraphs:
        if all(g.edge_id(a, b) in chosen for (a, b) in _pairs(kind, vertices, classes)):
            return f"forbidden {kind} on {vertices} kept whole"
    return ""


def _cover_ilp_optimum(g: Graph, subgraphs) -> int:
    """Minimum doubled weight of an edge set meeting every cover row."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    rows = [[eid for (_, eid) in g.adj[v]] for v in range(g.n) if g.degree(v) == g.t + 1]
    rows += [
        [g.edge_id(a, b) for (a, b) in _pairs(kind, vertices, classes)]
        for (kind, vertices, classes) in subgraphs
    ]
    if not rows:
        return 0
    a = lil_matrix((len(rows), g.m))
    for i, row in enumerate(rows):
        for e in row:
            a[i, e] = 1
    c = np.array([w for (_, _, w) in g.edges], dtype=float)
    res = milp(
        c,
        constraints=LinearConstraint(a.tocsr(), lb=1, ub=np.inf),
        integrality=np.ones(g.m),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"cover ILP failed: {res.message}")
    return round(res.fun)


def _shapes(g: Graph, variant) -> dict[str, tuple[int, int]]:
    out = {}
    for (p, q) in variant.shapes(g.t):
        kind = "clique" if q == 1 else "biclique" if p == 2 else "partite"
        out[kind] = (p, q)
    return out


def _check_record(g: Graph, shapes, rec, by_id) -> str:
    kind, vertices, classes, core, member_ids, _ = rec
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices) or not all(0 <= v < g.n for v in vertices):
        return f"record on {vertices} has repeated or unknown vertices"
    if kind == "dense":
        members = [by_id.get(i) for i in member_ids]
        if "partite" not in shapes or shapes["partite"][1] != 2 or len(members) < 2:
            return f"dense record on {vertices} is not a cluster of K^p_2's"
        if any(m is None or m[0] != "partite" or tuple(m[1]) != vertices for m in members):
            return f"dense record on {vertices} has members off its vertex set"
        if not set(core) <= set(vertices):
            return f"dense record on {vertices} has core outside it"
        return ""
    if kind not in shapes:
        return f"record kind {kind} is not forbidden by the variant"
    (p, q) = shapes[kind]
    if kind == "clique":
        if len(vertices) != p or classes:
            return f"clique record on {vertices} has the wrong shape"
    else:
        flat = [v for c in classes for v in c]
        if len(classes) != p or any(len(c) != q for c in classes) or sorted(flat) != sorted(vertices):
            return f"{kind} record on {vertices} has the wrong classes"
    if not all(g.has_edge(a, b) for (a, b) in _pairs(kind, vertices, classes)):
        return f"{kind} record on {vertices} misses an edge of the graph"
    return ""


def _check_planted(g: Graph, variant, shape: str, block, found_keys, dense_sets) -> str:
    lo, hi = block
    edges = [(u - lo, v - lo, 1) for (u, v, _) in g.edges if lo <= u < hi and lo <= v < hi]
    plant = Graph(hi - lo, edges, g.t)
    for (kind, vertices, classes) in brute_force_subgraphs(plant, variant):
        key = (
            kind,
            tuple(v + lo for v in vertices),
            tuple(tuple(v + lo for v in c) for c in classes),
        )
        if key not in found_keys:
            return f"planted {kind} on {key[1]} not reported"
    if shape == "dense" and tuple(range(lo, hi)) not in dense_sets:
        return f"planted dense cluster on {lo}..{hi - 1} not reported"
    return ""


def check_detect(g: Graph, variant, meta: dict, records) -> str:
    shapes = _shapes(g, variant)
    by_id = {rec[5]: rec for rec in records}
    for rec in records:
        why = _check_record(g, shapes, rec, by_id)
        if why:
            return why
    keys = [(k, tuple(vs), tuple(tuple(c) for c in cs)) for (k, vs, cs, *_rest) in records]
    if len(set(keys)) != len(keys):
        return "a record is reported twice"
    found = set(keys)
    dense_sets = {tuple(rec[1]) for rec in records if rec[0] == "dense"}
    for block in meta["planted"]:
        why = _check_planted(g, variant, meta["shape"], block, found, dense_sets)
        if why:
            return why
    return ""


def check_solve(g: Graph, variant, workload: str, answer) -> str:
    weight_doubled, tmatching = answer
    if workload == "acceptance-mix":
        subgraphs = brute_force_subgraphs(g, variant)
        want = brute_force_optimum(g, variant)[0]
    else:
        records, _, _ = find_all_forbidden(g, variant)
        subgraphs = [r.key() for r in records]
        want = sum(w for (_, _, w) in g.edges) - _cover_ilp_optimum(g, subgraphs)
    if weight_doubled != want:
        return f"weight {weight_doubled} != optimum {want} (doubled units)"
    return _check_tmatching(g, subgraphs, weight_doubled, tmatching)


def check(data: dict, result: dict) -> dict:
    """Verdict on every operation of a run: attempted, failed, and the
    first few reasons."""
    workload = data["workload"]
    instances = data["instances"]
    verdicts = []
    for (k, answers) in result["answers"]:
        why = ""
        for d, answer in zip(instances[k]["graphs"], answers):
            g, variant = graph_from_json(d)
            if workload == DETECT:
                why = why or check_detect(g, variant, instances[k]["meta"], answer)
            else:
                why = why or check_solve(g, variant, workload, answer)
        verdicts.append(why)
    failed = 0
    reasons = []
    for (k, idx, error) in result["ops"]:
        why = error or verdicts[idx]
        if why:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"instance {k}: {why.strip().splitlines()[-1]}")
    return {"attempted": len(result["ops"]), "failed": failed, "reasons": reasons}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", required=True)
    ap.add_argument("--results", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    verdict = check(read_json(Path(args.instances)), read_json(Path(args.results)))
    write_json(Path(args.out), verdict)


if __name__ == "__main__":
    main()
