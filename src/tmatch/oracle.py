"""Brute-force reference answers for small instances.

Everything here is deliberately independent of the solver modules: the
optimum is found by exhaustive search over the complement side (which
requirement-covering edge sets form a valid complement), forbidden
subgraphs by direct subset enumeration.  Test code freezes these values
as ground truth.
"""

from __future__ import annotations

import itertools

from .detect import BICLIQUE, CLIQUE, PARTITE
from .errors import InstanceTooLargeError
from .graph import Graph
from .variant import Variant

MAX_ORACLE_EDGES = 36
MAX_ORACLE_VERTICES = 14


def brute_force_subgraphs(g: Graph, variant: Variant) -> list[tuple]:
    """All forbidden subgraphs as (kind, vertices, classes) triples.

    Enumeration is exhaustive over vertex subsets (restricted to vertices
    of degree at least t, which any t-regular subgraph needs).  Candidate
    class partitions come from the non-adjacency components of the subset
    and every emitted subgraph is re-validated edge by edge.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise InstanceTooLargeError(f"subgraph enumeration gated at {MAX_ORACLE_VERTICES}")
    out = []
    eligible = [v for v in range(g.n) if g.degree(v) >= g.t]
    for (p, q) in variant.shapes(g.t):
        if q == 1:
            for vs in itertools.combinations(eligible, p):
                if all(g.has_edge(a, b) for (a, b) in itertools.combinations(vs, 2)):
                    out.append((CLIQUE, tuple(vs), ()))
            continue
        kind = BICLIQUE if p == 2 else PARTITE
        size = p * q
        for vs in itertools.combinations(eligible, size):
            for classes in _candidate_partitions(g, list(vs), p, q):
                if _cross_complete(g, classes):
                    canon = tuple(sorted(tuple(sorted(c)) for c in classes))
                    out.append((kind, tuple(vs), canon))
    return sorted(set(out))


def _nonadjacency_components(g: Graph, verts: list[int]) -> list[list[int]]:
    comp_id = {v: -1 for v in verts}
    comps = []
    for s in verts:
        if comp_id[s] >= 0:
            continue
        cid = len(comps)
        comp = [s]
        comp_id[s] = cid
        stack = [s]
        while stack:
            x = stack.pop()
            for y in verts:
                if comp_id[y] < 0 and y != x and not g.has_edge(x, y):
                    comp_id[y] = cid
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _pair_all(items: list[int]):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        for sub in _pair_all(items[1:i] + items[i + 1:]):
            yield [[a, items[i]]] + sub


def _candidate_partitions(g: Graph, verts: list[int], p: int, q: int):
    """Class partitions compatible with the non-adjacency pattern.

    Any same-class non-adjacent pair must stay together, so classes refine
    the non-adjacency components.  For classes of size two the mutually
    adjacent leftovers may pair freely; otherwise components are forced.
    """
    comps = _nonadjacency_components(g, verts)
    if q == 2:
        if any(len(c) > 2 for c in comps):
            return
        fixed = [c for c in comps if len(c) == 2]
        free = sorted(x for c in comps if len(c) == 1 for x in c)
        for pairing in _pair_all(free):
            yield fixed + pairing
        return
    if len(comps) == p and all(len(c) == q for c in comps):
        yield comps


def _cross_complete(g: Graph, classes) -> bool:
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            for a in classes[i]:
                for b in classes[j]:
                    if not g.has_edge(a, b):
                        return False
    return True


def _cover_requirements(g: Graph, variant: Variant):
    """Covering requirements on the complement side: each full-degree
    vertex needs an incident removed edge, each forbidden subgraph a
    removed edge of its own."""
    reqs: list[list[int]] = []
    for v in range(g.n):
        if g.degree(v) == g.t + 1:
            reqs.append(sorted(eid for (_, eid) in g.adj[v]))
    for (kind, vs, classes) in brute_force_subgraphs(g, variant):
        if kind == CLIQUE:
            pairs = itertools.combinations(vs, 2)
        else:
            pairs = (
                (a, b)
                for ci, cj in itertools.combinations(classes, 2)
                for a in ci
                for b in cj
            )
        reqs.append(sorted(g.edge_id(*pr) for pr in pairs))
    return reqs


def brute_force_optimum(g: Graph, variant: Variant) -> tuple[int, list[int], int]:
    """Exact maximum weight of a forbidden-subgraph-free t-matching.

    Returns (optimal weight doubled, witness edge ids, minimum covering
    complement weight doubled).  Search runs over the complement: the
    cheapest edge set meeting every coverage requirement.
    """
    if g.m > MAX_ORACLE_EDGES:
        raise InstanceTooLargeError(f"optimum enumeration gated at {MAX_ORACLE_EDGES} edges")
    reqs = _cover_requirements(g, variant)
    weights = [g.weight_doubled(e) for e in range(g.m)]
    best_w = sum(weights)
    best_set: set[int] = set(range(g.m))

    reqs.sort(key=len)

    def search(idx: int, chosen: set[int], banned: set[int], cur: int) -> None:
        nonlocal best_w, best_set
        if cur >= best_w and (cur > best_w or len(chosen) >= len(best_set)):
            return
        while idx < len(reqs) and any(e in chosen for e in reqs[idx]):
            idx += 1
        if idx == len(reqs):
            if (cur, len(chosen)) < (best_w, len(best_set)):
                best_w = cur
                best_set = set(chosen)
            return
        # Branch on which edge satisfies this requirement; banning the
        # already-tried ones makes each minimal cover appear once.
        cands = [e for e in reqs[idx] if e not in banned]
        for j, e in enumerate(cands):
            chosen.add(e)
            search(idx + 1, chosen, banned | set(cands[:j]), cur + weights[e])
            chosen.remove(e)

    search(0, set(), set(), 0)
    total = sum(weights)
    witness = sorted(set(range(g.m)) - best_set)
    return total - best_w, witness, best_w

