"""Seeded instance generators for tests and benchmarks.

All randomness flows through ``random.Random`` (Mersenne Twister), so a
seed reproduces the same instance on every platform and Python build.
"""

from __future__ import annotations

import itertools
import random

from .detect import ForbiddenSubgraph
from .errors import InputFormatError
from .graph import Graph


# Up to this many vertices, random_bounded lists every vertex pair; past
# it, that list alone would take gigabytes.
EXHAUSTIVE_MAX_N = 4000


def random_bounded(n: int, t: int, edge_prob: float, seed: int) -> Graph:
    """Random simple graph on n vertices with all degrees at most t+1.

    Up to ``EXHAUSTIVE_MAX_N`` vertices, candidate pairs are visited in a
    seed-shuffled order and added with probability ``edge_prob`` while
    both endpoints have room.  Larger graphs come from a sampler with its
    own stream, of O(n t) time and memory: each vertex gets t+1 slots,
    the slots are shuffled and paired in order, and the first
    ``edge_prob`` times n(n-1)/2 pairs, as far as the slots last, become
    edges, less loops and repeats.  A vertex is in at most t+1 pairs, so
    the degree cap holds.
    """
    rng = random.Random(seed)
    if n > EXHAUSTIVE_MAX_N:
        slots = [v for v in range(n) for _ in range(t + 1)]
        rng.shuffle(slots)
        draws = min(round(edge_prob * (n * (n - 1) // 2)), len(slots) // 2)
        pairs = (sorted(slots[2 * i:2 * i + 2]) for i in range(draws))
        edges = dict.fromkeys((u, v, 1) for (u, v) in pairs if u != v)
        return Graph(n, list(edges), t)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for (u, v) in pairs:
        if deg[u] <= t and deg[v] <= t and rng.random() < edge_prob:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v, 1))
    return Graph(n, edges, t)


def plant_forbidden(
    g: Graph,
    kind: str,
    count: int,
    seed: int,
    *,
    p: int = 0,
    q: int = 0,
) -> Graph:
    """Append ``count`` fresh forbidden structures to a graph.

    Supported kinds: ``clique``/``biclique``/``partite`` (vertex-disjoint
    copies), ``clique_pair``/``biclique_pair``/``partite_pair``
    (two overlapping copies sharing the structure-specific vertex set),
    and ``dense`` (a partite block whose classes all induce edges, i.e. a
    complete graph on 2p vertices).  New vertices are appended; existing
    edges are untouched.  A negative ``count`` is rejected.
    """
    if count < 0:
        raise InputFormatError(f"plant count {count} is negative")
    t = g.t
    # g.edges store doubled weights; copy back in input units.
    edges = [(u, v, w // 2) for (u, v, w) in g.edges]
    n = g.n
    rng = random.Random(seed)

    def fresh(k: int) -> list[int]:
        # Fresh vertex ids in seed-shuffled order, so different seeds give
        # differently-labelled (but isomorphic) plants.
        nonlocal n
        out = list(range(n, n + k))
        rng.shuffle(out)
        n += k
        return out

    for _ in range(count):
        if kind == "clique":
            vs = fresh(t + 1)
            new = [(a, b) for (a, b) in itertools.combinations(vs, 2)]
        elif kind == "clique_pair":
            # Two cliques sharing all but one vertex each.
            vs = fresh(t + 2)
            shared, u1, u2 = vs[:t], vs[t], vs[t + 1]
            new = [(a, b) for (a, b) in itertools.combinations(shared, 2)]
            new += [(u1, s) for s in shared]
            new += [(u2, s) for s in shared]
        elif kind == "biclique":
            vs = fresh(2 * t)
            new = _pairs_between(vs[:t], vs[t:])
        elif kind == "biclique_pair":
            # Shared (t-1)+(t-1) block, plus one private vertex per side per copy.
            a = fresh(t - 1)
            b = fresh(t - 1)
            a1, b1, a2, b2 = fresh(4)
            new = _pairs_between(a, b)
            new += _pairs_between([a1], b + [b1]) + _pairs_between(a, [b1])
            new += _pairs_between([a2], b + [b2]) + _pairs_between(a, [b2])
        elif kind == "partite":
            if p < 3 or q < 2 or (p - 1) * q != t:
                raise InputFormatError("partite planting needs p>=3, q>=2, (p-1)q=t")
            vs = fresh(p * q)
            classes = [vs[i * q:(i + 1) * q] for i in range(p)]
            new = []
            for i, ci in enumerate(classes):
                for cj in classes[i + 1:]:
                    new += _pairs_between(ci, cj)
        elif kind == "partite_pair":
            if p < 3 or q < 2 or (p - 1) * q != t:
                raise InputFormatError("partite planting needs p>=3, q>=2, (p-1)q=t")
            vs = fresh(p * q + 1)
            classes = [vs[i * q:(i + 1) * q] for i in range(p - 1)]
            tail = vs[(p - 1) * q:]
            # Last class has q+1 candidates: dropping either extreme yields
            # a copy, so two overlapping subgraphs share all other classes.
            new = []
            for i, ci in enumerate(classes):
                for cj in classes[i + 1:]:
                    new += _pairs_between(ci, cj)
                new += _pairs_between(ci, tail)
        elif kind == "dense":
            if p < 3 or (p - 1) * 2 != t:
                raise InputFormatError("dense planting needs q=2 and (p-1)*2=t")
            vs = fresh(2 * p)
            new = [(a, b) for (a, b) in itertools.combinations(vs, 2)]
        else:
            raise InputFormatError(f"unknown planting kind {kind!r}")
        edges.extend((u, v, 1) for (u, v) in new)
    return Graph(n, edges, t)


def _pairs_between(xs, ys) -> list[tuple[int, int]]:
    return [(x, y) for x in xs for y in ys]


def vertex_induced_weights(
    g: Graph,
    forbidden: list[ForbiddenSubgraph],
    potential_range: tuple[int, int],
    noise_range: tuple[int, int],
    seed: int,
    *,
    max_tries: int = 200,
) -> list[int]:
    """Integer weights that are vertex-induced on every forbidden subgraph.

    Vertices of forbidden subgraphs draw a shared potential from
    ``potential_range``; edges inside forbidden subgraphs weigh the sum of
    endpoint potentials (consistent across overlaps by construction), all
    other edges draw independently from ``noise_range``.  Re-draws until
    every weight is non-negative.  A range whose low end exceeds its high
    end is rejected.
    """
    for (name, (lo, hi)) in (("potential", potential_range), ("noise", noise_range)):
        if lo > hi:
            raise InputFormatError(f"empty {name} range [{lo}, {hi}]")
    rng = random.Random(seed)
    in_forbidden: set[int] = set()
    forb_edges: set[int] = set()
    for r in forbidden:
        in_forbidden.update(r.vertices)
        forb_edges.update(r.edge_ids)
    for _ in range(max_tries):
        pot = {v: rng.randint(*potential_range) for v in sorted(in_forbidden)}
        weights = []
        ok = True
        for eid, (u, v, _) in enumerate(g.edges):
            if eid in forb_edges:
                w = pot[u] + pot[v]
            else:
                w = rng.randint(*noise_range)
            if w < 0:
                ok = False
                break
            weights.append(w)
        if ok:
            return weights
    raise InputFormatError(
        "could not draw non-negative vertex-induced weights; widen the ranges"
    )


def reweighted(g: Graph, weights: list[int]) -> Graph:
    """Copy of g with new input-unit weights."""
    edges = [(u, v, w) for ((u, v, _), w) in zip(g.edges, weights)]
    return Graph(g.n, edges, g.t)
