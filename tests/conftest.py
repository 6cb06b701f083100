import itertools

import pytest

from tmatch.graph import Graph


def complete_graph(n: int, t: int, weight: int = 1) -> Graph:
    edges = [(u, v, weight) for (u, v) in itertools.combinations(range(n), 2)]
    return Graph(n, edges, t)


def complete_bipartite(a: int, b: int, t: int, weight: int = 1) -> Graph:
    edges = [(i, a + j, weight) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, t)


def octahedron(weight: int = 1) -> Graph:
    skip = {(0, 1), (2, 3), (4, 5)}
    edges = [
        (u, v, weight)
        for (u, v) in itertools.combinations(range(6), 2)
        if (u, v) not in skip
    ]
    return Graph(6, edges, 4)


def cross_pairs(r):
    """The vertex pairs of a non-dense record's edge set, derived from its
    vertices and classes alone: every pair of a clique, and otherwise the
    pairs joining two classes.  Tests hold detection's edge ids to it."""
    if not r.classes:
        return list(itertools.combinations(r.vertices, 2))
    return [
        (min(u, v), max(u, v))
        for (i, ci) in enumerate(r.classes)
        for cj in r.classes[i + 1:]
        for u in ci
        for v in cj
    ]


@pytest.fixture
def k4():
    return complete_graph(4, 3)


@pytest.fixture
def k33():
    return complete_bipartite(3, 3, 3)
