import itertools
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from tmatch.errors import InfeasibleError, InstanceTooLargeError
from tmatch.graph import CapacityVector, Graph, MultiGraph

# Every property test draws the same examples on every run, keeps no
# example database, and has no per-example deadline, which a loaded
# machine would trip.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=1000
)
settings.load_profile("deterministic")

# Even without a database, Hypothesis caches the constants it reads from
# local source files when tests are collected; keep that cache in a
# temporary directory, removed at exit.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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


def brute_force_lb(
    mg: MultiGraph, cap: CapacityVector, weights: list[int]
) -> tuple[int, int, int]:
    """Exhaustive (l,b)-matching optima on a multigraph.

    Returns (minimum weight, edge count of the lexicographically minimal
    (weight, count) solution, minimum cardinality over all solutions).
    Raises InfeasibleError when no feasible subset exists.
    """
    if mg.m > 22:
        raise InstanceTooLargeError("matching enumeration gated at 22 edges")
    lower, upper = list(cap.lower), list(cap.upper)
    n, m = mg.n, mg.m
    incident_after = [[0] * (m + 1) for _ in range(n)]
    for v in range(n):
        for i in range(m - 1, -1, -1):
            incident_after[v][i] = incident_after[v][i + 1] + (1 if v in mg.edges[i][:2] else 0)

    best: tuple[int, int] | None = None
    best_card: int | None = None
    deg = [0] * n

    def feasible_tail(i: int) -> bool:
        # Every vertex must still be able to reach its lower bound.
        for v in range(n):
            if deg[v] + incident_after[v][i] < lower[v]:
                return False
        return True

    def rec(i: int, w: int, k: int) -> None:
        nonlocal best, best_card
        if not feasible_tail(i):
            return
        if i == m:
            if all(lower[v] <= deg[v] <= upper[v] for v in range(n)):
                cand = (w, k)
                if best is None or cand < best:
                    best = cand
                if best_card is None or k < best_card:
                    best_card = k
            return
        (u, v, _) = mg.edges[i]
        rec(i + 1, w, k)
        if deg[u] < upper[u] and deg[v] < upper[v]:
            deg[u] += 1
            deg[v] += 1
            rec(i + 1, w + weights[i], k + 1)
            deg[u] -= 1
            deg[v] -= 1

    rec(0, 0, 0)
    if best is None or best_card is None:
        raise InfeasibleError("no feasible degree-interval subset exists")
    return best[0], best[1], best_card
