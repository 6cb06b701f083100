"""End-to-end cross-check of ``solve`` against a 0/1 cover ILP.

Brute force stops at n <= 9; this test reaches n = 50..150.  The
complement of a t-matching avoiding the forbidden subgraphs is an edge
set that takes at least one edge at every degree-(t+1) vertex and at
least one edge of every forbidden subgraph, so the optimum t-matching
weighs the total weight minus a minimum-weight such cover.  The ILP is
solved by ``scipy.optimize.milp`` (HiGHS) and takes the detected
records as given; criterion 2 checks detection against brute force.

Instances: ``random_bounded`` with edge probability 0.02-0.1 plus 1-4
planted structures of each acceptance configuration, 10 seeds per
configuration, each solved unweighted and with vertex-induced weights.
Time budget: 20 s for the 100 solves and their ILPs.
"""

import random
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from tmatch import Graph, solve
from tmatch.detect import find_all_forbidden
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)

from .conftest import cross_pairs
from .test_acceptance import CONFIGS

SEEDS = 10
BUDGET_S = 20.0


def _cover_ilp(g: Graph, pair_sets: list[list[tuple[int, int]]]) -> int:
    """Minimum doubled weight of an edge set that meets every
    degree-(t+1) vertex and every given forbidden edge set."""
    rows = [[eid for (_, eid) in g.adj[v]] for v in range(g.n) if g.degree(v) == g.t + 1]
    rows += [[g.edge_id(a, b) for (a, b) in pairs] for pairs in pair_sets]
    if not rows:
        return 0
    a = lil_matrix((len(rows), g.m))
    for i, row in enumerate(rows):
        for e in row:
            a[i, e] = 1
    res = milp(
        np.array([w for (_, _, w) in g.edges], dtype=float),
        constraints=LinearConstraint(a.tocsr(), lb=1, ub=np.inf),
        integrality=np.ones(g.m),
        bounds=Bounds(0, 1),
    )
    assert res.success, res.message
    return round(res.fun)


def _instance(cfg_idx: int, seed: int) -> Graph:
    (_, t, variant, plant_kind) = CONFIGS[cfg_idx]
    rng = random.Random(70_000 + 1009 * cfg_idx + seed)
    base = random_bounded(rng.randint(40, 110), t, rng.uniform(0.02, 0.1), seed)
    p = variant.p if variant.kind == "kpq" else 0
    q = variant.q if variant.kind == "kpq" else 0
    return plant_forbidden(base, plant_kind, rng.randint(1, 4), seed, p=p, q=q)


def test_solve_against_cover_ilp():
    t0 = time.time()
    checked = 0
    for cfg_idx, (name, t, variant, _) in enumerate(CONFIGS):
        for seed in range(SEEDS):
            g0 = _instance(cfg_idx, seed)
            records, _, _ = find_all_forbidden(g0, variant)
            weights = vertex_induced_weights(g0, records, (-1, 6), (0, 7), seed)
            for g in (g0, reweighted(g0, weights)):
                pair_sets = [cross_pairs(r) for r in records]
                want = g.total_weight_doubled() - _cover_ilp(g, pair_sets)
                res = solve(g, variant)
                where = f"{name} seed {seed} n={g.n} unweighted={g.unweighted}"
                assert res.weight_doubled == want, where

                chosen = set(res.tmatching)
                assert len(chosen) == len(res.tmatching), where
                assert sum(g.edges[e][2] for e in chosen) == want, where
                deg = [0] * g.n
                for e in chosen:
                    (u, v, _) = g.edges[e]
                    deg[u] += 1
                    deg[v] += 1
                assert max(deg) <= t, where
                for pairs in pair_sets:
                    assert not all(g.edge_id(a, b) in chosen for (a, b) in pairs), where
                checked += 1
    elapsed = time.time() - t0
    assert checked == 2 * SEEDS * len(CONFIGS)
    assert elapsed < BUDGET_S, f"ILP cross-check took {elapsed:.1f}s, budget {BUDGET_S}s"
