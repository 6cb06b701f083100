"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criteria 1/3/4 share one instance sweep (the
results are computed once and cached at module scope).
"""

import random
import time

import pytest

from tmatch import Graph, Variant, solve
from tmatch.blossom import MAX_ENGINE_VERTICES
from tmatch.cli import main as cli_main
from tmatch.detect import (
    BICLIQUE,
    CLIQUE,
    DENSE,
    find_all_forbidden,
    find_dense,
)
from tmatch.errors import InfeasibleError, InstanceTooLargeError
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)
from tmatch.graph import CapacityVector, MultiGraph
from tmatch.lb import solve_min_cardinality_lb, solve_min_weight_lb
from tmatch.oracle import brute_force_optimum, brute_force_subgraphs
from tmatch.pipeline import prepare
from tmatch.potentials import extract_potential

from .conftest import (
    brute_force_lb,
    complete_bipartite,
    complete_graph,
    cross_pairs,
    octahedron,
)

SEEDS = 500

CONFIGS = [
    ("t=3 restricted", 3, Variant.restricted(), "clique"),
    ("t=4 K^5_1", 4, Variant.kpq(5, 1), "clique"),
    ("t=3 K^2_3", 3, Variant.kpq(2, 3), "biclique"),
    ("t=4 K^3_2", 4, Variant.kpq(3, 2), "dense"),
    ("t=6 K^3_3", 6, Variant.kpq(3, 3), "partite"),
]


def _instance(cfg_idx: int, seed: int) -> Graph:
    """Deterministic instance mix: random bounded graphs with n <= 9,
    every fifth one a planted structure (dense clusters included for the
    q=2 configuration)."""
    (_, t, variant, plant_kind) = CONFIGS[cfg_idx]
    rng = random.Random(90_000 + 1009 * cfg_idx + seed)
    if seed % 5 == 0:
        base = random_bounded(rng.randint(0, 2), t, 0.5, seed)
        p = variant.p if variant.kind == "kpq" else 0
        q = variant.q if variant.kind == "kpq" else 0
        try:
            g = plant_forbidden(base, plant_kind, 1, seed, p=p, q=q)
            if g.n <= 9:
                return g
        except Exception:
            pass
    return random_bounded(rng.randint(4, 9), t, rng.uniform(0.25, 0.95), seed * 31 + cfg_idx)


def _weighted_copy(g: Graph, variant: Variant, seed: int) -> Graph:
    records, _, _ = find_all_forbidden(g, variant)
    lo = (0, -1, -2)[seed % 3]
    w = vertex_induced_weights(g, records, (lo, 6), (0, 7), seed + 7)
    return reweighted(g, w)


_SWEEP_CACHE: dict = {}


def _sweep():
    """Solve every criterion-1 instance once; cache shared results."""
    if _SWEEP_CACHE:
        return _SWEEP_CACHE
    rows = []
    t0 = time.time()
    for cfg_idx, (name, t, variant, _) in enumerate(CONFIGS):
        for seed in range(SEEDS):
            g0 = _instance(cfg_idx, seed)
            for weighted in (False, True):
                g = _weighted_copy(g0, variant, seed) if weighted else g0
                if g.m == 0:
                    continue
                res = solve(g, variant)
                opt, _, cover = brute_force_optimum(g, variant)
                rows.append(
                    {
                        "config": name,
                        "seed": seed,
                        "weighted": weighted,
                        "solver": res.weight_doubled,
                        "oracle": opt,
                        "aux": res.stats["aux_matching_weight_doubled"],
                        "cover": cover,
                        "diagnostics": res.diagnostics,
                        "graph": g,
                        "variant": variant,
                    }
                )
    _SWEEP_CACHE["rows"] = rows
    _SWEEP_CACHE["elapsed"] = time.time() - t0
    return _SWEEP_CACHE


def test_criterion_1_oracle_equivalence():
    data = _sweep()
    bad = [r for r in data["rows"] if r["solver"] != r["oracle"]]
    n = len(data["rows"])
    msg = (
        f"[criterion 1] {'PASS' if not bad else 'FAIL'} - end-to-end weight equals "
        f"brute force on {n - len(bad)}/{n} instances "
        f"({len(CONFIGS)} configs x {SEEDS} seeds, weighted+unweighted; "
        f"sweep {data['elapsed']:.1f}s)"
    )
    print(msg)
    assert not bad, msg + f"; first failure: {bad[0]['config']} seed {bad[0]['seed']}"
    assert data["elapsed"] < 300, f"sweep took {data['elapsed']:.1f}s, budget 300s"


def test_criterion_2_detection_equivalence():
    checked = 0
    bad = 0
    t0 = time.time()
    for cfg_idx, (name, t, variant, plant_kind) in enumerate(CONFIGS):
        for seed in range(SEEDS):
            rng = random.Random(55_000 + 401 * cfg_idx + seed)
            if seed % 7 == 0:
                p = variant.p if variant.kind == "kpq" else 0
                q = variant.q if variant.kind == "kpq" else 0
                try:
                    g = plant_forbidden(
                        random_bounded(rng.randint(0, 3), t, 0.5, seed),
                        plant_kind, 1, seed, p=p, q=q,
                    )
                except Exception:
                    g = random_bounded(rng.randint(3, 12), t, rng.uniform(0.3, 0.95), seed)
            else:
                g = random_bounded(rng.randint(3, 12), t, rng.uniform(0.3, 0.95), seed)
            if g.n > 14:
                g = random_bounded(12, t, 0.8, seed)
            records, inter, _ = find_all_forbidden(g, variant)
            got = sorted(r.key() for r in records)
            want = brute_force_subgraphs(g, variant)
            if got != want:
                bad += 1
                continue
            # classification must leave problematic records pairwise disjoint
            # (checked inside classify; exercised through prepare)
            prepare(g, variant)
            checked += 1
    elapsed = time.time() - t0
    msg = (
        f"[criterion 2] {'PASS' if not bad else 'FAIL'} - detection equals "
        f"brute-force enumeration with disjoint problematic sets on "
        f"{checked}/{checked + bad} graphs ({elapsed:.1f}s)"
    )
    print(msg)
    assert not bad, msg
    assert elapsed < 120, f"detection sweep took {elapsed:.1f}s, budget 120s"


def test_criterion_3_weight_sandwich():
    data = _sweep()
    bad = [
        r
        for r in data["rows"]
        if not (r["aux"] == r["cover"] and r["solver"] == r["oracle"])
    ]
    msg = (
        f"[criterion 3] {'PASS' if not bad else 'FAIL'} - auxiliary optimum == "
        f"recovered complement == minimum covering complement on "
        f"{len(data['rows']) - len(bad)}/{len(data['rows'])} instances"
    )
    print(msg)
    assert not bad, msg


def _expected_count_gap(g: Graph, variant: Variant) -> int:
    records, _, potentials, _ = prepare(g, variant)
    expect = 0
    for r in records:
        if r.kind == DENSE:
            pf = potentials[r.id]
            center = min(r.core, key=lambda v: (pf[v], v))
            if pf[center] >= 0:
                p = len(r.core) // 2 + sum(
                    1
                    for c in records[r.member_ids[0]].classes
                    if not set(r.core).issuperset(c)
                )
                expect += p - len(r.core) // 2 + 1
        elif r.problematic:
            if r.kind in (CLIQUE, BICLIQUE):
                expect += 1
            else:
                expect += len(r.classes) - 1
    return expect


def test_criterion_4_counting_identity():
    data = _sweep()
    checked = 0
    for r in data["rows"]:
        if r["weighted"]:
            continue
        gaps = [d["count_weight_gap"] for d in r["diagnostics"] if "count_weight_gap" in d]
        assert len(gaps) == 1, "unweighted solve must report the count/weight gap"
        expect = _expected_count_gap(r["graph"], r["variant"])
        assert gaps[0] == expect, (
            f"count/weight gap {gaps[0]} != gadget tally {expect} "
            f"({r['config']} seed {r['seed']})"
        )
        checked += 1
    print(
        f"[criterion 4] PASS - cardinality-minus-weight equals the gadget tally "
        f"on all {checked} unweighted instances"
    )


def _random_lb_instance(rng: random.Random):
    n = rng.randint(2, 10)
    m = rng.randint(1, 14)
    mg = MultiGraph(n)
    weights = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        w = rng.randint(-20, 20)
        mg.add_edge(u, v, w)
        weights.append(w)
    lower = [0] * n
    upper = [0] * n
    for v in range(n):
        upper[v] = min(mg.deg[v], rng.randint(0, 4))
        lower[v] = max(0, upper[v] - rng.randint(0, 3))
    return mg, CapacityVector(lower, upper), weights


_ENGINE_CACHE: dict = {}


def _engine_sweep():
    if _ENGINE_CACHE:
        return _ENGINE_CACHE
    rng = random.Random(777)
    rows = []
    for trial in range(1000):
        mg, cap, weights = _random_lb_instance(rng)
        try:
            want = brute_force_lb(mg, cap, weights)
            feasible = True
        except InfeasibleError:
            want = None
            feasible = False
        got = None
        capped_card = None
        if feasible:
            res_w = solve_min_weight_lb(mg, cap, weights)
            res_c = solve_min_cardinality_lb(mg, cap)
            deg = [0] * mg.n
            for e in res_w.edge_ids:
                for x in mg.edges[e][:2]:
                    deg[x] += 1
            capped = solve_min_cardinality_lb(mg, CapacityVector(list(cap.lower), deg))
            got = (sum(weights[e] for e in res_w.edge_ids), len(res_w.edge_ids), len(res_c.edge_ids))
            capped_card = len(capped.edge_ids)
        else:
            try:
                solve_min_weight_lb(mg, cap, weights)
                got = "feasible?!"
            except InfeasibleError:
                got = None
        rows.append((want, got, capped_card))
    _ENGINE_CACHE["rows"] = rows
    return _ENGINE_CACHE


def test_criterion_5_matching_engine_oracle():
    rows = _engine_sweep()["rows"]
    bad = [i for i, (want, got, _) in enumerate(rows) if want != got]
    msg = (
        f"[criterion 5] {'PASS' if not bad else 'FAIL'} - engine matches brute force "
        f"(min weight, tie-break count, min cardinality) on "
        f"{len(rows) - len(bad)}/{len(rows)} multigraphs; dual certificates "
        f"checked on every solve"
    )
    print(msg)
    assert not bad, msg


def test_criterion_6_cardinality_equivalences():
    rows = _engine_sweep()["rows"]
    bad = [
        i
        for i, (want, got, capped) in enumerate(rows)
        if want is not None and capped != want[2]
    ]
    checked = sum(1 for (want, _, _) in rows if want is not None)
    msg = (
        f"[criterion 6] {'PASS' if not bad else 'FAIL'} - capped cardinality solve "
        f"equals uncapped equals brute force on {checked} feasible instances; "
        f"complement-size identity asserted inside every cardinality solve"
    )
    print(msg)
    assert not bad, msg


def test_criterion_7_potential_roundtrip(tmp_path):
    rng = random.Random(4)
    checked = 0
    for trial in range(120):
        kind, t, var, p, q = rng.choice(
            [
                ("clique", 3, Variant.restricted(), 0, 0),
                ("biclique", 3, Variant.restricted(), 0, 0),
                ("partite", 4, Variant.kpq(3, 2), 3, 2),
                ("dense", 4, Variant.kpq(3, 2), 3, 2),
            ]
        )
        g0 = plant_forbidden(Graph(0, [], t), kind, 1, trial, p=p, q=q)
        records, _, _ = find_all_forbidden(g0, var)
        pots = {v: rng.randint(-1, 5) for v in range(g0.n)}
        weights = []
        retry = False
        for (u, v, _) in g0.edges:
            w = pots[u] + pots[v]
            if w < 0:
                retry = True
                break
            weights.append(w)
        if retry:
            continue
        g = reweighted(g0, weights)
        records, _, _ = find_all_forbidden(g, var)
        dense = find_dense(g, records)
        for r in records:
            if r.in_dense >= 0:
                continue
            pf = extract_potential(g, r)
            for (u, v) in cross_pairs(r):
                assert pf[u] + pf[v] == g.weight_doubled(g.edge_id(u, v))
            if r.kind == BICLIQUE:
                # recovered potentials match the planted ones up to one
                # shift per side
                d0 = {pf[v] - 2 * pots[v] for v in r.classes[0]}
                d1 = {pf[v] - 2 * pots[v] for v in r.classes[1]}
                assert len(d0) == 1 and len(d1) == 1
                assert d0.pop() == -d1.pop()
            else:
                assert all(pf[v] == 2 * pots[v] for v in r.vertices)
        for r in dense:
            members = [records[i] for i in r.member_ids]
            pf = extract_potential(g, r, members=members)
            assert all(pf[v] == 2 * pots[v] for v in r.vertices)
        checked += 1
    assert checked >= 60
    # perturbed instance rejected through the CLI with exit code 4
    inst = tmp_path / "bad.txt"
    inst.write_text("4 6 3 restricted\n0 1 2\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n")
    rc = cli_main(["solve", str(inst)])
    assert rc == 4
    print(
        f"[criterion 7] PASS - potentials recovered (up to the biclique shift) on "
        f"{checked} planted instances; perturbed instance exits 4"
    )


GOLDEN = [
    ("complete graph on 4, t=3", lambda: complete_graph(4, 3), Variant.restricted(), 5, 5),
    ("balanced biclique 3x3, t=3", lambda: complete_bipartite(3, 3, 3), Variant.restricted(), 8, 8),
    ("octahedron, 3 classes of 2", octahedron, Variant.kpq(3, 2), 11, 11),
    ("complete graph on 6, 3 classes of 2", lambda: complete_graph(6, 4), Variant.kpq(3, 2), 11, 11),
    ("complete graph on 5, t=3", lambda: complete_graph(5, 3), Variant.restricted(), 7, 7),
]


def test_criterion_8_golden_values():
    for (name, build, variant, want_edges, want_weight) in GOLDEN:
        g = build()
        res = solve(g, variant)
        assert len(res.tmatching) == want_edges, name
        assert res.weight == want_weight, name
    print(f"[criterion 8] PASS - all {len(GOLDEN)} frozen golden values reproduced")


def _scale_instance(n: int, t: int, plants: int, seed: int) -> Graph:
    g = random_bounded(n, t, 0.5, seed)
    # plant separated cliques: problematic by disjointness
    return plant_forbidden(g, "clique", plants, seed + 1)


def test_criterion_9_detection_scaling():
    g1 = _scale_instance(2000, 3, 50, 5)
    g2 = _scale_instance(4000, 3, 100, 6)
    t0 = time.time()
    _, _, s1 = find_all_forbidden(g1, Variant.restricted())
    t1 = time.time()
    _, _, s2 = find_all_forbidden(g2, Variant.restricted())
    t2 = time.time()
    ratio_m = g2.m / g1.m
    ratio_probe = s2.probe_ops / max(1, s1.probe_ops)
    ok = ratio_probe <= 2.4 * (ratio_m / 2.0)
    print(
        f"[criterion 9a] {'PASS' if ok else 'FAIL'} - detection probe work grew "
        f"{ratio_probe:.2f}x for {ratio_m:.2f}x edges "
        f"({t1 - t0:.2f}s / {t2 - t1:.2f}s at m={g1.m}/{g2.m})"
    )
    assert ok


def test_criterion_9_scale_targets():
    """Engineering scale targets: weighted n=2000 < 60 s, unweighted
    n=20000 < 30 s.

    These are NOT attainable with this package's architecture: the
    design deliberately ships a self-contained cubic matching engine
    without the warm-started solver such bounds would require, and the
    reduction chain (doubling + vertex splitting + dense blossom) expands
    an n=2000 instance to tens of thousands of matching vertices, far
    past any cubic-engine budget.  The solve is attempted anyway and the
    hard size gate reports the expansion size."""
    g = _scale_instance(2000, 3, 50, 5)
    records, _, _ = find_all_forbidden(g, Variant.restricted())
    weights = vertex_induced_weights(g, records, (0, 5), (0, 6), 9)
    gw = reweighted(g, weights)
    failure = None
    t0 = time.time()
    try:
        solve(gw, Variant.restricted())
        elapsed = time.time() - t0
        if elapsed >= 60:
            failure = f"weighted n=2000 took {elapsed:.0f}s (budget 60s)"
    except InstanceTooLargeError as ex:
        failure = f"weighted n=2000: {ex}"
    if failure is None:
        g2 = random_bounded(20000, 3, 0.5, 11)
        t0 = time.time()
        try:
            solve(g2, Variant.restricted())
            elapsed = time.time() - t0
            if elapsed >= 30:
                failure = f"unweighted n=20000 took {elapsed:.0f}s (budget 30s)"
        except InstanceTooLargeError as ex:
            failure = f"unweighted n=20000: {ex}"
    if failure:
        print(
            "[criterion 9b] FAIL - scale targets unattainable without the "
            f"excluded warm-start engine: {failure} "
            f"(engine gate: {MAX_ENGINE_VERTICES} vertices)"
        )
        pytest.fail(
            "criterion 9 scale targets cannot be met by the "
            "reduction chain with a self-contained cubic matching engine; "
            f"{failure}. The detection half of the criterion passes "
            "(see criterion 9a)."
        )
    print("[criterion 9b] PASS - scale targets met")
