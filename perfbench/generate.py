"""Build one workload's instances from a seed and write them to a file.

Runs in its own process: ``random_bounded`` holds all O(n^2) vertex
pairs while it works (about 175 MB at n = 2000), which would otherwise
swamp the measuring process's peak RSS.

    python3 perfbench/generate.py --workload scale-weighted --seed 3 --out FILE
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from common import DETECT, graph_to_json, write_json
from tmatch import Graph, TmatchError, Variant
from tmatch.detect import find_all_forbidden
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)
from tmatch.oracle import brute_force_subgraphs

# Tier-1 criterion 1's five configurations: (name, t, variant, planted kind).
ACCEPTANCE_CONFIGS = [
    ("t=3 restricted", 3, Variant.restricted(), "clique"),
    ("t=4 K^5_1", 4, Variant.kpq(5, 1), "clique"),
    ("t=3 K^2_3", 3, Variant.kpq(2, 3), "biclique"),
    ("t=4 K^3_2", 4, Variant.kpq(3, 2), "dense"),
    ("t=6 K^3_3", 6, Variant.kpq(3, 3), "partite"),
]
ACCEPTANCE_SEEDS = 20

# Scale workloads draw criterion 9b's families at one stated input size:
# n, m and the number of degree-(t+1) vertices are fixed (and, weighted,
# the planted clique is the only forbidden subgraph), and the seed varies
# structure and weights.  Solve time grows with the cube of the
# expansion, so an unconditioned draw would let a few large instances
# decide a run.  At these sizes one solve takes about a third of a
# second, so a run holds enough solves for a steady median.
SCALE_INSTANCES = 80
SCALE_WEIGHTED_SIZE = {"n": 8, "m": 18, "full": 4}  # m counts the planted clique
SCALE_UNWEIGHTED_SIZE = {"n": 20, "m": 38, "full": 17}

# detect-scale: one n = 2000 instance per planted shape, 50 plants each.
DETECT_N = 2000
DETECT_PLANTS = 50
DETECT_SHAPES = [
    # (shape, t, variant, p, q, vertices per plant)
    ("clique", 3, Variant.restricted(), 0, 0, 4),
    ("biclique", 3, Variant.restricted(), 0, 0, 6),
    ("dense", 4, Variant.kpq(3, 2), 3, 2, 6),
    ("partite", 6, Variant.kpq(3, 3), 3, 3, 9),
    ("clique_pair", 4, Variant.kpq(5, 1), 0, 0, 6),
]


def _full_degree(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == g.t + 1)


def _criterion1_instance(cfg_idx: int, seed: int) -> Graph:
    """The instance tests/test_acceptance.py draws for (config, seed)."""
    (_, t, variant, plant_kind) = ACCEPTANCE_CONFIGS[cfg_idx]
    rng = random.Random(90_000 + 1009 * cfg_idx + seed)
    if seed % 5 == 0:
        base = random_bounded(rng.randint(0, 2), t, 0.5, seed)
        p = variant.p if variant.kind == "kpq" else 0
        q = variant.q if variant.kind == "kpq" else 0
        try:
            g = plant_forbidden(base, plant_kind, 1, seed, p=p, q=q)
            if g.n <= 9:
                return g
        except TmatchError:
            pass
    return random_bounded(rng.randint(4, 9), t, rng.uniform(0.25, 0.95), seed * 31 + cfg_idx)


def _criterion1_weighted(g: Graph, variant: Variant, seed: int) -> Graph:
    records, _, _ = find_all_forbidden(g, variant)
    lo = (0, -1, -2)[seed % 3]
    return reweighted(g, vertex_induced_weights(g, records, (lo, 6), (0, 7), seed + 7))


def acceptance_mix(seed: int) -> list[dict]:
    """Every 25th seed of criterion 1 (0, 25, ..., 475), so every instance
    carries a planted structure.  As in the criterion, one operation
    solves an instance on both tracks, unweighted then weighted.

    The corpus is fixed and ``seed`` is not used: its solve times span
    three orders of magnitude, so any seed-drawn subset would move the
    metrics more than a regression.  Instances are listed round-robin
    over the five configurations, so a run that stops mid-pass holds
    each configuration in equal shares."""
    configs = []
    for cfg_idx, (name, _, variant, _) in enumerate(ACCEPTANCE_CONFIGS):
        row = []
        for s in [25 * k for k in range(ACCEPTANCE_SEEDS)]:
            g = _criterion1_instance(cfg_idx, s)
            gw = _criterion1_weighted(g, variant, s)
            row.append({
                "graphs": [graph_to_json(g, variant), graph_to_json(gw, variant)],
                "meta": {"config": name, "seed": s},
            })
        configs.append(row)
    return [inst for row in zip(*configs) for inst in row]


def scale(seed: int, weighted: bool) -> list[dict]:
    size = SCALE_WEIGHTED_SIZE if weighted else SCALE_UNWEIGHTED_SIZE
    variant = Variant.restricted()
    out = []
    k = 0
    while len(out) < SCALE_INSTANCES:
        s = seed * 100_003 + k
        k += 1
        g = random_bounded(size["n"], 3, 0.5, s)
        if weighted:
            g = plant_forbidden(g, "clique", 1, s + 1)
        if g.m != size["m"] or _full_degree(g) != size["full"]:
            continue
        # A second forbidden subgraph in the random part adds a gadget and
        # nearly doubles the solve time; keep the planted clique the only one.
        if weighted and len(brute_force_subgraphs(g, variant)) != 1:
            continue
        if weighted:
            records, _, _ = find_all_forbidden(g, variant)
            g = reweighted(g, vertex_induced_weights(g, records, (0, 5), (0, 6), s + 2))
        out.append({"graphs": [graph_to_json(g, variant)], "meta": {"seed": s}})
    return out


def detect_scale(seed: int) -> list[dict]:
    out = []
    for i, (shape, t, variant, p, q, size) in enumerate(DETECT_SHAPES):
        s = seed * 1000 + i
        base = random_bounded(DETECT_N - DETECT_PLANTS * size, t, 0.5, s)
        g = plant_forbidden(base, shape, DETECT_PLANTS, s + 1, p=p, q=q)
        records, _, _ = find_all_forbidden(g, variant)
        g = reweighted(g, vertex_induced_weights(g, records, (0, 5), (0, 6), s + 2))
        # plant_forbidden appends each plant on a fresh block of vertices.
        planted = [
            [base.n + j * size, base.n + (j + 1) * size] for j in range(DETECT_PLANTS)
        ]
        out.append({
            "graphs": [graph_to_json(g, variant)],
            "meta": {"shape": shape, "seed": s, "planted": planted},
        })
    return out


def generate(workload: str, seed: int) -> list[dict]:
    if workload == "acceptance-mix":
        return acceptance_mix(seed)
    if workload == "scale-weighted":
        return scale(seed, weighted=True)
    if workload == "scale-unweighted":
        return scale(seed, weighted=False)
    if workload == DETECT:
        return detect_scale(seed)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    instances = generate(args.workload, args.seed)
    write_json(Path(args.out), {"workload": args.workload, "seed": args.seed, "instances": instances})


if __name__ == "__main__":
    main()
