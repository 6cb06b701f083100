"""End-to-end solve: detection, gadgets, matching, recovery.

``solve`` runs the whole chain for one instance and returns a
:class:`~tmatch.recover.SolveResult`.  The weighted track minimizes the
auxiliary matching weight with an exact edge-count tie-break; the
unweighted track (all input weights one) runs the cheaper cardinality
solve, whose optimum coincides with the weighted one through the
cardinality/weight bookkeeping identity.
"""

from __future__ import annotations

from . import detect as _detect
from . import lb as _lb
from . import recover as _recover
from .detect import DENSE, ForbiddenSubgraph
from .errors import InternalError
from .gadgets import build_auxiliary, gadget_stats
from .graph import Graph
from .potentials import extract_potential, unit_potentials
from .recover import SolveResult
from .variant import Variant

def validate_instance(g: Graph, variant: Variant) -> None:
    """Variant parameter checks (the graph checks its own degree bound;
    weights need no bound, as all arithmetic is in exact integers)."""
    variant.validate(g.t)


def prepare(g: Graph, variant: Variant):
    """Validation, detection, potential extraction and classification
    for a solve.

    Returns (records incl. dense, the ids of the records intersecting
    each record, potentials, stats).
    Raises NotVertexInducedError if the weighted instance fails the
    vertex-induced precondition on any forbidden subgraph.
    """
    validate_instance(g, variant)
    records, pairs, stats = _detect.find_all_forbidden(g, variant)
    all_records = records + _detect.find_dense(g, records)

    potentials: dict[int, dict[int, int]] = {}
    for r in all_records:
        # A dense member never gets a gadget, and its cluster's check
        # covers every edge among the cluster's vertices.
        if r.in_dense >= 0:
            continue
        if g.unweighted:
            potentials[r.id] = unit_potentials(r)
        else:
            members = [records[i] for i in r.member_ids]
            potentials[r.id] = extract_potential(g, r, members=members)

    nbrs = _detect.classify_problematic(all_records, pairs)
    return all_records, nbrs, potentials, stats


def solve(g: Graph, variant: Variant) -> SolveResult:
    """Maximum weight (or size) t-matching avoiding the variant's
    forbidden subgraphs."""
    records, nbrs, potentials, det_stats = prepare(g, variant)

    aux = build_auxiliary(g, records, potentials)

    diagnostics: list[dict] = []
    if g.unweighted:
        m = _lb.solve_min_cardinality_capped(aux)
        identity = _lb.count_weight_identity(aux, m)
        diagnostics.append({"rule": "cardinality-track", "count_weight_gap": identity})
    else:
        m = _lb.solve_min_weight_lb(aux.graph, aux.capacities, aux.graph.weights())

    aux_weight = sum(aux.graph.edges[e][2] for e in m.edge_ids)
    cot = _recover.matching_to_cotmatching(aux, m, diagnostics)
    cot = _recover.cover_unproblematic(g, cot, records, nbrs, diagnostics)
    # Both directions of the complement/matching correspondence hold at
    # the optimum, so the recovered complement must land exactly on the
    # auxiliary optimum; anything else is a bug.
    if cot.weight_doubled() != aux_weight:
        raise InternalError(
            "weight sandwich violated: recovered complement weight "
            f"{cot.weight_doubled()} != auxiliary optimum {aux_weight}"
        )

    stats = {
        "n": g.n,
        "m": g.m,
        "t": g.t,
        "variant": variant.describe(),
        "unweighted": g.unweighted,
        "forbidden": len([r for r in records if r.kind != DENSE]),
        "dense_clusters": len([r for r in records if r.kind == DENSE]),
        "problematic": len(
            [r for r in records if r.kind != DENSE and r.problematic]
        ),
        "aux_matching_weight_doubled": aux_weight,
        "aux_matching_edges": len(m.edge_ids),
        "detect_probe_ops": det_stats.probe_ops,
        "expanded_vertices": m.expanded.hat_vertices,
        "engine_calls": m.expanded.engine_calls,
    }
    stats.update(gadget_stats(aux))
    return _recover.finalize(g, cot, records, diagnostics, stats)


def forbidden_records(g: Graph, variant: Variant) -> list[ForbiddenSubgraph]:
    """Detection + classification only (for the CLI's detect command)."""
    records, _, _, _ = prepare(g, variant)
    return records
