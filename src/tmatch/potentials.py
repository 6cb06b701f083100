"""Vertex potentials witnessing vertex-induced weights.

A weight function is vertex-induced on a subgraph H when each vertex can
be given a potential so that every edge of H weighs exactly the sum of its
endpoint potentials.  All arithmetic here is in doubled units: doubled
edge weights make the (otherwise half-integral) potentials plain integers.
Every forbidden subgraph is complete partite, so one extractor reads any
subgraph's potentials from its classes.  A subgraph's potentials are a
plain ``dict`` from vertex to value.
"""

from __future__ import annotations

from .detect import CLIQUE, DENSE, ForbiddenSubgraph
from .errors import InternalError, NotVertexInducedError
from .graph import Graph


def triangle_potential(w_ab: int, w_ac: int, w_bc: int) -> tuple[int, int, int]:
    """The unique potentials of a weighted triangle (doubled units).

    Inputs are doubled edge weights, so the half sums below stay integral.
    """
    sa = (w_ab + w_ac - w_bc)
    sb = (w_ab + w_bc - w_ac)
    sc = (w_ac + w_bc - w_ab)
    if sa % 2 or sb % 2 or sc % 2:
        raise InternalError("doubled triangle weights must have even potential sums")
    return sa // 2, sb // 2, sc // 2


def _wd(g: Graph, u: int, v: int) -> int:
    eid = g.edge_id(u, v)
    if eid is None:
        raise InternalError(f"expected edge ({u},{v}) inside a forbidden subgraph")
    return g.weight_doubled(eid)


def verify_vertex_induced(g: Graph, h: ForbiddenSubgraph, pf: dict[int, int]) -> bool:
    """True iff pf(u) + pf(v) equals the doubled weight on every edge of h
    (of a dense cluster: on every edge among its vertices)."""
    return all(pf[u] + pf[v] == wd for (u, v, wd) in map(g.edges.__getitem__, h.edge_ids))


def _extract(g: Graph, classes) -> dict[int, int]:
    """Potentials of the complete multipartite subgraph on ``classes``
    (a clique is the case of singleton classes), read off its edges."""
    a, b = classes[0][0], classes[1][0]
    if len(classes) > 2:
        # Three mutually adjacent class representatives pin the potentials.
        c = classes[2][0]
        ra, _, _ = triangle_potential(_wd(g, a, b), _wd(g, a, c), _wd(g, b, c))
    else:
        # The free shift of a biclique: anchor the first vertex at half
        # the weight of its first class-crossing edge.
        w0 = _wd(g, a, b)
        if w0 % 2:
            raise InternalError("doubled weights should be even")
        ra = w0 // 2
    out = {a: ra}
    for ci in classes[1:]:
        for x in ci:
            out[x] = _wd(g, a, x) - ra
    for x in classes[0][1:]:
        out[x] = _wd(g, x, b) - out[b]
    return out


def extract_potential(
    g: Graph,
    h: ForbiddenSubgraph,
    *,
    members: list[ForbiddenSubgraph] | None = None,
) -> dict[int, int]:
    """Extract the potentials of ``h`` from the edge weights.

    The potentials are read from ``h``'s classes: singletons for a
    clique, and for a dense cluster the classes of its first absorbed
    member (pass the members via ``members``).  They are then validated
    against every edge of ``h`` (of a dense cluster: every edge among its
    vertices).  Raises NotVertexInducedError when the weights do not
    admit potentials on ``h``.
    """
    if h.kind == CLIQUE:
        classes = [(v,) for v in h.vertices]
    elif h.kind == DENSE:
        if not members:
            raise InternalError("dense extraction needs a member subgraph")
        classes = members[0].classes
    else:
        classes = h.classes
    pf = _extract(g, classes)
    if not verify_vertex_induced(g, h, pf):
        raise NotVertexInducedError(
            f"weights are not vertex-induced on {h.kind} {h.vertices}", h.id
        )
    return pf


def unit_potentials(h: ForbiddenSubgraph) -> dict[int, int]:
    """Potentials for the unweighted mode: one half per vertex (doubled: 1)."""
    return {v: 1 for v in h.vertices}
