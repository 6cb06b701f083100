"""Forbidden-subgraph detection.

Finds every complete partite subgraph the active variant forbids
(cliques on t+1 vertices, balanced bicliques K_{t,t}, or t-regular
K^p_q's), records which pairs of them share vertices, groups same-vertex-set
partite subgraphs into dense clusters, and classifies each subgraph as
problematic (needs a gadget) or unproblematic (coverable by local repair).

The driver follows a peel-and-probe strategy: vertices that cannot lie in
any forbidden subgraph are discarded after O(t) work, and every successful
find removes a Theta(t)-sized vertex set, so total work stays linear in the
number of edges for fixed t.  Vertices of residual degree below t are
peeled from a worklist of the vertices whose degree dropped, never by a
scan of the whole graph, so all peeling together costs O(n + m).

One local finder, ``_find_at``, lists every subgraph through a vertex v
for every shape, cliques and bicliques included.  v's cross vertices are
all of its neighbours or all but one, and their classes are read from the
non-adjacency components among those neighbours, tested once.

After a hit, the other vertices of the first subgraph found (the base)
are searched too, so that every subgraph sharing a vertex with it is
listed before the base is removed.  A base vertex is skipped when all
its alive neighbours lie in the base: a subgraph through it that leaves
the base also runs through a searched base vertex (see ``_enclosed``).

Each record carries the ids of its edges, derived once here from one
adjacency walk per distinct vertex set: the records on one set (the
K^p_2's of a dense cluster) share its induced edges, and each keeps those
that join two of its classes.  Every later layer reads those ids.

``DetectionStats.probe_ops`` meters the work so tests can assert the
linear scaling: every adjacency list read, every adjacency test, and every
vertex the peeling pops from its worklist or deletes (with its list).
"""

from __future__ import annotations

import itertools

from .errors import InternalError
from .graph import Graph

CLIQUE = "clique"
BICLIQUE = "biclique"
PARTITE = "partite"
DENSE = "dense"


class ForbiddenSubgraph:
    """One forbidden subgraph (or a dense cluster of them).

    ``classes`` is empty for cliques and dense clusters.  ``edge_ids`` is
    the subgraph's edge set, which need not be induced: the edges joining
    two of its classes (of a clique: all its edges; of a dense cluster:
    every edge among its vertices, in vertex-pair order).  ``core`` is
    only populated for dense clusters: the vertices all of whose
    neighbors stay inside the cluster.  ``weight`` is the doubled sum
    over ``edge_ids``.
    """

    __slots__ = (
        "kind", "vertices", "classes", "weight", "id", "problematic",
        "core", "member_ids", "edge_ids", "in_dense",
    )

    def __init__(
        self,
        kind: str,
        vertices: tuple[int, ...],
        classes: tuple[tuple[int, ...], ...],
        weight: int,
        id: int = -1,
        problematic: bool = False,
        core: tuple[int, ...] = (),
        member_ids: tuple[int, ...] = (),
        edge_ids: tuple[int, ...] = (),
        in_dense: int = -1,
    ):
        self.kind = kind
        self.vertices = vertices
        self.classes = classes
        self.weight = weight
        self.id = id
        self.problematic = problematic
        self.core = core
        self.member_ids = member_ids  # dense only: absorbed partite records
        self.edge_ids = edge_ids
        self.in_dense = in_dense  # partite only: id of the dense record absorbing it

    def key(self) -> tuple:
        return (self.kind, self.vertices, self.classes)


class DetectionStats:
    """Instrumentation for the linear-time budget assertion."""

    __slots__ = ("probe_ops",)

    def __init__(self, probe_ops: int = 0):
        self.probe_ops = probe_ops


class _Residual:
    """Graph view with vertex deletion, degree tracking and a work meter.

    ``dirty`` holds every vertex whose residual degree may have dropped
    below the stripping threshold since the last strip (initially all of
    them), so a strip drains it instead of scanning the whole graph.  This
    needs the same threshold on every strip of one residual graph.
    """

    def __init__(self, g: Graph, stats: DetectionStats):
        self.g = g
        self.alive = [True] * g.n
        self.deg = [g.degree(v) for v in range(g.n)]
        self.dirty = list(range(g.n))
        self.stats = stats

    def neighbors(self, v: int) -> list[int]:
        self.stats.probe_ops += len(self.g.adj[v])
        return [u for (u, _) in self.g.adj[v] if self.alive[u]]

    def common(self, u: int, v: int) -> list[int]:
        mark = set(self.neighbors(u))
        return [x for x in self.neighbors(v) if x in mark]

    def adjacent(self, u: int, v: int) -> bool:
        self.stats.probe_ops += 1
        return self.g.has_edge(u, v)

    def remove(self, v: int) -> None:
        if not self.alive[v]:
            return
        self.alive[v] = False
        for (u, _) in self.g.adj[v]:
            if self.alive[u]:
                self.deg[u] -= 1
                self.dirty.append(u)

    def strip_low_degree(self, t: int) -> None:
        """Iteratively delete vertices of degree below t; they are in no
        t-regular forbidden subgraph.  What survives is the t-core of the
        residual graph, which is unique, so the order of deletion does not
        matter (Batagelj and Zaversnik's worklist peeling)."""
        work = self.dirty
        while work:
            v = work.pop()
            self.stats.probe_ops += 1
            if not self.alive[v] or self.deg[v] >= t:
                continue
            self.alive[v] = False
            self.stats.probe_ops += len(self.g.adj[v])
            for (u, _) in self.g.adj[v]:
                if self.alive[u]:
                    self.deg[u] -= 1
                    if self.deg[u] < t:
                        work.append(u)


def _canon_classes(classes: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def _cross_edges(g: Graph, h: ForbiddenSubgraph, walks: dict) -> tuple[int, ...]:
    """Ids of h's edges: the edges among its vertices that join two of its
    classes (of a clique: all of them).

    ``walks`` maps a vertex set to the ids of the edges it induces, filled
    on first use, so records sharing a vertex set (the members of a dense
    cluster) walk it once.  Forbidden subgraphs need not be induced, so
    the edges inside h's classes are dropped, and what remains must be
    exactly h's cross pairs.
    """
    ids = walks.get(h.vertices)
    if ids is None:
        vset = set(h.vertices)
        ids = walks[h.vertices] = [
            e for u in h.vertices for (x, e) in g.adj[u] if x > u and x in vset
        ]
    k = len(h.vertices)
    cross = k * (k - 1) // 2
    if h.classes:
        intra = set()
        for c in h.classes:
            cross -= len(c) * (len(c) - 1) // 2
            for (u, v) in itertools.combinations(c, 2):
                intra.add(g.edge_id(u, v))
        ids = [e for e in ids if e not in intra]
    if len(ids) != cross:
        side = {x: i for i, c in enumerate(h.classes) for x in c} or {x: x for x in h.vertices}
        (u, v) = next(
            (u, v) for (u, v) in itertools.combinations(h.vertices, 2)
            if side[u] != side[v] and not g.has_edge(u, v)
        )
        raise InternalError(f"{h.kind} candidate {h.vertices} misses edge ({u},{v})")
    # Built from a list: a tuple built from a generator is resized as it
    # grows, and that moves the block to another size's free list, where
    # such blocks pile up.
    return tuple(ids)


def _pairings(items: list[int]):
    """All partitions of ``items`` into unordered pairs."""
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _pairings(rest):
            yield [(a, items[i])] + sub


def _kind_for_shape(p: int, q: int) -> str:
    if q == 1:
        return CLIQUE
    if p == 2:
        return BICLIQUE
    return PARTITE


def _find_at(R: _Residual, v: int, p: int, q: int) -> list[tuple]:
    """Every K^p_q of the residual graph containing the alive vertex v, as
    (vertices, classes) pairs; a clique's classes are ().

    Let t = (p-1)q and H be such a subgraph.  v has t cross vertices in H,
    all neighbours of v, and at most t+1 neighbours, so the cross vertices
    are all of N(v), or all of N(v) but one dropped neighbour (a
    class-mate of v in H, or outside H).  Call them T.  Two vertices of T
    that are not adjacent share a class, so every component of the
    non-adjacency graph on T lies inside one class of H.  The adjacencies
    among N(v) are tested once, and the components for every drop are
    read from those tests:

    * q = 1: the classes are single vertices, so the components must be;
    * q >= 3: a vertex has t cross edges in H and at most one more, so a
      class keeps at most a matching of inner edges, and its
      non-adjacency graph stays connected.  The components are the
      classes and must have exactly q vertices each;
    * q = 2: a class is a non-adjacent pair or two single-vertex
      components, so the components must have at most 2 vertices.  The
      pairs are forced classes, and the single vertices, adjacent to all
      of T, are paired in every way.

    Conversely, every such split of T joins any two of its classes
    completely.  v's q-1 class-mates are any vertices other than v
    adjacent to all of T (so outside T; a dropped neighbour may be one),
    so when some T qualifies and q > 1, each neighbour's list is read
    once and its vertices are counted.  Drops are tried in adjacency order.
    """
    t = (p - 1) * q
    nbrs = R.neighbors(v)
    if len(nbrs) < t:
        return []
    non_adj: dict[int, list[int]] = {x: [] for x in nbrs}
    for (a, b) in itertools.combinations(nbrs, 2):
        if not R.adjacent(a, b):
            non_adj[a].append(b)
            non_adj[b].append(a)
    options = []
    for drop in ([None] if len(nbrs) == t else nbrs):
        T = [x for x in nbrs if x != drop]
        comps = []
        seen = {drop}
        for s in T:
            if s not in seen:
                seen.add(s)
                comp = [s]
                for x in comp:
                    for y in non_adj[x]:
                        if y not in seen:
                            seen.add(y)
                            comp.append(y)
                comps.append(comp)
        if all(len(c) == q if q >= 3 else len(c) <= q for c in comps):
            options.append((drop, T, comps))
    if not options or q == 1:  # a clique has no class-mates to find
        return [(tuple(sorted([v] + T)), ()) for (_, T, _) in options]
    nb = {x: R.neighbors(x) for x in nbrs}
    counts: dict[int, int] = {}
    for x in nbrs:
        for y in nb[x]:
            counts[y] = counts.get(y, 0) + 1
    out = []
    for (drop, T, comps) in options:
        dropped = set(nb[drop]) if drop is not None else set()
        mates = sorted(
            y for (y, c) in counts.items() if c - (y in dropped) == t and y != v
        )
        forced = [c for c in comps if len(c) == q]
        free = sorted(c[0] for c in comps if len(c) < q)
        for mate in itertools.combinations(mates, q - 1):
            for pairing in _pairings(free):
                classes = [[v, *mate], *forced, *pairing]
                out.append((tuple(sorted([v, *mate, *T])), _canon_classes(classes)))
    return out


def find_partner(R: _Residual, v: int, p: int, q: int):
    """Cheap probe: either certify that v is in no K^p_q, or name a vertex
    with at least max(p-2, 1)*q common neighbors with v.

    Returns None (no subgraph can contain v) or a partner vertex.
    """
    need = max(p - 2, 1) * q
    nbrs = R.neighbors(v)
    mark = set(nbrs)
    for u in nbrs[:2]:
        cands = [z for z in R.neighbors(u) if z != v]
        for z in cands[:2]:
            if len(mark.intersection(R.neighbors(z))) >= need:
                return z
    return None


def _enclosed(R: _Residual, verts: tuple[int, ...]) -> set[int]:
    """The vertices of the base ``verts`` whose alive neighbours all lie
    in it.  Every K^p_q H through such a vertex x is listed by the search
    of a base vertex that is not enclosed, or of the vertex searched first.

    If H lies in the base, it has the base's vertex set and so contains
    the vertex whose search found the base.  Otherwise suppose H leaves
    the base.  Every cross vertex of x in H is in N(x), which lies in the
    base, so some class-mate z of x in H lies outside the base.  z is
    adjacent to every cross vertex of x, among them some w in the base.
    Then w is not enclosed, so w is searched, and w's search lists H.
    """
    vset = set(verts)
    return {x for x in verts if vset.issuperset(R.neighbors(x))}


def _run_shape(g: Graph, p: int, q: int, stats: DetectionStats) -> list[tuple]:
    """Algorithm sweep for one shape: every K^p_q of ``g`` once, as
    (vertices, classes) pairs in the order they are first found."""
    t = (p - 1) * q
    R = _Residual(g, stats)
    R.strip_low_degree(t)
    found: dict[tuple, None] = {}  # an insertion-ordered set
    queue = [v for v in range(g.n) if R.alive[v]]
    qi = 0
    while qi < len(queue):
        v1 = queue[qi]
        if not R.alive[v1]:
            qi += 1
            continue
        partner = find_partner(R, v1, p, q)
        if partner is None:
            R.remove(v1)
            R.strip_low_degree(t)
            qi += 1
            continue
        v2 = partner
        # The first hit is the base.  Every subgraph through an enclosed
        # base vertex is listed by another search (see _enclosed), so
        # search only the other vertices.  The residual graph stays
        # unchanged until the base is removed.
        hits = _find_at(R, v1, p, q)
        if hits:
            enclosed = _enclosed(R, hits[0][0])
            if v2 not in enclosed:
                hits += _find_at(R, v2, p, q)
        else:
            hits = _find_at(R, v2, p, q)
            if not hits:
                for x in [v1, v2] + R.common(v1, v2):
                    R.remove(x)
                R.strip_low_degree(t)
                qi += 1
                continue
            enclosed = _enclosed(R, hits[0][0])
        base = hits[0]
        cluster = hits + [
            rec
            for x in base[0]
            if x != v1 and x != v2 and x not in enclosed
            for rec in _find_at(R, x, p, q)
        ]
        found.update(dict.fromkeys(cluster))
        for x in base[0]:
            R.remove(x)
        R.strip_low_degree(t)
        qi += 1
        # Survivors of the emitted cluster may host further subgraphs;
        # re-queue them (and the probe pair) for another look.
        repush = {v1, v2}.union(*(rec[0] for rec in cluster))
        queue.extend(x for x in sorted(repush) if R.alive[x])
    return list(found)


def find_all_forbidden(
    g: Graph, variant
) -> tuple[list[ForbiddenSubgraph], set[tuple[int, int]], DetectionStats]:
    """Enumerate all forbidden subgraphs of ``g`` for the given variant,
    with the set of id pairs ``(a, b)``, ``a < b``, of records sharing a
    vertex.

    ``variant`` is a :class:`~tmatch.pipeline.Variant`.  Each subgraph is
    reported once (canonical vertex/class key).  Record edge ids cost one
    adjacency walk per distinct vertex set, cached for this call.  The
    returned stats carry the probe-work counter used by the scaling tests.
    """
    stats = DetectionStats()
    records: list[ForbiddenSubgraph] = []
    walks: dict[tuple[int, ...], list[int]] = {}
    edges = g.edges
    # _run_shape emits each record once, and every shape of a variant has
    # its own kind, so records of different shapes never coincide.
    for (p, q) in variant.shapes(g.t):
        kind = _kind_for_shape(p, q)
        for (verts, classes) in _run_shape(g, p, q, stats):
            h = ForbiddenSubgraph(kind, verts, classes, 0, id=len(records))
            h.edge_ids = _cross_edges(g, h, walks)
            h.weight = sum([edges[e][2] for e in h.edge_ids])
            records.append(h)

    # Two records intersect exactly when some vertex lies on both.
    on_vertex: dict[int, list[int]] = {}
    for r in records:
        for x in r.vertices:
            on_vertex.setdefault(x, []).append(r.id)
    # The vertices of a cluster share one id list, so each distinct list is
    # paired once.  Taken in first-seen order, they add the pairs in the
    # same order as pairing every vertex's list, so the set iterates alike.
    pairs: set[tuple[int, int]] = set()
    for ids in dict.fromkeys(map(tuple, on_vertex.values())):
        pairs.update(itertools.combinations(ids, 2))
    return records, pairs, stats


def find_dense(g: Graph, records: list[ForbiddenSubgraph]) -> list[ForbiddenSubgraph]:
    """Group same-vertex-set partite subgraphs (q = 2) into dense clusters.

    Each cluster of two or more K^p_2's on one vertex set V becomes a
    single dense record whose edges are the union of its members' edges,
    listed in vertex-pair order.  That union is every edge among V: the
    non-edges among V are cross pairs of no member, so they form a
    matching inside every member's classes, and any pairing of V into p
    classes that contains them is a K^p_2, listed by detection.  An edge
    uv inside a class of every member joins two vertices on no non-edge,
    as a vertex on one is paired along it.  If a third vertex z were on
    no non-edge either, a pairing with the class {u, z} would be a member
    in which uv is a cross edge; so u and v are the only such vertices,
    the pairing is forced, and V has one member only.  The core, the
    vertices all of whose t+1 edges stay inside V, is hence read from the
    number of cluster edges at each vertex.  Member records are tagged as
    absorbed.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for r in records:
        if r.kind == PARTITE:
            groups.setdefault(r.vertices, []).append(r.id)
    out = []
    next_id = len(records)
    for verts, ids in sorted(groups.items()):
        if len(ids) < 2:
            continue
        edge_ids = sorted(
            set().union(*(records[i].edge_ids for i in ids)), key=g.edges.__getitem__
        )
        inside = dict.fromkeys(verts, 0)
        for e in edge_ids:
            (u, v, _) = g.edges[e]
            inside[u] += 1
            inside[v] += 1
        core = [u for u in verts if inside[u] == g.degree(u) == g.t + 1]
        if len(core) < 4 or len(core) % 2 != 0:
            raise InternalError(f"dense cluster on {verts} has invalid core {tuple(core)}")
        weight = sum(g.weight_doubled(e) for e in edge_ids)
        rec = ForbiddenSubgraph(
            DENSE, verts, (), weight, id=next_id, core=tuple(core),
            member_ids=tuple(sorted(ids)), edge_ids=tuple(edge_ids),
        )
        for mid in ids:
            records[mid].in_dense = rec.id
        out.append(rec)
        next_id += 1
    return out


def classify_problematic(
    records: list[ForbiddenSubgraph],
    pairs: set[tuple[int, int]],
) -> list[list[int]]:
    """Mark each non-dense record problematic or not, in place, and return
    the ids of the records intersecting each record.

    A subgraph is unproblematic when it shares a vertex with a partner of
    the same kind of at least its weight, or (cliques only) with any
    biclique.  Dense clusters are handled separately and their members
    always end up unproblematic via the equal-weight rule.
    """
    nbrs: list[list[int]] = [[] for _ in records]
    for (a, b) in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    for r in records:
        if r.kind == DENSE:
            continue
        unproblematic = False
        for j in nbrs[r.id]:
            other = records[j]
            if other.kind == r.kind and r.weight <= other.weight:
                unproblematic = True
                break
            if r.kind == CLIQUE and other.kind == BICLIQUE:
                unproblematic = True
                break
        r.problematic = not unproblematic

    problematic = [r for r in records if r.kind != DENSE and r.problematic]
    dense = [r for r in records if r.kind == DENSE]
    taken: dict[int, int] = {}
    for r in problematic + dense:
        if r.kind == PARTITE and r.in_dense >= 0:
            raise InternalError("dense member classified problematic")
        for v in r.vertices:
            if v in taken:
                raise InternalError(
                    f"records {taken[v]} and {r.id} overlap at vertex {v}; "
                    "problematic subgraphs must be disjoint"
                )
            taken[v] = r.id
    return nbrs
