"""Maximum weight matching engine for general graphs.

A sparse primal-dual blossom method (Edmonds' blossom search with the
dual updates of Galil, "Efficient algorithms for finding maximum matching
in graphs", ACM Computing Surveys 18(1), 1986).  It works on adjacency
lists over int-indexed Python lists, so the cost of a stage follows the
number of edges rather than the square of the number of vertices, and
every dual value is an exact Python integer.  It keeps one dual value per
vertex and per (possibly nested) blossom, so every solve emits a
complementary-slackness certificate that is checked independently of the
search itself.

The dual step takes its edge candidates from one list per stage: every
non-tight edge met while scanning an S-vertex.  At the step both ends'
top-level labels are re-read; an S-S edge between different blossoms
bounds the step by half its slack, an edge from S to a free blossom by its
slack, and any other edge is skipped.  This is exact: every edge of an
S-vertex is scanned before a dual step (a vertex that turns S is queued
and scanned), a tight edge to a free blossom is used when scanned, and the
re-read catches a vertex freed by a mid-stage T-blossom expansion.  A step
costs O(n) plus the edges scanned so far in the stage, so no least-slack
edge lists are kept through blossom formation, and the method stays cubic.

Inside the search, vertices are 0..n-1 and blossoms take the ids n..2n-1.
Edge k has the two endpoints 2k and 2k+1; ``p ^ 1`` is the other end of
endpoint p.
"""

# The search below follows the structure of Joris van Rantwijk's maximum
# weight matching, as shipped in NetworkX (networkx.max_weight_matching),
# distributed under the 3-clause BSD license:
#
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>
#   Dan Schult <dschult@colgate.edu>
#   Pieter Swart <swart@lanl.gov>
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#       copyright notice, this list of conditions and the following
#       disclaimer in the documentation and/or other materials provided
#       with the distribution.
#
#     * Neither the name of the NetworkX Developers nor the names of its
#       contributors may be used to endorse or promote products derived
#       from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

from .errors import InfeasibleError, InstanceTooLargeError, InternalError

# Size gate of the engine.  It bounds the running time (the method is
# cubic in the worst case), not memory, which is linear in the edges.
MAX_ENGINE_VERTICES = 2500

_FREE, _S, _T, _CRUMB = 0, 1, 2, 4


def _solve(n: int, endpoint: list[int], wt2: list[int]):
    """Maximum weight matching of n vertices; edge k joins endpoint[2k]
    and endpoint[2k+1] with doubled weight wt2[k] > 0.  Free vertices end
    with dual zero.

    Returns (mate, dual, leaves): mate[v] is the partner of v or -1,
    dual[v] is 2*y(v) for a vertex and dual[b] is z(b) for a blossom, and
    leaves[b] lists the vertices inside each blossom still in use (None
    for a free blossom id).
    """
    nb = 2 * n
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for p in range(len(endpoint)):
        neighbend[endpoint[p ^ 1]].append(p)

    # mate[v]: remote endpoint of v's matched edge, or -1.
    mate = [-1] * n
    # label[b] of a top-level blossom: _FREE, _S or _T (| _CRUMB while a
    # path is traced).  label[v] of a vertex inside a T-blossom is _T once
    # v is reached from an S-vertex outside that blossom.
    label = [_FREE] * nb
    # labelend[b]: remote endpoint of the edge through which b got its label.
    labelend = [-1] * nb
    inblossom = list(range(n))
    parent = [-1] * nb
    # childs[b]: sub-blossoms in cyclic order starting at the base;
    # endps[b][i] is the endpoint pair joining childs[i] to childs[i+1].
    childs: list[list[int] | None] = [None] * nb
    endps: list[list[int] | None] = [None] * nb
    # leaves[b]: the vertices inside b, kept while b is in use.
    leaves: list[list[int] | None] = [[v] for v in range(n)] + [None] * n
    base = list(range(n)) + [-1] * n
    unused = list(range(nb - 1, n - 1, -1))
    top = max(wt2, default=0)
    dual = [top // 2] * n + [0] * n
    allowed = [False] * (len(endpoint) // 2)
    queue: list[int] = []
    # pending: the non-tight edges scanned from S-vertices this stage, the
    # only edges the next dual step can make tight.
    pending: list[int] = []

    # Warm start: every vertex dual is equal, so the heaviest edges are
    # tight; matching them greedily is the state zero-delta augmentations
    # would reach, and every invariant of the search holds.
    for k in range(len(wt2)):
        if wt2[k] == top:
            i = endpoint[2 * k]
            j = endpoint[2 * k + 1]
            if mate[i] == -1 and mate[j] == -1:
                mate[i] = 2 * k + 1
                mate[j] = 2 * k

    def slack(k: int) -> int:
        return dual[endpoint[2 * k]] + dual[endpoint[2 * k + 1]] - wt2[k]

    def assign_label(w: int, t: int, p: int) -> None:
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labelend[w] = labelend[b] = p
            if t == _S:
                queue.extend(leaves[b])
                return
            # A T-blossom's base is matched; its mate becomes an S-vertex.
            mb = mate[base[b]]
            w, t, p = endpoint[mb], _S, mb ^ 1

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from S-vertices v and w; return the base of a new
        blossom, or -1 when the paths end at two single vertices."""
        path = []
        found = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & _CRUMB:
                found = base[b]
                break
            path.append(b)
            label[b] = _S | _CRUMB
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[inblossom[endpoint[labelend[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = _S
        return found

    def add_blossom(bbase: int, k: int) -> None:
        v = endpoint[2 * k]
        w = endpoint[2 * k + 1]
        bb = inblossom[bbase]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unused.pop()
        base[b] = bbase
        parent[b] = -1
        parent[bb] = b
        childs[b] = path = []
        endps[b] = eps = []
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            eps.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        eps.reverse()
        eps.append(2 * k)
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            eps.append(labelend[bw] ^ 1)
            bw = inblossom[endpoint[labelend[bw]]]
        label[b] = _S
        labelend[b] = labelend[bb]
        dual[b] = 0
        leaves[b] = [x for sub in path for x in leaves[sub]]
        for x in leaves[b]:
            if label[inblossom[x]] == _T:
                # A T-vertex inside a new S-blossom becomes an S-vertex.
                queue.append(x)
            inblossom[x] = b

    def expand_blossom(b0: int, endstage: bool) -> None:
        work = [b0]
        while work:
            b = work.pop()
            for s in childs[b]:
                parent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and dual[s] == 0:
                    # Expand zero-dual sub-blossoms too at the end of a stage.
                    work.append(s)
                else:
                    for x in leaves[s]:
                        inblossom[x] = s
            if not endstage and label[b] == _T:
                relabel_expanded_t(b)
            label[b] = labelend[b] = -1
            childs[b] = endps[b] = leaves[b] = None
            base[b] = -1
            unused.append(b)

    def relabel_expanded_t(b: int) -> None:
        # The T-blossom b is being expanded mid-stage: relabel the
        # sub-blossoms on the even-length path from its entry to its base.
        cb = childs[b]
        eb = endps[b]
        entry = inblossom[endpoint[labelend[b] ^ 1]]
        j = cb.index(entry)
        if j & 1:
            j -= len(cb)
            jstep, trick = 1, 0
        else:
            jstep, trick = -1, 1
        p = labelend[b]
        while j != 0:
            label[endpoint[p ^ 1]] = _FREE
            label[endpoint[eb[j - trick] ^ trick ^ 1]] = _FREE
            assign_label(endpoint[p ^ 1], _T, p)
            allowed[eb[j - trick] >> 1] = True
            j += jstep
            p = eb[j - trick] ^ trick
            allowed[p >> 1] = True
            j += jstep
        bv = cb[j]
        label[endpoint[p ^ 1]] = label[bv] = _T
        labelend[endpoint[p ^ 1]] = labelend[bv] = p
        j += jstep
        # The other sub-blossoms become T only if reached from outside.
        while cb[j] != entry:
            bv = cb[j]
            j += jstep
            if label[bv] == _S:
                continue
            for x in leaves[bv]:
                if label[x] != _FREE:
                    label[x] = _FREE
                    label[endpoint[mate[base[bv]]]] = _FREE
                    assign_label(x, _T, labelend[x])
                    break

    def augment_blossom(b0: int, v0: int) -> None:
        # Sub-blossoms touch disjoint parts of the matching, so the
        # recursive calls of the textbook form can run in any order.
        work = [(b0, v0)]
        while work:
            b, v = work.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                work.append((t, v))
            cb = childs[b]
            eb = endps[b]
            i = j = cb.index(t)
            if i & 1:
                j -= len(cb)
                jstep, trick = 1, 0
            else:
                jstep, trick = -1, 1
            while j != 0:
                j += jstep
                t = cb[j]
                p = eb[j - trick] ^ trick
                if t >= n:
                    work.append((t, endpoint[p]))
                j += jstep
                t = cb[j]
                if t >= n:
                    work.append((t, endpoint[p ^ 1]))
                mate[endpoint[p]] = p ^ 1
                mate[endpoint[p ^ 1]] = p
            childs[b] = cb[i:] + cb[:i]
            endps[b] = eb[i:] + eb[:i]
            base[b] = v

    def augment_matching(k: int) -> None:
        for (s, p) in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                bt = inblossom[endpoint[labelend[bs]]]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _stage in range(n // 2 + 1):
        label[:] = [_FREE] * nb
        allowed[:] = [False] * len(allowed)
        queue.clear()
        pending.clear()
        # Every single vertex is the base of a top-level blossom: label S.
        for v in range(n):
            if mate[v] == -1:
                b = inblossom[v]
                label[v] = label[b] = _S
                labelend[v] = labelend[b] = -1
                queue.extend(leaves[b])
        if not queue:
            break

        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for p in neighbend[v]:
                    k = p >> 1
                    w = endpoint[p]
                    # Re-read: a blossom formed while scanning v absorbs it.
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if not allowed[k]:
                        if dual[v] + dual[w] - wt2[k] > 0:
                            pending.append(k)
                            continue
                        allowed[k] = True
                    lw = label[bw]
                    if lw == _FREE:
                        assign_label(w, _T, p ^ 1)
                    elif lw == _S:
                        found = scan_blossom(v, w)
                        if found >= 0:
                            add_blossom(found, k)
                        else:
                            augment_matching(k)
                            augmented = True
                            break
                    elif label[w] == _FREE:
                        # w sits in a T-blossom and is reached here first.
                        label[w] = _T
                        labelend[w] = p ^ 1
            if augmented:
                break

            # No augmenting path under the current duals: take the largest
            # dual step that keeps every constraint (all values doubled).
            # Only a pending edge can become tight (see the module
            # docstring); its labels are re-read here, as a T-blossom
            # expansion may have freed one end since it was scanned.
            delta = min(dual[:n])
            deltatype = 1
            deltaedge = deltablossom = -1
            for k in pending:
                bi = inblossom[endpoint[2 * k]]
                bj = inblossom[endpoint[2 * k + 1]]
                if bi == bj:
                    continue
                if label[bi] == label[bj] == _S:
                    d = slack(k) // 2
                elif label[bi] + label[bj] == _S:
                    # One end S, the other in a free blossom.
                    d = slack(k)
                else:
                    continue
                if d < delta:
                    delta, deltatype, deltaedge = d, 2, k
            for b in range(n, nb):
                if (base[b] >= 0 and parent[b] == -1 and label[b] == _T
                        and dual[b] < delta):
                    delta, deltatype, deltablossom = dual[b], 4, b

            for v in range(n):
                lv = label[inblossom[v]]
                if lv == _S:
                    dual[v] -= delta
                elif lv == _T:
                    dual[v] += delta
            for b in range(n, nb):
                if base[b] >= 0 and parent[b] == -1:
                    if label[b] == _S:
                        dual[b] += delta
                    elif label[b] == _T:
                        dual[b] -= delta

            if deltatype == 1:
                # A vertex dual reached zero: no larger matching exists.
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                allowed[deltaedge] = True
                i = endpoint[2 * deltaedge]
                if label[inblossom[i]] != _S:
                    i = endpoint[2 * deltaedge + 1]
                queue.append(i)

        if not augmented:
            break
        for b in range(n, nb):
            if parent[b] == -1 and base[b] >= 0 and label[b] == _S and dual[b] == 0:
                expand_blossom(b, True)

    partner = [endpoint[m] if m >= 0 else -1 for m in mate]
    return partner, dual, leaves


class MatchingCertificate:
    """Dual certificate of optimality for a maximum weight matching.

    ``vertex_dual`` holds 2*y(v) in shifted-weight units; ``blossoms`` is a
    list of (member_vertices, 2*z) pairs for every blossom with positive
    dual.  ``shift`` is the bonus added to an edge's weight per required
    endpoint before the solve; ``required`` marks the vertices the matching
    must cover (None: every vertex)."""

    __slots__ = ("vertex_dual", "blossoms", "shift", "required")

    def __init__(
        self,
        vertex_dual: list[int],
        blossoms: list[tuple[list[int], int]],
        shift: int,
        required: list[bool] | None = None,
    ):
        self.vertex_dual = vertex_dual
        self.blossoms = blossoms
        self.shift = shift
        self.required = required


def verify_optimum(
    n: int,
    edges: list[tuple[int, int, int]],
    mate: list[int],
    cert: MatchingCertificate,
) -> None:
    """Check complementary slackness of a matching against its certificate.

    ``mate[v]`` is the matched partner of v or -1.  Edge weights here are
    the ORIGINAL (unshifted) weights; the certificate's shift is re-applied
    so the dual inequalities are checked exactly as solved.  The blossoms
    must form a laminar family; every dual must be non-negative and every
    free vertex must have dual zero.

    Raises InternalError if any condition fails.
    """
    y = cert.vertex_dual
    req = [True] * n if cert.required is None else cert.required
    # chain[v]: the blossoms containing v, outermost first; zsum[v][i] is
    # the dual of the first i of them.  Laminarity makes the blossoms
    # shared by u and v the common prefix of chain[u] and chain[v].
    chain: list[list[int]] = [[] for _ in range(n)]
    zsum: list[list[int]] = [[0] for _ in range(n)]
    outermost_first = sorted(range(len(cert.blossoms)), key=lambda b: -len(cert.blossoms[b][0]))
    for bi in outermost_first:
        members, zb = cert.blossoms[bi]
        if zb < 0:
            raise InternalError("negative blossom dual")
        if len(members) % 2 != 1 or len(members) < 3:
            raise InternalError("blossom with even or trivial vertex set")
        outer = chain[members[0]][-1:]
        for v in members:
            if chain[v][-1:] != outer:
                raise InternalError("blossoms do not form a laminar family")
            chain[v].append(bi)
            zsum[v].append(zsum[v][-1] + zb)

    def shared(u: int, v: int) -> int:
        cu, cv = chain[u], chain[v]
        i = 0
        while i < len(cu) and i < len(cv) and cu[i] == cv[i]:
            i += 1
        return i

    # A matched pair is certified by any tight edge between it: with every
    # slack non-negative, that is a heaviest parallel edge.
    tight = [False] * n
    for (u, v, w) in edges:
        slack = y[u] + y[v] - 2 * (w + cert.shift * (req[u] + req[v]))
        slack += zsum[u][shared(u, v)]
        if slack < 0:
            raise InternalError(f"edge ({u},{v}) has negative dual slack {slack}")
        if slack == 0 and mate[u] == v:
            tight[u] = tight[v] = True
    nmatched_in = [0] * len(cert.blossoms)
    for u in range(n):
        v = mate[u]
        if y[u] < 0:
            raise InternalError(f"vertex {u} has negative dual {y[u]}")
        if v == -1:
            if y[u] != 0:
                raise InternalError(f"free vertex {u} has nonzero dual {y[u]}")
            continue
        if mate[v] != u:
            raise InternalError(f"mate of {u} is {v}, but mate of {v} is {mate[v]}")
        if not tight[u]:
            raise InternalError(f"matched edge ({u},{v}) is not tight")
        if u < v:
            for bi in chain[u][:shared(u, v)]:
                nmatched_in[bi] += 1
    for bi, (members, zb) in enumerate(cert.blossoms):
        if zb > 0 and 2 * nmatched_in[bi] + 1 != len(members):
            raise InternalError("blossom with positive dual is not near-perfectly matched")


def maximum_weight_perfect_matching(
    n: int,
    edges: list[tuple[int, int, int]],
    *,
    required: list[bool] | None = None,
) -> tuple[list[int], int, MatchingCertificate]:
    """Maximum weight matching of a general graph that covers every
    required vertex (by default every vertex: a perfect matching).

    ``edges`` are (u, v, w) with integer weights of any sign; parallel
    edges are allowed (only a maximum-weight representative of each pair,
    the lowest id among equals, can ever be used).  Vertices are 0-based.
    ``required[v]`` False lets v stay free.

    Returns (mate, total_weight, certificate) where mate[v] is the partner
    of v or -1.  Raises InfeasibleError if no matching covers every
    required vertex and InstanceTooLargeError above MAX_ENGINE_VERTICES.
    """
    if n == 0:
        return [], 0, MatchingCertificate([], [], 0, [])
    if n > MAX_ENGINE_VERTICES:
        raise InstanceTooLargeError(
            f"matching engine gated at {MAX_ENGINE_VERTICES} vertices, got {n}"
        )
    req = [True] * n if required is None else list(required)

    w_abs_max = max((abs(w) for (_, _, w) in edges), default=0)
    # Each covered required vertex earns a bonus larger than any
    # redistribution of weight, so a maximum weight matching of the
    # shifted weights covers as many required vertices as possible.
    shift = (n + 1) * (w_abs_max + 1) + 1

    best_eid: dict[tuple[int, int], int] = {}
    for eid, (u, v, w) in enumerate(edges):
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise InternalError(f"bad engine edge ({u},{v})")
        if w + shift * (req[u] + req[v]) <= 0:
            # Joins two optional vertices and can only lower the weight.
            continue
        key = (u, v) if u < v else (v, u)
        cur = best_eid.get(key)
        if cur is None or w > edges[cur][2]:
            best_eid[key] = eid
    endpoint: list[int] = []
    wt2: list[int] = []
    for (u, v), eid in best_eid.items():
        endpoint.append(u)
        endpoint.append(v)
        wt2.append(2 * (edges[eid][2] + shift * (req[u] + req[v])))

    mate, dual, leaves = _solve(n, endpoint, wt2)
    for v in range(n):
        if req[v] and mate[v] == -1:
            raise InfeasibleError(f"no matching covers required vertex {v}")

    total = sum(edges[best_eid[(v, mate[v])]][2] for v in range(n) if mate[v] > v)

    blossoms = [
        (sorted(leaves[b]), 2 * dual[b])
        for b in range(n, 2 * n)
        if leaves[b] is not None and dual[b] > 0
    ]
    cert = MatchingCertificate(dual[:n], blossoms, shift, req)
    verify_optimum(n, edges, mate, cert)
    return mate, total, cert
