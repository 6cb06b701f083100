"""Command line front end.

Subcommands:

* ``solve``    - read an instance file, print the optimal t-matching
* ``detect``   - print the forbidden subgraphs with problematic flags
* ``generate`` - emit a seeded instance in the same file format

Instance file format (text, ``#`` comments allowed):

* line 1: ``n m t variant`` with variant in {restricted, kpq}
* line 2 (kpq only): ``p q`` with (p-1)*q == t
* next m lines: ``u v [w]`` - 0-based endpoints, optional non-negative
  integer weight; if any weight is omitted the instance is unweighted
  (all weights one).

Exit codes: 0 success, 1 internal error, 2 malformed input, 3 degree-bound
violation or oversize instance, 4 weights not vertex-induced on a forbidden
subgraph, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .detect import DENSE, find_all_forbidden
from .errors import (
    InputFormatError,
    InstanceTooLargeError,
    NotVertexInducedError,
    TmatchError,
    ValidationError,
)
from .gadgets import build_auxiliary
from .graph import Graph
from .pipeline import forbidden_records, prepare, solve
from .variant import Variant

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_INVALID = 3
EXIT_NOT_INDUCED = 4
EXIT_ORACLE_MISMATCH = 5


def _read_instance(path: str) -> tuple[Graph, Variant, bool]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = [
                ln.strip() for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")
            ]
    except OSError as ex:
        raise InputFormatError(f"cannot read {path}: {ex}") from ex
    if not raw:
        raise InputFormatError("empty instance file")
    head = raw[0].split()
    if len(head) != 4:
        raise InputFormatError("header must be: n m t variant")
    try:
        n, m, t = int(head[0]), int(head[1]), int(head[2])
    except ValueError as ex:
        raise InputFormatError(f"bad header numbers: {ex}") from ex
    vname = head[3]
    idx = 1
    if vname == "restricted":
        variant = Variant.restricted()
    elif vname == "kpq":
        if len(raw) < 2:
            raise InputFormatError("kpq instance needs a 'p q' line")
        parts = raw[1].split()
        if len(parts) != 2:
            raise InputFormatError("second line must be: p q")
        try:
            variant = Variant.kpq(int(parts[0]), int(parts[1]))
        except ValueError as ex:
            raise InputFormatError(f"bad p q line: {ex}") from ex
        idx = 2
    else:
        raise InputFormatError(f"unknown variant {vname!r}")
    lines = raw[idx:]
    if len(lines) != m:
        raise InputFormatError(f"expected {m} edge lines, found {len(lines)}")
    edges = []
    weighted_rows = 0
    for ln in lines:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise InputFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as ex:
            raise InputFormatError(f"bad edge line {ln!r}: {ex}") from ex
        if len(parts) == 3:
            weighted_rows += 1
        edges.append((u, v, w))
    if 0 < weighted_rows < m:
        raise InputFormatError("either all or no edge lines may carry weights")
    g = Graph(n, edges, t)
    return g, variant, weighted_rows == m


def _check_overrides(args, g: Graph, variant: Variant) -> None:
    if args.t is not None and args.t != g.t:
        raise InputFormatError(f"-t {args.t} conflicts with instance t={g.t}")
    if args.variant is not None and args.variant != variant.kind:
        raise InputFormatError(
            f"--variant {args.variant} conflicts with instance variant {variant.kind}"
        )
    if args.p is not None and args.p != variant.p:
        raise InputFormatError(f"--p {args.p} conflicts with instance p={variant.p}")
    if args.q is not None and args.q != variant.q:
        raise InputFormatError(f"--q {args.q} conflicts with instance q={variant.q}")


def _edge_list(g: Graph, ids) -> list[list[int]]:
    pairs = [[g.edges[e][0], g.edges[e][1]] for e in ids]
    return sorted(pairs)


def _cmd_solve(args) -> int:
    g, variant, weighted = _read_instance(args.instance)
    _check_overrides(args, g, variant)
    if args.unweighted and weighted:
        g = Graph(g.n, [(u, v, 1) for (u, v, _) in g.edges], g.t)
    if args.dump_aux:
        records, _, potentials, _ = prepare(g, variant)
        aux = build_auxiliary(g, records, potentials)
        # Input edges come first; the gadgets list every later edge.  A
        # gadget's lines carry its record id, as the repair diagnostics do.
        label = {}
        for info in aux.gadgets:
            rid = info.subgraph_id
            for halves in info.half_edges.values():
                label.update((eid, f"half {rid}") for (eid, _) in halves)
            label.update((eid, f"gadget {rid}") for eid in info.internal_edges)
        for eid, (u, v, w) in enumerate(aux.graph.edges):
            print(f"{u} {v} {w} {label.get(eid, 'orig -1')}")
        return EXIT_OK
    if args.oracle_check:
        # Before the solve, so the oracle's size gates fail the run early.
        from .oracle import brute_force_optimum

        want, _, _ = brute_force_optimum(g, variant)
    result = solve(g, variant)
    if args.dump_expanded:
        ex = result.stats
        print(
            f"expanded vertices={ex['expanded_vertices']} "
            f"engine_calls={ex['engine_calls']} "
            f"aux_edges={ex['aux_matching_edges']} gadgets={ex['gadgets']}",
            file=sys.stderr,
        )
    if args.oracle_check:
        if want != result.weight_doubled:
            print(
                f"oracle mismatch: solver {result.weight_doubled} vs "
                f"brute force {want} (doubled units)",
                file=sys.stderr,
            )
            return EXIT_ORACLE_MISMATCH
        result.stats["oracle_check"] = "ok"
    if args.json:
        payload = {
            "weight": result.weight,
            "edges": _edge_list(g, result.tmatching),
            "co_edges": _edge_list(g, result.cotmatching),
            "diagnostics": result.diagnostics,
            "stats": result.stats,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"weight {result.weight}")
        print(f"edges {len(result.tmatching)}")
        for (u, v) in _edge_list(g, result.tmatching):
            print(f"{u} {v}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    g, variant, _ = _read_instance(args.instance)
    _check_overrides(args, g, variant)
    records = forbidden_records(g, variant)
    for r in records:
        verts = ",".join(map(str, r.vertices))
        if r.kind == DENSE:
            core = ",".join(map(str, r.core))
            print(f"dense vertices={verts} core={core} members={len(r.member_ids)}")
        else:
            flag = "problematic" if r.problematic else "unproblematic"
            cls = ";".join(",".join(map(str, c)) for c in r.classes)
            extra = f" classes={cls}" if cls else ""
            print(f"{r.kind} vertices={verts}{extra} weight={r.weight // 2} {flag}")
    print(f"total {len(records)}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    from .generators import (
        plant_forbidden,
        random_bounded,
        reweighted,
        vertex_induced_weights,
    )

    if args.variant == "kpq":
        if args.p is None or args.q is None:
            raise InputFormatError("kpq generation needs --p and --q")
        variant = Variant.kpq(args.p, args.q)
        t = (args.p - 1) * args.q
    else:
        variant = Variant.restricted()
        if args.t is None:
            raise InputFormatError("restricted generation needs -t")
        t = args.t
    g = random_bounded(args.n, t, args.edge_prob, args.seed)
    if args.plant:
        g = plant_forbidden(
            g, args.plant, args.count, args.seed + 1, p=args.p or 0, q=args.q or 0
        )
    weighted = False
    if args.weighted:
        records, _, _ = find_all_forbidden(g, variant)
        w = vertex_induced_weights(
            g, records, (args.pot_lo, args.pot_hi), (0, args.noise_hi), args.seed + 2
        )
        g = reweighted(g, w)
        weighted = True
    print(f"{g.n} {g.m} {g.t} {variant.kind}")
    if variant.kind == "kpq":
        print(f"{variant.p} {variant.q}")
    for eid, (u, v, wd) in enumerate(g.edges):
        if weighted:
            print(f"{u} {v} {wd // 2}")
        else:
            print(f"{u} {v}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tmatch",
        description="maximum weight t-matchings avoiding complete partite subgraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file")
        p.add_argument("--variant", choices=["restricted", "kpq"], default=None)
        p.add_argument("-t", type=int, default=None, help="degree parameter override check")
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)

    ps = sub.add_parser("solve", help="solve an instance")
    common(ps)
    ps.add_argument("--unweighted", action="store_true", help="ignore weights")
    ps.add_argument("--json", action="store_true", help="structured output")
    ps.add_argument("--oracle-check", action="store_true",
                    help="cross-check against brute force (small instances)")
    ps.add_argument("--dump-aux", action="store_true",
                    help="print the auxiliary instance edge list and exit")
    ps.add_argument("--dump-expanded", action="store_true",
                    help="report expansion sizes of the matching reduction")
    ps.set_defaults(func=_cmd_solve)

    pd = sub.add_parser("detect", help="list forbidden subgraphs")
    common(pd)
    pd.set_defaults(func=_cmd_detect)

    pg = sub.add_parser("generate", help="emit a random instance")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("-t", type=int, default=None)
    pg.add_argument("--variant", choices=["restricted", "kpq"], default="restricted")
    pg.add_argument("--p", type=int, default=None)
    pg.add_argument("--q", type=int, default=None)
    pg.add_argument("--edge-prob", type=float, default=0.5)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--plant", default=None,
                    help="clique|biclique|partite|dense|clique_pair|biclique_pair|partite_pair")
    pg.add_argument("--count", type=int, default=1)
    pg.add_argument("--weighted", action="store_true")
    pg.add_argument("--pot-lo", type=int, default=0)
    pg.add_argument("--pot-hi", type=int, default=5)
    pg.add_argument("--noise-hi", type=int, default=6)
    pg.set_defaults(func=_cmd_generate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_MALFORMED
    except NotVertexInducedError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_NOT_INDUCED
    except (ValidationError, InstanceTooLargeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INVALID
    except TmatchError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
