"""The measuring process: one closed-loop client, no threads.

Loads the generated instances, warms up on K4, then runs operations back
to back, cycling through the instances, until ``--seconds`` have passed.
An operation makes the workload's library call on each graph of one
instance.  Each operation's answer is reduced to a canonical form; the
loop keeps one copy per distinct answer and instance, and ``check.py``
verifies them afterwards.  With ``--trace 1`` the layer functions are wrapped for
the loop (see tracing.py) and the spans are written to ``--spans``.

    python3 perfbench/measure.py --instances FILE --seconds 10 --trace 0 --out FILE
"""

from __future__ import annotations

import argparse
import resource
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from common import graph_from_json, operation, read_json, write_json
from tmatch import Graph, Variant
from tracing import Tracer

K4 = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)], 3)


def run_loop(call, answer, instances, seconds: float, tracer: Tracer | None):
    latencies: list[float] = []
    bounds: list[tuple[float, float]] = []
    ops: list[list] = []  # [instance index, answer index or -1, error text]
    answers: dict[tuple[int, tuple], int] = {}
    start = perf_counter()
    i = 0
    while not latencies or perf_counter() - start < seconds:
        k = i % len(instances)
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            res = [call(g, variant) for (g, variant) in instances[k]]
            error = ""
        except Exception:
            res = None
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        bounds.append((t0, t1))
        if error:
            ops.append([k, -1, error])
        else:
            key = (k, tuple(answer(r) for r in res))
            ops.append([k, answers.setdefault(key, len(answers)), ""])
        i += 1
    return latencies, bounds, ops, answers


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    data = read_json(Path(args.instances))
    instances = [[graph_from_json(d) for d in inst["graphs"]] for inst in data["instances"]]
    call, answer = operation(data["workload"])
    call(K4, Variant.restricted())

    tracer = Tracer() if args.trace else None
    with tracer or nullcontext():
        latencies, bounds, ops, answers = run_loop(call, answer, instances, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "latencies": latencies,
        "ops": ops,
        "answers": [[k, ans] for (k, ans) in answers],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(bounds)
        if args.spans:
            write_json(Path(args.spans), tracer.dump(bounds))
    write_json(Path(args.out), result)


if __name__ == "__main__":
    main()
