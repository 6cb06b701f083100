"""Run one workload of the solve benchmark and print its metrics.

    python3 perfbench/run.py --workload acceptance-mix --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/tmatch``.  The run has four processes, one after the
other: the generator builds the seeded instances, several fresh
processes time set-up, the measuring process runs the closed loop, and
the checker verifies every answer.  With ``--trace 0`` the last line
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Both forms are listed in BENCHMARK.json; see README.md for what they
mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

from common import OUT, SRC, WORKLOADS, read_json

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170
SETUP_PROBES = 9
SETUP_CODE = """
import time
t0 = time.perf_counter()
import tmatch
g = tmatch.Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)], 3)
tmatch.solve(g, tmatch.Variant.restricted())
print(time.perf_counter() - t0)
print(tmatch.__file__)
"""


class Children:
    """Runs the benchmark's child processes against one overall deadline."""

    def __init__(self):
        self.start = time.monotonic()
        # One client and no threads: numpy's BLAS pool would otherwise start
        # a thread per core in every child, which only competes for the
        # cores the loop runs on.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **{
            var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        })

    def run(self, argv: list[str]) -> str:
        left = DEADLINE_S - (time.monotonic() - self.start)
        # subprocess.run kills and reaps the child when the timeout expires.
        done = subprocess.run(
            [sys.executable, *argv],
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, left),
            check=True,
        )
        return done.stdout

    def script(self, name: str, **flags) -> str:
        argv = [str(HERE / name)]
        for key, value in flags.items():
            argv += [f"--{key}", str(value)]
        return self.run(argv)


def setup_seconds(children: Children) -> tuple[float, list[float]]:
    """Median time, over fresh processes, for ``import tmatch`` plus one
    warm-up solve of K4."""
    times = []
    for _ in range(SETUP_PROBES):
        seconds, origin = children.run(["-c", SETUP_CODE]).splitlines()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"tmatch imported from {origin}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times), times


def run_facts() -> dict:
    numpy_version = None
    if find_spec("numpy") is not None:
        from importlib.metadata import version

        numpy_version = version("numpy")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "src_tmatch_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "tmatch").glob("*.py"))
        ),
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(result: dict, verdict: dict, setup: float) -> tuple[dict, list[str]]:
    lat = result["latencies"]
    completed = verdict["attempted"] - verdict["failed"]
    n = len(lat)
    p95 = percentile(lat, 95)
    beyond = sum(1 for x in lat if x > p95)
    metrics = {
        "ops_per_s": (completed / sum(lat), "1/s"),
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.p95": (p95, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "latency_s.p50": f"{n} samples",
        "latency_s.p95": f"{n} samples, {beyond} beyond it",
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
    }
    lines = [f"{name} {value!r} {unit}  {notes.get(name, '')}".rstrip()
             for name, (value, unit) in metrics.items()]
    rate = verdict["failed"] / verdict["attempted"]
    lines.append(f"error_rate {rate!r}  ({verdict['failed']} of {verdict['attempted']})")
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "tmatch" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'tmatch'} is missing", file=sys.stderr)
        return 2

    children = Children()
    tag = f"{args.workload}-trace{args.trace}"
    files = {kind: OUT / f"{tag}.{kind}.json" for kind in ("instances", "results", "verdict", "spans")}
    try:
        children.script(
            "generate.py", workload=args.workload, seed=args.seed, out=files["instances"]
        )
        setup, setup_runs = (None, []) if args.trace else setup_seconds(children)
        measure = dict(instances=files["instances"], seconds=args.seconds,
                       trace=args.trace, out=files["results"])
        if args.trace:
            measure["spans"] = files["spans"]
        children.script("measure.py", **measure)
        children.script(
            "check.py", instances=files["instances"], results=files["results"], out=files["verdict"]
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError) as ex:
        print(f"benchmark run failed: {ex}", file=sys.stderr)
        return 1

    result = read_json(files["results"])
    verdict = read_json(files["verdict"])
    lat = result["latencies"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(lat)} operations in {sum(lat):.3f} s, closed loop, one client")
    if args.trace:
        metrics = {name: tuple(v) for name, v in result["layers"].items()}
        metrics["trace.ops_per_s"] = (
            (verdict["attempted"] - verdict["failed"]) / sum(lat), "1/s"
        )
        lines = [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"spans written to {files['spans']}")
    else:
        metrics, lines = end_to_end(result, verdict, setup)
        lines.append(f"setup_s runs {setup_runs}")
    for line in lines:
        print(line)
    for reason in verdict["reasons"]:
        print(f"FAILED {reason}")
    print("facts " + json.dumps(run_facts()))
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
