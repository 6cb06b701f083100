"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. The checker passes right answers and fails a wrong weight and a wrong
   record set, so the error rate rises.
2. Every workload emits exactly the metrics BENCHMARK.json names, with
   their units, in both trace modes (one-second runs).
3. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import OUT, ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

import check  # noqa: E402
import generate  # noqa: E402
from common import graph_from_json, operation  # noqa: E402


def _verdict(workload: str, instances: list[dict], answers: list) -> dict:
    data = {"workload": workload, "instances": instances}
    result = {
        "answers": [[k, ans] for k, ans in enumerate(answers)],
        "ops": [[k, k, ""] for k in range(len(answers))],
    }
    return check.check(data, result)


def _answers(workload: str, instances: list[dict]) -> list:
    call, answer = operation(workload)
    out = []
    for inst in instances:
        graphs = [graph_from_json(d) for d in inst["graphs"]]
        out.append(json.loads(json.dumps([answer(call(g, v)) for (g, v) in graphs])))
    return out


def _error_rate(verdict: dict) -> float:
    return verdict["failed"] / verdict["attempted"]


def test_checker_counts_wrong_answers() -> None:
    generate.DETECT_N, generate.DETECT_PLANTS = 400, 5
    cases = [
        ("acceptance-mix", generate.acceptance_mix(0)[:10]),
        ("scale-weighted", generate.scale(1, weighted=True)[:3]),
        ("detect-scale", generate.detect_scale(1)),
    ]
    for workload, instances in cases:
        answers = _answers(workload, instances)
        assert _error_rate(_verdict(workload, instances, answers)) == 0, workload
        wrong = json.loads(json.dumps(answers))
        if workload == "detect-scale":
            lo, hi = instances[0]["meta"]["planted"][0]
            wrong[0][0] = [r for r in wrong[0][0] if not lo <= r[1][0] < hi]  # plant missed
            wrong[1][0].append(["clique", [0, 1, 2, 3], [], [], [], 10**6])  # not a K4
            want_failed = 2
        else:
            wrong[0][-1][0] += 2  # one input unit heavier than the optimum
            want_failed = 1
        verdict = _verdict(workload, instances, wrong)
        assert verdict["failed"] == want_failed, (workload, verdict)
        assert _error_rate(verdict) > 0
        print(f"checker ok on {workload}: {verdict['reasons']}")


def _last_json(argv: list[str], cwd) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def test_every_metric_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            argv = [str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            code, res = _last_json(argv, ROOT)
            assert code == 0 and res is not None, (workload, trace, code)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"metrics ok on {workload}, trace {trace}")


def test_fails_without_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    argv = ["perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    code, res = _last_json(argv, bare)
    shutil.rmtree(bare)
    assert code != 0 and res is None, (code, res)
    print("exits non-zero without a program to measure")


if __name__ == "__main__":
    test_checker_counts_wrong_answers()
    test_fails_without_program()
    test_every_metric_emitted()
    print("selftest passed")
