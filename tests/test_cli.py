import json
import os
import subprocess
import sys

import pytest

from tmatch import Variant
from tmatch.cli import main
from tmatch.detect import find_all_forbidden
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)


def write(tmp_path, text, name="inst.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


K4 = "4 6 3 restricted\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_solve_k4(tmp_path, capsys):
    rc = main(["solve", write(tmp_path, K4)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "weight 5"
    assert out[1] == "edges 5"
    assert len(out) == 7


def test_solve_with_matching_overrides(tmp_path):
    rc = main(["solve", write(tmp_path, K4), "--variant", "restricted", "-t", "3"])
    assert rc == 0


def test_solve_conflicting_override(tmp_path, capsys):
    rc = main(["solve", write(tmp_path, K4), "-t", "4"])
    assert rc == 2


def test_solve_json_structure(tmp_path, capsys):
    rc = main(["solve", write(tmp_path, K4), "--json", "--oracle-check"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weight"] == 5
    assert len(payload["edges"]) == 5
    assert len(payload["co_edges"]) == 1
    assert payload["stats"]["oracle_check"] == "ok"
    assert payload["edges"] == sorted(payload["edges"])


def test_malformed_inputs(tmp_path, capsys):
    assert main(["solve", write(tmp_path, "")]) == 2
    assert main(["solve", write(tmp_path, "4 2 3\n0 1\n1 2\n")]) == 2
    assert main(["solve", write(tmp_path, "4 1 3 restricted\n0 1\n0 2\n")]) == 2
    assert main(["solve", write(tmp_path, "4 1 3 weird\n0 1\n")]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    assert main(["solve", write(tmp_path, "4 6 3 kpq\na b\n0 1\n")]) == 2


@pytest.mark.parametrize(
    "command", [["solve"], ["detect"], ["solve", "--dump-aux"]], ids=["solve", "detect", "dump-aux"]
)
def test_variant_shape_checked_by_every_command(tmp_path, capsys, command):
    # K4 at t=3 declared K^3_2-free, though (3-1)*2 != 3.
    path = write(tmp_path, "4 6 3 kpq\n3 2\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(command[:1] + [path] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: (p-1)*q must equal t: got (3-1)*2 != 3\n"


def test_degree_violation_exit_3(tmp_path):
    k6 = "6 15 3 restricted\n" + "\n".join(
        f"{u} {v}" for u in range(6) for v in range(u + 1, 6)
    ) + "\n"
    assert main(["solve", write(tmp_path, k6)]) == 3


@pytest.mark.parametrize("n, m", [(37, 37), (15, 14)])
def test_oracle_check_gates_before_solve(tmp_path, monkeypatch, capsys, n, m):
    # A cycle past the oracle's edge gate, and a path past its vertex gate.
    def no_solve(*args):
        raise AssertionError("solve ran before the oracle's gates")

    monkeypatch.setattr("tmatch.cli.solve", no_solve)
    text = f"{n} {m} 3 restricted\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(m))
    assert main(["solve", write(tmp_path, text), "--oracle-check"]) == 3
    assert "gated" in capsys.readouterr().err


def test_not_vertex_induced_exit_4(tmp_path):
    perturbed = "4 6 3 restricted\n0 1 2\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"
    assert main(["solve", write(tmp_path, perturbed)]) == 4
    dense = "6 15 4 kpq\n3 2\n" + "\n".join(
        f"{u} {v} {3 if (u, v) == (0, 1) else 2}"
        for u in range(6) for v in range(u + 1, 6)
    ) + "\n"
    assert main(["solve", write(tmp_path, dense)]) == 4


def test_kpq_instance(tmp_path, capsys):
    octa = "6 12 4 kpq\n3 2\n" + "\n".join(
        f"{u} {v}" for u in range(6) for v in range(u + 1, 6)
        if (u, v) not in {(0, 1), (2, 3), (4, 5)}
    ) + "\n"
    rc = main(["solve", write(tmp_path, octa)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and out[0] == "weight 11"


def test_detect_command(tmp_path, capsys):
    rc = main(["detect", write(tmp_path, K4)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith("clique vertices=0,1,2,3")
    assert "problematic" in out[0]
    assert out[-1] == "total 1"


def test_generate_solve_roundtrip(tmp_path, capsys):
    rc = main([
        "generate", "--n", "8", "-t", "3", "--edge-prob", "0.5",
        "--seed", "11", "--plant", "clique", "--count", "1",
    ])
    assert rc == 0
    inst = capsys.readouterr().out
    path = write(tmp_path, inst, "gen.txt")
    rc2 = main(["solve", path, "--oracle-check"])
    assert rc2 == 0


def test_generate_weighted_roundtrip(tmp_path, capsys):
    rc = main([
        "generate", "--n", "6", "-t", "3", "--edge-prob", "0.4", "--seed", "3",
        "--plant", "clique", "--count", "1", "--weighted", "--pot-lo", "0",
        "--pot-hi", "4", "--noise-hi", "5",
    ])
    assert rc == 0
    inst = capsys.readouterr().out
    path = write(tmp_path, inst, "genw.txt")
    assert main(["solve", path, "--oracle-check", "--json"]) == 0


def test_generate_kpq_dense_roundtrip(tmp_path, capsys):
    rc = main([
        "generate", "--n", "2", "--variant", "kpq", "--p", "3", "--q", "2",
        "--plant", "dense", "--seed", "5",
    ])
    assert rc == 0
    inst = capsys.readouterr().out
    assert inst.splitlines()[:2] == ["8 15 4 kpq", "3 2"]
    assert main(["solve", write(tmp_path, inst, "dense.txt"), "--oracle-check"]) == 0
    capsys.readouterr()
    assert main(["generate", "--n", "8", "--variant", "kpq"]) == 2
    assert main(["generate", "--n", "8", "--variant", "kpq", "--p", "3"]) == 2
    assert "needs --p and --q" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--noise-hi", "-1"], "empty noise range [0, -1]"),
    (["--plant", "clique", "--pot-lo", "5", "--pot-hi", "0"], "empty potential range [5, 0]"),
])
def test_generate_weighted_rejects_an_empty_range(capsys, flags, message):
    argv = ["generate", "--n", "12", "-t", "3", "--seed", "1", "--weighted"]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err


def test_solve_unweighted_flag_ignores_weights(tmp_path, capsys):
    rc = main([
        "generate", "--n", "8", "-t", "3", "--seed", "4", "--plant", "biclique",
        "--weighted", "--pot-lo", "1", "--pot-hi", "6",
    ])
    assert rc == 0
    weighted = capsys.readouterr().out
    lines = weighted.splitlines()
    assert any(ln.split()[2] != "1" for ln in lines[1:])
    plain = "\n".join([lines[0]] + [" ".join(ln.split()[:2]) for ln in lines[1:]]) + "\n"
    assert main(["solve", write(tmp_path, weighted, "w.txt"), "--json", "--unweighted"]) == 0
    got = capsys.readouterr().out
    assert main(["solve", write(tmp_path, plain, "u.txt"), "--json"]) == 0
    assert got == capsys.readouterr().out


def test_dump_expanded_reports_sizes(tmp_path, capsys):
    path = write(tmp_path, K4)
    assert main(["solve", path]) == 0
    plain = capsys.readouterr()
    assert main(["solve", path, "--dump-expanded"]) == 0
    dumped = capsys.readouterr()
    assert dumped.out == plain.out
    assert dumped.err == "expanded vertices=10 engine_calls=1 aux_edges=2 gadgets=1\n"


def test_detect_dense_cluster_line(tmp_path, capsys):
    k6 = "6 15 4 kpq\n3 2\n" + "\n".join(
        f"{u} {v}" for u in range(6) for v in range(u + 1, 6)
    ) + "\n"
    assert main(["detect", write(tmp_path, k6)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "dense vertices=0,1,2,3,4,5 core=0,1,2,3,4,5 members=15"
    assert out[-1] == "total 16"
    assert sum(ln.startswith("partite ") for ln in out) == 15


def test_dump_aux(tmp_path, capsys):
    rc = main(["solve", write(tmp_path, K4), "--dump-aux"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10  # 6 original + 4 half-edges
    kinds = {ln.split()[3] for ln in lines}
    assert kinds == {"orig", "half"}


def kpq_text(n, t, p, q, pot, pairs):
    """A kpq instance whose edge uv weighs pot[u] + pot[v]."""
    lines = [f"{n} {len(pairs)} {t} kpq", f"{p} {q}"]
    lines += [f"{u} {v} {pot[u] + pot[v]}" for (u, v) in pairs]
    return "\n".join(lines) + "\n"


# Two disjoint K^3_3's, both problematic: records 0 and 1 get gadgets.
K333_PAIRS = [
    (u, v)
    for b in (0, 9)
    for u in range(b, b + 9)
    for v in range(u + 1, b + 9)
    if (u - b) // 3 != (v - b) // 3
]
K333_POT = [1, 2, 3, 1, 2, 3, 1, 2, 3, 3, 1, 1, 2, 2, 1, 1, 3, 2]
K333_GADGET_LINES = """\
19 0 2 half 0
19 1 4 half 0
19 2 6 half 0
19 18 0 gadget 0
20 3 2 half 0
20 4 4 half 0
20 5 6 half 0
20 18 0 gadget 0
21 6 2 half 0
21 7 4 half 0
21 8 6 half 0
21 18 0 gadget 0
23 9 6 half 1
23 10 2 half 1
23 11 2 half 1
23 22 0 gadget 1
24 12 4 half 1
24 13 4 half 1
24 14 2 half 1
24 22 0 gadget 1
25 15 2 half 1
25 16 6 half 1
25 17 4 half 1
25 22 0 gadget 1
"""
# K6 minus the edge (0,1) is one dense cluster with core 2..5 and center 2.
# Its three K^3_2 members are records 0..2, so the cluster is record 3.
K6E_PAIRS = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)]
K6E_POT = [1, 1, 1, 3, 3, 3]
K6E_GADGET_LINES = """\
7 2 2 half 3
7 2 2 half 3
7 6 0 gadget 3
7 6 0 gadget 3
8 0 2 half 3
8 1 2 half 3
8 6 0 gadget 3
"""


@pytest.mark.parametrize("instance, gadget_lines", [
    ((18, 6, 3, 3, K333_POT, K333_PAIRS), K333_GADGET_LINES),
    ((6, 4, 3, 2, K6E_POT, K6E_PAIRS), K6E_GADGET_LINES),
], ids=["two-k333", "k6-minus-edge"])
def test_dump_aux_gadget_lines(tmp_path, capsys, instance, gadget_lines):
    # The input edges come first, in input order with doubled weights; the
    # gadget lines are pinned byte for byte.
    (n, t, p, q, pot, pairs) = instance
    rc = main(["solve", write(tmp_path, kpq_text(n, t, p, q, pot, pairs)), "--dump-aux"])
    assert rc == 0
    orig = "".join(f"{u} {v} {2 * (pot[u] + pot[v])} orig -1\n" for (u, v) in pairs)
    assert capsys.readouterr().out == orig + gadget_lines


def test_dump_aux_joins_repair_diagnostics(tmp_path, capsys):
    # Both outputs name a gadget by its record id, so every dense-repair
    # diagnostic finds its gadget's lines in the dump.
    path = write(tmp_path, kpq_text(6, 4, 3, 2, K6E_POT, K6E_PAIRS))
    assert main(["solve", path, "--dump-aux"]) == 0
    dumped = {}
    for ln in capsys.readouterr().out.splitlines():
        (u, v, _, kind, rid) = ln.split()
        if kind != "orig":
            dumped.setdefault(int(rid), set()).update({int(u), int(v)})
    assert main(["solve", path, "--json"]) == 0
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    gadgets = [d["gadget"] for d in diags if "gadget" in d]
    assert gadgets == [3]
    assert set(dumped) == {3}
    # The cluster's center and the vertices of its class outside the core.
    assert {0, 1, 2} <= dumped[3]


def test_deterministic_output(tmp_path, capsys):
    p = write(tmp_path, K4)
    main(["solve", p, "--json"])
    first = capsys.readouterr().out
    main(["solve", p, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_deterministic_json_smoke_instance(tmp_path):
    # The n=68 weighted smoke instance, solved by two separate processes
    # with different hash seeds: the --json output must match byte for byte.
    g = plant_forbidden(random_bounded(60, 3, 0.5, 7), "clique", 2, 8)
    records, _, _ = find_all_forbidden(g, Variant.restricted())
    g = reweighted(g, vertex_induced_weights(g, records, (0, 5), (0, 6), 9))
    assert g.n == 68
    lines = [f"{g.n} {g.m} {g.t} restricted"]
    lines += [f"{u} {v} {wd // 2}" for (u, v, wd) in g.edges]
    path = write(tmp_path, "\n".join(lines) + "\n", "smoke68.txt")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "tmatch.cli", "solve", path, "--json"],
            capture_output=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr.decode()
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])
