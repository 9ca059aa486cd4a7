"""CLI behavior: formats, determinism, exit codes, bounds."""

import itertools
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from cube_orbits import formulas
from cube_orbits.cli import _orbit_size, main, table_rows
from cube_orbits.strings import dihedral_orbit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_rows_gamma_v():
    labels, rows = table_rows("gamma-v", 5)
    assert labels == ["|V(Gamma_n)|", "o_V(Gamma_n)", "o_V(Gamma_n,1)", "o_V(Gamma_n,2)"]
    assert rows == [
        [2, 3, 5, 8, 13],
        [1, 2, 4, 5, 9],
        [0, 1, 3, 2, 5],
        [1, 1, 1, 3, 4],
    ]
    with pytest.raises(ValueError):
        table_rows("gamma-x", 5)
    with pytest.raises(ValueError):
        table_rows("gamma-v", 0)


def test_table_plain(capsys):
    code, out, _ = run_cli(capsys, "table", "lucas-classes", "--max", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n"] + [str(i) for i in range(1, 10)]
    assert lines[1].split() == ["L_n", "1", "3", "4", "7", "11", "18", "29", "47", "76"]
    assert lines[4].split() == ["a_n", "0", "0", "0", "0", "0", "0", "0", "0", "18"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "lambda-e", "--max", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,o_E(Lambda_n),o_E(Lambda_n,n),o_E(Lambda_n,2n)",
        "1,0,0,0",
        "2,1,1,0",
        "3,1,1,0",
        "4,2,2,0",
    ]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "lambda-v", "--max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "table"
    rows = payload["result"]["rows"]
    assert rows[0] == {"n": "1", "o_V(Lambda_n)": "1", "o_V(Lambda_n,n)": "1", "o_V(Lambda_n,2n)": "0"}
    assert all(isinstance(v, str) for row in rows for v in row.values())
    # parsing then re-rendering is the identity
    assert json.dumps(payload, indent=2) + "\n" == out


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "table", "gamma-e", "--format", "json")
    second = run_cli(capsys, "table", "gamma-e", "--format", "json")
    assert first == second
    third = run_cli(capsys, "orbits", "lambda", "7", "edges")
    fourth = run_cli(capsys, "orbits", "lambda", "7", "edges")
    assert third == fourth


def test_orbits_plain(capsys):
    code, out, _ = run_cli(capsys, "orbits", "lambda", "9", "vertices")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda n=9 vertices: 9 orbits"
    sizes = sorted(int(line.split()[-1]) for line in lines[1:])
    assert sizes == [1, 3, 9, 9, 9, 9, 9, 9, 18]
    reps = [line.split()[0] for line in lines[1:]]
    assert reps == sorted(reps)


def test_orbits_gamma2(capsys):
    code, out, _ = run_cli(capsys, "orbits", "gamma", "2", "vertices")
    assert code == 0
    assert out.splitlines()[1:] == ["00  1", "01  2"]


def test_orbits_edges_formats(capsys):
    code, out, _ = run_cli(capsys, "orbits", "lambda", "5", "edges")
    assert code == 0
    assert out.splitlines()[0] == "lambda n=5 edges: 2 orbits"
    assert [line.split()[-1] for line in out.splitlines()[1:]] == ["5", "10"]
    code, out, _ = run_cli(capsys, "orbits", "lambda", "5", "edges", "--format", "csv")
    assert out.splitlines()[0] == "representative,size"
    assert out.splitlines()[1] == "00000-00001,5"
    code, out, _ = run_cli(capsys, "orbits", "lambda", "5", "edges", "--format", "json")
    payload = json.loads(out)
    assert payload["result"]["orbits"][0] == {"representative": ["00000", "00001"], "size": "5"}


def test_empty_string_rendering(capsys):
    code, out, _ = run_cli(capsys, "orbits", "gamma", "0", "vertices")
    assert code == 0
    assert out.splitlines()[1] == "ε  1"
    code, out, _ = run_cli(capsys, "orbits", "gamma", "0", "vertices", "--format", "json")
    assert json.loads(out)["result"]["orbits"][0]["representative"] == ""


def test_orbits_bound_refusal(capsys):
    code, _, err = run_cli(capsys, "orbits", "gamma", "31", "vertices")
    assert code == 2
    assert "exceeds the enumeration bound" in err
    # the refusal names the size of the graph it would have built
    code, out, err = run_cli(capsys, "orbits", "gamma", "27", "edges")
    assert (code, out) == (2, "")
    assert err == "error: dimension 27 exceeds the enumeration bound 26 (514229 vertices, 3916061 edges)\n"


def test_orbits_bound_refusal_is_immediate(capsys):
    # above NAMED_SIZE_LIMIT the refusal computes no counts: at n = 10^6 they
    # would take 10^6 big-integer steps and exceed Python's 4300-digit str limit
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", "gamma", "1000000", "vertices")
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == "error: dimension 1000000 exceeds the enumeration bound 26\n"
    assert elapsed < 0.1


def test_witness(capsys):
    code, out, _ = run_cli(capsys, "witness", "asymmetric", "9")
    assert code == 0
    assert out.splitlines()[0] == "witness: 101001000"
    assert "orbit size: 18" in out
    code, out, _ = run_cli(capsys, "witness", "vertex-orbit-size", "6", "3")
    assert code == 0
    assert "100100" in out and "orbit size: 3" in out
    code, out, _ = run_cli(capsys, "witness", "asymmetric", "9", "--format", "json")
    payload = json.loads(out)
    assert payload["result"] == {"witness": "101001000", "orbit_size": "18"}


def test_witness_orbit_size_counts_images():
    for n in range(1, 11):
        for bits in itertools.product("01", repeat=n):
            u = "".join(bits)
            assert _orbit_size(u) == len(dihedral_orbit(u)), u


def test_witness_memory_is_linear(capsys):
    # the orbit of a length-5000 witness has 10000 images of 5000 characters;
    # counting them one at a time must not store them (about 50 MB)
    tracemalloc.start()
    try:
        code = main(["witness", "asymmetric", "5000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "orbit size: 10000 (recomputed by orbit enumeration)" in capsys.readouterr().out
    assert peak < 2 * 1024 * 1024


def test_witness_time_is_linear(capsys):
    # the witness 0^320000 is fixed by every one of its 640000 dihedral images;
    # comparing the images one by one took 6.7 s
    started = time.perf_counter()
    code = main(["witness", "vertex-orbit-size", "320000", "1"])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert capsys.readouterr().out.endswith("orbit size: 1 (recomputed by orbit enumeration)\n")
    assert elapsed < 0.5


def test_witness_errors(capsys):
    code, _, err = run_cli(capsys, "witness", "asymmetric", "8")
    assert code == 2
    assert "no asymmetric" in err
    code, _, err = run_cli(capsys, "witness", "vertex-orbit-size", "9", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "witness", "vertex-orbit-size", "9")
    assert code == 2
    assert "requires a target size" in err


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "formulas", "--max", "60")
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS (12 checks)"
    code, out, _ = run_cli(capsys, "verify", "oracle-vs-formula", "--max", "8")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "automorphisms", "--max", "7")
    assert code == 0
    assert "n in [1, 7]" in out


def test_verify_refusal(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max", "40")
    assert code == 2
    lines = out.splitlines()
    assert any(line.startswith("  REFUSED") for line in lines)
    assert any("fibonacci binomial-sum identity" in line and "PASS" in line for line in lines)
    assert lines[-1].startswith("result: REFUSED")
    code, out, _ = run_cli(capsys, "verify", "automorphisms", "--max", "9")
    assert code == 2


def test_usage_errors(capsys):
    assert run_cli(capsys, "table", "gamma-x")[0] == 2
    assert run_cli(capsys, "table", "gamma-v", "--max", "zero")[0] == 2
    assert run_cli(capsys, "orbits", "gamma", "-3", "vertices")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "cube_orbits", "table", "lucas-classes", "--max", "4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "n,L_n,p_n,s_n,a_n"
    assert result.stdout.splitlines()[4] == "4,7,4,4,0"


def test_verify_fail_path(capsys, monkeypatch):
    total = formulas.lambda_vertex_orbit_total
    monkeypatch.setattr(formulas, "lambda_vertex_orbit_total", lambda n: total(n) + (n == 7))
    code, out, _ = run_cli(capsys, "verify", "formulas", "--max", "20")
    assert code == 1
    lines = out.splitlines()
    failed = lines.index("  FAIL  lambda vertex histogram sums  [n in [1, 20]]")
    assert lines[failed + 1].startswith("         counterexample: n=7:")
    assert sum(line.startswith("  FAIL") for line in lines) == 1
    assert lines[-1] == "result: FAIL (12 checks run)"


def test_internal_errors_are_not_usage_errors(capsys, monkeypatch):
    counts = formulas.graph_counts
    monkeypatch.setattr(formulas, "graph_counts", lambda n, kind: counts(n, kind)._replace(edges=-1))
    code, out, err = run_cli(capsys, "orbits", "gamma", "4", "vertices")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: graph construction mismatch for gamma n=4")
    assert err.rstrip().endswith("(this is a bug)")

    def inexact(n, kind):
        raise ArithmeticError("division 7/5 is not exact")

    monkeypatch.setattr(formulas, "graph_counts", inexact)
    code, out, err = run_cli(capsys, "table", "gamma-e", "--max", "3")
    assert code == 3
    assert err == "internal error: division 7/5 is not exact (this is a bug)\n"
    # a bad value from outside stays a usage error
    assert run_cli(capsys, "witness", "asymmetric", "8")[0] == 2
