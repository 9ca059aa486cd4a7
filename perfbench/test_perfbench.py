"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py

They live beside the benchmark, outside the package's tier-1 suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import run_command
from stats import quartiles, tail, verdict
from tracing import Tracer, decode, self_times, summarize
from workloads import WORKLOADS, draw, pool

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# --- the percentile rule behind cmd_tail_s


@pytest.mark.parametrize("n", [11, 12, 20, 32, 40, 99, 100, 1000])
def test_tail_keeps_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # distinct, unsorted
    value, percentile, count = tail(values)
    assert count == n
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentiles_for_the_run_sizes():
    assert tail([float(v) for v in range(1, 41)]) == (30.0, 75.0, 40)
    assert tail([float(v) for v in range(1, 33)])[1] == pytest.approx(68.75)


def test_tail_of_a_short_sample_is_its_minimum():
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 3)


def test_tail_counts_ties_by_rank():
    value, _, _ = tail([1.0] * 5 + [2.0] * 20)
    assert value == 2.0


# --- self time from spans


def test_self_time_of_nested_spans():
    # 0: [0, 10] root; 1: [1, 5] child; 2: [2, 3] grandchild
    parent, start, end = [-1, 0, 1], [0.0, 1.0, 2.0], [10.0, 5.0, 3.0]
    assert self_times(parent, start, end) == pytest.approx([6.0, 3.0, 1.0])


def test_self_time_of_sibling_spans():
    # two siblings under one root, and a leaf without children
    parent, start, end = [-1, 0, 0], [0.0, 1.0, 6.0], [10.0, 3.0, 9.0]
    assert self_times(parent, start, end) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_subtracts_the_wrapper_cost():
    # each span loses `inside` once and its parent loses `outside` per child
    parent, start, end = [-1, 0, 1, 0], [0.0, 1.0, 2.0, 6.0], [10.0, 5.0, 3.0, 9.0]
    assert self_times(parent, start, end, inside=0.1, outside=0.2) == pytest.approx(
        [3.0 - 0.1 - 0.4, 3.0 - 0.1 - 0.2, 1.0 - 0.1, 3.0 - 0.1]
    )


def test_calibrated_wrapper_cost_is_small_and_positive():
    cost = Tracer.calibrate(calls=2000, repeats=3)
    assert 0 < cost["inside"] + cost["outside"] < 1e-4


def test_summarize_counts_calls_distinct_keys_and_fields():
    trace = {
        "names": ["cli.main", "oracle.build"],
        "name": [0, 1, 1, 1],
        "parent": [-1, 0, 0, 0],
        "start": [0.0, 1.0, 2.0, 3.0],
        "end": [5.0, 1.5, 2.5, 3.5],
        "attrs": {
            "1": {"key": "a", "vertices": 3},
            "2": {"key": "b", "vertices": 5},
            "3": {"key": "a", "vertices": 3},
        },
    }
    stats = summarize(trace)
    assert stats["cli.main"] == {"calls": 1, "self_s": pytest.approx(3.5), "wrapper_s": 0.0}
    build = stats["oracle.build"]
    assert (build["calls"], build["distinct"], build["vertices"]) == (3, 2, 11)
    assert build["self_s"] == pytest.approx(1.5)
    # with a wrapper cost, the same spans lose it and report what was taken off
    stats = summarize({**trace, "wrapper": {"inside": 0.01, "outside": 0.1}})
    assert stats["cli.main"]["self_s"] == pytest.approx(3.5 - 0.01 - 0.3)
    assert stats["cli.main"]["wrapper_s"] == pytest.approx(0.31)
    assert stats["oracle.build"]["self_s"] == pytest.approx(1.5 - 0.03)


def test_traced_child_wraps_imported_names():
    # strings.period calls divisors through the name strings imported from formulas
    report = run_command(["verify", "oracle-vs-formula", "--max", "5"], SRC, traced=True)
    assert report["error"] is None and report["rc"] == 0
    trace = decode(report["trace"])
    names = [trace["names"][i] for i in trace["name"]]
    assert names[0] == "cli.main" and trace["parent"][0] == -1
    edges = {(names[trace["parent"][i]], names[i]) for i in range(len(names)) if trace["parent"][i] >= 0}
    assert ("strings.period", "formulas.divisors") in edges
    assert ("oracle.build", "strings.enumerate_strings") in edges
    assert "formulas.binomial" not in names
    assert all(0 <= s <= e for s, e in zip(trace["start"], trace["end"]))
    assert summarize(trace)["cli.main"]["calls"] == 1
    assert trace["wrapper"]["inside"] + trace["wrapper"]["outside"] > 0


# --- output checking


def test_tampered_digest_counts_as_failure():
    argv = ["table", "gamma-v", "--max", "5"]
    report = run_command(argv, SRC, traced=False)
    expected = {"rc": report["rc"], "sha256": report["sha256"], "bytes": report["bytes"]}
    assert run.check(report, expected) is None
    tampered = dict(expected, sha256="0" * 64)
    assert "digest" in run.check(report, tampered)
    assert "exit code" in run.check(report, dict(expected, rc=1))


def test_crash_and_timeout_reports_count_as_failures():
    expected = {"rc": 0, "sha256": "0" * 64, "bytes": 0}
    assert run.check({"error": "timeout after 60 s"}, expected) == "timeout after 60 s"
    crashed = {"error": "ZeroDivisionError: x", "rc": None, "sha256": "0" * 64}
    assert run.check(crashed, expected) is not None


def test_times_are_scaled_by_the_reference_loop():
    r = run.REF_S
    samples = [
        {"main_s": 1.0, "setup_s": 0.1, "maxrss_kb": 2048, "failure": None, "ref_s": [2 * r, 2 * r]},
        {"main_s": 2.0, "setup_s": 0.1, "maxrss_kb": 1024, "failure": None, "ref_s": [r, r]},
    ]
    metrics, details = run.end_to_end(samples, n_commands=2)
    # the pass is scaled by its mean reference time, 1.5 r
    assert metrics["total_s"] == pytest.approx(3.0 / 1.5)
    # single commands by their own: 1.0 / 2 and 2.0 / 1
    assert metrics["cmd_p50_s"] == pytest.approx((0.5 + 2.0) / 2)
    assert metrics["setup_s"] == pytest.approx((0.05 + 0.1) / 2)
    assert metrics["peak_rss_mb"] == 2.0
    assert details["wall"]["total_s"] == pytest.approx(3.0)


def test_child_reports_both_reference_times():
    report = run_command(["table", "gamma-v", "--max", "5"], SRC, traced=False)
    assert len(report["ref_s"]) == 2 and all(0 < t < 1 for t in report["ref_s"])


def test_every_pool_command_has_a_golden_record():
    golden = json.loads((HERE / "golden.json").read_text())
    for workload in WORKLOADS:
        assert set(golden[workload]) == {" ".join(c) for c in pool(workload)}
        assert all(r["rc"] == 0 for r in golden[workload].values())


# --- the seeded draw


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_argv_list(workload):
    assert draw(workload, 7) == draw(workload, 7)
    assert draw(workload, 7) != draw(workload, 8)


def test_draw_does_not_depend_on_the_process():
    code = "import json, workloads; print(json.dumps(workloads.draw('cross-check', 3)))"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=HERE,
            env={"PYTHONHASHSEED": str(hash_seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(outputs) == 1
    assert json.loads(outputs.pop()) == draw("cross-check", 3)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_list_has_the_same_mix(workload):
    sizes = {len(draw(workload, seed)) for seed in range(20)}
    assert len(sizes) == 1


# --- the comparison verdict


def test_verdict_rules():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert verdict(parent, [v - 3 for v in parent], 0.1, "lower") == "better"
    assert verdict(parent, [v + 3 for v in parent], 0.1, "lower") == "worse"
    assert verdict(parent, list(parent), 0.1, "lower") == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert verdict(noisy, list(noisy), 0.1, "lower") == "unresolved"
    # wider spread than the bound, yet every change run beats every parent run
    assert verdict(noisy, [4.0] * 10, 0.1, "lower") == "unchanged"
    # a gain needs ten pairs
    assert verdict(parent[:5], [v - 3 for v in parent[:5]], 0.1, "lower") != "better"
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
