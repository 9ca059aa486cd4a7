"""Seeded closed-loop benchmark of the cube-orbits CLI.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The seed draws a fixed command list from the
workload's pool (see ``workloads.py``). One parent process runs one command
at a time, each in a fresh child process, as a user's CLI call would: no
in-process cache survives from one command to the next. Every command's exit
code and stdout digest are checked against ``golden.json``, recorded from the
seed commit.

``--trace 0`` runs the list ``workloads.passes(seconds)`` times and prints
the end-to-end metrics. Their times are given at a fixed CPU speed: each child
times a fixed reference loop just before and just after ``cli.main``, and a
time is scaled by ``REF_S`` over the reference time measured around it (see
``end_to_end``). The raw wall times are printed and kept as well.
``--trace 1`` runs each command once untraced and once traced, alternating
which goes first, and prints the per-layer metrics derived from the spans,
with the tracing overhead; its length is fixed by the list, not by
``--seconds``. At ``--seconds 45`` either kind of run ends within
45 s on a 2-CPU x86-64 machine at the seed commit. The names and units of the
metrics come from ``BENCHMARK.json``. Each run writes a result file under
``results/``; a traced run also writes its spans beside it, one gzipped JSON
line per command in the form ``tracing.Tracer.export`` gives (read it with
``tracing.decode``). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import run_command
from stats import tail
from tracing import LAYERS, decode, summarize
from workloads import WORKLOADS, draw, passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"
BENCHMARK = ROOT / "BENCHMARK.json"

FACTOR = ("formulas.divisors", "formulas.mobius", "formulas.euler_phi")

# The reference loop's time (child.reference) at the speed that the reported
# end-to-end times are scaled to; on a 2-CPU x86-64 VM it takes 5 to 8 ms, so
# scaled times stay close to wall seconds. The host's other tenants make that
# CPU run up to 1.6 times slower in phases of 0.05 s to minutes, and a loop
# that needs no cube_orbits code slows with it: dividing by it cancels most of
# that drift and none of a change in the program.
REF_S = 0.007


def machine_info() -> dict:
    """What every result records so that each ratio keeps its base."""
    mem_total = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported tree has none
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
                capture_output=True,
                text=True,
            )
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mem_total": mem_total,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def check(sample: dict, expected: dict) -> str | None:
    """Why a command's report fails against its golden record, or None."""
    if sample["error"] is not None:
        return sample["error"]
    if sample["rc"] != expected["rc"]:
        return f"exit code {sample['rc']}, expected {expected['rc']}"
    if sample["sha256"] != expected["sha256"]:
        return f"stdout digest differs ({sample['bytes']} bytes, expected {expected['bytes']})"
    return None


def execute(cmd_id: int, argv: list[str], traced: bool, expected: dict) -> dict:
    report = run_command(argv, SRC, traced)
    sample = {
        "cmd": cmd_id,
        "traced": traced,
        "main_s": report.get("main_s"),
        "setup_s": report["setup_s"],
        "maxrss_kb": report.get("maxrss_kb"),
        "bytes": report.get("bytes"),
        "failure": check(report, expected),
        "ref_s": report.get("ref_s"),
    }
    if "trace" in report:
        sample["trace"] = report["trace"]
    return sample


def end_to_end(samples: list[dict], n_commands: int) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run and the details behind them.

    A single command's time (``cmd_p50_s``, ``cmd_tail_s``, ``setup_s``) is
    scaled by ``REF_S`` over the mean of its own child's two reference times.
    A pass's ``total_s`` is scaled by ``REF_S`` over the mean reference time of
    the whole pass: its few long commands would otherwise each carry the noise
    of two short reference samples.
    """
    timed = [s for s in samples if s["main_s"] is not None]
    for s in timed:
        s["scale"] = REF_S / statistics.mean(s["ref_s"])
    pass_totals, raw_totals = [], []
    for start in range(0, len(samples), n_commands):
        chunk = [s for s in samples[start : start + n_commands] if s["main_s"] is not None]
        if not chunk:  # every command of the pass failed; the failures count
            continue
        raw = sum(s["main_s"] for s in chunk)
        raw_totals.append(raw)
        pass_totals.append(raw * REF_S / statistics.mean(r for s in chunk for r in s["ref_s"]))
    times = [s["main_s"] * s["scale"] for s in timed]
    tail_value, tail_pct, tail_n = tail(times)
    failed = sum(1 for s in samples if s["failure"] is not None)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in timed),
        "total_s": statistics.median(pass_totals),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(s["maxrss_kb"] for s in timed) / 1024,
        "error_rate": failed / len(samples),
    }
    raw_times = [s["main_s"] for s in timed]
    details = {
        "pass_totals_s": pass_totals,
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "ref_s_median": statistics.median(r for s in timed for r in s["ref_s"]),
        "wall": {
            "setup_s": statistics.median(s["setup_s"] for s in timed),
            "total_s": statistics.median(raw_totals),
            "cmd_p50_s": statistics.median(raw_times),
            "cmd_tail_s": tail(raw_times)[0],
            "pass_totals_s": raw_totals,
        },
    }
    return metrics, details


def per_layer(samples: list[dict], names: list[str]) -> tuple[dict, dict]:
    """The per-layer metrics ``names`` of a traced run, summed over its commands."""
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    stats: dict[str, dict] = {}
    for sample in traced:
        if "trace" not in sample:
            continue
        for name, entry in summarize(decode(sample["trace"])).items():
            total = stats.setdefault(name, {})
            for field, value in entry.items():
                total[field] = total.get(field, 0) + value

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def distinct_ratio(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "distinct") / calls if calls else 0.0

    plain_total = sum(s["main_s"] or 0.0 for s in plain)
    traced_total = sum(s["main_s"] or 0.0 for s in traced)
    derived = {f"{layer}.{field}": 0.0 for layer in LAYERS for field in ("self_s", "wrapper_s")}
    for name, entry in stats.items():
        layer = name.split(".", 1)[0]
        derived[layer + ".self_s"] += entry["self_s"]
        derived[layer + ".wrapper_s"] += entry["wrapper_s"]
    derived.update({
        "formulas.factor.calls": sum(get(n, "calls") for n in FACTOR),
        "formulas.factor.self_s": sum(get(n, "self_s") for n in FACTOR),
        "formulas.lucas_string_classes.distinct_ratio": distinct_ratio("formulas.lucas_string_classes"),
        "oracle.build.distinct_ratio": distinct_ratio("oracle.build"),
        "oracle.build.rss_growth_mb": get("oracle.build", "rss_growth_kb") / 1024,
        "verify.checks": get("verify.run_suite", "checks"),
        "cli.output_bytes": sum(s["bytes"] or 0 for s in traced),
        "trace.spans": sum(s["trace"]["count"] for s in traced if "trace" in s),
        "trace.overhead": traced_total / plain_total if plain_total else 0.0,
        "trace.wrapper_s": sum(derived[f"{layer}.wrapper_s"] for layer in LAYERS),
    })
    # every other metric is "<span name>.<field>" of the summed span statistics
    metrics = {name: derived[name] if name in derived else get(*name.rsplit(".", 1)) for name in names}
    details = {
        "untraced_total_s": plain_total,
        "traced_total_s": traced_total,
        "wrapper_s_by_layer": {layer: derived[f"{layer}.wrapper_s"] for layer in LAYERS},
        "wrapper_cost_s": [s["trace"]["wrapper"] for s in traced if "trace" in s],
        "spans_by_name": stats,
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cube_orbits" / "cli.py").is_file():
        print(f"error: no cube_orbits sources under {SRC}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: missing golden records {GOLDEN}", file=sys.stderr)
        return 2
    # names and units of the metrics the final line reports; error_rate is
    # printed and stored as well, and the line carries it as failed/attempted
    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = {**declared, "error_rate": "ratio"}
    golden = json.loads(GOLDEN.read_text())[args.workload]
    commands = draw(args.workload, args.seed)
    missing = [c for c in commands if " ".join(c) not in golden]
    if missing:
        print(f"error: no golden record for {' '.join(missing[0])}", file=sys.stderr)
        return 2

    started = time.time()
    samples: list[dict] = []
    if args.trace:
        for cmd_id, argv_i in enumerate(commands):
            expected = golden[" ".join(argv_i)]
            order = (False, True) if cmd_id % 2 == 0 else (True, False)
            for traced in order:
                samples.append(execute(cmd_id, argv_i, traced, expected))
    else:
        for _ in range(passes(args.seconds)):
            for cmd_id, argv_i in enumerate(commands):
                samples.append(execute(cmd_id, argv_i, False, golden[" ".join(argv_i)]))
    if not any(s["main_s"] is not None for s in samples):
        print(f"error: no command ran to completion; first failure: {samples[0]['failure']}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, details = per_layer(samples, list(declared))
    else:
        metrics, details = end_to_end(samples, len(commands))
    failed = sum(1 for s in samples if s["failure"] is not None)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    spans = [{"cmd": s["cmd"], **s.pop("trace")} for s in samples if "trace" in s]
    if spans:
        with gzip.open(RESULTS / f"{stem}.spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "wall_s": time.time() - started,
        "machine": machine_info(),
        "argv": commands,
        "samples": samples,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "details": details,
        "attempted": len(samples),
        "failed": failed,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for s in samples:
        if s["failure"] is not None:
            print(f"FAILED  {' '.join(commands[s['cmd']])}: {s['failure']}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    if "tail_percentile" in details:
        print(f"cmd_tail_s is p{details['tail_percentile']:.1f} of {details['tail_samples']} commands")
        wall = ", ".join(f"{k} {v:.6g}" for k, v in details["wall"].items() if k != "pass_totals_s")
        print(f"times at REF_S = {REF_S} s per reference loop; unscaled wall s: {wall}; "
              f"median reference loop {details['ref_s_median']:.6g} s")
    print(f"result file {RESULTS / (stem + '.json')}")
    final = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
