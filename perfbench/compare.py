"""Compare two sets of untraced benchmark results, one row per workload and metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a results directory or a single result file, for
example ``parent/perfbench/results`` and ``change/perfbench/results``. Runs
are paired in order of seed, then start time. Each row shows both
sides' median and quartiles, the pairs the change won, and the verdict of
``stats.verdict`` under the bound that ``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, verdict

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"

# error_rate is printed by every run but is 0 on a correct program, so it is
# not an end_to_end entry of BENCHMARK.json; any rise in it is a regression.
ERROR_RATE = {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": 0.0}


def load(location: str) -> dict[str, list[dict]]:
    """Untraced results under ``location``, by workload, ordered by seed then start."""
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = defaultdict(list)
    for file in files:
        result = json.loads(file.read_text())
        if result.get("trace") == 0:
            runs[result["workload"]].append(result)
    for results in runs.values():
        results.sort(key=lambda r: (r["seed"], r["started"]))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"] + [ERROR_RATE]
    parent_runs, change_runs = load(argv[0]), load(argv[1])
    header = f"{'workload':12s} {'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>7s}  verdict"
    print(header)
    for workload in sorted(set(parent_runs) & set(change_runs)):
        # the k-th runs of the two sides form pair k; with the same seeds on
        # both sides, each pair shares its seed
        n = min(len(parent_runs[workload]), len(change_runs[workload]))
        left, right = parent_runs[workload][:n], change_runs[workload][:n]
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in left]
            c = [r["metrics"][name]["value"] for r in right]
            sign = 1 if metric["better"] == "higher" else -1
            won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            result = verdict(p, c, metric["bound"], metric["better"])
            print(
                f"{workload:12s} {name:12s} "
                f"{p_med:12.5g} [{p_q1:9.5g}, {p_q3:9.5g}] "
                f"{c_med:12.5g} [{c_q1:9.5g}, {c_q3:9.5g}] "
                f"{won:3d}/{len(p):<3d}  {result}"
            )
    units = ", ".join(f"{m['name']} {m['unit']}" for m in metrics)
    print(f"units: {units}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
