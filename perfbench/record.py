"""Record the expected exit code and stdout digest of every pool command.

    python3 perfbench/record.py

Run from the root of the checkout whose output is the reference (the seed
commit). Each command runs in a fresh child, exactly as in a benchmark run.
``golden.json`` is rewritten as a whole, so every record in it comes from the
same code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import run_command
from workloads import WORKLOADS, pool

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SRC = HERE.parent / "src"


def main() -> int:
    golden = {}
    for workload in sorted(WORKLOADS):
        records = {}
        for argv in pool(workload):
            report = run_command(list(argv), SRC, traced=False)
            if report["error"] is not None:
                print(f"error: {' '.join(argv)}: {report['error']}", file=sys.stderr)
                return 1
            records[" ".join(argv)] = {
                "rc": report["rc"],
                "sha256": report["sha256"],
                "bytes": report["bytes"],
            }
            print(f"{report['main_s']:8.3f} s  rc={report['rc']}  {' '.join(argv)}", flush=True)
        golden[workload] = records
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
