"""Spawn one CLI command in a fresh child process and collect its report."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

# A command that needs longer than this on the seed code is not in any pool;
# hitting it means a hang or a severe regression, counted as a failure.
COMMAND_TIMEOUT_S = 60.0


def run_command(argv: list[str], src: Path, traced: bool) -> dict:
    """Run ``cube-orbits <argv>`` in a child and return its measurements.

    The result always has ``setup_s`` (None when the child never got ready)
    and ``error`` (None, or why the command produced no usable report).
    """
    cmd = [sys.executable, str(CHILD), str(src), "1" if traced else "0", *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"setup_s": None, "error": f"timeout after {COMMAND_TIMEOUT_S:.0f} s"}
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return {"setup_s": None, "error": f"child exit {proc.returncode}: {tail[0]}"}
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready") - spawned
    report["error"] = report["crash"]
    return report
