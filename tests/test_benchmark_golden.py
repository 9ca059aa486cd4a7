"""Every command the benchmark can draw, against its exit code and stdout digest in ``perfbench/golden.json``.

The benchmark compares only the commands that its seed draws; this runs every command of every workload's pool
in process, through ``cli.main``, so a change to any output shows in tier-1.  The pools are read from
``perfbench/workloads.py``, which imports nothing of the program.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cube_orbits.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))  # appended, so no module of the tests or the program is shadowed

from workloads import WORKLOADS, pool  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pool_command_matches_its_golden_digest(workload):
    want = GOLDEN[workload]
    assert sorted(" ".join(argv) for argv in pool(workload)) == sorted(want)
    differ = []
    for argv in pool(workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        line = " ".join(argv)
        if (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) != (want[line]["rc"], want[line]["sha256"]):
            differ.append(line)
    assert not differ, f"{len(differ)} commands differ from perfbench/golden.json: {differ}"
