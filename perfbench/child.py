"""Run one cube-orbits CLI command in this fresh process and report on it.

    python3 perfbench/child.py <src-dir> <trace 0|1> <cli argv...>

The command's stdout goes to a sink that hashes and counts it instead of
keeping it, so a large output costs what writing it to a pipe costs. One JSON
object is printed on the real stdout when the command has finished:

- ``ready``: ``time.monotonic()`` once ``cube_orbits.cli`` is imported;
- ``main_s``: wall time of ``cli.main`` including the final flush;
- ``ref_s``: the times of the reference loop run just before and just after
  ``cli.main``, which tell how fast the CPU ran around the command;
- ``rc``, ``sha256``, ``bytes``: exit code, digest and size of the output;
- ``maxrss_kb``: this process's ``ru_maxrss``;
- ``crash``: the exception text when ``cli.main`` raised, else null;
- ``trace``: the recorded spans when tracing is on.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import cube_orbits.cli  # noqa: E402  (the import is what setup_s measures)

READY = time.monotonic()

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


class HashSink(io.RawIOBase):
    """Write-only byte stream that keeps a SHA-256 and a byte count."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.size = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.digest.update(data)
        self.size += len(data)
        return len(data)


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work (5 to 8 ms).

    It does what the program does most (dict updates, small tuples, integer
    arithmetic) with the collector off, so the program's heap cannot change
    its cost; only the speed of the CPU can.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    rows = []
    acc = 0
    for i in range(20000):
        key = (i * 7919) & 8191
        table[key] = table.get(key, 0) + i
        rows.append((i, key))
        acc += (i * i) % 97
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def main() -> None:
    traced = sys.argv[2] == "1"
    argv = sys.argv[3:]
    tracer = None
    if traced:
        from tracing import Tracer  # found beside this script

        tracer = Tracer()
        tracer.install()
    sink = HashSink()
    real_stdout = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 16), encoding="utf-8")
    crash = None
    rc = None
    reference()  # warms the allocator, so that the two timed loops match
    ref_before = reference()
    start = time.perf_counter()
    try:
        rc = cube_orbits.cli.main(argv)
    except Exception as exc:  # a crash is a measured outcome, not a harness error
        crash = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    sys.stdout.flush()
    main_s = time.perf_counter() - start
    sys.stdout = real_stdout
    ref_after = reference()
    report = {
        "ready": READY,
        "main_s": main_s,
        "rc": rc,
        "sha256": sink.digest.hexdigest(),
        "bytes": sink.size,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "crash": crash,
        "ref_s": [ref_before, ref_after],
    }
    if tracer is not None:
        report["trace"] = tracer.export(start)
    real_stdout.write(json.dumps(report) + "\n")
    real_stdout.flush()


if __name__ == "__main__":
    main()
