"""Golden CLI captures: exit code and full stdout of small commands, byte for byte.

The captures in ``golden_cli.json`` were recorded from the code before the
check table and the shared renderer replaced the hand-written suites and
per-command formatters; every later change must reproduce them exactly.  One
entry was recorded again on purpose since: ``verify all --max 4``, where the
five checks that start at n = 5 now report SKIP instead of PASS and the
result line counts 28 checks instead of 33.  A second one was edited by hand
when the measured graph bound fell from 30 to 26: the oracle-vs-formula
refusal line of ``verify all --max 40``, and nothing else in that capture.
That line was recorded again when the suite got its own measured bound, 23,
below the graph bound, again when that bound was measured as 24, and again
when it was measured as 27 after the string-side rows shared one census.
The bijections refusal line of the same capture was recorded again when
that suite's bound, 18, was first measured, as 25, and its automorphisms
refusal line when the guessed bound 8 of that suite was measured as 20;
``verify automorphisms --max 9``, refused until then, was recorded again
as the PASS it now prints.
To record them again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cube_orbits.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

TABLES = ("gamma-v", "gamma-e", "lucas-classes", "lambda-v", "lambda-e")
FORMATS = ("plain", "csv", "json")

COMMANDS = (
    [["table", t] for t in TABLES]
    + [["table", t, "--max", "9", "--format", f] for t in TABLES for f in FORMATS]
    + [
        ["orbits", cube, str(n), ground, "--format", f]
        for cube in ("gamma", "lambda")
        for ground in ("vertices", "edges")
        for n in range(7)
        for f in FORMATS
    ]
    + [
        ["witness", *args, "--format", f]
        for args in (
            ["asymmetric", "9"],
            ["asymmetric", "12"],
            ["vertex-orbit-size", "6", "3"],
            ["vertex-orbit-size", "20", "20"],
        )
        for f in ("plain", "json")
    ]
    + [
        ["verify", "formulas", "--max", "30"],
        ["verify", "oracle-vs-formula", "--max", "8"],
        ["verify", "bijections", "--max", "13"],
        ["verify", "automorphisms", "--max", "6"],
        ["verify", "all", "--max", "4"],
        ["verify", "all", "--max", "40"],
        ["verify", "automorphisms", "--max", "9"],
        ["witness", "vertex-orbit-size", "9", "2"],
        ["table", "gamma-x"],
    ]
)


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def record() -> None:
    golden = {" ".join(argv): capture(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert list(golden) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_cli(golden, argv):
    got = capture(argv)
    want = golden[" ".join(argv)]
    assert got["exit"] == want["exit"]
    assert got["stdout"].encode("utf-8") == want["stdout"].encode("utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
