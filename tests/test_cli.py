"""CLI behavior: formats, determinism, exit codes, bounds."""

import contextlib
import io
import json
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from cube_orbits import bijections, cli, formulas, oracle, strings, verify
from cube_orbits.cli import COMMANDS, TABLE_LIMIT, TABLES, WITNESS_LIMIT, main, parse, table_rows
from orbits import canonical_orbits

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_rows_gamma_v():
    columns, rows = table_rows("gamma-v", 5)
    assert columns == ["n", "|V(Gamma_n)|", "o_V(Gamma_n)", "o_V(Gamma_n,1)", "o_V(Gamma_n,2)"]
    assert rows == [
        ("1", "2", "1", "0", "1"),
        ("2", "3", "2", "1", "1"),
        ("3", "5", "4", "3", "1"),
        ("4", "8", "5", "2", "3"),
        ("5", "13", "9", "5", "4"),
    ]
    with pytest.raises(ValueError):
        table_rows("gamma-x", 5)
    with pytest.raises(ValueError):
        table_rows("gamma-v", 0)


def test_tables_build_no_graph(capsys, monkeypatch):
    # every table comes from the closed forms alone, n = 1 included
    def build(n, kind):
        raise AssertionError(f"table built the {kind} cube of dimension {n}")

    monkeypatch.setattr(oracle, "build", build)
    for which in TABLES:
        code, out, err = run_cli(capsys, "table", which)
        assert (code, out, err) == (0, GOLDEN[f"table {which}"]["stdout"], ""), which


def test_table_bound_refusal_is_immediate(capsys):
    started = time.perf_counter()
    for which in TABLES:
        for max_n in (TABLE_LIMIT + 1, 10**50):
            code, out, err = run_cli(capsys, "table", which, "--max", str(max_n))
            assert (code, out) == (2, ""), which
            assert err == f"error: max {max_n} exceeds the table bound {TABLE_LIMIT}\n", which
    assert time.perf_counter() - started < 0.1


def test_table_bound_cells_print():
    # the last column holds the largest cells; each prints within Python's default
    # limit of 4300 digits, so no accepted --max ends in a conversion error
    for which, table in TABLES.items():
        assert max(len(str(value)) for value in table.column(TABLE_LIMIT)) <= 4300, which


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


def as_records(envelope, columns):
    """The envelope as json.dumps takes it: each row an object of its columns, each edge a list.

    An orbit listing's rows are the engine's orbits decoded by the graph.
    """
    result = dict(envelope["result"])
    key = list(result)[-1]
    rows = result[key]
    if isinstance(rows, cli.OrbitRows):
        parameters = envelope["parameters"]
        rows = decoded_rows(parameters["cube"], parameters["n"], parameters["ground"])
    if isinstance(rows, list):
        result[key] = [
            {name: list(cell) if type(cell) is tuple else cell for name, cell in zip(columns, row)} for row in rows
        ]
    return {**envelope, "result": result}


def test_json_writer_is_json_dumps(capsys, monkeypatch):
    # the writer's text for the very envelope each command hands it, against json.dumps of that envelope
    calls = []
    writer = cli._json
    monkeypatch.setattr(
        cli, "_json", lambda envelope, columns=None: calls.append((envelope, columns)) or writer(envelope, columns)
    )
    commands = (
        [["table", which, "--max", str(m)] for which in TABLES for m in (1, 9, 40)]
        + [["orbits", cube, str(n), ground] for cube in ("gamma", "lambda") for ground in ("vertices", "edges")
           for n in range(11)]
        # the witness parameters hold k = None and k = 3
        + [["witness", "asymmetric", "9"], ["witness", "vertex-orbit-size", "6", "3"]]
    )
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        envelope, columns = calls.pop()
        assert (code, out) == (0, json.dumps(as_records(envelope, columns), indent=2) + "\n"), argv
        if argv[:4] in (["orbits", "gamma", "0", "edges"], ["orbits", "lambda", "1", "edges"]):
            assert len(envelope["result"]["orbits"]) == 0, argv


def written(envelope, columns):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._json(envelope, columns)
    return out.getvalue()


def test_json_writer_escapes_as_json_dumps():
    columns = ['say "hi"', "back\\slash", "100% %s", "line\nbreak\t\u0007", "null"]
    rows = [
        ('"quoted"', "a\\b", "%s %d 100%", "one\ntwo", ""),
        ("ε", "\t\u0007\x00\x1f", "%", "", "null"),
        ("\0", "", "\0\0", '"\0"', "\0"),
    ]
    # a parameter that is a quoted NUL, as a blank cell is, lies before the rows: a cut counted from the front
    # would split there
    parameters = {"n": 7, "k": None, "text": 'back\\slash "and" ε %s 100%\n\x1f', "nul": "\0", "nuls": ["\0", "\0"]}
    envelope = {"command": "orbits", "parameters": parameters, "result": {"count": "3", "rows": rows}}
    assert written(envelope, columns) == json.dumps(as_records(envelope, columns), indent=2) + "\n"
    empty = {"command": "orbits", "parameters": parameters, "result": {"count": "0", "rows": []}}
    assert written(empty, columns) == json.dumps(empty, indent=2) + "\n"
    with pytest.raises(TypeError):  # no JSON text is made up for a cell that is not a string
        written({"command": "table", "parameters": {}, "result": {"rows": [("1", 0.5)]}}, ["n", "cell"])


class CountingSink:
    """A stdout that keeps nothing of what is written to it, only the number of characters."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_output_is_streamed(monkeypatch):
    # the output goes out piece by piece: joining it, or encoding it whole, would hold about as much
    # memory as is written
    growth = []
    emit = cli._emit

    def traced(*args):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        code = emit(*args)
        growth.append(tracemalloc.get_traced_memory()[1] - before)
        return code

    monkeypatch.setattr(cli, "_emit", traced)
    commands = [["orbits", "gamma", "16", "edges", "--format", f] for f in ("plain", "csv", "json")] + [
        ["table", "gamma-v", "--max", "400", "--format", f] for f in ("csv", "json")
    ]
    for argv in commands:
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
        finally:
            tracemalloc.stop()
        assert code == 0, argv
        assert growth.pop() < sink.chars / 2, argv


def test_table_holds_each_cell_once(monkeypatch):
    # a table's cells are held as strings only, made column by column: held also as ints, and transposed
    # twice, they peaked at 1.88 (CSV) and 1.67 (JSON) times the characters written; plain text, with each
    # line built whole, peaked at 1.53, and it writes each padded cell as it is made; the parser is used once
    # first, so the figure never counts what a parser's first use in a process imports and caches; the cold
    # and warm readings are the same, 1.313 (CSV), 1.205 (JSON) and 0.935 (plain) on Python 3.11, 1.277-1.315,
    # 1.173-1.209 and 0.910-0.937 on 3.10-3.13
    parse(["table", "gamma-v", "--max", "3000", "--format", "csv"])
    for fmt, bound in (("csv", 1.4), ("json", 1.4), ("plain", 1.2)):
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["table", "gamma-v", "--max", "3000", "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, fmt
        assert peak / sink.chars < bound, fmt


def test_table_columns_share_bounded_caches(monkeypatch):
    # the columns of a table ask for terms with n going up, so most terms are the sum of two held ones, and
    # take the same factorizations and string class counts again; `table lambda-v --max 1500` made 51,356
    # fast-doubling calls uncached, 6,950 with 256 terms in a least-recently-used cache and 1,346 with 128
    # terms of each sequence in its own window; it asks for 3,750 class counts, of which 2,080 miss their
    # bounded cache
    calls = []
    fast_doubling = formulas._fast_doubling

    def counting(*args):
        calls.append(args)
        return fast_doubling(*args)

    monkeypatch.setattr(formulas, "_fast_doubling", counting)
    formulas._fibs.clear()
    formulas._lucases.clear()
    formulas._factor.cache_clear()
    formulas._classes.cache_clear()
    table_rows("lambda-v", 1500)
    assert len(calls) <= 1500
    assert len(formulas._fibs) + len(formulas._lucases) <= 256
    assert formulas._classes.cache_info().misses <= 2100
    for cached in (formulas._factor, formulas._divisors, formulas._classes):
        assert cached.cache_info().currsize <= 256


def test_orbit_rows_hold_ints():
    # a run of edge orbits is held as three ints of 4 bytes until its rows are written: 7.5 bytes for
    # each orbit here, with the half tables; three ints per orbit held 17.1, and a row of a tuple of
    # strings in a tuple about 120
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        rows = cli._orbit_rows("gamma", 18, oracle.EDGES)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 17345
    assert (held - before) / len(rows) < 12


def decoded_rows(cube, n, ground):
    """The engine's orbits of ``orbits cube n ground`` decoded by the graph: (representative, size) as strings,
    an edge's representative a pair."""
    graph = oracle.build(n, cube)
    return [
        (graph.decode(rep) if type(rep) is int else tuple(map(graph.decode, rep)), str(size))
        for rep, size in canonical_orbits(graph, ground)
    ]


def per_run(texts, cube, n, ground):
    """Row texts in order as ``OrbitRows.texts`` yields them: one per vertex row, or the rows of each run of edge
    orbits that the walk yields, joined."""
    if ground == oracle.VERTICES:
        return list(texts)
    texts = iter(texts)
    runs = oracle.orbit_walk(oracle.build(n, cube), ground)
    return ["".join(next(texts) for _ in range(bits.bit_count())) for _, bits, _ in runs]


def decoded_listing(cube, n, ground):
    """The listing of ``orbits cube n ground`` in every format, from the engine's orbits decoded by the graph."""
    rows = decoded_rows(cube, n, ground)

    def joined(rep, sep, human=lambda s: s):
        return human(rep) if type(rep) is str else sep.join(map(human, rep))

    plain = f"{cube} n={n} {ground}: {len(rows)} orbits\n" + "".join(
        f"{joined(rep, '-', lambda s: s or 'ε')}  {size}\n" for rep, size in rows
    )
    csv = "representative,size\n" + "".join(f"{joined(rep, '-')},{size}\n" for rep, size in rows)
    envelope = {
        "command": "orbits",
        "parameters": {"cube": cube, "n": n, "ground": ground},
        "result": {
            "orbit_count": str(len(rows)),
            "orbits": [{"representative": rep if type(rep) is str else list(rep), "size": size} for rep, size in rows],
        },
    }
    return {"plain": plain, "csv": csv, "json": json.dumps(envelope, indent=2) + "\n"}


@pytest.mark.parametrize("cube", ["gamma", "lambda"])
@pytest.mark.parametrize("ground", ["vertices", "edges"])
def test_listings_equal_decoded_orbits(capsys, cube, ground):
    # the golden captures stop at n = 6; the rows decoded as they are written match the graph's decoding,
    # also at n = 17 and 18, whose half tables (512 and 256 entries, then 512 and 512) split an odd and
    # an even length
    for n in [*range(15), 17, 18]:
        for fmt, text in decoded_listing(cube, n, ground).items():
            assert run_cli(capsys, "orbits", cube, str(n), ground, "--format", fmt) == (0, text, ""), (n, fmt)


@pytest.mark.parametrize("cube", ["gamma", "lambda"])
def test_json_listing_rows_are_json_dumps(monkeypatch, cube):
    # a JSON listing's rows, joined from the pieces cut from json.dumps of the envelope, which keep the cells'
    # quote marks, are json.dumps of each row, indented to the rows' depth and led by the separator; each
    # listing calls json.dumps once
    pieces, dumps = [], []
    texts = cli.OrbitRows.texts
    monkeypatch.setattr(cli.OrbitRows, "texts", lambda rows, *args: pieces.append(args) or texts(rows, *args))
    counted = SimpleNamespace(dumps=lambda *args, **kw: dumps.append(args) or json.dumps(*args, **kw))
    monkeypatch.setattr(cli, "json", counted)
    for n in range(15):
        for ground in (oracle.VERTICES, oracle.EDGES):
            rows = cli._orbit_rows(cube, n, ground)
            written({"command": "orbits", "parameters": {}, "result": {"orbits": rows}}, ["representative", "size"])
            assert len(dumps) == 1, (n, ground)
            dumps.clear()
            found = list(texts(rows, *pieces.pop())) if len(rows) else []
            dumped = [
                ",\n" + textwrap.indent(json.dumps({"representative": rep, "size": size}, indent=2), " " * 6)
                for rep, size in decoded_rows(cube, n, ground)
            ]
            assert found == per_run(dumped, cube, n, ground) and len(dumped) == len(rows) and not pieces, (n, ground)


@pytest.mark.parametrize("cube", ["gamma", "lambda"])
def test_each_run_of_edge_orbits_is_written_as_its_rows(capsys, monkeypatch, cube):
    # a run's rows are written as one text, v's half strings joined once for the half that v differs in; here
    # each row is written alone from the runs that tests/orbits.py expands, with every format's pieces
    pieces = []
    texts = cli.OrbitRows.texts
    monkeypatch.setattr(cli.OrbitRows, "texts", lambda rows, *args: pieces.append(args) or texts(rows, *args))
    for n in range(17):
        graph, rows = oracle.build(n, cube), cli._orbit_rows(cube, n, oracle.EDGES)
        for fmt in ("plain", "csv", "json"):
            assert run_cli(capsys, "orbits", cube, str(n), "edges", "--format", fmt)[0] == 0
            # a JSON listing without rows reads no pieces
            assert len(pieces) == (1 if len(rows) or fmt != "json" else 0), (n, fmt)
            for lead, join, mid, end, *_ in pieces:
                alone = [f"{lead}{graph.decode(u)}{join}{graph.decode(v)}{mid}{size}{end}"
                         for (u, v), size in canonical_orbits(graph, oracle.EDGES)]
                assert list(texts(rows, lead, join, mid, end)) == per_run(alone, cube, n, oracle.EDGES), (n, fmt)
            pieces.clear()


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
    code, out, err = run_cli(capsys, "orbits", "gamma", "31", "edges")
    assert (code, out) == (2, "")
    assert err == "error: dimension 31 exceeds the enumeration bound 30 (3524578 vertices, 30737759 edges)\n"


def test_orbits_bound_refusal_is_immediate(capsys):
    # above NAMED_SIZE_LIMIT the refusal computes no counts: at n = 10^6 they
    # would have about 209,000 digits, past Python's 4300-digit str limit
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", "gamma", "1000000", "vertices")
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == "error: dimension 1000000 exceeds the enumeration bound 30\n"
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


def test_witness_bound_refusal_is_immediate(capsys):
    started = time.perf_counter()
    for argv in (["asymmetric", str(WITNESS_LIMIT + 1)], ["vertex-orbit-size", str(WITNESS_LIMIT + 1), "1"]):
        code, out, err = run_cli(capsys, "witness", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: length {WITNESS_LIMIT + 1} exceeds the witness bound {WITNESS_LIMIT}\n"
    assert time.perf_counter() - started < 0.1


def test_witness_errors(capsys):
    code, _, err = run_cli(capsys, "witness", "asymmetric", "8")
    assert code == 2
    assert "no asymmetric" in err
    code, _, err = run_cli(capsys, "witness", "vertex-orbit-size", "9", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "witness", "vertex-orbit-size", "9")
    assert code == 2
    assert "requires a target size" in err


def test_witness_asymmetric_refuses_a_size(capsys, monkeypatch):
    def build(n):
        raise AssertionError("a witness string was built")

    monkeypatch.setattr(cli, "asymmetric_witness", build)
    code, out, err = run_cli(capsys, "witness", "asymmetric", "9", "5")
    assert (code, out) == (2, "")
    assert err == "error: witness asymmetric takes no target size k, got 5\n"


def test_integer_arguments_name_no_private_function(capsys):
    for argv, what in (
        (["table", "gamma-v", "--max", "x"], "argument --max: expected a positive integer, got x"),
        (["orbits", "gamma", "x", "vertices"], "argument n: expected a nonnegative integer, got x"),
        (["witness", "vertex-orbit-size", "9", "x"], "argument k: expected a positive integer, got x"),
        (["verify", "all", "--max", "0"], "argument --max: expected a positive integer, got 0"),
        (["orbits", "lambda", "-2", "edges"], "argument n: expected a nonnegative integer, got -2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.rstrip().endswith(what), argv
        assert "_positive" not in err and "_nonnegative" not in err, argv


# the parity test in test_parse.py reads integers with this same reader, so it cannot see how one is converted
@pytest.mark.parametrize("read, text, value", [
    # every spelling int() takes is taken: padded, signed, with digit groups, and a negative zero
    (1, " 3", 3), (1, "+3", 3), (1, "1_0", 10), (0, "-0", 0), (0, "0", 0), (("gamma", "lambda"), "gamma", "gamma"),
])
def test_read_takes_every_integer_spelling_of_int(read, text, value):
    assert cli._read("n", read, text) == value


@pytest.mark.parametrize("read, text, message", [
    (0, "x", "argument n: expected a nonnegative integer, got x"),
    (0, "", "argument n: expected a nonnegative integer, got "),
    (0, "1.5", "argument n: expected a nonnegative integer, got 1.5"),
    (0, "0x3", "argument n: expected a nonnegative integer, got 0x3"),
    (0, "-2", "argument n: expected a nonnegative integer, got -2"),
    (1, "0", "argument n: expected a positive integer, got 0"),
    (("gamma", "lambda"), "delta", "argument n: invalid choice: 'delta' (choose from 'gamma', 'lambda')"),
])
def test_read_refuses_with_the_whole_message(read, text, message):
    with pytest.raises(ValueError) as refused:
        cli._read("n", read, text)
    assert str(refused.value) == message


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "formulas", "--max", "60")
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS (12 checks)"
    code, out, _ = run_cli(capsys, "verify", "oracle-vs-formula", "--max", "14")
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
    past = verify.SUITE_HARD_BOUND[verify.AUTOMORPHISMS] + 1
    code, out, _ = run_cli(capsys, "verify", "automorphisms", "--max", str(past))
    assert code == 2


@pytest.mark.parametrize("suite", verify.SUITE_HARD_BOUND)
def test_verify_bound_refusal_is_immediate(capsys, suite):
    # a suite refusal is a result line of the report, on stdout like every other; the oracle suite's bound
    # lies below the graph bound: at bound + 1 every graph can be built, but the suite would run past its
    # time budget, so it is refused before the first build
    bound = verify.SUITE_HARD_BOUND[suite]
    assert suite != verify.ORACLE or bound < oracle.BUILD_LIMIT
    what = "closed-form" if suite == verify.FORMULAS else "enumeration"
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", suite, "--max", str(bound + 1))
    elapsed = time.perf_counter() - started
    assert (code, err) == (2, "")
    assert out == (
        f"suite {suite} (max n = {bound + 1})\n"
        f"  REFUSED  max {bound + 1} exceeds the {what} bound {bound} for this suite\n"
        "result: REFUSED (0 checks run, some suites skipped)\n"
    )
    assert elapsed < 0.1


# tier-1 cannot run a command at its real bound, which takes seconds, so each test below lowers one bound
# constant and runs its command at the bound, which must answer, and one past it, which must be refused


@pytest.mark.parametrize("which", TABLES)
def test_a_table_answers_at_its_lowered_bound_and_refuses_one_past(capsys, monkeypatch, which):
    monkeypatch.setattr(cli, "TABLE_LIMIT", 7)
    code, out, err = run_cli(capsys, "table", which, "--max", "7", "--format", "csv")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [str(n) for n in range(1, 8)]
    code, out, err = run_cli(capsys, "table", which, "--max", "8", "--format", "csv")
    assert (code, out, err) == (2, "", "error: max 8 exceeds the table bound 7\n")


def test_a_witness_answers_at_its_lowered_bound_and_refuses_one_past(capsys, monkeypatch):
    monkeypatch.setattr(cli, "WITNESS_LIMIT", 12)
    for argv, witness in ((["asymmetric"], "101001000000"), (["vertex-orbit-size", "1"], "0" * 12)):
        code, out, err = run_cli(capsys, "witness", argv[0], "12", *argv[1:])
        assert (code, out.splitlines()[0], err) == (0, f"witness: {witness}", ""), argv
        code, out, err = run_cli(capsys, "witness", argv[0], "13", *argv[1:])
        assert (code, out, err) == (2, "", "error: length 13 exceeds the witness bound 12\n"), argv


@pytest.mark.parametrize("suite", verify.SUITE_HARD_BOUND)
def test_a_suite_answers_at_its_lowered_bound_and_refuses_one_past(capsys, monkeypatch, suite):
    monkeypatch.setitem(verify.SUITE_HARD_BOUND, suite, 6)
    code, out, err = run_cli(capsys, "verify", suite, "--max", "6")
    assert (code, err) == (0, "")
    assert out.startswith(f"suite {suite} (max n = 6)\n") and out.splitlines()[-1].startswith("result: PASS")
    code, out, err = run_cli(capsys, "verify", suite, "--max", "7")
    what = "closed-form" if suite == verify.FORMULAS else "enumeration"
    assert (code, err) == (2, "")
    assert f"  REFUSED  max 7 exceeds the {what} bound 6 for this suite\n" in out


@pytest.mark.parametrize("cube", ["gamma", "lambda"])
def test_a_listing_answers_at_its_lowered_bound_and_refuses_one_past(capsys, monkeypatch, cube):
    monkeypatch.setattr(oracle, "BUILD_LIMIT", 6)
    monkeypatch.setattr(oracle, "NAMED_SIZE_LIMIT", 8)
    for ground in ("vertices", "edges"):
        code, out, err = run_cli(capsys, "orbits", cube, "6", ground)
        assert (code, err) == (0, ""), ground
        assert out.startswith(f"{cube} n=6 {ground}: "), ground
    # the refusal names the size of the graph up to NAMED_SIZE_LIMIT, and no size past it
    for n in (7, 8):
        counts = formulas.graph_counts(n, cube)
        code, out, err = run_cli(capsys, "orbits", cube, str(n), "edges")
        assert (code, out) == (2, ""), n
        assert err == (
            f"error: dimension {n} exceeds the enumeration bound 6 ({counts.vertices} vertices, {counts.edges} edges)\n"
        ), n
    code, out, err = run_cli(capsys, "orbits", cube, "9", "edges")
    assert (code, out, err) == (2, "", "error: dimension 9 exceeds the enumeration bound 6\n")


def test_usage_errors(capsys):
    # one parser gives one text on every Python version, where argparse worded its messages differently
    for argv, line in (
        (["table", "gamma-x"],
         "argument which: invalid choice: 'gamma-x' (choose from 'gamma-e', 'gamma-v', 'lambda-e', 'lambda-v', "
         "'lucas-classes')"),
        (["orbits", "gamma", "3"], "the following arguments are required: ground"),
        (["table", "gamma-v", "--bogus"], "unrecognized arguments: --bogus"),
        (["table", "gamma-v", "--format"], "argument --format: expected one argument"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n"), argv
    assert run_cli(capsys, "table", "gamma-v", "--max", "zero")[0] == 2
    assert run_cli(capsys, "orbits", "gamma", "-3", "vertices")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *([command, "--help"] for command in COMMANDS)], ids=" ".join)
def test_help_lists_every_command_and_choice(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    for name, command in COMMANDS.items():
        assert f"  {name} " in out and command.help in out, name
        for read in [read for _, read in command.positionals] + list(command.options.values()):
            assert not isinstance(read, tuple) or "{" + ",".join(read) + "}" in out, name


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "cube_orbits", "table", "lucas-classes", "--max", "4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "n,L_n,p_n,s_n,a_n"
    assert result.stdout.splitlines()[4] == "4,7,4,4,0"


def _modules_loaded_by(statement):
    script = f"{statement}\nimport sys\nprint(*sys.modules)"
    return set(subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout.split())


def test_startup_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process that imports the CLI first, and dataclasses would bring
    # inspect and its imports into each one
    added = _modules_loaded_by("import cube_orbits.cli") - _modules_loaded_by("pass")
    assert "cube_orbits.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_a_command_loads_no_argparse():
    # argparse's first use in a process took 2.3-3.8 ms of a command before any work: gettext imported locale,
    # five parsers were built and the arguments parsed; the CLI reads them from its own table instead
    for statement in ("import cube_orbits.cli",
                      "from cube_orbits.cli import main; main(['table', 'gamma-v', '--max', '1'])"):
        loaded = _modules_loaded_by(statement)
        assert "cube_orbits.cli" in loaded
        assert not loaded & {"argparse", "gettext", "locale"}, statement


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_by_sigpipe():
    # `cube-orbits orbits gamma 16 edges | head -1`: the reader leaves after the first line of
    # 219 kB, and the process ends as coreutils tools do, with no traceback
    child = subprocess.Popen(
        [sys.executable, "-m", "cube_orbits", "orbits", "gamma", "16", "edges"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"gamma n=16 edges: 5911 orbits\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


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


def test_verify_fail_wins_over_refused(capsys, monkeypatch):
    # formulas runs to 40 and fails at n = 37; the other three suites are refused at 40
    terms = verify._binomial_terms
    monkeypatch.setattr(verify, "_binomial_terms", lambda n: (t + (n == 37) for t in terms(n)))
    code, out, _ = run_cli(capsys, "verify", "all", "--max", "40")
    lines = out.splitlines()
    assert sum(line.startswith("  REFUSED") for line in lines) == 3
    assert any(line.startswith("  FAIL") for line in lines)
    assert (code, lines[-1]) == (1, "result: FAIL (12 checks run)")


def test_verify_bijection_counterexample(capsys, monkeypatch):
    # an edge map that sends every edge of the 5-dimensional Lucas cube to one string
    edge_map = bijections.lambda_edge_to_gamma_vertex
    monkeypatch.setattr(
        bijections, "lambda_edge_to_gamma_vertex", lambda n, edge: 0b00 if n == 5 else edge_map(n, edge)
    )
    code, out, _ = run_cli(capsys, "verify", "bijections", "--max", "5")
    assert code == 1
    lines = out.splitlines()
    failed = lines.index("  FAIL  edge orbit bijection holds  [n in [5, 5]]")
    assert lines[failed + 1] == "         counterexample: n=5: 2 edge orbits map onto 1 of 2 vertex orbits"


def test_a_walk_fault_reaches_the_bijection_row(capsys, monkeypatch):
    # the row reads the edge orbits from the walk's runs: with the last run of Λn edges dropped, Λ5 keeps
    # one of its two edge orbits
    walk = oracle.orbit_walk

    def short(graph, ground):
        runs = list(walk(graph, ground))
        return runs[:-1] if (graph.kind, ground) == ("lambda", oracle.EDGES) else runs

    monkeypatch.setattr(oracle, "orbit_walk", short)
    assert bijections.verify_edge_orbit_bijection(5) == "n=5: 1 edge orbits map onto 1 of 2 vertex orbits"
    code, out, _ = run_cli(capsys, "verify", "bijections", "--max", "6")
    assert code == 1
    lines = out.splitlines()
    failed = lines.index("  FAIL  edge orbit bijection holds  [n in [5, 6]]")
    assert lines[failed + 1] == "         counterexample: n=5: 1 edge orbits map onto 1 of 2 vertex orbits"


def test_verify_automorphisms_checks_the_enumeration_maps(capsys, monkeypatch):
    # a reversal that does nothing leaves the searched groups twice as large as the applied ones
    monkeypatch.setattr(oracle, "_reverse", lambda x, n: x)
    code, out, _ = run_cli(capsys, "verify", "automorphisms", "--max", "8")
    assert code == 1
    lines = out.splitlines()
    # the tiny cubes take their maps from reversal too, and Λ2 is the first whose reversal moves a vertex
    for name, scope, cube in (
        ("fibonacci cubes have exactly 2 automorphisms", "[n in [1, 8]]", "n=2"),
        ("lucas cubes have exactly 2n automorphisms, all dihedral", "[n in [3, 8]]", "n=3"),
        ("tiny cubes have the expected groups", "[gamma n=0; lambda n in [0, 2]]", "lambda n=2"),
    ):
        failed = lines.index(f"  FAIL  {name}  {scope}")
        assert lines[failed + 1] == (
            f"         counterexample: {cube}: automorphisms differ from the maps orbit enumeration applies"
        )
    assert lines[-1] == "result: FAIL (4 checks run)"


def test_verify_searches_each_cube_once(capsys, monkeypatch):
    # the group checks and the weight check share one search per cube: 9 of each kind, n in [0, 8];
    # the searches live for one suite run, so a second run searches every cube again
    searched = []
    search = oracle.automorphism_group

    def counted(graph):
        searched.append((graph.kind, graph.n))
        return search(graph)

    monkeypatch.setattr(oracle, "automorphism_group", counted)
    cubes = [(kind, n) for kind in ("gamma", "lambda") for n in range(9)]
    for runs in (1, 2):
        code, out, _ = run_cli(capsys, "verify", "automorphisms", "--max", "8")
        assert (code, out.splitlines()[-1]) == (0, "result: PASS (4 checks)")
        assert sorted(searched) == sorted(cubes * runs)


def internal_error(fault, file, function):
    """The pattern of an internal error's one stderr line: ``fault``, a pattern of its type and message, raised
    in ``function`` of ``file`` at any line."""
    return rf"internal error: {fault} at {re.escape(file)}:\d+ in {re.escape(function)} \(this is a bug\)\n"


def test_internal_errors_are_not_usage_errors(capsys, monkeypatch):
    counts = formulas.graph_counts
    monkeypatch.setattr(formulas, "graph_counts", lambda n, kind: counts(n, kind)._replace(edges=-1))
    code, out, err = run_cli(capsys, "orbits", "gamma", "4", "vertices")
    assert code == 3
    assert out == ""
    # raised inside the program, so the line names the file and function of the check that broke
    mismatch = r"AssertionError: graph construction mismatch for gamma n=4: got \(8, 10\), expected \(8, -1\)"
    assert re.fullmatch(internal_error(mismatch, "oracle.py", "build"), err)

    def inexact(n, kind):
        raise ArithmeticError("division 7/5 is not exact")

    monkeypatch.setattr(formulas, "graph_counts", inexact)
    code, out, err = run_cli(capsys, "table", "gamma-e", "--max", "3")
    assert code == 3
    assert re.fullmatch(internal_error("ArithmeticError: division 7/5 is not exact", "test_cli.py", "inexact"), err)
    # a bad value from outside stays a usage error
    assert run_cli(capsys, "witness", "asymmetric", "8")[0] == 2


def test_a_value_error_inside_verify_is_an_internal_error(capsys, monkeypatch):
    # verify refuses only through REFUSED results, so a ValueError raised by a check is a bug, not a usage error
    def refuse(n, edge):
        raise ValueError("endpoints must be Lucas strings")

    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", refuse)
    code, out, err = run_cli(capsys, "verify", "bijections", "--max", "6")
    assert (code, out) == (3, "")
    # the AssertionError that run_suite raises from the ValueError names the ValueError's frame
    assert re.fullmatch(internal_error("ValueError: endpoints must be Lucas strings", "test_cli.py", "refuse"), err)
    assert verify._once is verify._call
    assert run_cli(capsys, "witness", "asymmetric", "8")[0] == 2


def test_a_lost_half_string_is_an_internal_error(capsys, monkeypatch):
    # the vertices still come from string enumeration, checked against the closed forms: a half
    # enumeration that drops its last string makes a graph of the wrong size
    enumerate_strings = oracle.enumerate_strings
    monkeypatch.setattr(oracle, "enumerate_strings", lambda n, kind: enumerate_strings(n, kind)[:-1])
    with pytest.raises(AssertionError, match="graph construction mismatch for gamma n=6"):
        oracle.build(6, "gamma")
    code, out, err = run_cli(capsys, "orbits", "gamma", "6", "vertices")
    assert (code, out) == (3, "")
    assert re.fullmatch(internal_error("AssertionError: graph construction mismatch for gamma n=6: .*", "oracle.py",
                                       "build"), err)


def test_an_inexact_rotation_class_count_is_an_internal_error(capsys, monkeypatch):
    # the necklace row divides the census's sum of n // period by n: a wrong period can leave a remainder
    period = strings.period
    monkeypatch.setattr(strings, "period", lambda u: 2 if len(u) == 11 else period(u))
    code, out, err = run_cli(capsys, "verify", "oracle-vs-formula", "--max", "11")
    assert (code, out) == (3, "")
    assert re.fullmatch(internal_error("ArithmeticError: division 995/11 is not exact", "formulas.py", "_exact_div"),
                        err)


def test_a_fault_of_any_other_type_is_an_internal_error(capsys, monkeypatch):
    # exit 1 is the verdict of a failed check, so a lookup that fails inside the program must not end with it
    def unknown(n, edge):
        raise KeyError("0101")

    with monkeypatch.context() as patch:
        patch.setattr(bijections, "lambda_edge_to_gamma_vertex", unknown)
        code, out, err = run_cli(capsys, "verify", "bijections", "--max", "6")
    assert (code, out) == (3, "")
    assert re.fullmatch(internal_error("KeyError: '0101'", "test_cli.py", "unknown"), err)
    # a size past the listing's table of sizes fails as the rows are written, after the header
    walk = oracle.orbit_walk
    monkeypatch.setattr(oracle, "orbit_walk", lambda graph, ground: ((x, 99) for x, _ in walk(graph, ground)))
    code, out, err = run_cli(capsys, "orbits", "lambda", "6", "vertices")
    assert (code, out) == (3, "lambda n=6 vertices: 5 orbits\n")
    assert re.fullmatch(internal_error("IndexError: list index out of range", "cli.py", "<genexpr>"), err)


def test_a_write_error_is_raised_not_reported(capsys, monkeypatch):
    # an OSError is the process's to handle (``run`` ends a closed pipe by SIGPIPE), so main lets it through
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_table", closed)
    with pytest.raises(BrokenPipeError):
        main(["table", "gamma-v", "--max", "3"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_fault_partway_through_a_listing_keeps_whole_batches(capsys, monkeypatch, fmt):
    # a listing's rows go out 256 to a write: sizes past the size table from the 300th orbit on end the
    # second batch unwritten, so stdout is the text before the rows and the first 256 rows, whole
    argv = ("orbits", "gamma", "15", "vertices", "--format", fmt)
    code, whole, _ = run_cli(capsys, *argv)
    # a row ends its last line in plain text and CSV, and ends with its closing brace in JSON, whose head ends
    # no line so; the plain and CSV header is one line
    mark, before = ("\n      }", 0) if fmt == "json" else ("\n", 1)
    assert code == 0 and whole.count(mark) == before + 826
    walk = oracle.orbit_walk
    monkeypatch.setattr(oracle, "orbit_walk", lambda graph, ground: (
        (x, 99 if i >= 299 else size) for i, (x, size) in enumerate(walk(graph, ground))))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert re.fullmatch(internal_error("IndexError: list index out of range", "cli.py", "<genexpr>"), err)
    assert out == mark.join(whole.split(mark)[:before + 256]) + mark


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_fault_partway_through_an_edge_listing_keeps_whole_batches_of_runs(capsys, monkeypatch, fmt):
    # an edge listing's runs go out 32 to a write, each run's rows one text: a size past the size table from the
    # 40th run on ends the second batch unwritten, so stdout is the text before the rows and the first 32 runs'
    # rows, whole; each run holds at most n rows, so a write holds at most 32 n
    argv = ("orbits", "gamma", "15", "edges", "--format", fmt)
    code, whole, _ = run_cli(capsys, *argv)
    runs = list(oracle.orbit_walk(oracle.build(15, "gamma"), oracle.EDGES))
    rows = sum(bits.bit_count() for _, bits, _ in runs[:32])
    assert 32 < rows < sum(bits.bit_count() for _, bits, _ in runs[:39])
    # as above, a row ends a line in plain text and CSV, and JSON's inner lists close at a deeper indent
    mark, before = ("\n      }", 0) if fmt == "json" else ("\n", 1)
    assert code == 0 and whole.count(mark) == before + sum(bits.bit_count() for _, bits, _ in runs)
    walk = oracle.orbit_walk
    monkeypatch.setattr(oracle, "orbit_walk", lambda graph, ground: (
        (u, bits, 99 if i >= 39 else size) for i, (u, bits, size) in enumerate(walk(graph, ground))))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert re.fullmatch(internal_error("IndexError: list index out of range", "cli.py", "edge_runs"), err)
    assert out == mark.join(whole.split(mark)[:before + rows]) + mark
