"""Command-line front end.

Subcommands: ``table`` reproduces the published count tables, ``verify`` runs
the cross-validation suites, ``orbits`` lists orbits computed by enumeration,
``witness`` constructs strings with prescribed orbit behavior.  Output is
deterministic; counts are rendered as full decimal strings (also inside
JSON).  Exit codes: 0 pass/success, 1 verification failure, 2 usage error or
refusal, 3 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain, product
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import formulas, oracle, verify
from .formulas import GAMMA, LAMBDA
from .strings import asymmetric_witness, orbit_size, vertex_orbit_witness

# the rows of a listing are items of the envelope's result's last value, two levels deep
_ROW_PAD = " " * 6

PLAIN = "plain"
CSV = "csv"
JSON = "json"

# The longest witness: at this length `witness asymmetric` took 4.1 s (5.1 s as JSON) and
# 778 MB peak RSS on a 2-CPU machine, within the 30 s / 1 GB budget (README "Bounds").
WITNESS_LIMIT = 200_000_000

# The largest table: at M = 20000 every table took at most 7.7 s and 174 MB peak RSS in any format in three
# fresh runs (README "Bounds"), and from M = 20558 some cell has more than the 4300 digits Python prints by default.
TABLE_LIMIT = 20_000


def _gamma_v_column(n: int) -> list[int]:
    total, hist = formulas.gamma_vertex_orbits(n)
    return [formulas.fib(n + 2), total, hist[1], hist[2]]


def _gamma_e_column(n: int) -> list[int]:
    total, hist = formulas.gamma_edge_orbits(n)
    return [formulas.graph_counts(n, GAMMA).edges, total, hist[1], hist[2]]


def _lucas_classes_column(n: int) -> list[int]:
    classes = formulas.lucas_string_classes(n)
    return [formulas.lucas(n), classes.primitive, classes.primitive_symmetric, classes.asymmetric]


def _lambda_v_column(n: int) -> list[int]:
    return [
        formulas.lambda_vertex_orbit_total(n),
        formulas.lambda_vertex_orbit_count(n, n),
        formulas.lambda_vertex_orbit_count(n, 2 * n),
    ]


def _lambda_e_column(n: int) -> list[int]:
    total, hist = formulas.lambda_edge_orbits(n)
    return [total, hist[n], hist[2 * n]]


class Table(NamedTuple):
    default_max: int
    labels: list[str]
    column: Callable[[int], list[int]]


TABLES = {
    "gamma-v": Table(15, ["|V(Gamma_n)|", "o_V(Gamma_n)", "o_V(Gamma_n,1)", "o_V(Gamma_n,2)"], _gamma_v_column),
    "gamma-e": Table(14, ["|E(Gamma_n)|", "o_E(Gamma_n)", "o_E(Gamma_n,1)", "o_E(Gamma_n,2)"], _gamma_e_column),
    "lucas-classes": Table(16, ["L_n", "p_n", "s_n", "a_n"], _lucas_classes_column),
    "lambda-v": Table(18, ["o_V(Lambda_n)", "o_V(Lambda_n,n)", "o_V(Lambda_n,2n)"], _lambda_v_column),
    "lambda-e": Table(16, ["o_E(Lambda_n)", "o_E(Lambda_n,n)", "o_E(Lambda_n,2n)"], _lambda_e_column),
}


def table_rows(which: str, max_n: int) -> tuple[list[str], list[tuple[str, ...]]]:
    """Column names, ``"n"`` first, and one row of decimal strings per n = 1..max_n, made as its column is."""
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}")
    if max_n < 1:
        raise ValueError(f"table range must start at n = 1, got max {max_n}")
    if max_n > TABLE_LIMIT:
        raise ValueError(f"max {max_n} exceeds the table bound {TABLE_LIMIT}")
    _, labels, column = TABLES[which]
    return ["n", *labels], [(str(n), *map(str, column(n))) for n in range(1, max_n + 1)]


def _row_template(columns: list[str], row: tuple) -> str:
    """A row as ``json.dumps(..., indent=2)`` writes it as an object of ``columns`` in the listing.

    The template has ``%s`` where each cell's quoted text goes, one per string of an edge.  It comes from
    json.dumps of the row with ``null`` for each string: in indented JSON a value ends its line, and a key,
    quoted on one line, never does, so each ``null`` at the end of a line is a cell.
    """
    blank = {name: None if type(cell) is str else [None] * len(cell) for name, cell in zip(columns, row)}
    text = json.dumps(blank, indent=2).replace("%", "%%").replace("\n", "\n" + _ROW_PAD)
    return _ROW_PAD + re.sub(r"null(?=,?$)", "%s", text, flags=re.MULTILINE)


def _json(envelope: dict, columns: list[str] | None = None) -> None:
    """Write ``json.dumps(envelope, indent=2)`` and a newline to stdout, the rows one by one.

    When the last value of ``envelope["result"]`` is a list or an ``OrbitRows``, it holds the rows, each written
    as an object of ``columns`` from one template; the text around the rows is json.dumps of the envelope with
    that listing empty.  An ``OrbitRows`` writes its rows from the template split at its cells
    (``OrbitRows.texts``): a representative is 0s and 1s, an edge's a pair of them, and a size is digits, each
    of which JSON quotes with two quote marks.  A list's rows are tuples of strings in the order of ``columns``,
    each quoted into the template as json.dumps quotes strings by default (``ensure_ascii``); a cell that is not
    a string raises TypeError.
    """
    out = sys.stdout
    result = envelope["result"]
    key = list(result)[-1]
    rows = result[key]
    listing = isinstance(rows, (list, OrbitRows))
    text = json.dumps({**envelope, "result": {**result, key: []}} if listing else envelope, indent=2)
    if not (listing and rows):
        out.write(text)
        out.write("\n")
        return
    head, tail = text.rsplit("[]", 1)
    # every row is led by the separator from the row before it, which the first row drops
    if isinstance(rows, OrbitRows):
        template = ",\n" + _row_template(columns, (("", "") if rows.edges else "", ""))
        # json.dumps escapes every NUL it writes, so a NUL in each cell's place marks where the template splits;
        # a vertex row has one inner part, the text between representative and size
        lead, *inner, end = (template % (("\0",) * (3 if rows.edges else 2))).split("\0")
        filled = rows.texts(lead, '"', inner[0], inner[-1], end)
    else:
        template = ",\n" + _row_template(columns, rows[0])
        filled = (template % tuple(map(_quote, row)) for row in rows)
    out.write(head + "[\n" + next(filled)[2:])
    out.writelines(filled)
    # the list closes one level (two spaces) left of its rows
    out.write(f"\n{_ROW_PAD[2:]}]{tail}\n")


def _emit(
    args: argparse.Namespace,
    parameters: dict,
    result: dict,
    plain: Callable[[], Iterable[str]],
    columns: list[str] | None = None,
) -> int:
    """Write a command's output to stdout piece by piece: the JSON envelope, CSV rows, or the plain lines.

    The last value of ``result``, when it is a list or an ``OrbitRows``, holds the rows: a list holds tuples of
    strings in the order of ``columns``, written as they are, and an orbit listing writes each row's text in
    every format (``OrbitRows.texts``).  ``plain`` gives the plain text in pieces, a table's cell by cell; it is
    called only for plain output, so JSON and CSV do not pay for its layout.
    """
    out = sys.stdout
    if args.format == JSON:
        _json({"command": args.command, "parameters": parameters, "result": result}, columns)
    elif args.format == CSV:
        out.write(",".join(columns) + "\n")
        rows = list(result.values())[-1]
        if isinstance(rows, OrbitRows):
            # an edge is one cell, u-v
            out.writelines(rows.texts("", "", "-", ",", "\n"))
        else:
            out.writelines(",".join(row) + "\n" for row in rows)
    else:
        out.writelines(plain())
    return 0


def _plain_table(columns: list[str], rows: list[tuple[str, ...]]) -> Iterator[str]:
    # one line per column label, one right-aligned cell per n
    label_width = max(len(name) for name in columns)
    widths = [max(map(len, row)) for row in rows]
    # each cell is written as it is padded, so no line is held whole
    for i, name in enumerate(columns):
        yield name.ljust(label_width)
        for row, w in zip(rows, widths):
            yield "  " + row[i].rjust(w)
        yield "\n"


def cmd_table(args: argparse.Namespace) -> int:
    max_n = args.max if args.max is not None else TABLES[args.which].default_max
    columns, rows = table_rows(args.which, max_n)
    parameters = {"table": args.which, "max": max_n}
    return _emit(args, parameters, {"rows": rows}, lambda: _plain_table(columns, rows), columns)


class OrbitRows:
    """The rows of an orbit listing, held as ints; each row's text is made only as it is written.

    ``ints`` is one flat array: (x, size) for each vertex orbit, or (u, v, size) for each edge orbit.  Every
    format writes the rows through ``texts``, which joins a vertex's string from its high and low halves, read
    from tables of 2^ceil(n/2) and 2^floor(n/2) entries that also hold the format's fixed text.  ``len()`` is
    the number of rows; ``texts`` can be called again, and reads the rows anew.
    """

    def __init__(self, ints: Sequence[int], n: int, edges: bool) -> None:
        self.ints, self.edges, self.shift = ints, edges, n // 2
        # every string of each half's length, ascending, so a half's value indexes its string; of
        # length 0 there is one, the empty string, which is the one vertex of dimension 0
        self.halves = [["".join(bits) for bits in product("01", repeat=w)] for w in (n - self.shift, self.shift)]
        # an orbit has at most as many members as the group has elements: 2n, or 2 on the tiny cubes
        self.sizes = [str(k) for k in range(2 * n + 3)]

    def __len__(self) -> int:
        return len(self.ints) // (3 if self.edges else 2)

    def tables(self, lead: str, quote: str, join: str, mid: str, end: str, empty: str = "") -> tuple[list[str], ...]:
        """The five tables of an edge row's text, in order: ``lead`` and u's high half, u's low half and
        ``join``, v's high half, v's low half, then ``mid``, the size and ``end``; each string and size between
        ``quote`` marks.  A vertex row reads the first, fourth and last.  The empty string of n = 0 is ``empty``.
        """
        high, low = self.halves
        # only n = 0 has an empty high half: every other one is at least one bit long
        return (
            [f"{lead}{quote}{h or empty}" for h in high],
            [f"{l}{quote}{join}" for l in low],
            [quote + h for h in high],
            [l + quote for l in low],
            [f"{mid}{quote}{k}{quote}{end}" for k in self.sizes],
        )

    def texts(self, lead: str, quote: str, join: str, mid: str, end: str, empty: str = "") -> Iterator[str]:
        """Each row's finished text, in order, its table entries joined (see ``tables``)."""
        first, joined, second, last, sizes = self.tables(lead, quote, join, mid, end, empty)
        shift, mask, ints = self.shift, (1 << self.shift) - 1, iter(self.ints)
        # an f-string joins the entries in one step; + would make a string of each partial sum
        if self.edges:
            return (
                f"{first[u >> shift]}{joined[u & mask]}{second[v >> shift]}{last[v & mask]}{sizes[k]}"
                for u, v, k in zip(ints, ints, ints)
            )
        return (f"{first[x >> shift]}{last[x & mask]}{sizes[k]}" for x, k in zip(ints, ints))


def _orbit_rows(cube: str, n: int, vertices: bool) -> OrbitRows:
    """The rows of an orbit listing, from one orbit pass made before any output is written.

    A refusal or an internal error therefore leaves stdout empty.  Each orbit the engine yields is kept as
    ints, 4 bytes each, and the graph is freed before the rows are read.
    """
    from array import array  # here, not at the top: only orbit listings need it

    graph = oracle.build(n, cube)
    # an unsigned int holds 4 bytes on every platform CPython supports, and a vertex of n <= 32 fits in it
    ints = array("I")
    if vertices:
        ints.extend(chain.from_iterable(oracle.canonical_orbits(graph, oracle.VERTICES)))
        return OrbitRows(ints, n, False)
    append = ints.append
    for (u, v), k in oracle.canonical_orbits(graph, oracle.EDGES):
        append(u)
        append(v)
        append(k)
    return OrbitRows(ints, n, True)


def cmd_orbits(args: argparse.Namespace) -> int:
    vertices = args.ground == oracle.VERTICES
    rows = _orbit_rows(args.cube, args.n, vertices)
    header = f"{args.cube} n={args.n} {args.ground}: {len(rows)} orbits\n"
    parameters = {"cube": args.cube, "n": args.n, "ground": args.ground}
    result = {"orbit_count": str(len(rows)), "orbits": rows}

    def plain() -> Iterable[str]:
        # a row is the representative, u-v for an edge, two spaces and the size; the empty string is ε
        return chain([header], rows.texts("", "", "-", "  ", "\n", "ε"))

    return _emit(args, parameters, result, plain, ["representative", "size"])


def cmd_witness(args: argparse.Namespace) -> int:
    if args.n > WITNESS_LIMIT:
        raise ValueError(f"length {args.n} exceeds the witness bound {WITNESS_LIMIT}")
    if args.kind == "asymmetric":
        if args.k is not None:
            raise ValueError(f"witness asymmetric takes no target size k, got {args.k}")
        witness = asymmetric_witness(args.n)
    else:
        if args.k is None:
            raise ValueError("witness vertex-orbit-size requires a target size k")
        witness = vertex_orbit_witness(args.n, args.k)
    size = orbit_size(witness)
    # the size comes from the period and root symmetry; the label predates that and is kept
    # so witness output stays byte-identical to perfbench/golden.json and tests/golden_cli.json
    plain = [f"witness: {witness}\n", f"orbit size: {size} (recomputed by orbit enumeration)\n"]
    parameters = {"kind": args.kind, "n": args.n, "k": args.k}
    return _emit(args, parameters, {"witness": witness, "orbit_size": str(size)}, lambda: plain)


def cmd_verify(args: argparse.Namespace) -> int:
    suite_names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    lines: list[str] = []
    any_fail = False
    any_refused = False
    checks_run = 0
    for name in suite_names:
        suite, effective, results = verify.run_suite(name, args.max)
        lines.append(f"suite {suite} (max n = {effective})")
        for result in results:
            if result.status == verify.REFUSED:
                any_refused = True
                lines.append(f"  REFUSED  {result.detail}")
                continue
            lines.append(f"  {result.status}  {result.name}  [{result.scope}]")
            checks_run += result.status != verify.SKIP
            if result.status == verify.FAIL:
                any_fail = True
                lines.append(f"         counterexample: {result.detail}")
    if any_fail:
        lines.append(f"result: FAIL ({checks_run} checks run)")
        code = 1
    elif any_refused:
        lines.append(f"result: REFUSED ({checks_run} checks run, some suites skipped)")
        code = 2
    else:
        lines.append(f"result: PASS ({checks_run} checks)")
        code = 0
    print("\n".join(lines))
    return code


def _integer(least: int) -> Callable[[str], int]:
    """An argparse type for integers >= least (0 or 1); every other text gets the same message."""
    what = ("nonnegative", "positive")[least]

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1  # not an integer: refused with the message of an out-of-range one
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-orbits",
        description="Exact orbit counts for Fibonacci and Lucas cubes, with brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reproduce a published count table")
    p_table.add_argument("which", choices=sorted(TABLES))
    p_table.add_argument("--max", type=_integer(1), default=None, help="largest n column")
    p_table.add_argument("--format", choices=(PLAIN, CSV, JSON), default=PLAIN)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_verify.add_argument("--max", type=_integer(1), default=None, help="largest n to check")
    p_verify.set_defaults(func=cmd_verify)

    p_orbits = sub.add_parser("orbits", help="list orbits computed by enumeration")
    p_orbits.add_argument("cube", choices=(GAMMA, LAMBDA))
    p_orbits.add_argument("n", type=_integer(0))
    p_orbits.add_argument("ground", choices=(oracle.VERTICES, oracle.EDGES))
    p_orbits.add_argument("--format", choices=(PLAIN, CSV, JSON), default=PLAIN)
    p_orbits.set_defaults(func=cmd_orbits)

    p_witness = sub.add_parser("witness", help="construct a string with prescribed orbit size")
    p_witness.add_argument("kind", choices=("asymmetric", "vertex-orbit-size"))
    p_witness.add_argument("n", type=_integer(1))
    p_witness.add_argument("k", type=_integer(1), nargs="?", default=None)
    p_witness.add_argument("--format", choices=(PLAIN, JSON), default=PLAIN)
    p_witness.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        # a broken internal invariant (an inexact exact division, a graph size mismatch)
        print(f"internal error: {exc} (this is a bug)", file=sys.stderr)
        return 3


def run() -> None:
    """The console script and ``python -m cube_orbits``: ``main`` with the exit code of the process.

    A closed stdout (``cube-orbits ... | head -1``) ends the process by SIGPIPE, as it ends coreutils
    tools: no traceback, and status 141 in the shell.
    """
    import signal  # here, not at the top: only the process entry point needs it, not every importer of cli

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
