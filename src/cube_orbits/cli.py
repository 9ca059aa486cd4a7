"""Command-line front end.

Subcommands: ``table`` reproduces the published count tables, ``verify`` runs
the cross-validation suites, ``orbits`` lists orbits computed by enumeration,
``witness`` constructs strings with prescribed orbit behavior.  Output is
deterministic; counts are rendered as full decimal strings (also inside
JSON).  Exit codes: 0 pass/success, 1 verification failure, 2 usage error or
refusal, 3 internal error (a bug).
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii as _quote
from os.path import basename
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import formulas, oracle, verify
from .formulas import GAMMA, LAMBDA
from .strings import asymmetric_witness, orbit_size, vertex_orbit_witness

PLAIN = "plain"
CSV = "csv"
JSON = "json"

# The longest witness: at this length `witness asymmetric` took 4.1 s (5.1 s as JSON) and
# 778 MB peak RSS on a 2-CPU machine, within the 30 s / 1 GB budget (README "Bounds").
WITNESS_LIMIT = 200_000_000

# The largest table: at M = 20000 every table took at most 7.5 s and 181 MB peak RSS in any format in three
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


def _json(envelope: dict, columns: list[str] | None = None) -> None:
    """Write ``json.dumps(envelope, indent=2)`` and a newline to stdout, a table's rows one by one and an orbit
    listing's in batches (``OrbitRows.batches``).

    When the last value of ``envelope["result"]`` is a list or an ``OrbitRows``, it holds the rows, each written
    as an object of ``columns``.  The text around the cells is one json.dumps of the envelope with two blank rows
    in their place, each cell ``"\0"`` (an edge's representative a pair), cut at the last quoted NULs: the rows are
    the envelope's last value, so a NUL elsewhere is never cut.  No column name may be a NUL.  An ``OrbitRows``
    writes its rows from the pieces (``OrbitRows.texts``): a representative is 0s and 1s, an edge's a pair of
    them, and a size is digits, each of which JSON quotes with two quote marks.  A list's rows are tuples of
    strings in the order of ``columns``, each quoted as json.dumps quotes strings by default (``ensure_ascii``);
    a cell that is not a string raises TypeError.  The first row, or batch, goes out with the text before the rows.
    """
    out = sys.stdout
    result = envelope["result"]
    key = list(result)[-1]
    rows = result[key]
    listing = isinstance(rows, (list, OrbitRows))
    if not (listing and rows):
        out.write(json.dumps({**envelope, "result": {**result, key: []}} if listing else envelope, indent=2))
        out.write("\n")
        return
    edges = isinstance(rows, OrbitRows) and rows.edges
    blank = {**dict.fromkeys(columns, "\0"), columns[0]: ["\0", "\0"] if edges else "\0"}
    cells = len(columns) + edges
    text = json.dumps({**envelope, "result": {**result, key: [blank, blank]}}, indent=2)
    head, *pieces, tail = text.rsplit('"\\u0000"', 2 * cells)
    # between the rows: one row's end, only whitespace and brackets, then ",\n" and the next row's lead
    end, lead = pieces[cells - 1].split(",\n", 1)
    parts = [",\n" + lead, *pieces[:cells - 1], end]
    if isinstance(rows, OrbitRows):
        # each cell's quote marks go with the pieces around it; a vertex row has one inner piece, before the size
        filled = rows.batches(parts[0] + '"', f'"{parts[1]}"', f'"{parts[-2]}"', '"' + end)
    else:
        template = "%s".join(part.replace("%", "%%") for part in parts)
        filled = (template % tuple(map(_quote, row)) for row in rows)
    # every row is led by the separator from the row before it; the first drops it, and the head holds its lead
    out.write(head[:-len(lead)] + next(filled)[2:])
    out.writelines(filled)
    out.write(tail[len(end):] + "\n")


def _emit(
    args: SimpleNamespace,
    parameters: dict,
    result: dict,
    plain: Callable[[], Iterable[str]],
    columns: list[str] | None = None,
) -> int:
    """Write a command's output to stdout piece by piece: the JSON envelope, CSV rows, or the plain lines.

    The last value of ``result``, when it is a list or an ``OrbitRows``, holds the rows: a list holds tuples of
    strings in the order of ``columns``, written as they are, one per write, and an orbit listing writes its
    texts in batches in every format (``OrbitRows.batches``); a table row grows with n, to about 1 KB in CSV at
    M = 3000, so a batch of them would hold hundreds of KB at once.  ``plain`` gives the plain text in pieces, a
    table's cell by cell; it is called only for plain output, so JSON and CSV do not pay for its layout.
    """
    out = sys.stdout
    if args.format == JSON:
        _json({"command": args.command, "parameters": parameters, "result": result}, columns)
    elif args.format == CSV:
        out.write(",".join(columns) + "\n")
        rows = list(result.values())[-1]
        if isinstance(rows, OrbitRows):
            # an edge is one cell, u-v
            out.writelines(rows.batches("", "-", ",", "\n"))
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


def cmd_table(args: SimpleNamespace) -> int:
    max_n = args.max if args.max is not None else TABLES[args.which].default_max
    columns, rows = table_rows(args.which, max_n)
    parameters = {"table": args.which, "max": max_n}
    return _emit(args, parameters, {"rows": rows}, lambda: _plain_table(columns, rows), columns)


class OrbitRows:
    """The rows of an orbit listing, held as ints; each row's text is made only as it is written.

    ``ints`` is one flat array: (x, size) for each vertex orbit, or (u, bits, size) for each run of edge orbits
    (``oracle.orbit_walk``), one row for each bit b of ``bits``, the edge (u, u | b).  Every format writes the
    rows through ``texts``, which yields one text per vertex row or per run, joining a vertex's string from its
    high and low halves, read from ``halves`` or from tables of them that also hold the format's fixed text; the
    writer joins the texts in batches (``batches``).  ``len()`` is the number of rows; ``texts`` can be called
    again, and reads the rows anew.
    """

    def __init__(self, ints: Sequence[int], n: int, edges: bool) -> None:
        self.ints, self.edges, self.shift = ints, edges, n // 2
        self.count = sum(map(int.bit_count, islice(ints, 1, None, 3))) if edges else len(ints) // 2
        # every string of each half's length, ascending, so a half's value indexes its string; of
        # length 0 there is one, the empty string, which is the one vertex of dimension 0
        self.halves = [["".join(bits) for bits in product("01", repeat=w)] for w in (n - self.shift, self.shift)]
        # an orbit has at most as many members as the group has elements: 2n, or 2 on the tiny cubes
        self.sizes = [str(k) for k in range(2 * n + 3)]

    def __len__(self) -> int:
        return self.count

    def texts(self, lead: str, join: str, mid: str, end: str, empty: str = "") -> Iterator[str]:
        """Each vertex row's finished text, or each run's rows as one text, in order.  An edge row joins five table
        entries: ``lead`` and u's high half, u's low half and ``join``, v's high half, v's low half, then ``mid``,
        the size and ``end``; the rows of a run share their head, the first two, and their tail, the last, and v
        differs from u in one half, so the run's rows whose v differ in the low half are one join of v's low
        halves, and those whose v differ in the high half the mirror of that.  A vertex row reads the first,
        fourth and last entry.  The empty string of n = 0 is ``empty``.
        """
        high, low = self.halves
        # only n = 0 has an empty high half: every other one is at least one bit long
        first = [lead + (h or empty) for h in high]
        joined = [l + join for l in low]
        sizes = [mid + k + end for k in self.sizes]
        shift, mask, ints = self.shift, (1 << self.shift) - 1, iter(self.ints)
        # an f-string joins the entries in one step; + would make a string of each partial sum
        if not self.edges:
            return (f"{first[x >> shift]}{low[x & mask]}{sizes[k]}" for x, k in zip(ints, ints))
        width = len(high).bit_length()  # more bits than a high half's value takes: b << width | x keeps both apart

        def edge_runs() -> Iterator[str]:
            # v's half strings for each (half value, bit mask) met: a half meets few masks, so the lists are few
            lows: dict[int, list[str]] = {}
            highs: dict[int, list[str]] = {}
            for u, bits, k in zip(ints, ints, ints):
                x, y = u >> shift, u & mask
                head, tail = first[x] + joined[y], sizes[k]
                text = ""
                if b := bits & mask:
                    key = b << shift | y
                    ends = lows.get(key)
                    if ends is None:
                        ends = lows[key] = [low[y | c] for c in oracle._bits(b)]
                    pre = head + high[x]
                    text = f"{pre}{(tail + pre).join(ends)}{tail}"
                if b := bits >> shift:
                    key = b << width | x
                    ends = highs.get(key)
                    if ends is None:
                        ends = highs[key] = [high[x | c] for c in oracle._bits(b)]
                    post = low[y] + tail
                    text += f"{head}{(post + head).join(ends)}{post}"
                yield text

        return edge_runs()

    def batches(self, lead: str, join: str, mid: str, end: str, empty: str = "") -> Iterator[str]:
        """The texts of ``texts``, with the same arguments, joined for one ``write`` each: 256 vertex rows, or 32
        runs of edge rows, a run at most n rows, one for each free position of its u; the last batch holds the
        texts left over.  A text is never empty, so only the end of the texts makes an empty batch.
        """
        texts, size = self.texts(lead, join, mid, end, empty), 32 if self.edges else 256
        while batch := "".join(islice(texts, size)):
            yield batch


def _orbit_rows(cube: str, n: int, ground: str) -> OrbitRows:
    """The rows of an orbit listing, from one orbit pass made before any output is written.

    A refusal or an internal error raised by the pass therefore leaves stdout empty; one raised while the rows
    are written leaves the header, or the JSON text before the rows, and the whole batches written before it, of
    256 vertex rows or 32 runs of edge rows (``OrbitRows.batches``); the rows made since the last batch are lost.
    Each vertex orbit and each run of edge orbits that the walk yields is kept as ints, 4 bytes each, and the graph
    is freed before the rows are read.
    """
    from array import array  # here, not at the top: only orbit listings need it

    graph = oracle.build(n, cube)
    # an unsigned int holds 4 bytes on every platform CPython supports, and a vertex of n <= 32 fits in it
    ints = array("I", chain.from_iterable(oracle.orbit_walk(graph, ground)))
    return OrbitRows(ints, n, ground == oracle.EDGES)


def cmd_orbits(args: SimpleNamespace) -> int:
    rows = _orbit_rows(args.cube, args.n, args.ground)
    header = f"{args.cube} n={args.n} {args.ground}: {len(rows)} orbits\n"
    parameters = {"cube": args.cube, "n": args.n, "ground": args.ground}
    result = {"orbit_count": str(len(rows)), "orbits": rows}

    def plain() -> Iterable[str]:
        # a row is the representative, u-v for an edge, two spaces and the size; the empty string is ε
        return chain([header], rows.batches("", "-", "  ", "\n", "ε"))

    return _emit(args, parameters, result, plain, ["representative", "size"])


def cmd_witness(args: SimpleNamespace) -> int:
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


def cmd_verify(args: SimpleNamespace) -> int:
    suite_names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    lines: list[str] = []
    tally: Counter[str] = Counter()
    for name in suite_names:
        suite, effective, results = verify.run_suite(name, args.max)
        lines.append(f"suite {suite} (max n = {effective})")
        for result in results:
            tally[result.status] += 1
            if result.status == verify.REFUSED:
                lines.append(f"  REFUSED  {result.detail}")
                continue
            lines.append(f"  {result.status}  {result.name}  [{result.scope}]")
            if result.status == verify.FAIL:
                lines.append(f"         counterexample: {result.detail}")
    checks_run = tally[verify.PASS] + tally[verify.FAIL]
    code = 1 if tally[verify.FAIL] else 2 if tally[verify.REFUSED] else 0
    summary = (f"PASS ({checks_run} checks)", f"FAIL ({checks_run} checks run)",
               f"REFUSED ({checks_run} checks run, some suites skipped)")[code]
    lines.append(f"result: {summary}")
    print("\n".join(lines))
    return code


class Command(NamedTuple):
    """A command's help line, its positionals and its options, each named with its choices or the least integer
    it takes.  The positionals past the first ``required`` may be left out and read None; an option left out reads
    None, and ``--format`` plain."""

    help: str
    positionals: tuple[tuple[str, tuple[str, ...] | int], ...]
    options: dict[str, tuple[str, ...] | int]
    required: int


COMMANDS = {
    "table": Command("reproduce a published count table", (("which", tuple(sorted(TABLES))),),
                     {"--max": 1, "--format": (PLAIN, CSV, JSON)}, 1),
    "verify": Command("run a verification suite", (("suite", (*sorted(verify.SUITES), "all")),),
                      {"--max": 1}, 1),
    "orbits": Command("list orbits computed by enumeration",
                      (("cube", (GAMMA, LAMBDA)), ("n", 0), ("ground", (oracle.VERTICES, oracle.EDGES))),
                      {"--format": (PLAIN, CSV, JSON)}, 3),
    "witness": Command("construct a string with prescribed orbit size",
                       (("kind", ("asymmetric", "vertex-orbit-size")), ("n", 1), ("k", 1)),
                       {"--format": (PLAIN, JSON)}, 2),
}

HELP = ("-h", "--help")

# a token that reads as a negative number is a positional, so `orbits lambda -2 edges` refuses n = -2
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _usage() -> str:
    """The text of ``--help``: each command of ``COMMANDS`` with its arguments and its help line."""

    def shown(name: str, read: tuple[str, ...] | int) -> str:
        return "{" + ",".join(read) + "}" if isinstance(read, tuple) else name

    lines = ["usage: cube-orbits <command> [args] [--max N] [--format plain|csv|json]", "", "commands:"]
    for command, (text, positionals, options, required) in COMMANDS.items():
        words = [shown(name, read) for name, read in positionals]
        words[required:] = (f"[{word}]" for word in words[required:])
        words += (f"[{name} {shown('N', read)}]" for name, read in options.items())
        lines += [f"  {command} {' '.join(words)}", f"      {text}"]
    return "\n".join(lines) + "\n"


def _read(name: str, read: tuple[str, ...] | int, text: str) -> str | int:
    """``text`` as the argument ``name`` takes it: one of the choices ``read``, or an integer at least ``read``."""
    if isinstance(read, tuple):
        if text not in read:
            raise ValueError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, read))})")
        return text
    try:
        value = int(text)
    except ValueError:
        value = read - 1  # not an integer: refused with the message of an out-of-range one
    if value < read:
        raise ValueError(f"argument {name}: expected a {('nonnegative', 'positive')[read]} integer, got {text}")
    return value


def _option(token: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """The option of ``names`` that ``token`` names, and the value it gives after ``=``; None for a positional.

    A long option may be named by a unique prefix (``--ma``, ``--f=csv``); a prefix of several raises ValueError,
    and a token that looks like an option but names none gives the name None.
    """
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    found = [name] if name in names else [option for option in names if name[:2] == "--" and option.startswith(name)]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return None if _NUMBER.match(token) or " " in token else (None, None)


def parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The command and the values that ``argv`` gives it, or None when it asks for ``--help``.

    The tokens are read in order, as argparse read them: options may come before, between or after the
    positionals, the last of a repeated option wins, and after ``--`` every token is a positional.  A value is
    read as its token is, so a bad one is refused before a later ``--help``; unknown options and surplus
    positionals are refused once every token is read.  Every refusal raises ValueError.
    """
    command, values, waiting, names, stray = None, {}, [], HELP, []
    ended = placed = False  # past "--"; the last token was read as a positional
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not ended:
            # as argparse, a "--" is taken only right after a positional or before one still to come
            ended = True
            if not (placed or waiting):
                stray.append(token)
            continue
        option = None if ended else _option(token, names)
        placed = option is None and bool(waiting)
        if option is None and command is None:
            command = COMMANDS[_read("command", tuple(COMMANDS), token)]
            values = {"command": token, **dict.fromkeys(name for name, _ in command.positionals),
                      **{name[2:]: PLAIN if name == "--format" else None for name in command.options}}
            waiting, names = list(command.positionals), (*HELP, *command.options)
        elif option is None and waiting:
            name, read = waiting.pop(0)
            values[name] = _read(name, read, token)
        elif option is None or option[0] is None:
            stray.append(token)
        elif option[0] in HELP:
            if option[1] is not None:
                raise ValueError(f"argument -h/--help: ignored explicit argument {option[1]!r}")
            return None
        else:
            name, value = option
            if value is None:
                value = next(tokens, "--")
                # a value is a token that names no option, and "--" ends the options
                if value == "--" or _option(value, names):
                    raise ValueError(f"argument {name}: expected one argument")
            values[name[2:]] = _read(name, command.options[name], value)
    missing = ["command"] if command is None else [
        name for name, _ in command.positionals[:command.required] if values[name] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if stray:
        raise ValueError(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_usage())
            return 0
        # looked up as main runs, so a replaced or wrapped cmd_* is the one called
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError:
        raise
    except Exception as exc:
        # any other fault is a bug: a broken invariant (an inexact exact division, a graph size mismatch)
        # or a failing lookup; exit 1 stays the verdict of a failed check. A fault raised from another, as
        # verify's AssertionError from a check's ValueError, is named by the type and the innermost frame of the
        # one it wraps
        fault = exc.__cause__ or exc
        tb = fault.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        where = f"{basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno} in {tb.tb_frame.f_code.co_name}"
        print(f"internal error: {type(fault).__name__}: {exc} at {where} (this is a bug)", file=sys.stderr)
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
