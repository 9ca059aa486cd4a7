"""The argparse parser the CLI used before ``cli.COMMANDS``, kept as the reference that ``cli.parse`` is checked
against.  It is not named ``test_*.py``, so tier-1 does not collect it, and ``src/`` never imports it.

``build_parser`` is the old parser as it stood, except that it reads integers with the CLI's own value reader,
``cli._read`` given the least integer the argument takes.  So a comparison of the two parsers tests how each reads
argv, not how a value is converted; ``tests/test_cli.py`` tests the conversion.
"""

import argparse
from functools import partial

from cube_orbits import cli, oracle, verify
from cube_orbits.cli import CSV, JSON, PLAIN, TABLES, _read
from cube_orbits.formulas import GAMMA, LAMBDA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-orbits",
        description="Exact orbit counts for Fibonacci and Lucas cubes, with brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reproduce a published count table")
    p_table.add_argument("which", choices=sorted(TABLES))
    p_table.add_argument("--max", type=partial(_read, "--max", 1), default=None, help="largest n column")
    p_table.add_argument("--format", choices=(PLAIN, CSV, JSON), default=PLAIN)
    p_table.set_defaults(func=cli.cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_verify.add_argument("--max", type=partial(_read, "--max", 1), default=None, help="largest n to check")
    p_verify.set_defaults(func=cli.cmd_verify)

    p_orbits = sub.add_parser("orbits", help="list orbits computed by enumeration")
    p_orbits.add_argument("cube", choices=(GAMMA, LAMBDA))
    p_orbits.add_argument("n", type=partial(_read, "n", 0))
    p_orbits.add_argument("ground", choices=(oracle.VERTICES, oracle.EDGES))
    p_orbits.add_argument("--format", choices=(PLAIN, CSV, JSON), default=PLAIN)
    p_orbits.set_defaults(func=cli.cmd_orbits)

    p_witness = sub.add_parser("witness", help="construct a string with prescribed orbit size")
    p_witness.add_argument("kind", choices=("asymmetric", "vertex-orbit-size"))
    p_witness.add_argument("n", type=partial(_read, "n", 1))
    p_witness.add_argument("k", type=partial(_read, "k", 1), nargs="?", default=None)
    p_witness.add_argument("--format", choices=(PLAIN, JSON), default=PLAIN)
    p_witness.set_defaults(func=cli.cmd_witness)

    return parser

