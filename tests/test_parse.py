"""``cli.parse`` against the argparse parser it replaced (``tests/reference_parser.py``), on generated argvs."""

import contextlib
import io
import random
import re

import pytest

from cube_orbits import oracle, verify
from cube_orbits.cli import COMMANDS, TABLES, parse
from cube_orbits.formulas import GAMMA, LAMBDA
from reference_parser import build_parser

# the tokens argvs are made of: every command and choice, near misses, integers in and out of range, every
# accepted form of each option, and forms that must be refused
CHOICES = (*TABLES, *verify.SUITES, "all", GAMMA, LAMBDA, oracle.VERTICES, oracle.EDGES, "asymmetric",
           "vertex-orbit-size", "gamma-x", "gam", "Gamma")
NUMBERS = ("0", "1", "2", "7", "-2", "-0", "x", "1.5", "-1.5", " 3", "")
OPTIONS = ("--max", "--max=3", "--max=0", "--max=", "--ma", "--m=2", "--format", "--format=csv", "--f=json", "--fo",
           "--form=xml", "--f=plain", "csv", "json", "plain", "xml", "--help", "-h", "--he", "--h", "-hx", "--help=1",
           "--", "-", "-x", "--bogus", "--=1", "-2x", "--max-n", "-m")


def argvs(count: int, seed: int) -> list[list[str]]:
    """``count`` argvs, each a command and its positionals, mostly right, with options and stray tokens put in at
    random places and now and then a token dropped."""
    rng = random.Random(seed)
    made = []
    for _ in range(count):
        command = rng.choice(list(COMMANDS)) if rng.random() < 0.95 else rng.choice(CHOICES + OPTIONS)
        shape = {
            "table": [sorted(TABLES)], "verify": [[*verify.SUITES, "all"]],
            "orbits": [[GAMMA, LAMBDA], NUMBERS[:4], [oracle.VERTICES, oracle.EDGES]],
            "witness": [["asymmetric", "vertex-orbit-size"], NUMBERS[:4], NUMBERS[:4]],
        }.get(command, [])
        if command == "witness" and rng.random() < 0.5:
            shape.pop()
        argv = [rng.choice(words) if rng.random() < 0.85 else rng.choice(CHOICES + NUMBERS) for words in shape]
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            token = rng.choice(OPTIONS) if rng.random() < 0.8 else rng.choice(CHOICES + NUMBERS + tuple(COMMANDS))
            at = rng.randint(0, len(argv))
            argv.insert(at, token)
            if token in ("--max", "--ma", "--format", "--fo") and rng.random() < 0.8:
                argv.insert(at + 1, rng.choice(NUMBERS[:4] if "m" in token else ("plain", "csv", "json", "xml")))
        if argv and rng.random() < 0.1:
            del argv[rng.randrange(len(argv))]
        made.append([command, *argv])
    return made


def _optionlike(token: str) -> bool:
    return token.startswith("-") and token != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", token) and " " not in token


def argparse_changed(argv: list[str]) -> bool:
    """Whether argparse's outcome for ``argv`` may differ between Python 3.10 and 3.13, so that no one parser can
    agree with the reference on every version; ``parse`` gives the newest outcome, but for the two refusals noted.

    Found by running the reference on 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13 over these argvs and every argv
    of up to four tokens after a command; the test below pins what ``parse`` gives.  The forms, over-approximated
    from the tokens alone:

    - a single-dash token glued to ``-h`` (``-hx``): 3.13 prints help, earlier versions refuse it at once, and
      ``parse`` refuses it as an unknown option once every token is read;
    - a token ``--=...``, whose empty prefix names every option: before 3.13.13 argparse refused it before it
      read any token, from 3.13.13 when it reaches it;
    - a positional after an option that follows witness's n: before 3.13.13 argparse had closed the optional k
      by then and refused the positional;
    - a ``--`` before the command: 3.13.13 reads the command's options after it, and earlier versions and
      ``parse`` refuse it;
    - a second ``--``: before 3.13.13 argparse dropped it from the positional it fell in.
    """
    if any(re.match(r"-h.|--=", token) for token in argv) or argv.count("--") > 1:
        return True
    commands = [i for i, token in enumerate(argv) if token in COMMANDS]
    if "--" in argv and (not commands or argv.index("--") < commands[0]):
        return True
    if not commands or argv[commands[0]] != "witness":
        return False
    rest, plain = argv[commands[0] + 1:], 0
    for i, token in enumerate(rest):
        if not _optionlike(token):
            plain += 1
            continue
        if plain >= 2 and any(later == "--" or not _optionlike(later) for later in rest[i + 1:]):
            return True
        if token == "--":
            return False
    return False


def outcome(argv: list[str]) -> dict | int:
    """The values ``parse`` reads from ``argv``, or the exit status of ``main``: 0 for help, 2 for a refusal."""
    try:
        args = parse(argv)
    except ValueError:
        return 2
    return 0 if args is None else vars(args)


def reference_outcome(parser, argv: list[str]) -> dict | int:
    """The values the argparse parser reads from ``argv``, or its exit status."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            values = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code
    del values["func"]
    return values


def test_parse_reads_every_argv_as_argparse_did():
    parser = build_parser()
    compared = 0
    for argv in argvs(12_000, seed=42):
        if argparse_changed(argv):
            continue
        compared += 1
        assert outcome(argv) == reference_outcome(parser, argv), argv
    assert compared >= 10_000


@pytest.mark.parametrize("argv, expected", [
    (["orbits", "gamma", "4", "edges", "--max=3", "--ma", "2", "--format=csv"], 2),
    (["table", "--f=csv", "gamma-v", "--ma", "3", "--max=4"],
     {"command": "table", "which": "gamma-v", "max": 4, "format": "csv"}),
    (["orbits", "gamma", "--format", "json", "4", "--", "edges"],
     {"command": "orbits", "cube": "gamma", "n": 4, "ground": "edges", "format": "json"}),
    (["witness", "asymmetric", "9"],
     {"command": "witness", "kind": "asymmetric", "n": 9, "k": None, "format": "plain"}),
    # a value is read as its token is, so a bad one is refused before a later --help, as argparse refused it
    (["orbits", "x", "--help"], 2),
    (["orbits", "--help", "x"], 0),
    (["table", "gamma-v", "--bogus", "--help"], 0),
    (["table", "gamma-v", "--max", "3", "--"], 2),
])
def test_accepted_forms(argv, expected):
    assert not argparse_changed(argv)
    assert outcome(argv) == expected == reference_outcome(build_parser(), argv)


@pytest.mark.parametrize("argv, expected", [
    (["table", "gamma-v", "-hx"], 2),
    (["table", "gamma-v", "-hx", "--help"], 0),
    (["table", "gamma-v", "--help", "--=1"], 0),
    (["table", "gamma-v", "--=1", "--help"], 2),
    (["witness", "vertex-orbit-size", "9", "--format", "json", "3"],
     {"command": "witness", "kind": "vertex-orbit-size", "n": 9, "k": 3, "format": "json"}),
    (["witness", "asymmetric", "9", "--format", "json", "--"],
     {"command": "witness", "kind": "asymmetric", "n": 9, "k": None, "format": "json"}),
    (["--", "table", "gamma-v"], 2),
    (["witness", "asymmetric", "9", "--", "--"], 2),
])
def test_where_argparse_changed_between_versions(argv, expected):
    assert argparse_changed(argv)
    assert outcome(argv) == expected
