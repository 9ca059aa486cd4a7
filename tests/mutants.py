"""The mutant table: how much the test suite catches, measured one planted fault at a time.

Each row of ``MUTANTS`` names a file of ``src/cube_orbits``, an exact old text that occurs in it once, the new
text, the test expected to kill the mutant, and an input on which the mutant's output differs from the
program's, which is why the mutant is not equivalent.  For each row the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, plants the mutant there, and runs the row's test; when that
passes, it runs tier-1 with ``-x``.  A failing run kills the mutant.  Each row prints killed or survived and
the seconds taken.  The runner exits 1 when a mutant survives, when only some other test kills it, or when a
row's old text does not occur exactly once.  It is not named ``test_*.py``, so tier-1 does not collect it.

Run it from the repository root, with every row or only the rows whose name holds one of the given words:

    python tests/mutants.py
    python tests/mutants.py walk memo
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cube_orbits
    old: str
    new: str
    test: str  # the pytest node id expected to kill it
    differs: str  # an input on which the mutant's output differs


MUTANTS = (
    Mutant(
        "rotation generator made the identity", "verify.py",
        "lambda u: u[-1] + u[:-1]", "lambda u: u",
        "tests/test_verify.py::test_each_generator_is_the_element_its_label_names",
        "the generator labelled as the rotation maps 00001 to 00001, not 10000",
    ),
    Mutant(
        "reversal generator made the identity", "verify.py",
        '("Dihedral(shift=0, reflected=True)", lambda u: u[::-1])', '("Dihedral(shift=0, reflected=True)", lambda u: u)',
        "tests/test_verify.py::test_each_generator_is_the_element_its_label_names",
        "the generator labelled as the reversal maps 00001 to 00001, not 10000",
    ),
    Mutant(
        "rotation generator turns left", "verify.py",
        "lambda u: u[-1] + u[:-1]", "lambda u: u[1:] + u[:1]",
        "tests/test_verify.py::test_each_generator_is_the_element_its_label_names",
        "the generator labelled as the rotation right by one maps 00001 to 00010, not 10000",
    ),
    Mutant(
        "decompose calls every root of period 23 symmetric", "strings.py",
        "root[::-1] in root + root)", "root[::-1] in root + root or p == 23)",
        "tests/test_strings.py::test_decompose_random_lucas_strings",
        "orbit_size('00000100101010010000001') is 23, its orbit has 46 strings",
    ),
    Mutant(
        "orbit walk skips the last rotation", "oracle.py",
        "turns = range(1, n) if", "turns = range(1, n - 1) if",
        "tests/test_oracle.py::test_lambda_orbits_are_rotation_and_reversal_classes_of_strings",
        "orbits lambda 3 vertices gives the orbit of 001 size 6, not 3",
    ),
    Mutant(
        "orbit walk keeps bits past position n", "oracle.py",
        "a = (u >> j | u << n - j) & full", "a = u >> j | u << n - j",
        "tests/test_oracle.py::test_lambda_orbits_are_rotation_and_reversal_classes_of_strings",
        "orbits lambda 6 vertices gives the orbit of 001001 size 4, not 3",
    ),
    Mutant(
        "group maps skip the last rotation", "oracle.py",
        "turns = range(n) if", "turns = range(n - 1) if",
        "tests/test_oracle.py::test_group_permutations_are_the_string_maps",
        "group_permutations of Λ3 lists 4 maps, not 6",
    ),
    Mutant(
        "half tables with s and n - s swapped", "oracle.py",
        "high = [_reverse(x << s, n) for x in range(1 << (n - s))]", "high = [_reverse(x << s, n) for x in range(1 << s)]",
        "tests/test_oracle.py::test_lambda_orbits_are_rotation_and_reversal_classes_of_strings",
        "orbits lambda 3 vertices: the high half of 100 indexes a table of two entries, IndexError",
    ),
    Mutant(
        "free positions ignore the wrap", "oracle.py",
        "wrap = n - 1 if cyclic and n else 0", "wrap = 0",
        "tests/test_oracle.py::test_build_examples",
        "the edges of Λ3 take in (001, 101) and (100, 101), though 101 is no Lucas string",
    ),
    Mutant(
        "term memo sums the wrong predecessor", "formulas.py",
        "(first, second, n - 2)", "(first, second, n - 3)",
        "tests/test_formulas.py::test_term_memo_matches_the_recurrence_loop_in_any_order",
        "fib(0), fib(1), ..., asked in turn, give fib(3) = 1, not 2",
    ),
    Mutant(
        "term memo is never trimmed", "formulas.py",
        "del _terms[next(iter(_terms))]", "pass",
        "tests/test_formulas.py::test_term_memo_matches_the_recurrence_loop_in_any_order",
        "fib of 301 distinct n leaves 301 terms held, past the bound of 256",
    ),
    Mutant(
        "fast doubling reads the bits inverted", "formulas.py",
        'if bit == "1":', 'if bit == "0":',
        "tests/test_formulas.py::test_fast_doubling_matches_the_recurrence_loop",
        "_fast_doubling(0, 1, 3), F(3), is 1, not 2",
    ),
    Mutant(
        "Möbius sign kept positive", "formulas.py",
        "(m * p, -mu)", "(m * p, mu)",
        "tests/test_formulas_sympy.py::test_lucas_string_classes_match_mobius_sums",
        "lucas_string_classes(2).primitive is 4, not 2",
    ),
    Mutant(
        "class count cache keyed on n alone", "formulas.py",
        "return _classes(n, lucas, fib)\n\n\n@functools.lru_cache(maxsize=256)\n"
        "def _classes(n: int, lucas: Callable[[int], int], fib: Callable[[int], int])",
        "return _classes(n)\n\n\n@functools.lru_cache(maxsize=256)\ndef _classes(n: int)",
        "tests/test_formulas.py::test_lucas_string_classes_follow_the_sequences_they_read",
        "lucas_string_classes(12), asked once, then asked with formulas.lucas patched to L(d + 1), is still "
        "(300, 180, 120), not (485, 180, 305)",
    ),
    Mutant(
        "class count cache unbounded", "formulas.py",
        "@functools.lru_cache(maxsize=256)\ndef _classes(", "@functools.lru_cache(maxsize=None)\ndef _classes(",
        "tests/test_cli.py::test_table_columns_share_bounded_caches",
        "table lambda-v --max 1500 leaves 1,500 class counts held, past the bound of 256",
    ),
    Mutant(
        "Γ edge orbits fixed count off by one term", "formulas.py",
        "fixed = fib((n + 1) // 2) if", "fixed = fib((n + 3) // 2) if",
        "tests/test_acceptance.py::test_criterion_01_table_reproduction",
        "gamma_edge_orbits(3) raises ArithmeticError: division 3/2 is not exact",
    ),
    Mutant(
        "verify keeps its memo past the suite run", "verify.py",
        "    finally:\n        _once = _call", "    finally:\n        pass",
        "tests/test_verify.py::test_memo_ends_with_the_suite_run",
        "after run_suite('oracle-vs-formula', 6) returns, verify._once is still its memo, holding its values",
    ),
    Mutant(
        "neighbour flips stop short of the top bit", "oracle.py",
        "for k in range(graph.n))", "for k in range(graph.n - 1))",
        "tests/test_oracle.py::test_automorphism_group_sizes",
        "automorphism_group(build(3, 'gamma')) finds 4 automorphisms, not 2",
    ),
    Mutant(
        "search keeps a released image used", "oracle.py",
        "used ^= 1 << mapping.pop()", "mapping.pop()",
        "tests/test_oracle.py::test_automorphism_group_sizes",
        "automorphism_group(build(3, 'gamma')) finds 1 automorphism, not 2",
    ),
    Mutant(
        "search drops the last vertex's image from a result", "oracle.py",
        "results.append(tuple(mapping))", "results.append(tuple(mapping[:-1]))",
        "tests/test_oracle.py::test_automorphism_search_nests_no_call_per_vertex",
        "each map of automorphism_group(build(12, 'lambda')) holds 321 images, not 322",
    ),
    Mutant(
        "stabilizer reflected flags swapped", "oracle.py",
        "stabilizer += ((j, 0),)\n            if b == u:\n                stabilizer += ((j, 1),)",
        "stabilizer += ((j, 1),)\n            if b == u:\n                stabilizer += ((j, 0),)",
        "tests/test_oracle.py::test_engine_equals_brute_force_closures[lambda]",
        "orbits lambda 4 edges gives the orbit of 0001-0101 size 8, not 4",
    ),
    Mutant(
        "stabilizer starts without reversal", "oracle.py",
        "stabilizer = ((0, 0), (0, 1)) if r == u else ((0, 0),)", "stabilizer = ((0, 0),)",
        "tests/test_oracle.py::test_fibonacci_cube_orbits_are_reversal_closures",
        "orbits gamma 3 vertices gives the orbit of 000 size 2, not 1",
    ),
    Mutant(
        "verify status lets REFUSED win over FAIL", "cli.py",
        "code = 1 if tally[verify.FAIL] else 2 if tally[verify.REFUSED] else 0",
        "code = 2 if tally[verify.REFUSED] else 1 if tally[verify.FAIL] else 0",
        "tests/test_cli.py::test_verify_fail_wins_over_refused",
        "verify all --max 40 with a failing formulas row prints result: REFUSED and exits 2, not FAIL and 1",
    ),
    Mutant(
        "plain table cells aligned left", "cli.py",
        'yield "  " + row[i].rjust(w)', 'yield "  " + row[i].ljust(w)',
        "tests/test_golden_cli.py::test_golden_cli[table lucas-classes --max 9 --format plain]",
        "table lucas-classes --max 9 ends its first line in '  9 ', not '   9'",
    ),
    Mutant(
        "CSV edge cells joined by two dashes", "cli.py",
        'rows.texts("", "-", ",", "\\n")', 'rows.texts("", "--", ",", "\\n")',
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format csv]",
        "orbits gamma 2 edges --format csv prints the row 00--01,2, not 00-01,2",
    ),
    Mutant(
        "edge map reads from the position after the flip", "bijections.py",
        "start = (i + 2) % n", "start = (i + 1) % n",
        "tests/test_bijections.py::test_edge_map_examples",
        "lambda_edge_to_gamma_vertex(('010001', '000001')) is '000', not '001'",
    ),
)


def _run(args: list[str], cwd: Path) -> tuple[int, str]:
    """pytest's exit status and output, on the copy in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def _first_failure(output: str) -> str:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else "a test"


def run(mutant: Mutant) -> tuple[bool, str]:
    """(passed, verdict) for one row: the row passes when the row's test kills its mutant."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "cube_orbits" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new))
        status, output = _run([mutant.test], copy)
        if status == 1:
            return True, "killed"
        if status != 0:
            return False, f"pytest exited {status} on {mutant.test}"
        status, output = _run([], copy)
        if status == 1:
            return False, f"killed by {_first_failure(output)}, not by {mutant.test}"
        return False, "survived" if status == 0 else f"tier-1 exited {status}"


def main(words: list[str]) -> int:
    rows = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    failed = 0
    for mutant in rows:
        start = time.perf_counter()
        passed, verdict = run(mutant)
        failed += not passed
        print(f"{verdict:<10} {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(rows) - failed} of {len(rows)} mutants killed by their test")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
