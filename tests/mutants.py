"""The mutant table: how much the test suite catches, measured one planted fault at a time.

Each row of ``MUTANTS`` names a file of ``src/cube_orbits``, an exact old text that occurs in it once, the new
text, the test expected to kill the mutant, and an input on which the mutant's output differs from the
program's, which is why the mutant is not equivalent.  For each row the runner copies ``src/``, ``tests/``,
``perfbench/`` (whose pools and digests a tier-1 test reads) and ``pyproject.toml`` to a temporary directory,
plants the mutant there, and runs the row's test; when that passes, it runs tier-1 with ``-x``.  A failing run kills the mutant.  Each row prints killed or survived and
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
        "shared turn set skips the last rotation", "oracle.py",
        "return range(graph.n) if", "return range(graph.n - 1) if",
        "tests/test_golden_cli.py::test_golden_cli[verify automorphisms --max 9]",
        "verify automorphisms --max 3 prints the counterexample n=3: automorphisms differ from the maps orbit "
        "enumeration applies",
    ),
    Mutant(
        "orbit walk keeps bits past position n", "oracle.py",
        "a = du >> j & full", "a = du >> j",
        "tests/test_oracle.py::test_lambda_orbits_are_rotation_and_reversal_classes_of_strings",
        "orbits lambda 6 vertices gives the orbit of 001001 size 4, not 3",
    ),
    Mutant(
        "odd-half filter drops y = 0 under x = 0", "oracle.py",
        "odd[i] if x else [0, *odd[i]]", "odd[i]",
        "tests/test_oracle.py::test_the_walk_tests_only_0_and_the_odd_lucas_vertices",
        "orbits lambda 3 vertices lists the one orbit of 001, not also the orbit of 000",
    ),
    Mutant(
        "vertex view counts one vertex too many", "oracle.py",
        "self.count = sum(len(lows[i]) for _, i in highs)", "self.count = sum(len(lows[i]) for _, i in highs) + 1",
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format plain]",
        "orbits gamma 2 edges exits 3: graph construction mismatch for gamma n=2: got (4, 2), expected (3, 2)",
    ),
    Mutant(
        "edge count leaves out the low halves' weight", "oracle.py",
        "x.bit_count() * len(vertices.lows[i]) + weights[i]", "x.bit_count() * len(vertices.lows[i])",
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format plain]",
        "orbits gamma 2 edges exits 3: graph construction mismatch for gamma n=2: got (3, 1), expected (3, 2)",
    ),
    Mutant(
        "half tables with s and n - s swapped", "oracle.py",
        "table, r = tables[j >= s], _reverse(1 << j, n)", "table, r = tables[j >= n - s], _reverse(1 << j, n)",
        "tests/test_oracle.py::test_half_reversals_are_the_reversals_of_each_entry",
        "_half_reversals(3) has the high table [0, 1], not [0, 2, 1, 3]; orbits gamma 3 vertices exits 3 with "
        "an IndexError at 101, whose high half indexes that table",
    ),
    Mutant(
        "half tables bypass _reverse", "oracle.py",
        "table, r = tables[j >= s], _reverse(1 << j, n)", "table, r = tables[j >= s], 1 << n - 1 - j",
        "tests/test_oracle.py::test_gamma_orbits_apply_the_one_reversal_routine",
        "with _reverse made the identity, the walk on Γ5 still pairs 00001 with 10000, so the routine that "
        "verify automorphisms checks no longer reaches the walk",
    ),
    Mutant(
        "reversal keeps the bit order", "oracle.py",
        'int(format(x, f"0{n}b")[::-1], 2)', 'int(format(x, f"0{n}b"), 2)',
        "tests/test_oracle.py::test_reverse_matches_string_reversal",
        "_reverse(1, 3) is 1, not 4",
    ),
    Mutant(
        "free positions ignore the wrap", "oracle.py",
        "wrap = n - 1 if cyclic and n else 0", "wrap = 0",
        "tests/test_oracle.py::test_build_examples",
        "the edges of Λ3 take in (001, 101) and (100, 101), though 101 is no Lucas string",
    ),
    Mutant(
        "term memo sums the wrong predecessor", "formulas.py",
        "window.get(n - 2)", "window.get(n - 3)",
        "tests/test_formulas.py::test_term_memo_matches_the_recurrence_loop_in_any_order",
        "fib(0), fib(1), ..., asked in turn, give fib(3) = 1, not 2",
    ),
    Mutant(
        "term memo is never trimmed", "formulas.py",
        "del window[next(iter(window))]", "pass",
        "tests/test_formulas.py::test_term_memo_matches_the_recurrence_loop_in_any_order",
        "fib and lucas of 129 distinct n each leave 258 terms held, past the bound of 256",
    ),
    Mutant(
        "fib reads past its window", "formulas.py",
        "term = _fibs.get(n)", "term = None",
        "tests/test_formulas.py::test_fib_and_lucas_answer_from_their_windows",
        "fib(5), asked twice from empty windows, calls fast doubling twice, not once",
    ),
    Mutant(
        "totient walk drops the factor p - 1", "formulas.py",
        "phi * (p - 1) * p ** (k - 1)", "phi * p * p ** (k - 1)",
        "tests/test_formulas.py::test_necklace_count_is_the_totient_sum",
        "necklace_count(2) raises ArithmeticError: division 5/2 is not exact",
    ),
    Mutant(
        "totient walk takes p^k for p^(k - 1)", "formulas.py",
        "p ** (k - 1)", "p ** k",
        "tests/test_formulas.py::test_necklace_count_is_the_totient_sum",
        "necklace_count(2) raises ArithmeticError: division 5/2 is not exact",
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
        "Λ edge count one too many at n = 7", "formulas.py",
        "return GraphCounts(lucas(n), n * fib(n - 1))", "return GraphCounts(lucas(n), n * fib(n - 1) + (n == 7))",
        "tests/test_golden_cli.py::test_golden_cli[verify formulas --max 30]",
        "verify formulas --max 10 prints the counterexample n=7: weighted sum mismatch",
    ),
    Mutant(
        "palindrome total made a difference", "formulas.py",
        "return starts0 + starts1, starts0, starts1", "return starts0 - starts1, starts0, starts1",
        "tests/test_formulas.py::test_fib_palindrome_fix_counts_palindromes_by_first_letter",
        "fib_palindrome_fix(3) is (1, 2, 1), not (3, 2, 1)",
    ),
    Mutant(
        "Pascal diagonal loses its last term at even n", "verify.py",
        "] + [1] * (m % 2 == 0)", "]",
        "tests/test_verify.py::test_binomial_terms_equal_math_comb",
        "_binomial_terms(2) is [1], not [1, 1]; verify formulas --max 2 prints the counterexample n=2: binomial "
        "sum 1 != 2",
    ),
    Mutant(
        "Pascal's rule adds the wrong neighbour", "verify.py",
        "zip(last, [0] + before)", "zip(last, before + [0])",
        "tests/test_verify.py::test_binomial_terms_in_any_order",
        "_binomial_terms(2) is [2, 1], not [1, 1]",
    ),
    Mutant(
        "held prefix stops one term short", "verify.py",
        "while len(values) <= n:", "while len(values) < n:",
        "tests/test_verify.py::test_convolution_reads_each_term_once_per_suite_run",
        "verify formulas --max 1 exits 3 with internal error: IndexError: list index out of range at verify.py:133 in "
        "<genexpr>, the convolution's sum, not 0",
    ),
    Mutant(
        "verify keeps its memo past the suite run", "verify.py",
        "    finally:\n        _once = _call", "    finally:\n        pass",
        "tests/test_verify.py::test_memo_ends_with_the_suite_run",
        "after run_suite('oracle-vs-formula', 6) returns, verify._once is still its memo, holding its values",
    ),
    Mutant(
        "group rows build their cube afresh", "verify.py",
        "    graph = _once(oracle.build, n, kind)\n    autos = ",
        "    graph = oracle.build(n, kind)\n    autos = ",
        "tests/test_cli.py::test_verify_searches_each_cube_once",
        "verify automorphisms --max 8 searches Γ2-Γ8 and Λ1-Λ8 twice, 33 searches, not 18",
    ),
    Mutant(
        "neighbour flips stop short of the top bit", "oracle.py",
        "for k in range(graph.n))", "for k in range(graph.n - 1))",
        "tests/test_oracle.py::test_automorphism_group_sizes",
        "automorphism_group(build(3, 'gamma')) finds 4 automorphisms, not 2",
    ),
    Mutant(
        "search keeps a released image used", "oracle.py",
        "used[mapping.pop()] = 0", "mapping.pop()",
        "tests/test_oracle.py::test_automorphism_group_sizes",
        "automorphism_group(build(3, 'gamma')) finds 1 automorphism, not 2",
    ),
    Mutant(
        "search keeps no edge", "oracle.py",
        "adjacent[w].issuperset(required)", "True",
        "tests/test_oracle.py::test_automorphism_group_sizes",
        "automorphism_group(build(4, 'lambda')) finds 16 automorphisms, not 8",
    ),
    Mutant(
        "search drops the last vertex's image from a result", "oracle.py",
        "results.append(tuple(map(vertices.__getitem__, mapping)))",
        "results.append(tuple(map(vertices.__getitem__, mapping[:-1])))",
        "tests/test_oracle.py::test_automorphism_search_nests_no_call_per_vertex",
        "each map of automorphism_group(build(12, 'lambda')) holds 321 images, not 322",
    ),
    Mutant(
        "lucas group expected two maps short", "verify.py",
        "LAMBDA, n, 2 * n)", "LAMBDA, n, 2 * n - 2)",
        "tests/test_golden_cli.py::test_golden_cli[verify automorphisms --max 9]",
        "verify automorphisms --max 3 prints the counterexample n=3: found 6 automorphisms, expected 4",
    ),
    Mutant(
        "group count counterexample loses its n", "verify.py",
        'return f"n={n}: found {len(autos)} automorphisms', 'return f"found {len(autos)} automorphisms',
        "tests/test_verify.py::test_planted_fault_gives_the_rows_counterexample[lambda search drops a map]",
        "with a map dropped from the search of Λ3 the counterexample is found 5 automorphisms, expected 6, "
        "not n=3: found 5 automorphisms, expected 6",
    ),
    Mutant(
        "stabilizer reflected flags swapped", "oracle.py",
        "stabilizer += ((j, 0),)\n                    if b == u:\n                        stabilizer += ((j, 1),)",
        "stabilizer += ((j, 1),)\n                    if b == u:\n                        stabilizer += ((j, 0),)",
        "tests/test_oracle.py::test_engine_equals_brute_force_closures[lambda]",
        "orbits lambda 4 edges gives the orbit of 0001-0101 size 8, not 4",
    ),
    Mutant(
        "Γ1's one edge named with its ends swapped", "oracle.py",
        "for x in graph.vertices if vertices else [(0, 1)]:", "for x in graph.vertices if vertices else [(1, 0)]:",
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 1 edges --format plain]",
        "orbits gamma 1 edges prints gamma n=1 edges: 0 orbits: the orbit of (1, 0) from members is [(0, 1)], "
        "whose least member is not (1, 0)",
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
        "main reports only broken invariants as internal errors", "cli.py",
        "    except OSError:\n        raise\n    except Exception as exc:",
        "    except (ArithmeticError, AssertionError) as exc:",
        "tests/test_cli.py::test_a_fault_of_any_other_type_is_an_internal_error",
        "a KeyError from the edge map makes verify bijections --max 6 exit 1, the status of a failed check, not 3",
    ),
    Mutant(
        "main reports a write error as an internal error", "cli.py",
        "    except OSError:\n        raise\n    except Exception as exc:", "    except Exception as exc:",
        "tests/test_cli.py::test_a_write_error_is_raised_not_reported",
        "a BrokenPipeError from cmd_table makes main print internal error: BrokenPipeError: [Errno 32] Broken pipe "
        "... and return 3, not raise it",
    ),
    Mutant(
        "plain table cells aligned left", "cli.py",
        'yield "  " + row[i].rjust(w)', 'yield "  " + row[i].ljust(w)',
        "tests/test_golden_cli.py::test_golden_cli[table lucas-classes --max 9 --format plain]",
        "table lucas-classes --max 9 ends its first line in '  9 ', not '   9'",
    ),
    Mutant(
        "CSV edge cells joined by two dashes", "cli.py",
        'rows.batches("", "-", ",", "\\n")', 'rows.batches("", "--", ",", "\\n")',
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format csv]",
        "orbits gamma 2 edges --format csv prints the row 00--01,2, not 00-01,2",
    ),
    Mutant(
        "listing reads vertex rows as edge runs", "cli.py",
        "OrbitRows(ints, n, ground == oracle.EDGES)", "OrbitRows(ints, n, ground != oracle.EDGES)",
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format plain]",
        "orbits gamma 2 edges prints the row 00  1, not 00-01  2",
    ),
    Mutant(
        "a listing drops its last partial batch", "cli.py",
        'while batch := "".join(islice(texts, size)):\n            yield batch',
        'while len(batch := list(islice(texts, size))) == size:\n            yield "".join(batch)',
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format plain]",
        "orbits gamma 2 edges prints its header but not its one row, a partial batch",
    ),
    Mutant(
        "edge run strings cached by the bit mask alone", "cli.py",
        "key = b << shift | y", "key = b",
        "tests/test_cli.py::test_each_run_of_edge_orbits_is_written_as_its_rows[gamma]",
        "orbits gamma 6 edges prints the row 000001-000100  2, not 000001-000101  2: the run of 000001 reads the "
        "low halves cached for the run of 000000",
    ),
    Mutant(
        "edge listings write 256 runs to a write", "cli.py",
        "32 if self.edges else 256", "256",
        "tests/test_cli.py::test_a_fault_partway_through_an_edge_listing_keeps_whole_batches_of_runs[plain]",
        "with a fault at the 40th run of orbits gamma 15 edges, stdout ends after the header, not after the first "
        "32 runs' rows",
    ),
    Mutant(
        "JSON listing cut at the first quoted NULs, not the last", "cli.py",
        "head, *pieces, tail = text.rsplit(", "head, *pieces, tail = text.split(",
        "tests/test_cli.py::test_json_writer_escapes_as_json_dumps",
        'cli._json of a listing whose parameters hold the string "\\0" cuts the parameters as if they were rows',
    ),
    Mutant(
        "JSON listing's first row keeps its separator", "cli.py",
        "out.write(head[:-len(lead)] + next(filled)[2:])", "out.write(head[:-len(lead)] + next(filled))",
        "tests/test_golden_cli.py::test_golden_cli[orbits gamma 2 edges --format json]",
        'orbits gamma 2 edges --format json opens its rows with "[\\n,\\n      {", not "[\\n      {"',
    ),
    Mutant(
        "cli imports argparse again", "cli.py",
        "from types import SimpleNamespace\n", "import argparse  # noqa: F401\nfrom types import SimpleNamespace\n",
        "tests/test_cli.py::test_a_command_loads_no_argparse",
        "import cube_orbits.cli loads argparse, the 1.5 ms of setup that each command paid for it",
    ),
    Mutant(
        "an option's value read from the token after the next", "cli.py",
        'value = next(tokens, "--")', 'value = next(tokens, "--") and next(tokens, "--")',
        "tests/test_parse.py::test_parse_reads_every_argv_as_argparse_did",
        "table gamma-v --max 3 refuses with argument --max: expected one argument, not max = 3",
    ),
    Mutant(
        "a unique prefix names no option", "cli.py",
        "option.startswith(name)]", "option == name]",
        "tests/test_parse.py::test_parse_reads_every_argv_as_argparse_did",
        "table gamma-v --ma 3 refuses with unrecognized arguments: --ma 3, not max = 3",
    ),
    Mutant(
        "-2 read as an option", "cli.py",
        '_NUMBER = re.compile(r"-\\d+$|-\\d*\\.\\d+$")', '_NUMBER = re.compile(r"(?!)")',
        "tests/test_parse.py::test_parse_reads_every_argv_as_argparse_did",
        "orbits gamma -2 --help prints help and exits 0, where the n = -2 it read first was refused with exit 2",
    ),
    Mutant(
        "witness's k made required", "cli.py",
        '{"--format": (PLAIN, JSON)}, 2),', '{"--format": (PLAIN, JSON)}, 3),',
        "tests/test_parse.py::test_parse_reads_every_argv_as_argparse_did",
        "witness asymmetric 9 refuses with the following arguments are required: k, not k = None",
    ),
    Mutant(
        "a non-integer read as the least value", "cli.py",
        "value = read - 1", "value = read",
        "tests/test_cli.py::test_integer_arguments_name_no_private_function",
        "table gamma-v --max x prints the table at max 1 and exits 0, not the refusal argument --max: expected a "
        "positive integer, got x",
    ),
    Mutant(
        "an integer's lower bound off by one", "cli.py",
        "if value < read:", "if value <= read:",
        "tests/test_cli.py::test_read_takes_every_integer_spelling_of_int",
        "orbits gamma 0 vertices refuses with argument n: expected a nonnegative integer, got 0, not n = 0",
    ),
    Mutant(
        "edge map reads from the position after the flip", "bijections.py",
        ">> flips.bit_length() + 1 &", ">> flips.bit_length() &",
        "tests/test_bijections.py::test_edge_map_examples",
        "lambda_edge_to_gamma_vertex(6, (0b010001, 0b000001)) is 0b010, not 0b001",
    ),
    Mutant(
        "edge map admits an end of n + 1 bits", "bijections.py",
        "if u >> n or v >> n:", "if u >> n + 1 or v >> n + 1:",
        "tests/test_bijections.py::test_edge_map_rejections",
        "lambda_edge_to_gamma_vertex(5, (0b100000, 0b000000)) is 0b00, not a ValueError",
    ),
    Mutant(
        "edge map lets a 1 at position n sit beside one at position 1", "bijections.py",
        "u & (u >> 1 | u << n - 1)", "u & u >> 1",
        "tests/test_bijections.py::test_edge_map_rejections",
        "lambda_edge_to_gamma_vertex(5, (0b10001, 0b10000)) is 0b00, not a ValueError",
    ),
    Mutant(
        "edge map admits ends that differ in several positions", "bijections.py",
        "if flips.bit_count() != 1:", "if not flips:",
        "tests/test_bijections.py::test_edge_map_rejections",
        "lambda_edge_to_gamma_vertex(5, (0b01000, 0b00001)) is 0b00, not a ValueError",
    ),
    Mutant(
        "bijection check expands only each run's lowest bit", "bijections.py",
        "for b in oracle._bits(bits):", "for b in [bits & -bits]:",
        "tests/test_bijections.py::test_verify_edge_orbit_bijection",
        "verify_edge_orbit_bijection(10) is n=10: 20 edge orbits map onto 20 of 21 vertex orbits, not None; Λ10 is "
        "the first Lucas cube whose walk yields a run of more than one edge orbit",
    ),
    Mutant(
        "2 x 2 quarter turn dropped", "bijections.py",
        'turn = {"VV": "H", "H": "VV"} if m == 2 else {}', "turn = {}",
        "tests/test_verify.py::test_first_case_passes[distinct tilings and partitions match orbit totals]",
        "distinct_tilings(2) is 2, not 1; verify bijections --max 2 prints the counterexample m=2: tilings 2, "
        "partitions 2, formula 1",
    ),
    Mutant(
        "a wrong-width tiling enumerated", "bijections.py",
        'shorter, level = [], [""]', 'shorter, level = [""], [""]',
        "tests/test_verify.py::test_first_case_passes[tiling round trips both directions]",
        "enumerate_tilings(1) is ['V', 'H'], not ['V']; verify bijections --max 1 prints the counterexample "
        "tiling H",
    ),
    Mutant(
        "edge map check reads each image under the edge itself", "verify.py",
        "rep = kept.get(pair)", "rep = kept.get((u, v))",
        "tests/test_verify.py::test_generators_fail_where_the_full_group_fails[_fixed_window]",
        "with the edge map reading max(edge)[2:-1], the row edge map constant on orbits passes to n = 12, "
        "not FAIL n=5: edge (00000, 00010) under Dihedral(shift=1, reflected=False)",
    ),
    Mutant(
        "edge map check keeps the edge's class for a pair that is no edge", "verify.py",
        "rep = kept.get(pair)", "rep = kept.get(pair, base_rep)",
        "tests/test_verify.py::test_edge_map_check_maps_a_pair_that_is_no_edge_afresh",
        "with a generator that writes the last letter over the first, verify bijections --max 5 prints result: PASS "
        "and exits 0, not an internal error and 3",
    ),
    Mutant(
        "table bound refuses the bound itself", "cli.py",
        "if max_n > TABLE_LIMIT:", "if max_n >= TABLE_LIMIT:",
        "tests/test_cli.py::test_a_table_answers_at_its_lowered_bound_and_refuses_one_past[gamma-v]",
        "table gamma-v --max 20000 is refused with exit 2, not printed",
    ),
    Mutant(
        "witness bound refuses the bound itself", "cli.py",
        "if args.n > WITNESS_LIMIT:", "if args.n >= WITNESS_LIMIT:",
        "tests/test_cli.py::test_a_witness_answers_at_its_lowered_bound_and_refuses_one_past",
        "witness asymmetric 200000000 is refused with exit 2, not printed",
    ),
    Mutant(
        "suite bound refuses the bound itself", "verify.py",
        "if effective > bound:", "if effective >= bound:",
        "tests/test_cli.py::test_a_suite_answers_at_its_lowered_bound_and_refuses_one_past[formulas]",
        "verify formulas --max 3400 prints REFUSED and exits 2, not PASS and 0",
    ),
    Mutant(
        "graph size unnamed at the named-size bound", "oracle.py",
        "if n <= NAMED_SIZE_LIMIT:", "if n < NAMED_SIZE_LIMIT:",
        "tests/test_cli.py::test_a_listing_answers_at_its_lowered_bound_and_refuses_one_past[gamma]",
        "orbits gamma 100 edges is refused without the size of the graph it would build",
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
        for part in ("src", "tests", "perfbench"):
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
