"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Each test prints a single pass line on success (run with ``pytest -s`` to see
them); any failure surfaces as a normal assertion error with context.
"""

import math
import time

from cube_orbits import bijections, formulas, oracle
from cube_orbits.cli import table_rows
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.strings import FIBONACCI, LUCAS, decompose, enumerate_strings, orbit_size
from dihedral import Dihedral, all_binary, apply, dihedral_orbit, rotate
from orbits import canonical_orbits

# Published count tables, columns n = 1, 2, 3, ...
GAMMA_VERTEX_TABLE = [  # n <= 15: |V|, orbits, size-1 orbits, size-2 orbits
    [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597],
    [1, 2, 4, 5, 9, 12, 21, 30, 51, 76, 127, 195, 322, 504, 826],
    [0, 1, 3, 2, 5, 3, 8, 5, 13, 8, 21, 13, 34, 21, 55],
    [1, 1, 1, 3, 4, 9, 13, 25, 38, 68, 106, 182, 288, 483, 771],
]
GAMMA_EDGE_TABLE = [  # n <= 14: |E|, orbits, size-1 orbits, size-2 orbits
    [1, 2, 5, 10, 20, 38, 71, 130, 235, 420, 744, 1308, 2285, 3970],
    [1, 1, 3, 5, 11, 19, 37, 65, 120, 210, 376, 654, 1149, 1985],
    [1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 8, 0, 13, 0],
    [0, 1, 2, 5, 9, 19, 34, 65, 115, 210, 368, 654, 1136, 1985],
]
LUCAS_CLASS_TABLE = [  # n <= 16: all, primitive, primitive symmetric, asymmetric
    [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364, 2207],
    [1, 2, 3, 4, 10, 12, 28, 40, 72, 110, 198, 300, 520, 812, 1350, 2160],
    [1, 2, 3, 4, 10, 12, 28, 40, 54, 90, 132, 180, 260, 392, 450, 752],
    [0, 0, 0, 0, 0, 0, 0, 0, 18, 20, 66, 120, 260, 420, 900, 1408],
]
LAMBDA_VERTEX_TABLE = [  # n <= 18: orbits, size-n orbits, size-2n orbits
    [1, 2, 2, 3, 3, 5, 5, 8, 9, 14, 16, 26, 31, 49, 64, 99, 133, 209],
    [1, 1, 1, 1, 2, 2, 4, 5, 6, 9, 12, 15, 20, 28, 30, 47, 54, 79],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 3, 5, 10, 15, 30, 44, 78, 119],
]
LAMBDA_EDGE_TABLE = [  # n <= 16: orbits, size-n orbits, size-2n orbits
    [0, 1, 1, 2, 2, 4, 5, 9, 12, 21, 30, 51, 76, 127, 195, 322],
    [0, 1, 1, 2, 1, 3, 2, 5, 3, 8, 5, 13, 8, 21, 13, 34],
    [0, 0, 0, 0, 1, 1, 3, 4, 9, 13, 25, 38, 68, 106, 182, 288],
]


def _report(number, name, started):
    print(f"criterion {number:2d} ({name}): PASS  [{time.perf_counter() - started:.2f}s]")


def nonzero(hist):
    return {k: v for k, v in hist.items() if v}


def orbit_sizes(n, kind, ground):
    """The size of each orbit by enumeration, checked against the orbit's members."""
    graph = oracle.build(n, kind)
    sizes = []
    for rep, size in canonical_orbits(graph, ground):
        assert len(oracle.members(graph, rep)) == size, (kind, n, rep)
        sizes.append(size)
    return sizes


def histogram(sizes):
    return {size: sizes.count(size) for size in sorted(set(sizes))}


def published_rows(which, max_n):
    """The table's rows as the published tables print them: one row per label, columns n = 1..max_n."""
    _, rows = table_rows(which, max_n)
    return [[int(cell) for cell in row] for row in list(zip(*rows))[1:]]


def test_criterion_01_table_reproduction():
    started = time.perf_counter()
    assert published_rows("gamma-v", 15) == GAMMA_VERTEX_TABLE
    assert published_rows("gamma-e", 14) == GAMMA_EDGE_TABLE
    assert published_rows("lucas-classes", 16) == LUCAS_CLASS_TABLE
    assert published_rows("lambda-v", 18) == LAMBDA_VERTEX_TABLE
    assert published_rows("lambda-e", 16) == LAMBDA_EDGE_TABLE
    _report(1, "published tables reproduced exactly", started)


def test_criterion_02_formula_vs_oracle():
    started = time.perf_counter()
    for n in range(2, 21):
        observed = histogram(orbit_sizes(n, GAMMA, oracle.VERTICES))
        assert observed == nonzero(formulas.gamma_vertex_orbits(n).by_size), n
    for n in range(0, 19):
        observed = histogram(orbit_sizes(n, GAMMA, oracle.EDGES))
        assert observed == nonzero(formulas.gamma_edge_orbits(n).by_size), n
    for n in range(1, 21):
        sizes = orbit_sizes(n, LAMBDA, oracle.VERTICES)
        assert len(sizes) == formulas.lambda_vertex_orbit_total(n), n
        observed = histogram(sizes)
        assert observed == nonzero(formulas.lambda_vertex_orbit_histogram(n)), n
    for n in range(1, 19):
        observed = histogram(orbit_sizes(n, LAMBDA, oracle.EDGES))
        assert observed == nonzero(formulas.lambda_edge_orbits(n).by_size), n
    _report(2, "closed forms equal brute-force enumeration", started)


def test_criterion_03_lambda_vertex_orbit_size_set():
    started = time.perf_counter()
    for n in range(3, 19):
        observed = set(orbit_sizes(n, LAMBDA, oracle.VERTICES))
        expected = {k for k in range(1, n + 1) if n % k == 0}
        expected |= {k for k in range(18, 2 * n + 1) if (2 * n) % k == 0}
        assert observed == expected == formulas.lambda_vertex_orbit_size_set(n), n
    _report(3, "lambda vertex orbit sizes match the size set", started)


def test_criterion_04_lambda_edge_orbit_sizes():
    started = time.perf_counter()
    for n in range(1, 17):
        observed = set(orbit_sizes(n, LAMBDA, oracle.EDGES))
        assert observed <= {n, 2 * n}, n
        assert (observed == {n, 2 * n}) == (n >= 5), n
    _report(4, "lambda edge orbit sizes within {n, 2n}, equal iff n >= 5", started)


def test_criterion_05_asymmetric_boundary():
    started = time.perf_counter()
    for n in range(1, 9):
        asym = [u for u in enumerate_strings(n, LUCAS) if orbit_size(u) == 2 * n]
        assert asym == [], n
    asym9 = [u for u in enumerate_strings(9, LUCAS) if orbit_size(u) == 18]
    assert len(asym9) == 18
    assert len(asym9) == formulas.lucas_string_classes(9).asymmetric
    _report(5, "no asymmetric lucas strings below length 9, exactly 18 at 9", started)


def test_criterion_06_string_theory_micro_suite():
    started = time.perf_counter()
    for n in range(1, 11):
        for u in all_binary(n):
            d = decompose(u)
            # orbit size from the root's symmetry class equals the true orbit
            assert orbit_size(u) == len(dihedral_orbit(u)), u
            # period counts distinct rotations, divides n, and rebuilds u
            assert d.period == len({rotate(u, j) for j in range(n)}), u
            assert d.period * d.exponent == n and d.root * d.exponent == u, u
            if 2 * len(u) <= 10:
                assert decompose(u * 2).period == d.period, u
            # full orbits only happen for primitive strings
            if orbit_size(u) == 2 * n:
                assert d.exponent == 1, u
            # primitive symmetric iff primitive and fixed by some reflection
            fixing = [j for j in range(n) if apply(Dihedral(j, True), u) == u]
            if d.exponent == 1:
                assert d.symmetric == bool(fixing), u
                assert len(fixing) <= 1, u
            # a reflection fixes u iff u splits into two palindromes
            for j in range(n):
                x, y = u[:j], u[j:]
                assert (j in fixing) == (x == x[::-1] and y == y[::-1]), (u, j)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"micro-suite took {elapsed:.2f}s"
    _report(6, "orbit-size and period laws on all strings up to length 10", started)


def test_criterion_07_identity_suite():
    started = time.perf_counter()
    for n in range(-1, 201):
        total = sum(math.comb(n - k, k) for k in range(0, n // 2 + 1))
        assert total == formulas.fib(n + 1), n
    for n in range(1, 201):
        total = 0
        for k in range(0, n // 2 + 1):
            term = n * math.comb(n - k, k)
            assert term % (n - k) == 0, (n, k)
            total += term // (n - k)
        assert total == formulas.lucas(n), n
    for n in range(0, 201):
        convolution = sum(formulas.fib(i) * formulas.lucas(n - i) for i in range(n + 1))
        assert convolution == (n + 1) * formulas.fib(n), n
    for n in range(1, 201):
        assert formulas.lucas(n) == formulas.fib(n - 1) + formulas.fib(n + 1), n
        primitive_sum = sum(
            formulas.lucas_string_classes(d).primitive for d in formulas.divisors(n)
        )
        assert primitive_sum == formulas.lucas(n), n
    _report(7, "summation identities exact through n = 200", started)


def test_criterion_08_automorphism_validation():
    started = time.perf_counter()
    for n in range(1, 8):
        assert len(oracle.automorphism_group(oracle.build(n, GAMMA))) == 2, n
    for n in range(3, 9):
        graph = oracle.build(n, LAMBDA)
        autos = set(oracle.automorphism_group(graph))
        assert len(autos) == 2 * n, n
        names = [graph.decode(x) for x in graph.vertices]
        string_perms = {tuple(int(apply(g, u), 2) for u in names) for g in Dihedral.full_group(n)}
        assert autos == string_perms == set(oracle.group_permutations(graph)), n
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"automorphism search took {elapsed:.2f}s"
    _report(8, "automorphism groups have the claimed size and realization", started)


def test_criterion_09_bijection_suite():
    started = time.perf_counter()
    assert bijections.distinct_tilings(2) == 1
    for m in range(3, 17):
        assert bijections.distinct_tilings(m) == formulas.gamma_vertex_orbits(m - 1).total, m
    for n in range(0, 15):
        for u in enumerate_strings(n, FIBONACCI):
            assert bijections.tiling_to_string(bijections.string_to_tiling(u)) == u
    for m in range(1, 16):
        for t in bijections.enumerate_tilings(m):
            assert bijections.string_to_tiling(bijections.tiling_to_string(t)) == t
    for n in range(5, 17):
        assert bijections.verify_edge_orbit_bijection(n) is None, n
    _report(9, "tiling counts, round trips, and the edge orbit bijection", started)


def test_criterion_10_fixed_point_identity():
    started = time.perf_counter()
    for d in range(1, 15):
        reflections = [Dihedral(j, True) for j in range(d)]
        total = sum(apply(g, u) == u for u in enumerate_strings(d, LUCAS) for g in reflections)
        assert total == d * formulas.fib(d // 2 + 2), d
    _report(10, "reflection fixed points sum to d * F(floor(d/2)+2)", started)
