"""Verification suites: closed forms against identities and brute force.

Every check is one row of ``CHECKS``: a suite, a name, the first n it covers
and a ``case(n)`` that returns a counterexample or None.  One runner evaluates
a row over ``n in [lo, min(max, cap)]`` and keeps the first counterexample,
or reports SKIP when that range is empty; the suites are the rows grouped by
suite name.  The CLI renders the results and turns them into an exit status.
Suites that need graph enumeration refuse ranges beyond their hard bounds
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bijections, formulas, oracle, strings
from .formulas import GAMMA, LAMBDA
from .oracle import EDGES, VERTICES
from .strings import Dihedral, apply

PASS = "PASS"
FAIL = "FAIL"
REFUSED = "REFUSED"
SKIP = "SKIP"

FORMULAS = "formulas"
ORACLE = "oracle-vs-formula"
BIJECTIONS = "bijections"
AUTOMORPHISMS = "automorphisms"

SUITE_DEFAULT_MAX = {FORMULAS: 200, ORACLE: 14, BIJECTIONS: 16, AUTOMORPHISMS: 8}

SUITE_HARD_BOUND = {ORACLE: oracle.BUILD_LIMIT, BIJECTIONS: 18, AUTOMORPHISMS: 8}


@dataclass
class CheckResult:
    name: str
    scope: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """One identity, evaluated for each n from ``lo`` to the suite's max (or ``cap``).

    ``scope`` is formatted with ``lo`` and the effective upper end ``hi``.
    """

    suite: str
    name: str
    lo: int
    case: Callable[[int], str | None]
    cap: int | None = None
    scope: str = "n in [{lo}, {hi}]"


def run_check(check: Check, max_n: int) -> CheckResult:
    """Evaluate one check up to ``max_n`` and report its first counterexample (SKIP on no case)."""
    hi = max_n if check.cap is None else min(max_n, check.cap)
    scope = check.scope.format(lo=check.lo, hi=hi)
    if hi < check.lo:
        return CheckResult(check.name, scope, SKIP)
    for n in range(check.lo, hi + 1):
        failure = check.case(n)
        if failure is not None:
            return CheckResult(check.name, scope, FAIL, failure)
    return CheckResult(check.name, scope, PASS)


def _mismatch(n: int, what: str, got: object, want: object) -> str | None:
    """Counterexample when ``got`` (one route) differs from ``want`` (the other)."""
    return None if got == want else f"n={n}: {what} {got} != {want}"


# --- formulas suite: identities that need no graph enumeration


def _lucas_binomial_identity(n: int) -> str | None:
    total = 0
    for k in range(0, n // 2 + 1):
        term = n * formulas.binomial(n - k, k)
        if term % (n - k) != 0:
            return f"n={n}, k={k}: non-integral term"
        total += term // (n - k)
    return _mismatch(n, "binomial sum", total, formulas.lucas(n))


def _histogram_sums(n: int, summary: formulas.OrbitSummary, count: int) -> str | None:
    """Orbit sizes weighted by their counts cover ``count`` elements; the counts add up to the total."""
    if sum(k * c for k, c in summary.by_size.items()) != count:
        return f"n={n}: weighted sum mismatch"
    return _mismatch(n, "orbit total", sum(summary.by_size.values()), summary.total)


def _gamma_vertex_sums(n: int) -> str | None:
    summary = formulas.gamma_vertex_orbits(n)
    if sorted(summary.by_size) != [1, 2]:
        return f"n={n}: histogram keys {sorted(summary.by_size)}"
    return _histogram_sums(n, summary, formulas.fib(n + 2))


def _asymmetric_boundary(n: int) -> str | None:
    a = formulas.lucas_string_classes(n).asymmetric
    if (n <= 8 and a != 0) or (n >= 9 and a <= 0):
        return f"n={n}: asymmetric count {a}"
    return None


# --- oracle-vs-formula suite: closed forms against explicit enumeration


def _orbits(n: int, kind: str, ground: str) -> oracle.OrbitPartition:
    graph = oracle.build(n, kind)
    return oracle.vertex_orbits(graph) if ground == VERTICES else oracle.edge_orbits(graph)


def _oracle_vs_formula(n: int, partition: oracle.OrbitPartition, by_size: dict[int, int]) -> str | None:
    return _mismatch(n, "oracle", oracle.histogram(partition), {k: v for k, v in by_size.items() if v})


def _lambda_vertex_vs_oracle(n: int) -> str | None:
    partition = _orbits(n, LAMBDA, VERTICES)
    total = _mismatch(n, "orbit total", len(partition.orbits), formulas.lambda_vertex_orbit_total(n))
    return _oracle_vs_formula(n, partition, formulas.lambda_vertex_orbit_histogram(n)) or total


def _lambda_edge_size_set(n: int) -> str | None:
    observed = set(_orbits(n, LAMBDA, EDGES).sizes())
    if not observed <= {n, 2 * n}:
        return f"n={n}: sizes {sorted(observed)} escape {{n, 2n}}"
    if (observed == {n, 2 * n}) != (n >= 5):
        return f"n={n}: equality with {{n, 2n}} fails the n >= 5 boundary"
    return None


def _necklaces_vs_oracle(n: int) -> str | None:
    lucas_strings = strings.enumerate_strings(n, strings.LUCAS)
    rotation_classes = {min(u[i:] + u[:i] for i in range(n)) for u in lucas_strings}
    return _mismatch(n, "rotation classes", len(rotation_classes), formulas.necklace_count(n))


def _string_classes_vs_oracle(n: int) -> str | None:
    lucas_strings = strings.enumerate_strings(n, strings.LUCAS)
    primitive = [d for d in map(strings.decompose, lucas_strings) if d.exponent == 1]
    asymmetric = sum(strings.orbit_size(u) == 2 * n for u in lucas_strings)
    got = (len(primitive), sum(d.symmetric for d in primitive), asymmetric)
    return _mismatch(n, "classified", got, tuple(formulas.lucas_string_classes(n)))


def _reflection_fix_sum(d: int) -> str | None:
    graph = oracle.build(d, LAMBDA)
    total = sum(len(oracle.fixed_points(Dihedral(j, True), graph, VERTICES)) for j in range(d))
    return _mismatch(d, "fixed-point sum", total, d * formulas.fib(d // 2 + 2))


def _fib_palindromes_vs_oracle(n: int) -> str | None:
    palindromes = [u for u in strings.enumerate_strings(n, strings.FIBONACCI) if u == u[::-1]]
    got = (len(palindromes), sum(u[0] == "0" for u in palindromes), sum(u[0] == "1" for u in palindromes))
    want = tuple(formulas.fib_palindrome_fix(n, variant) for variant in ("all", "starts0", "starts1"))
    return _mismatch(n, "enumeration", got, want)


def _edges_have_primitive_endpoint(n: int) -> str | None:
    graph = oracle.build(n, LAMBDA)
    for edge in graph.edges:
        u, v = map(graph.decode, edge)
        if strings.decompose(u).exponent != 1 and strings.decompose(v).exponent != 1:
            return f"n={n}: edge ({u}, {v}) has no primitive endpoint"
    return None


# --- bijections suite


def _tiling_round_trip(n: int) -> str | None:
    """Strings of length n, and tilings of the 2 x (n + 1) rectangle."""
    for u in strings.enumerate_strings(n, strings.FIBONACCI):
        if bijections.tiling_to_string(bijections.string_to_tiling(u)) != u:
            return f"string {u}"
    for t in bijections.enumerate_tilings(n + 1):
        if bijections.string_to_tiling(bijections.tiling_to_string(t)) != t:
            return f"tiling {t}"
    return None


def _palindrome_reflection(n: int) -> str | None:
    for u in strings.enumerate_strings(n, strings.FIBONACCI):
        t = bijections.string_to_tiling(u)
        if (u == u[::-1]) != (t == t[::-1]):
            return f"string {u}, tiling {t}"
    return None


def _tiling_counts(m: int) -> str | None:
    if m == 2:
        return None if bijections.distinct_tilings(2) == 1 else "m=2: expected exactly 1 distinct tiling"
    tilings = bijections.distinct_tilings(m)
    partitions = bijections.distinct_partitions(m)
    expected = formulas.gamma_vertex_orbits(m - 1).total
    if not tilings == partitions == expected:
        return f"m={m}: tilings {tilings}, partitions {partitions}, formula {expected}"
    return None


def _edge_map_well_defined(n: int) -> str | None:
    graph = oracle.build(n, LAMBDA)
    for edge in graph.edges:
        u, v = map(graph.decode, edge)
        base = bijections.lambda_edge_to_gamma_vertex((u, v))
        base_rep = min(base, base[::-1])
        for g in Dihedral.full_group(n):
            image = bijections.lambda_edge_to_gamma_vertex((apply(g, u), apply(g, v)))
            if min(image, image[::-1]) != base_rep:
                return f"n={n}: edge ({u}, {v}) under {g}"
    return None


def _edge_map_surjective(n: int) -> str | None:
    for w in strings.enumerate_strings(n - 3, strings.FIBONACCI):
        edge = ("010" + w, "000" + w)
        if not (strings.is_lucas(edge[0]) and strings.is_lucas(edge[1])):
            return f"n={n}: constructed pair for {w} is not an edge"
        if bijections.lambda_edge_to_gamma_vertex(edge) != w:
            return f"n={n}: preimage construction fails for {w}"
    return None


# --- automorphisms suite


def _gamma_automorphisms(n: int) -> str | None:
    graph = oracle.build(n, GAMMA)
    autos = oracle.automorphism_group(graph)
    if len(autos) != 2:
        return f"n={n}: found {len(autos)} automorphisms"
    if n >= 2:
        identity = tuple(range(len(graph.vertices)))
        reversal = oracle.dihedral_vertex_permutation(graph, Dihedral.reflection())
        if set(autos) != {identity, reversal}:
            return f"n={n}: automorphisms are not id and reversal"
    return None


def _lambda_automorphisms(n: int) -> str | None:
    graph = oracle.build(n, LAMBDA)
    autos = set(oracle.automorphism_group(graph))
    if len(autos) != 2 * n:
        return f"n={n}: found {len(autos)} automorphisms, expected {2 * n}"
    if autos != {oracle.dihedral_vertex_permutation(graph, g) for g in Dihedral.full_group(n)}:
        return f"n={n}: automorphisms differ from dihedral string maps"
    return None


TINY_AUTOMORPHISM_COUNTS = {(GAMMA, 0): 1, (LAMBDA, 0): 1, (LAMBDA, 1): 1, (LAMBDA, 2): 2}


def _tiny_graph_automorphisms(_: int) -> str | None:
    """All tiny cubes in one case: this domain does not grow with the suite's max."""
    for (kind, dim), size in TINY_AUTOMORPHISM_COUNTS.items():
        count = len(oracle.automorphism_group(oracle.build(dim, kind)))
        if count != size:
            return f"{kind} n={dim}: found {count} automorphisms, expected {size}"
    return None


def _automorphisms_preserve_weight(n: int) -> str | None:
    # gamma starts at 2: the exceptional automorphism of the 1-cube swaps
    # the two vertices, which differ in weight
    for kind in (GAMMA, LAMBDA) if n >= 2 else (LAMBDA,):
        graph = oracle.build(n, kind)
        weights = [strings.weight(graph.decode(x)) for x in graph.vertices]
        for perm in oracle.automorphism_group(graph):
            for i, j in enumerate(perm):
                if weights[i] != weights[j]:
                    return f"{kind} n={n}: weight not preserved"
    return None


CHECKS = (
    Check(FORMULAS, "fibonacci binomial-sum identity", -1, lambda n: _mismatch(
        n, "binomial sum", sum(formulas.binomial(n - k, k) for k in range(n // 2 + 1)), formulas.fib(n + 1))),
    Check(FORMULAS, "lucas binomial-sum identity", 1, _lucas_binomial_identity),
    Check(FORMULAS, "fibonacci-lucas convolution identity", 0, lambda n: _mismatch(
        n, "convolution", sum(formulas.fib(i) * formulas.lucas(n - i) for i in range(n + 1)),
        (n + 1) * formulas.fib(n))),
    Check(FORMULAS, "lucas from fibonacci neighbors", 1, lambda n: _mismatch(
        n, "lucas", formulas.lucas(n), formulas.fib(n - 1) + formulas.fib(n + 1))),
    Check(FORMULAS, "primitive counts sum to lucas over divisors", 1, lambda n: _mismatch(
        n, "divisor sum", sum(formulas.lucas_string_classes(d).primitive for d in formulas.divisors(n)),
        formulas.lucas(n))),
    Check(FORMULAS, "gamma vertex histogram sums", 2, _gamma_vertex_sums),
    Check(FORMULAS, "gamma edge histogram sums", 0, lambda n: _histogram_sums(
        n, formulas.gamma_edge_orbits(n), formulas.graph_counts(n, GAMMA).edges)),
    Check(FORMULAS, "lambda vertex histogram sums", 1, lambda n: _histogram_sums(n, formulas.OrbitSummary(
        formulas.lambda_vertex_orbit_total(n), formulas.lambda_vertex_orbit_histogram(n)), formulas.lucas(n))),
    Check(FORMULAS, "lambda edge histogram sums", 1, lambda n: _histogram_sums(
        n, formulas.lambda_edge_orbits(n), n * formulas.fib(n - 1))),
    Check(FORMULAS, "lambda edge total equals gamma vertex total shifted", 5, lambda n: _mismatch(
        n, "orbit total", formulas.lambda_edge_orbits(n).total, formulas.gamma_vertex_orbits(n - 3).total)),
    Check(FORMULAS, "lambda vertex histogram support equals size set", 1, lambda n: _mismatch(
        n, "support", {k for k, c in formulas.lambda_vertex_orbit_histogram(n).items() if c > 0},
        formulas.lambda_vertex_orbit_size_set(n))),
    Check(FORMULAS, "asymmetric strings appear exactly from length 9", 1, _asymmetric_boundary),
    Check(ORACLE, "gamma vertex orbits: formula equals enumeration", 2, lambda n: _oracle_vs_formula(
        n, _orbits(n, GAMMA, VERTICES), formulas.gamma_vertex_orbits(n).by_size)),
    Check(ORACLE, "gamma edge orbits: formula equals enumeration", 0, lambda n: _oracle_vs_formula(
        n, _orbits(n, GAMMA, EDGES), formulas.gamma_edge_orbits(n).by_size)),
    Check(ORACLE, "lambda vertex orbits: formula equals enumeration", 1, _lambda_vertex_vs_oracle),
    Check(ORACLE, "lambda edge orbits: formula equals enumeration", 1, lambda n: _oracle_vs_formula(
        n, _orbits(n, LAMBDA, EDGES), formulas.lambda_edge_orbits(n).by_size)),
    Check(ORACLE, "lambda vertex orbit sizes match the size set", 3, lambda n: _mismatch(
        n, "oracle sizes", set(_orbits(n, LAMBDA, VERTICES).sizes()), formulas.lambda_vertex_orbit_size_set(n))),
    Check(ORACLE, "lambda edge orbit sizes within {n, 2n}, equal iff n >= 5", 1, _lambda_edge_size_set),
    Check(ORACLE, "necklace count equals rotation classes", 1, _necklaces_vs_oracle),
    Check(ORACLE, "string class counts equal exhaustive classification", 1, _string_classes_vs_oracle),
    Check(ORACLE, "reflection fixed-point sum identity", 1, _reflection_fix_sum),
    Check(ORACLE, "palindrome counts equal enumeration", 1, _fib_palindromes_vs_oracle),
    Check(ORACLE, "every lucas edge has a primitive endpoint", 5, _edges_have_primitive_endpoint),
    Check(BIJECTIONS, "tiling round trips both directions", 0, _tiling_round_trip, 16, "lengths <= {hi}"),
    Check(BIJECTIONS, "palindromes match reflection-invariant tilings", 0, _palindrome_reflection, 14,
          "lengths <= {hi}"),
    Check(BIJECTIONS, "distinct tilings and partitions match orbit totals", 2, _tiling_counts,
          scope="m in [{lo}, {hi}]"),
    Check(BIJECTIONS, "edge map constant on orbits", 5, _edge_map_well_defined, 12),
    Check(BIJECTIONS, "edge map surjective", 5, _edge_map_surjective, 14),
    Check(BIJECTIONS, "edge orbit bijection holds", 5, lambda n: _mismatch(
        n, "orbit bijection holds", bijections.verify_edge_orbit_bijection(n), True)),
    Check(AUTOMORPHISMS, "fibonacci cubes have exactly 2 automorphisms", 1, _gamma_automorphisms),
    Check(AUTOMORPHISMS, "lucas cubes have exactly 2n automorphisms, all dihedral", 3, _lambda_automorphisms),
    Check(AUTOMORPHISMS, "tiny cubes have the expected groups", 0, _tiny_graph_automorphisms, 0,
          "gamma n=0; lambda n in [0, 2]"),
    Check(AUTOMORPHISMS, "automorphisms preserve weight", 1, _automorphisms_preserve_weight,
          scope="gamma n in [2, {hi}], lambda n in [1, {hi}]"),
)

SUITES = {suite: [check for check in CHECKS if check.suite == suite] for suite in SUITE_DEFAULT_MAX}


def run_suite(name: str, max_n: int | None) -> tuple[str, int | None, list[CheckResult]]:
    """Resolve the effective range, refusing ranges beyond hard bounds."""
    effective = SUITE_DEFAULT_MAX[name] if max_n is None else max_n
    bound = SUITE_HARD_BOUND.get(name)
    if bound is not None and effective > bound:
        detail = f"max {effective} exceeds the enumeration bound {bound} for this suite"
        return name, effective, [CheckResult("suite refused", f"max {effective}", REFUSED, detail)]
    return name, effective, [run_check(check, effective) for check in SUITES[name]]
