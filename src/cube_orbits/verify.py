"""Verification suites: closed forms against identities and brute force.

Every check is one row of ``CHECKS``: a suite, a name, the first n it covers
and a ``case(n)`` that returns a counterexample or None.  One runner evaluates
a row over ``n in [lo, min(max, cap)]`` and keeps the first counterexample,
or reports SKIP when that range is empty; the suites are the rows grouped by
suite name.  The CLI renders the results and turns them into an exit status.
Each suite refuses ranges beyond its hard bound instead of silently
truncating.  A value that several checks read is made once per suite run
(``_once``) and kept by no run after it.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Iterator, NamedTuple

from . import bijections, formulas, oracle, strings
from .formulas import GAMMA, LAMBDA
from .oracle import EDGES, VERTICES

PASS = "PASS"
FAIL = "FAIL"
REFUSED = "REFUSED"
SKIP = "SKIP"

FORMULAS = "formulas"
ORACLE = "oracle-vs-formula"
BIJECTIONS = "bijections"
AUTOMORPHISMS = "automorphisms"

SUITE_DEFAULT_MAX = {FORMULAS: 200, ORACLE: 14, BIJECTIONS: 16, AUTOMORPHISMS: 8}

# Against the 30 s budget with a quarter of it in hand (README "Bounds", three fresh runs on a 2-CPU
# host): formulas --max 3400 took 15.5-22.4 s, but 3500 took 22.3-23.7 s; oracle-vs-formula --max 27
# took 15.4-16.6 s, but 28 took 28.1 s; bijections --max 25 took 12.8-13.6 s, but 26 took 24.1 s;
# automorphisms --max 20 took 13.1-13.3 s, but 21 took 27.3 s
SUITE_HARD_BOUND = {FORMULAS: 3400, ORACLE: 27, BIJECTIONS: 25, AUTOMORPHISMS: 20}


class CheckResult(NamedTuple):
    name: str
    scope: str
    status: str
    detail: str = ""


class Check(NamedTuple):
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


def _call(f: Callable, *args: object) -> object:
    """f(*args): ``_once`` outside a suite run, where nothing is kept."""
    return f(*args)


# Each value that several checks read is read as _once(f, *args). ``run_suite`` binds _once to a fresh
# cache of ``_call`` for its checks, so a value lives for one suite run, and a function set on a module
# attribute (a patch or a wrapper) is a new key, called afresh.
_once = _call


def _mismatch(n: int, what: str, got: object, want: object) -> str | None:
    """Counterexample when ``got`` (one route) differs from ``want`` (the other)."""
    return None if got == want else f"n={n}: {what} {got} != {want}"


# --- formulas suite: identities that need no graph enumeration


def _binomial_terms(n: int) -> Iterator[int]:
    """C(n - k, k) for k = 0, ..., n // 2: none at n = -1, the one term 1 at n = 0.

    Each term comes from the one before by the exact ratio
    C(n - k, k) = C(n - k + 1, k - 1) (n - 2k + 2)(n - 2k + 1) / (k (n - k + 1)),
    and every division is checked.
    """
    term = 1
    for k in range(n // 2 + 1):
        if k:
            term = formulas._exact_div(term * ((n - 2 * k + 2) * (n - 2 * k + 1)), k * (n - k + 1))
        yield term


def _lucas_binomial_identity(n: int) -> str | None:
    total = 0
    for k, binomial in enumerate(_binomial_terms(n)):
        term, remainder = divmod(n * binomial, n - k)
        if remainder != 0:
            return f"n={n}, k={k}: non-integral term"
        total += term
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
#
# The graph rows read the two orbit-size histograms of each cube (``_histograms``); the four string-side
# rows read one census of the Lucas strings of each length (``_census``), so no row walks the strings itself.


def _histograms(n: int, kind: str) -> dict[str, dict[int, int]]:
    """Ground -> orbit size -> number of orbits by enumeration, sizes ascending, from one build of the cube.

    A few ints per cube; the graph itself is not kept.  The edge orbits are counted by the bits of each run
    of ``oracle.orbit_walk``, so an edge is never made on its own.
    """
    graph = oracle.build(n, kind)
    edges: Counter[int] = Counter()
    for _, bits, size in oracle.orbit_walk(graph, EDGES):
        edges[size] += bits.bit_count()
    vertices = Counter(size for _, size in oracle.canonical_orbits(graph, VERTICES))
    return {VERTICES: dict(sorted(vertices.items())), EDGES: dict(sorted(edges.items()))}


def _oracle_vs_formula(n: int, kind: str, ground: str, by_size: dict[int, int]) -> str | None:
    return _mismatch(n, "oracle", _once(_histograms, n, kind)[ground], {k: v for k, v in by_size.items() if v})


def _lambda_vertex_vs_oracle(n: int) -> str | None:
    total = _mismatch(n, "orbit total", sum(_once(_histograms, n, LAMBDA)[VERTICES].values()),
                      formulas.lambda_vertex_orbit_total(n))
    return _oracle_vs_formula(n, LAMBDA, VERTICES, formulas.lambda_vertex_orbit_histogram(n)) or total


def _lambda_edge_size_set(n: int) -> str | None:
    observed = set(_once(_histograms, n, LAMBDA)[EDGES])
    if not observed <= {n, 2 * n}:
        return f"n={n}: sizes {sorted(observed)} escape {{n, 2n}}"
    if (observed == {n, 2 * n}) != (n >= 5):
        return f"n={n}: equality with {{n, 2n}} fails the n >= 5 boundary"
    return None


class LucasCensus(NamedTuple):
    """What the string-side rows read of the Lucas strings of one length n, from one pass over them."""

    period_sum: int  # n // period summed: n times the rotation classes, by orbit-stabilizer
    primitive: int
    symmetric: int  # primitive strings whose root is symmetric
    asymmetric: int  # strings whose orbit has the full size 2n
    fixing_reflections: int  # summed over the strings, each counted directly
    non_primitive: tuple[int, ...]  # as vertices of the Lucas cube, ascending


def _census(n: int) -> LucasCensus:
    """The census of the Lucas strings of length n >= 1, from one pass that decomposes each string once."""
    period_sum = primitive = symmetric = asymmetric = fixed = 0
    non_primitive = []
    for u in strings.enumerate_strings(n, strings.LUCAS):
        d = strings.decompose(u)
        period_sum += n // d.period
        if d.exponent == 1:
            primitive += 1
            symmetric += d.symmetric
        else:
            non_primitive.append(int(u, 2))
        asymmetric += not d.symmetric and d.period == n
        fixed += _fixing_reflections(u)
    return LucasCensus(period_sum, primitive, symmetric, asymmetric, fixed, tuple(non_primitive))


def _necklaces_vs_oracle(n: int) -> str | None:
    rotation_classes = formulas._exact_div(_once(_census, n).period_sum, n)
    return _mismatch(n, "rotation classes", rotation_classes, formulas.necklace_count(n))


def _string_classes_vs_oracle(n: int) -> str | None:
    census = _once(_census, n)
    got = (census.primitive, census.symmetric, census.asymmetric)
    return _mismatch(n, "classified", got, tuple(formulas.lucas_string_classes(n)))


def _fixing_reflections(u: str) -> int:
    """How many of the len(u) reflections fix u.

    Reflection j, the reversal rotated right by j, maps u to r rotated right by j,
    where r is u reversed, and that equals u iff u occurs in r + r at offset
    -j mod len(u): each offset below len(u) at which ``str.find`` meets u counts once.
    """
    doubled, end, count = u[::-1] * 2, 2 * len(u) - 1, 0
    offset = doubled.find(u, 0, end)
    while offset >= 0:
        count += 1
        offset = doubled.find(u, offset + 1, end)
    return count


def _reflection_fix_sum(d: int) -> str | None:
    return _mismatch(d, "fixed-point sum", _once(_census, d).fixing_reflections, d * formulas.fib(d // 2 + 2))


def _fib_palindromes_vs_oracle(n: int) -> str | None:
    palindromes = [u for u in strings.enumerate_strings(n, strings.FIBONACCI) if u == u[::-1]]
    got = (len(palindromes), sum(u[0] == "0" for u in palindromes), sum(u[0] == "1" for u in palindromes))
    want = tuple(formulas.fib_palindrome_fix(n, variant) for variant in ("all", "starts0", "starts1"))
    return _mismatch(n, "enumeration", got, want)


def _edges_have_primitive_endpoint(n: int) -> str | None:
    """An edge lacks a primitive endpoint iff both its ends are non-primitive.

    Such an edge joins a non-primitive vertex u to u with one more bit set, also non-primitive.  Setting
    each bit of each non-primitive u in turn, both ascending, meets every such edge, and in the order of
    the full ascending edge walk.  The cube is built only to print one.
    """
    non_primitive = _once(_census, n).non_primitive
    is_non_primitive = set(non_primitive)
    for u in non_primitive:
        for k in range(n):
            v = u | 1 << k
            if v != u and v in is_non_primitive:
                decode = oracle.build(n, LAMBDA).decode
                return f"n={n}: edge ({decode(u)}, {decode(v)}) has no primitive endpoint"
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


# one rotation and one reversal generate the dihedral group; each is labelled as a counterexample names it
GENERATORS = (
    ("Dihedral(shift=1, reflected=False)", lambda u: u[-1] + u[:-1]),  # rotation right by one
    ("Dihedral(shift=0, reflected=True)", lambda u: u[::-1]),  # reversal
)


def _edge_map_well_defined(n: int) -> str | None:
    """The reversal class of each edge's image is kept by every generator, hence by the group.

    Every group element is a product of generators and the edge set is closed
    under the group, so a class kept at each step of the product is kept by it.
    """
    graph = oracle.build(n, LAMBDA)
    name = {x: graph.decode(x) for x in graph.vertices}
    for a, b in graph.edges:
        u, v = name[a], name[b]
        base = bijections.lambda_edge_to_gamma_vertex((u, v))
        base_rep = min(base, base[::-1])
        for label, g in GENERATORS:
            image = bijections.lambda_edge_to_gamma_vertex((g(u), g(v)))
            if min(image, image[::-1]) != base_rep:
                return f"n={n}: edge ({u}, {v}) under {label}"
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


def _group_mismatch(kind: str, n: int, expected: int) -> str | None:
    """None if the searched group has ``expected`` elements and is the group orbit enumeration applies, else why not."""
    graph = oracle.build(n, kind)
    autos = set(_once(oracle.automorphism_group, graph))
    if len(autos) != expected:
        return f"found {len(autos)} automorphisms, expected {expected}"
    if autos != set(oracle.group_permutations(graph)):
        return "automorphisms differ from the maps orbit enumeration applies"
    return None


def _automorphisms(kind: str) -> Callable[[int], str | None]:
    """Fibonacci cubes have 2 automorphisms and Lucas cubes 2n, the maps orbit enumeration applies."""

    def case(n: int) -> str | None:
        mismatch = _group_mismatch(kind, n, 2 if kind == GAMMA else 2 * n)
        return mismatch and f"n={n}: {mismatch}"

    return case


TINY_AUTOMORPHISM_COUNTS = {(GAMMA, 0): 1, (LAMBDA, 0): 1, (LAMBDA, 1): 1, (LAMBDA, 2): 2}


def _tiny_graph_automorphisms(_: int) -> str | None:
    """All tiny cubes in one case: this domain does not grow with the suite's max."""
    for (kind, dim), size in TINY_AUTOMORPHISM_COUNTS.items():
        mismatch = _group_mismatch(kind, dim, size)
        if mismatch:
            return f"{kind} n={dim}: {mismatch}"
    return None


def _automorphisms_preserve_weight(n: int) -> str | None:
    # gamma starts at 2: the exceptional automorphism of the 1-cube swaps
    # the two vertices, which differ in weight
    for kind in (GAMMA, LAMBDA) if n >= 2 else (LAMBDA,):
        graph = oracle.build(n, kind)
        weights = [x.bit_count() for x in graph.vertices]
        for perm in _once(oracle.automorphism_group, graph):
            for i, j in enumerate(perm):
                if weights[i] != weights[j]:
                    return f"{kind} n={n}: weight not preserved"
    return None


CHECKS = (
    Check(FORMULAS, "fibonacci binomial-sum identity", -1, lambda n: _mismatch(
        n, "binomial sum", sum(_binomial_terms(n)), formulas.fib(n + 1))),
    Check(FORMULAS, "lucas binomial-sum identity", 1, _lucas_binomial_identity),
    Check(FORMULAS, "fibonacci-lucas convolution identity", 0, lambda n: _mismatch(
        n, "convolution", sum(_once(formulas.fib, i) * _once(formulas.lucas, n - i) for i in range(n + 1)),
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
        formulas.lambda_vertex_orbit_total(n), _once(formulas.lambda_vertex_orbit_histogram, n)),
        formulas.lucas(n))),
    Check(FORMULAS, "lambda edge histogram sums", 1, lambda n: _histogram_sums(
        n, formulas.lambda_edge_orbits(n), n * formulas.fib(n - 1))),
    Check(FORMULAS, "lambda edge total equals gamma vertex total shifted", 5, lambda n: _mismatch(
        n, "orbit total", formulas.lambda_edge_orbits(n).total, formulas.gamma_vertex_orbits(n - 3).total)),
    Check(FORMULAS, "lambda vertex histogram support equals size set", 1, lambda n: _mismatch(
        n, "support", {k for k, c in _once(formulas.lambda_vertex_orbit_histogram, n).items() if c > 0},
        formulas.lambda_vertex_orbit_size_set(n))),
    Check(FORMULAS, "asymmetric strings appear exactly from length 9", 1, _asymmetric_boundary),
    Check(ORACLE, "gamma vertex orbits: formula equals enumeration", 2, lambda n: _oracle_vs_formula(
        n, GAMMA, VERTICES, formulas.gamma_vertex_orbits(n).by_size)),
    Check(ORACLE, "gamma edge orbits: formula equals enumeration", 0, lambda n: _oracle_vs_formula(
        n, GAMMA, EDGES, formulas.gamma_edge_orbits(n).by_size)),
    Check(ORACLE, "lambda vertex orbits: formula equals enumeration", 1, _lambda_vertex_vs_oracle),
    Check(ORACLE, "lambda edge orbits: formula equals enumeration", 1, lambda n: _oracle_vs_formula(
        n, LAMBDA, EDGES, formulas.lambda_edge_orbits(n).by_size)),
    Check(ORACLE, "lambda vertex orbit sizes match the size set", 3, lambda n: _mismatch(
        n, "oracle sizes", set(_once(_histograms, n, LAMBDA)[VERTICES]), formulas.lambda_vertex_orbit_size_set(n))),
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
    # looked up at each call, so that a wrapper later set on the module attribute is the one called
    Check(BIJECTIONS, "edge orbit bijection holds", 5, lambda n: bijections.verify_edge_orbit_bijection(n)),
    Check(AUTOMORPHISMS, "fibonacci cubes have exactly 2 automorphisms", 1, _automorphisms(GAMMA)),
    Check(AUTOMORPHISMS, "lucas cubes have exactly 2n automorphisms, all dihedral", 3, _automorphisms(LAMBDA)),
    Check(AUTOMORPHISMS, "tiny cubes have the expected groups", 0, _tiny_graph_automorphisms, 0,
          "gamma n=0; lambda n in [0, 2]"),
    Check(AUTOMORPHISMS, "automorphisms preserve weight", 1, _automorphisms_preserve_weight,
          scope="gamma n in [2, {hi}], lambda n in [1, {hi}]"),
)

SUITES = {suite: [check for check in CHECKS if check.suite == suite] for suite in SUITE_DEFAULT_MAX}


def run_suite(name: str, max_n: int | None) -> tuple[str, int | None, list[CheckResult]]:
    """Resolve the effective range, refusing ranges beyond hard bounds, and run the checks with a fresh memo."""
    effective = SUITE_DEFAULT_MAX[name] if max_n is None else max_n
    bound = SUITE_HARD_BOUND[name]
    if effective > bound:
        what = "closed-form" if name == FORMULAS else "enumeration"
        detail = f"max {effective} exceeds the {what} bound {bound} for this suite"
        return name, effective, [CheckResult("suite refused", f"max {effective}", REFUSED, detail)]
    global _once
    _once = functools.cache(_call)
    try:
        return name, effective, [run_check(check, effective) for check in SUITES[name]]
    finally:
        _once = _call
