"""The check table: every row skips an empty range and passes its first case.

The rewritten checks are held to what they replaced: the edge map is tested
under the group's two generators, shared values are made once per suite run,
the Lucas strings of each length in one census, fixed reflections by a
substring search, binomial coefficients by Pascal's rule and the convolution's
terms from one held list per sequence; each must still fail where the old
loop failed.
"""

import functools
import math
import re
from collections import Counter

import pytest

from cube_orbits import bijections, cli, formulas, oracle, strings, verify
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.strings import LUCAS, enumerate_strings
from cube_orbits.verify import CHECKS, FAIL, ORACLE, PASS, SKIP, SUITES, run_check, run_suite
from dihedral import Dihedral, apply

CHECK = {check.name: check for check in CHECKS}


def test_every_suite_has_a_default_and_a_hard_bound():
    assert SUITES.keys() == verify.SUITE_DEFAULT_MAX.keys() == verify.SUITE_HARD_BOUND.keys()


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_empty_range_is_skipped(check):
    assert run_check(check, check.lo - 1).status == SKIP


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_first_case_passes(check):
    result = run_check(check, check.lo)
    assert result.status == PASS, result.detail


# --- each FAIL return of a row, reached by a planted fault


def _drop_last_of_several(search):
    """The search with its last map dropped wherever it finds more than one."""

    def wrong(graph):
        maps = search(graph)
        return maps[:-1] if len(maps) > 1 else maps

    return wrong


def _swap_first_two(search):
    """The search with one more map, which swaps the first two vertices, of weights 0 and 1."""

    def wrong(graph):
        vertices = tuple(graph.vertices)
        return search(graph) + [(vertices[1], vertices[0], *vertices[2:])] if len(vertices) > 1 else search(graph)

    return wrong


def _one_more(ground, kind, at):
    """``formulas.graph_counts`` wrapped to count one element of ``ground`` too many on the ``kind`` cube ``at``."""

    def wrap(counts):
        return lambda n, k: counts(n, k)._replace(**{ground: getattr(counts(n, k), ground) + (k == kind and n == at)})

    return wrap


@pytest.mark.parametrize(
    "name, max_n, patches, counterexample",
    [
        pytest.param(
            "gamma vertex histogram sums", 2,
            [(formulas, "gamma_vertex_orbits", lambda f: lambda n: f(n)._replace(by_size={1: formulas.fib(n + 2)}))],
            "n=2: histogram keys [1]", id="every gamma vertex fixed",
        ),
        pytest.param(
            "lambda edge histogram sums", 10,
            [(formulas, "graph_counts", _one_more("edges", LAMBDA, 7))],
            "n=7: weighted sum mismatch", id="one lambda edge too many at n = 7",
        ),
        pytest.param(
            "gamma vertex histogram sums", 10,
            [(formulas, "graph_counts", _one_more("vertices", GAMMA, 6))],
            "n=6: weighted sum mismatch", id="one gamma vertex too many at n = 6",
        ),
        pytest.param(
            "lambda vertex histogram sums", 10,
            [(formulas, "graph_counts", _one_more("vertices", LAMBDA, 9))],
            "n=9: weighted sum mismatch", id="one lambda vertex too many at n = 9",
        ),
        pytest.param(
            "asymmetric strings appear exactly from length 9", 9,
            [(formulas, "lucas_string_classes", lambda f: lambda n: f(n)._replace(asymmetric=0))],
            "n=9: asymmetric count 0", id="no asymmetric strings",
        ),
        pytest.param(
            "lambda edge orbit sizes within {n, 2n}, equal iff n >= 5", 5,
            [(verify, "_histograms", lambda f: lambda n, kind: {**f(n, kind), oracle.EDGES: {2 * n: 1}})],
            "n=5: equality with {n, 2n} fails the n >= 5 boundary", id="every lambda edge orbit of size 2n",
        ),
        pytest.param(
            "tiling round trips both directions", 2,
            [(bijections, "tiling_to_string", lambda f: lambda t: f(t)[::-1])],
            "string 01", id="tilings decoded reversed",
        ),
        pytest.param(
            "tiling round trips both directions", 0,
            [(bijections, "enumerate_tilings", lambda f: lambda m: [t.lower() for t in f(m)]),
             (bijections, "tiling_to_string", lambda f: lambda t: f(t.upper()))],
            "tiling v", id="tilings enumerated in lower case",
        ),
        pytest.param(
            "tiling round trips both directions", 0,
            [(bijections, "enumerate_tilings", lambda f: lambda m: f(m) + ["H" * (m + 3)])],
            "tiling HHHH", id="a tiling of the wrong width enumerated",
        ),
        pytest.param(
            "tiling round trips both directions", 0,
            [(bijections, "enumerate_tilings", lambda f: lambda m: f(m) + ["VX"])],
            "tiling VX", id="a tiling that is no V/H string enumerated",
        ),
        pytest.param(
            "palindromes match reflection-invariant tilings", 1,
            [(bijections, "string_to_tiling", lambda f: lambda u: f(u) + "V")],
            "string 1, tiling HV", id="tilings one column too wide",
        ),
        pytest.param(
            "distinct tilings and partitions match orbit totals", 3,
            [(bijections, "distinct_partitions", lambda f: lambda m: len(bijections.ordered_partitions(m)))],
            "m=3: tilings 2, partitions 3, formula 2", id="partitions not counted up to reversal",
        ),
        pytest.param(
            "distinct tilings and partitions match orbit totals", 2,
            [(bijections, "distinct_tilings", lambda f: lambda m: 2 if m == 2 else f(m))],
            "m=2: tilings 2, partitions 2, formula 1", id="the 2 x 2 square's tilings not joined",
        ),
        pytest.param(
            "distinct tilings and partitions match orbit totals", 3,
            [(bijections, "enumerate_tilings", lambda f: lambda m: f(m) + ["HH"] if m == 2 else f(m))],
            "m=2: tilings 2, partitions 2, formula 1", id="one more 2 x 2 tiling enumerated",
        ),
        pytest.param(
            "edge map surjective", 5,
            [(strings, "is_lucas", lambda f: lambda u: f(u) and "1" not in u)],
            "n=5: constructed pair for 00 is not an edge", id="no lucas string holds a 1",
        ),
        pytest.param(
            "fibonacci cubes have exactly 2 automorphisms", 1,
            [(oracle, "automorphism_group", _drop_last_of_several)],
            "n=1: found 1 automorphisms, expected 2", id="gamma search drops a map",
        ),
        pytest.param(
            "lucas cubes have exactly 2n automorphisms, all dihedral", 3,
            [(oracle, "automorphism_group", _drop_last_of_several)],
            "n=3: found 5 automorphisms, expected 6", id="lambda search drops a map",
        ),
        pytest.param(
            "tiny cubes have the expected groups", 0,
            [(oracle, "automorphism_group", _drop_last_of_several)],
            "lambda n=2: found 1 automorphisms, expected 2", id="tiny search drops a map",
        ),
        pytest.param(
            "automorphisms preserve weight", 2,
            [(oracle, "automorphism_group", _swap_first_two)],
            "gamma n=2: weight not preserved", id="search adds a weight-changing map",
        ),
    ],
)
def test_planted_fault_gives_the_rows_counterexample(monkeypatch, name, max_n, patches, counterexample):
    check = CHECK[name]
    assert run_check(check, max_n).status == PASS
    for module, attribute, wrong in patches:
        monkeypatch.setattr(module, attribute, wrong(getattr(module, attribute)))
    assert run_check(check, max_n)[2:] == (FAIL, counterexample)


# --- the edge map under the group's generators


@pytest.mark.parametrize("n", range(9, 15))
def test_generators_reach_the_whole_orbit(n):
    u = strings.asymmetric_witness(n)
    closure, frontier = {u}, [u]
    while frontier:
        w = frontier.pop()
        for _, g in verify.GENERATORS:
            image = g(w)
            if image not in closure:
                closure.add(image)
                frontier.append(image)
    assert closure == {apply(g, u) for g in Dihedral.full_group(n)}
    assert len(closure) == 2 * n


@pytest.mark.parametrize("n", range(5, 13))
def test_each_generator_is_the_element_its_label_names(n):
    element = {repr(d): d for d in Dihedral.full_group(n)}
    for label, g in verify.GENERATORS:
        for u in enumerate_strings(n, LUCAS):
            assert g(u) == apply(element[label], u), (label, u)


def _first_full_group_failure(edge_map):
    """The first n at which some group element moves an edge's image out of its reversal class."""
    check = CHECK["edge map constant on orbits"]
    for n in range(check.lo, check.cap + 1):
        graph = oracle.build(n, LAMBDA)
        for edge in graph.edges:
            u, v = map(graph.decode, edge)
            base = f"{edge_map(n, edge):0{n - 3}b}"
            for g in Dihedral.full_group(n):
                image = f"{edge_map(n, (int(apply(g, u), 2), int(apply(g, v), 2))):0{n - 3}b}"
                if min(image, image[::-1]) != min(base, base[::-1]):
                    return n
    return None


_true_edge_map = bijections.lambda_edge_to_gamma_vertex


def _fixed_window(n, edge):
    # reads the same positions, 3 to n - 1, whichever position the edge flips
    return max(edge) >> 1 & (1 << n - 3) - 1


def _wrong_at_one_flip(n, edge):
    # wrong only where the flipped position is n (bit 0) and position 3 (bit n - 3) holds a 1
    u, v = edge
    if u ^ v == 1 and max(edge) >> n - 3 & 1:
        return 0
    return _true_edge_map(n, edge)


# the whole counterexample, with the repr of the generator as `verify bijections` prints it
COUNTEREXAMPLE = {
    _fixed_window: "n=5: edge (00000, 00010) under Dihedral(shift=1, reflected=False)",
    _wrong_at_one_flip: "n=5: edge (00100, 00101) under Dihedral(shift=1, reflected=False)",
}


@pytest.mark.parametrize("edge_map", [_fixed_window, _wrong_at_one_flip], ids=lambda f: f.__name__)
def test_generators_fail_where_the_full_group_fails(monkeypatch, edge_map):
    first = _first_full_group_failure(edge_map)
    assert first == 5
    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", edge_map)
    check = CHECK["edge map constant on orbits"]
    result = run_check(check, check.cap)
    assert result.status == FAIL
    assert result.detail == COUNTEREXAMPLE[edge_map]


def test_edge_map_check_maps_each_edge_once(monkeypatch):
    # each generator's image of an edge is an edge whose class was kept, so the map runs once per edge of Λn
    calls = Counter()

    def edge_map(n, edge):
        calls[n] += 1
        return _true_edge_map(n, edge)

    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", edge_map)
    check = CHECK["edge map constant on orbits"]
    assert run_check(check, check.cap).status == PASS
    assert calls == {n: len(oracle.build(n, LAMBDA).edges) for n in range(check.lo, check.cap + 1)}


def test_edge_map_check_maps_a_pair_that_is_no_edge_afresh(capsys, monkeypatch):
    # a broken generator that writes the last letter over the first sends the edge (00000, 00001) to
    # (00000, 10001), which is no edge: the row maps that pair itself, and the edge map refuses it
    broken = ("broken", lambda u: u[-1] + u[1:])
    monkeypatch.setattr(verify, "GENERATORS", verify.GENERATORS + (broken,))
    with pytest.raises(ValueError, match="endpoints must be Lucas strings"):
        verify._edge_map_well_defined(5)
    assert cli.main(["verify", "bijections", "--max", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ValueError: endpoints must be Lucas strings")


# --- shared values made once per suite run, never stale


def _wrong_at(f, n0, wrong):
    return lambda n: wrong(f(n)) if n == n0 else f(n)


def _with_extra_size(histogram):
    return {**histogram, 3: histogram.get(3, 0) + 1}


@pytest.mark.parametrize(
    "name, function, wrong, first",
    [
        # fib(37) enters the convolution at n = 37 itself
        ("fibonacci-lucas convolution identity", "fib", lambda x: x + 1, 37),
        # lucas(37) meets fib(0) = 0 at n = 37, so it first counts at n = 38 as fib(1) * lucas(37)
        ("fibonacci-lucas convolution identity", "lucas", lambda x: x + 1, 38),
        ("lambda vertex histogram sums", "lambda_vertex_orbit_histogram", _with_extra_size, 37),
        ("lambda vertex histogram support equals size set", "lambda_vertex_orbit_histogram", _with_extra_size, 37),
    ],
)
def test_memo_serves_no_stale_value(monkeypatch, name, function, wrong, first):
    check = CHECK[name]
    assert run_check(check, 40).status == PASS
    monkeypatch.setattr(formulas, function, _wrong_at(getattr(formulas, function), 37, wrong))
    result = run_check(check, 40)
    assert result.status == FAIL
    assert result.detail.startswith(f"n={first}:")
    monkeypatch.undo()
    assert run_check(check, 40).status == PASS


def test_convolution_reads_each_term_once_per_suite_run(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def wrapper(n):
            calls[name] += 1
            return f(n)

        return wrapper

    monkeypatch.setattr(formulas, "fib", counted("fib", formulas.fib))
    monkeypatch.setattr(formulas, "lucas", counted("lucas", formulas.lucas))
    monkeypatch.setattr(verify, "_once", functools.cache(verify._call))
    assert run_check(CHECK["fibonacci-lucas convolution identity"], 300).status == PASS
    assert calls["fib"] <= 301 and calls["lucas"] <= 301, calls


# --- binomial coefficients by Pascal's rule


def test_binomial_terms_equal_math_comb():
    for n in range(-1, 601):
        assert list(verify._binomial_terms(n)) == [math.comb(n - k, k) for k in range(n // 2 + 1)], n


def test_binomial_terms_in_any_order(monkeypatch):
    # outside a suite run each call walks up afresh; inside one memo the last two diagonals are held
    for memo in (verify._call, functools.cache(verify._call)):
        monkeypatch.setattr(verify, "_once", memo)
        # down from 200, each n asked twice, then n - 2, just below the two diagonals held, with n = -1 and 0
        # asked between
        for n in [m for step in range(200, 0, -7) for m in (step, step, step - 2, -1, step - 1, 0, step + 1)]:
            assert verify._binomial_terms(n) == [math.comb(n - k, k) for k in range(n // 2 + 1)], (memo, n)
        # a caller that changes the list it was given changes no diagonal held for the next call
        for n in (50, 51, 52):
            verify._binomial_terms(n)[1:3] = [0, 0]
            verify._binomial_terms(n - 1).append(7)
        for n in (51, 52, 53):
            assert verify._binomial_terms(n) == [math.comb(n - k, k) for k in range(n // 2 + 1)], (memo, n)


def test_no_diagonal_outlives_a_suite_run():
    # the diagonals are held for one suite run, as every value read through _once, so a run to 3400 leaves
    # no 0.88 MB of ints behind
    _, _, results = run_suite(verify.FORMULAS, 400)
    assert {result.status for result in results} == {PASS}
    diagonals = [[math.comb(n - k, k) for k in range(n // 2 + 1)] for n in (399, 400)]

    def holds(value):
        return value in diagonals or isinstance(value, (tuple, list)) and any(map(holds, value))

    assert not [name for name, value in vars(verify).items() if holds(value)]


@pytest.mark.parametrize(
    "fault",
    [
        lambda n, k, term: term + 1,  # the Lucas identity finds n * term / (n - k) non-integral
        lambda n, k, term: term + (n - k),  # integral there: only the sum is wrong
    ],
    ids=["off by one", "off by n - k"],
)
@pytest.mark.parametrize("name", ["fibonacci binomial-sum identity", "lucas binomial-sum identity"])
def test_one_wrong_binomial_term_fails_both_identities(monkeypatch, name, fault):
    terms = verify._binomial_terms

    def wrong_at_37(n):
        for k, term in enumerate(terms(n)):
            yield fault(n, k, term) if (n, k) == (37, 5) else term

    check = CHECK[name]
    assert run_check(check, 60).status == PASS
    monkeypatch.setattr(verify, "_binomial_terms", wrong_at_37)
    result = run_check(check, 60)
    assert result.status == FAIL
    assert re.match(r"n=37[,:]", result.detail), result.detail


# --- fixed reflections by search, primitivity once per vertex


@pytest.mark.parametrize("d", range(1, 15))
def test_fixing_reflections_by_search_equal_apply(d):
    for u in enumerate_strings(d, LUCAS):
        assert verify._fixing_reflections(u) == sum(apply(Dihedral(j, True), u) == u for j in range(d)), u


def test_primitive_endpoint_counterexample(monkeypatch):
    decompose = strings.decompose
    monkeypatch.setattr(strings, "decompose", lambda u: decompose(u)._replace(exponent=2))
    result = run_check(CHECK["every lucas edge has a primitive endpoint"], 8)
    assert result.status == FAIL
    assert result.detail == "n=5: edge (00000, 00001) has no primitive endpoint"


# --- one Lucas-string census per n, against the per-row walks it replaced

NECKLACES = CHECK["necklace count equals rotation classes"]
CLASSES = CHECK["string class counts equal exhaustive classification"]
ENDPOINTS = CHECK["every lucas edge has a primitive endpoint"]


def _rotation_classes(n):
    return len({min(u[i:] + u[:i] for i in range(n)) for u in enumerate_strings(n, LUCAS)})


def _string_classes(n):
    lucas_strings = enumerate_strings(n, LUCAS)
    primitive = [d for d in map(strings.decompose, lucas_strings) if d.exponent == 1]
    asymmetric = sum(strings.orbit_size(u) == 2 * n for u in lucas_strings)
    return len(primitive), sum(d.symmetric for d in primitive), asymmetric


def _edges_without_primitive_endpoint(n):
    """The full ascending edge walk: every edge of the Lucas cube whose two ends are non-primitive."""
    graph = oracle.build(n, LAMBDA)
    primitive = {x: strings.decompose(graph.decode(x)).exponent == 1 for x in graph.vertices}
    return [edge for edge in graph.edges if not (primitive[edge[0]] or primitive[edge[1]])]


def _weight_two_up_non_primitive(decompose):
    # marks every string with two or more 1s non-primitive, beside the truly non-primitive ones
    return lambda u: decompose(u)._replace(exponent=2) if u.count("1") >= 2 else decompose(u)


@pytest.mark.parametrize("planted", [False, True], ids=["true decompose", "weight >= 2 non-primitive"])
def test_census_equals_the_per_row_walks(monkeypatch, planted):
    if planted:
        monkeypatch.setattr(strings, "decompose", _weight_two_up_non_primitive(strings.decompose))
    for n in range(1, 15):
        census = verify._census(n)
        assert census.period_sum == n * _rotation_classes(n), n
        assert (census.primitive, census.symmetric, census.asymmetric) == _string_classes(n), n
        assert census.fixing_reflections == sum(map(verify._fixing_reflections, enumerate_strings(n, LUCAS))), n
        graph = oracle.build(n, LAMBDA)
        assert census.non_primitive == tuple(
            x for x in graph.vertices if strings.decompose(graph.decode(x)).exponent != 1
        ), n
        free, non_primitive = oracle._free_positions(n, LAMBDA), set(census.non_primitive)
        walked = [(u, u | b) for u in census.non_primitive for b in oracle._bits(free(u)) if u | b in non_primitive]
        assert walked == _edges_without_primitive_endpoint(n), n
        if n >= ENDPOINTS.lo and not planted:
            assert walked == [], n


def test_endpoint_walk_finds_the_full_walks_first_edge(monkeypatch):
    monkeypatch.setattr(strings, "decompose", _weight_two_up_non_primitive(strings.decompose))
    n, edge = next((n, edge) for n in range(ENDPOINTS.lo, 9) for edge in _edges_without_primitive_endpoint(n))
    u, v = map(oracle.build(n, LAMBDA).decode, edge)
    result = run_check(ENDPOINTS, 8)
    assert result.status == FAIL
    assert result.detail == f"n={n}: edge ({u}, {v}) has no primitive endpoint"


def test_census_rows_need_no_oracle(monkeypatch):
    # the string route stays independent of the graph route: with the oracle's graph and orbit calls made to
    # raise, the four rows that read the census give the same results, and a planted census fault gives the
    # primitive-endpoint row's counterexample, decoded without a graph
    rows = [NECKLACES, CLASSES, CHECK["reflection fixed-point sum identity"], ENDPOINTS]
    before = [run_check(check, 14) for check in rows]
    assert {result.status for result in before} == {PASS}

    def enumeration(*args):
        raise AssertionError("a census row called the oracle")

    for name in ("build", "orbit_walk", "members"):
        monkeypatch.setattr(oracle, name, enumeration)
    assert [run_check(check, 14) for check in rows] == before
    monkeypatch.setattr(strings, "decompose", _weight_two_up_non_primitive(strings.decompose))
    assert run_check(ENDPOINTS, 14)[2:] == (FAIL, "n=6: edge (000101, 010101) has no primitive endpoint")


def test_census_serves_no_stale_value(monkeypatch):
    assert [run_check(check, 14).status for check in (NECKLACES, CLASSES)] == [PASS, PASS]
    period = strings.period
    monkeypatch.setattr(strings, "period", lambda u: 1 if len(u) >= 11 else period(u))
    for check in (NECKLACES, CLASSES):
        result = run_check(check, 14)
        assert result.status == FAIL
        assert result.detail.startswith("n=11:"), result.detail
    monkeypatch.undo()
    assert [run_check(check, 14).status for check in (NECKLACES, CLASSES)] == [PASS, PASS]


def _inexact_period(monkeypatch):
    # period 2 at length 11 gives each string 11 // 2 = 5 rotations fixing it: 5 * L(11) is not a multiple of 11
    period = strings.period
    monkeypatch.setattr(strings, "period", lambda u: 2 if len(u) == 11 else period(u))
    return pytest.raises(ArithmeticError, match=f"division {5 * formulas.lucas(11)}/11 is not exact")


def test_inexact_rotation_class_count_is_an_error(monkeypatch):
    with _inexact_period(monkeypatch):
        run_check(NECKLACES, 14)


# --- the suite-run memo: one lifetime, one value per key

GAMMA_VERTICES = CHECK["gamma vertex orbits: formula equals enumeration"]


def _oracle_statuses():
    return {result.name: result.status for result in run_suite(ORACLE, 10)[2]}


def _members_histograms(n, kind):
    """Ground -> orbit size -> number of orbits, each orbit built whole by ``oracle.members``."""
    graph = oracle.build(n, kind)
    histograms = {}
    for ground, elements in ((oracle.VERTICES, graph.vertices), (oracle.EDGES, graph.edges)):
        seen, sizes = set(), Counter()
        for x in elements:
            if x not in seen:
                orbit = oracle.members(graph, x)
                seen.update(orbit)
                sizes[len(orbit)] += 1
        histograms[ground] = dict(sorted(sizes.items()))
    return histograms


@pytest.mark.parametrize("kind", [GAMMA, LAMBDA])
def test_histograms_equal_members_built_orbits(kind):
    # the edge histogram counts the bits of each run of the walk; the orbits built member by member count
    # every edge orbit on its own
    for n in range(15):
        assert verify._histograms(n, kind) == _members_histograms(n, kind), n


def test_histograms_serve_no_stale_value(monkeypatch):
    assert set(_oracle_statuses().values()) == {PASS}
    assert run_check(GAMMA_VERTICES, 10).status == PASS
    # a reversal that does nothing makes every vertex of a Fibonacci cube its own orbit
    monkeypatch.setattr(oracle, "_reverse", lambda x, n: x)
    result = run_check(GAMMA_VERTICES, 10)
    assert (result.status, result.detail) == (FAIL, "n=2: oracle {1: 3} != {1: 1, 2: 1}")
    assert _oracle_statuses()[GAMMA_VERTICES.name] == FAIL
    monkeypatch.undo()
    assert run_check(GAMMA_VERTICES, 10).status == PASS
    assert set(_oracle_statuses().values()) == {PASS}


def test_memo_ends_with_the_suite_run(monkeypatch):
    run_suite(ORACLE, 6)
    assert verify._once is verify._call
    with _inexact_period(monkeypatch):
        run_suite(ORACLE, 14)
    assert verify._once is verify._call


def test_suite_run_makes_each_shared_value_once(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[(name, *args)] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(verify, "_census", counted("census", verify._census))
    monkeypatch.setattr(verify, "_histograms", counted("histograms", verify._histograms))
    assert {result.status for result in run_suite(ORACLE, 12)[2]} == {PASS}
    assert sorted(calls) == sorted(
        [("census", n) for n in range(1, 13)]
        + [("histograms", n, GAMMA) for n in range(13)]
        + [("histograms", n, LAMBDA) for n in range(1, 13)]
    )
    assert set(calls.values()) == {1}
