"""The check table: every row skips an empty range and passes its first case.

The rewritten checks are held to what they replaced: the edge map is tested
under the group's two generators, shared values are made once per suite run,
the Lucas strings of each length in one census, fixed reflections by a
substring search and binomial coefficients by term ratios; each must still
fail where the old loop failed.
"""

import math
import re
from collections import Counter

import pytest

from cube_orbits import bijections, formulas, oracle, strings, verify
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.strings import Dihedral, LUCAS, apply, enumerate_strings
from cube_orbits.verify import CHECKS, FAIL, ORACLE, PASS, SKIP, SUITES, run_check, run_suite

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


# --- the edge map under the group's generators


@pytest.mark.parametrize("n", range(9, 15))
def test_generators_reach_the_whole_orbit(n):
    u = strings.asymmetric_witness(n)
    closure, frontier = {u}, [u]
    while frontier:
        w = frontier.pop()
        for g in verify.GENERATORS:
            image = apply(g, w)
            if image not in closure:
                closure.add(image)
                frontier.append(image)
    assert closure == {apply(g, u) for g in Dihedral.full_group(n)}
    assert len(closure) == 2 * n


def _first_full_group_failure(edge_map):
    """The first n at which some group element moves an edge's image out of its reversal class."""
    check = CHECK["edge map constant on orbits"]
    for n in range(check.lo, check.cap + 1):
        graph = oracle.build(n, LAMBDA)
        for edge in graph.edges:
            u, v = map(graph.decode, edge)
            base = edge_map((u, v))
            for g in Dihedral.full_group(n):
                image = edge_map((apply(g, u), apply(g, v)))
                if min(image, image[::-1]) != min(base, base[::-1]):
                    return n
    return None


_true_edge_map = bijections.lambda_edge_to_gamma_vertex


def _fixed_window(edge):
    # reads the same indices whichever position the edge flips
    return max(edge)[2:-1]


def _wrong_at_one_flip(edge):
    # wrong only where the flipped index is n - 1 and index 2 (position 3) holds a 1
    u, v = edge
    n = len(u)
    if u[-1] != v[-1] and max(edge)[2] == "1":
        return "0" * (n - 3)
    return _true_edge_map(edge)


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


# --- binomial coefficients by term ratios


def test_binomial_terms_equal_math_comb():
    for n in range(-1, 601):
        assert list(verify._binomial_terms(n)) == [math.comb(n - k, k) for k in range(n // 2 + 1)], n


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
        up, non_primitive = oracle._upper_ends(n, LAMBDA), set(census.non_primitive)
        walked = [(u, v) for u in census.non_primitive for v in up(u) if v in non_primitive]
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
