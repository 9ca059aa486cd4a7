"""Graph construction, orbit enumeration, and the automorphism search.

The oracle works on bitmasks (bit n-1 is string position 1); these tests
decode them with ``CubeGraph.decode`` wherever they compare with strings.
"""

import inspect
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from cube_orbits import formulas, oracle, strings
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.oracle import (
    BUILD_LIMIT,
    EDGES,
    VERTICES,
    _reverse,
    automorphism_group,
    build,
    group_permutations,
    members,
)
from cube_orbits.strings import FIBONACCI, LUCAS, enumerate_strings
from dihedral import Dihedral, apply
from orbits import canonical_orbits


def vertex_strings(g):
    return tuple(map(g.decode, g.vertices))


def edge_strings(g):
    return [(g.decode(u), g.decode(v)) for u, v in g.edges]


def name(g, member):
    """A vertex, or both ends of an edge, as strings."""
    return g.decode(member) if type(member) is int else tuple(map(g.decode, member))


def expanded(g, ground):
    """The engine's orbits with every member, from ``members``: each size is its member count."""
    orbits = []
    for rep, size in canonical_orbits(g, ground):
        orbit = tuple(members(g, rep))
        assert (orbit[0], len(orbit)) == (rep, size), (g.kind, g.n, rep)
        orbits.append(orbit)
    return tuple(orbits)


def orbit_strings(g, orbits):
    """The orbits with every vertex, or both ends of every edge, as strings."""
    return tuple(tuple(name(g, member) for member in orbit) for orbit in orbits)


def histogram(g, ground):
    """Orbit size -> number of orbits, keys ascending."""
    counts = Counter(size for _, size in canonical_orbits(g, ground))
    return {size: counts[size] for size in sorted(counts)}


def test_build_examples():
    lam3 = build(3, LAMBDA)
    assert tuple(lam3.vertices) == (0b000, 0b001, 0b010, 0b100)
    assert vertex_strings(lam3) == ("000", "001", "010", "100")
    assert list(lam3.edges) == [(0b000, 0b001), (0b000, 0b010), (0b000, 0b100)]  # the star on 4 vertices
    assert len(lam3.edges) == 3
    gam5 = build(5, GAMMA)
    assert (len(gam5.vertices), len(gam5.edges)) == (13, 20)
    gam0 = build(0, GAMMA)
    assert tuple(gam0.vertices) == (0,)
    assert vertex_strings(gam0) == ("",)
    assert list(gam0.edges) == []
    assert len(gam0.edges) == 0


def test_build_bounds_and_counts():
    with pytest.raises(ValueError):
        build(31, GAMMA)
    with pytest.raises(ValueError, match=r"exceeds the enumeration bound .* vertices, .* edges"):
        build(BUILD_LIMIT + 1, LAMBDA)
    with pytest.raises(ValueError):
        build(-1, LAMBDA)
    with pytest.raises(ValueError):
        build(3, "qube")
    for kind in (GAMMA, LAMBDA):
        for n in range(0, 11):
            g = build(n, kind)
            assert (len(g.vertices), len(g.edges)) == tuple(formulas.graph_counts(n, kind))
            # the edge view yields as many edges as it counts, in ascending order
            assert list(g.edges) == sorted(set(g.edges))
            assert len(list(g.edges)) == len(g.edges)
            # vertices ascend as ints and as strings, and are the valid strings
            assert list(g.vertices) == sorted(set(g.vertices))
            assert list(vertex_strings(g)) == enumerate_strings(n, FIBONACCI if kind == GAMMA else LUCAS)


def test_vertices_joined_from_halves_are_the_valid_strings(monkeypatch):
    # odd and even splits, and the cyclic join of the shortest Lucas cubes; build enumerates strings
    # only at half length
    lengths = []

    def recorded(n, kind):
        lengths.append(n)
        return enumerate_strings(n, kind)

    monkeypatch.setattr(oracle, "enumerate_strings", recorded)
    for kind, strings_kind in ((GAMMA, FIBONACCI), (LAMBDA, LUCAS)):
        for n in range(0, 25):
            lengths.clear()
            want = tuple(int(u, 2) for u in enumerate_strings(n, strings_kind)) if n else (0,)
            assert tuple(build(n, kind).vertices) == want, (kind, n)
            assert sorted(lengths) == ([n // 2, n - n // 2] if n >= 2 else []), (kind, n)


def test_build_holds_no_full_length_strings():
    # build keeps only the halves of the vertices, and its peak is the two enumerations of half-length strings,
    # under 2 bytes per vertex (56 KB for Λ23's 64,079 on Python 3.11); a tuple of the vertices holds 40 bytes
    # per vertex, and every string of length n, parsed, would peak at about five times that
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g = build(23, LAMBDA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == formulas.lucas(23)
    assert peak - before <= 2 * len(g.vertices)


def test_the_vertex_view_counts_what_it_joins():
    # the view counts |V| and |E| from the halves unjoined (its order is checked above); each count here is
    # taken on a pass of its own, so the view is re-iterable
    for kind in (GAMMA, LAMBDA):
        for n in range(BUILD_LIMIT + 1):
            g = build(n, kind)
            joined = sum(1 for _ in g.vertices), sum(map(int.bit_count, g.vertices))
            assert (len(g.vertices), g.edge_count) == joined, (kind, n)


def test_a_graph_equals_and_hashes_as_the_same_cube_built_again():
    # verify keys the automorphism search on the graph, so two builds of one cube must be one key
    for kind in (GAMMA, LAMBDA):
        for n in range(8):
            a, b = build(n, kind), build(n, kind)
            assert a == b and hash(a) == hash(b) and a.vertices == b.vertices, (kind, n)
            assert a != build(n + 1, kind) and a.vertices != build(n, GAMMA if kind == LAMBDA else LAMBDA).vertices


def test_edges_differ_in_one_position():
    for kind in (GAMMA, LAMBDA):
        for n in range(1, 7):
            g = build(n, kind)
            present = set(g.edges)
            for i, u in enumerate(g.vertices):
                for j, v in enumerate(g.vertices):
                    if i < j:
                        diff = sum(a != b for a, b in zip(g.decode(u), g.decode(v)))
                        assert ((u, v) in present) == (diff == 1)


def test_vertex_orbit_examples():
    gam2 = build(2, GAMMA)
    assert list(oracle.orbit_walk(gam2, VERTICES)) == [(0b00, 1), (0b01, 2)]
    assert expanded(gam2, VERTICES) == ((0b00,), (0b01, 0b10))
    assert orbit_strings(gam2, expanded(gam2, VERTICES)) == (("00",), ("01", "10"))
    # the 1-cube is a single edge whose endpoints swap
    gam1 = build(1, GAMMA)
    assert orbit_strings(gam1, expanded(gam1, VERTICES)) == (("0", "1"),)
    assert orbit_strings(gam1, expanded(gam1, EDGES)) == ((("0", "1"),),)
    lam9 = build(9, LAMBDA)
    assert sorted(size for _, size in canonical_orbits(lam9, EDGES)) == [9, 9, 9] + [18] * 9
    assert sorted(map(len, expanded(lam9, EDGES))) == [9, 9, 9] + [18] * 9


def test_histogram_examples():
    assert histogram(build(9, LAMBDA), VERTICES) == {1: 1, 3: 1, 9: 6, 18: 1}
    assert histogram(build(5, GAMMA), VERTICES) == {1: 5, 2: 4}
    assert histogram(build(0, GAMMA), VERTICES) == {1: 1}
    assert histogram(build(0, LAMBDA), VERTICES) == {1: 1}


def test_partitions_cover_and_are_closed():
    for kind in (GAMMA, LAMBDA):
        for n in range(1, 8):
            g = build(n, kind)
            vp = expanded(g, VERTICES)
            seen = [u for orbit in vp for u in orbit]
            assert sorted(seen) == sorted(g.vertices)
            assert len(seen) == len(set(seen))
            assert [o[0] for o in vp] == sorted(set(o[0] for o in vp))
            ep = expanded(g, EDGES)
            seen_edges = [e for orbit in ep for e in orbit]
            assert sorted(seen_edges) == sorted(g.edges)
            assert sorted(e for orbit in orbit_strings(g, ep) for e in orbit) == sorted(edge_strings(g))
            assert [o[0] for o in ep] == sorted(set(o[0] for o in ep))
            assert all(list(orbit) == sorted(orbit) for orbit in vp + ep)
            assert len(seen_edges) == len(set(seen_edges))


def test_lambda_orbits_closed_under_dihedral_maps():
    for n in range(3, 8):
        g = build(n, LAMBDA)
        for orbit in orbit_strings(g, expanded(g, VERTICES)):
            members = set(orbit)
            for u in orbit:
                for d in Dihedral.full_group(n):
                    assert apply(d, u) in members
        for orbit in orbit_strings(g, expanded(g, EDGES)):
            members = set(orbit)
            for u, v in orbit:
                for d in Dihedral.full_group(n):
                    image = tuple(sorted((apply(d, u), apply(d, v))))
                    assert image in members


def test_automorphism_group_sizes():
    assert len(automorphism_group(build(3, GAMMA))) == 2
    assert len(automorphism_group(build(4, LAMBDA))) == 8
    assert len(automorphism_group(build(2, LAMBDA))) == 2
    assert len(automorphism_group(build(0, GAMMA))) == 1
    assert len(automorphism_group(build(1, LAMBDA))) == 1


def test_automorphism_search_nests_no_call_per_vertex():
    # Λ12 has 322 vertices and Γ12 377: with the recursion limit a few frames above the caller's depth, a search
    # that nested one call per vertex would raise RecursionError
    lam, gam = build(12, LAMBDA), build(12, GAMMA)
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        found = automorphism_group(lam), automorphism_group(gam)
    finally:
        sys.setrecursionlimit(limit)
    assert found[0] == sorted(group_permutations(lam)) and len(found[0]) == 24
    assert found[1] == sorted(group_permutations(gam)) and len(found[1]) == 2


def test_automorphism_group_is_found_in_ascending_order():
    # the maps are returned as the search finds them, not sorted afterwards
    for kind in (GAMMA, LAMBDA):
        for n in range(13):
            found = automorphism_group(build(n, kind))
            assert found == sorted(found), (kind, n)


def test_automorphisms_are_automorphisms():
    # the search tests edges to mapped images and never non-edges, so each map it returns must be shown to
    # be a permutation that sends the edge set onto itself; this needs no networkx, so it runs everywhere
    for kind in (GAMMA, LAMBDA):
        for n in range(11):
            g = build(n, kind)
            edges = set(g.edges)
            for images in automorphism_group(g):
                assert sorted(images) == list(g.vertices), (kind, n)
                image = dict(zip(g.vertices, images))
                mapped = {tuple(sorted((image[u], image[v]))) for u, v in edges}
                assert mapped == edges, (kind, n)


@pytest.mark.parametrize("kind", [GAMMA, LAMBDA])
def test_automorphism_group_equals_networkx_isomorphisms(kind):
    # a differential test: networkx's VF2 matcher lists every automorphism by its own search
    networkx = pytest.importorskip("networkx")
    for n in range(11):
        g = build(n, kind)
        h = networkx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        found = networkx.isomorphism.GraphMatcher(h, h).isomorphisms_iter()
        expected = sorted(tuple(m[x] for x in g.vertices) for m in found)
        assert automorphism_group(g) == expected, (kind, n)


def test_lambda_automorphisms_are_dihedral():
    for n in range(3, 7):
        g = build(n, LAMBDA)
        autos = set(automorphism_group(g))
        assert autos == set(group_permutations(g))
        assert len(autos) == 2 * n


def string_map_permutation(g, d):
    """The dihedral string map d as the images of the vertices, each read from the string of its image."""
    return tuple(int(apply(d, u), 2) for u in vertex_strings(g))


def test_group_permutations_are_the_string_maps():
    # the k-th bit map that orbit enumeration applies is the k-th string map of the test helper dihedral.apply
    for kind, start, group in (
        (GAMMA, 2, lambda n: [Dihedral(0), Dihedral(0, True)]),
        (LAMBDA, 3, Dihedral.full_group),
    ):
        for n in range(start, 11):
            g = build(n, kind)
            assert group_permutations(g) == [string_map_permutation(g, d) for d in group(n)], (kind, n)


def test_group_permutations_of_tiny_cubes_are_the_searched_group():
    # on the cubes of one vertex reversal is the identity, listed twice
    for kind, n in ((GAMMA, 0), (GAMMA, 1), (LAMBDA, 0), (LAMBDA, 1), (LAMBDA, 2)):
        g = build(n, kind)
        assert set(group_permutations(g)) == set(automorphism_group(g)), (kind, n)


def test_group_permutations_mark_images_outside_the_graph(monkeypatch):
    # a broken map holds an int that is no vertex, 011, and raises no error
    monkeypatch.setattr(oracle, "_reverse", lambda x, n: x | 1)
    g = build(3, GAMMA)
    identity, broken = group_permutations(g)  # 000 001 010 100 101
    assert identity == tuple(g.vertices) == (0, 1, 2, 4, 5)
    assert broken == (1, 1, 3, 5, 5) and 3 not in g.vertices


def closure_orbits(elements, maps):
    """Orbits as closures: everything that the maps, applied again and again, reach from each element."""
    orbits = set()
    for x in elements:
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for z in map(lambda m: m(y), maps):
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        orbits.add(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def test_fibonacci_cube_orbits_are_reversal_closures():
    # the engine keeps no record of reached elements; the closures here are
    # taken on strings, under string reversal, except at n = 1, whose searched
    # group swaps the two vertices
    for n in range(15):
        g = build(n, GAMMA)
        if n == 1:
            maps = [dict(zip(vertex_strings(g), map(g.decode, images))).get for images in automorphism_group(g)]
        else:
            maps = [lambda u: u[::-1]]
        vertex_closures = closure_orbits(vertex_strings(g), maps)
        edge_closures = closure_orbits(edge_strings(g), [
            lambda edge, m=m: tuple(sorted(map(m, edge))) for m in maps
        ])
        assert orbit_strings(g, expanded(g, VERTICES)) == vertex_closures, n
        assert orbit_strings(g, expanded(g, EDGES)) == edge_closures, n
        if n == 1:
            assert vertex_closures == (("0", "1"),)


def test_reflection_fixed_point_sum_identity():
    for d in range(1, 11):
        reflections = [Dihedral(j, True) for j in range(d)]
        total = sum(apply(r, u) == u for u in enumerate_strings(d, LUCAS) for r in reflections)
        assert total == d * formulas.fib(d // 2 + 2)


def test_automorphisms_preserve_weight():
    for kind, start, stop in ((GAMMA, 2, 6), (LAMBDA, 1, 7)):
        for n in range(start, stop):
            g = build(n, kind)
            for images in automorphism_group(g):
                for x, y in zip(g.vertices, images):
                    assert g.decode(x).count("1") == g.decode(y).count("1")


def test_bit_count_is_string_weight():
    # verify compares vertex weights as bit counts, without decoding
    for kind in (GAMMA, LAMBDA):
        for n in range(0, 11):
            g = build(n, kind)
            assert [x.bit_count() for x in g.vertices] == [g.decode(x).count("1") for x in g.vertices]


def test_gamma_vertex_orbits_at_one_match_the_oracle():
    # the oracle-vs-formula check starts at n = 2; the closed form's n = 1 case is checked here
    total, by_size = formulas.gamma_vertex_orbits(1)
    g = build(1, GAMMA)
    assert {k: v for k, v in by_size.items() if v} == histogram(g, VERTICES) == {2: 1}
    assert total == len(list(oracle.orbit_walk(g, VERTICES)))


def test_oracle_matches_formulas_small():
    for n in range(2, 11):
        assert histogram(build(n, GAMMA), VERTICES) == {
            k: v for k, v in formulas.gamma_vertex_orbits(n).by_size.items() if v
        }
    for n in range(0, 11):
        assert histogram(build(n, GAMMA), EDGES) == {
            k: v for k, v in formulas.gamma_edge_orbits(n).by_size.items() if v
        }
    for n in range(1, 11):
        assert histogram(build(n, LAMBDA), VERTICES) == {
            k: v for k, v in formulas.lambda_vertex_orbit_histogram(n).items() if v
        }
        assert histogram(build(n, LAMBDA), EDGES) == {
            k: v for k, v in formulas.lambda_edge_orbits(n).by_size.items() if v
        }


def string_side_orbits(kind, n):
    """Vertex and edge orbits found on strings alone: the valid strings, the pairs
    at Hamming distance 1, and the dihedral maps of the test helper ``dihedral.apply``."""
    if kind == LAMBDA:
        group = Dihedral.full_group(n)
        names = enumerate_strings(n, LUCAS)
    else:
        group = [Dihedral(0), Dihedral(0, True)]
        names = enumerate_strings(n, FIBONACCI)
    edges = [(u, v) for u in names for v in names if u < v and sum(a != b for a, b in zip(u, v)) == 1]
    vertex_orbits = {tuple(sorted({apply(d, u) for d in group})) for u in names}
    edge_orbits = {tuple(sorted({tuple(sorted((apply(d, u), apply(d, v)))) for d in group})) for u, v in edges}
    return tuple(sorted(vertex_orbits)), tuple(sorted(edge_orbits))


@pytest.mark.parametrize("kind,start", [(GAMMA, 2), (LAMBDA, 1)])
def test_orbits_match_string_side(kind, start):
    # Gamma_1 (n < 2) has the endpoint swap that no string map gives; see test_vertex_orbit_examples
    for n in range(start, 11):
        g = build(n, kind)
        vertex_side, edge_side = string_side_orbits(kind, n)
        assert orbit_strings(g, expanded(g, VERTICES)) == vertex_side, n
        assert orbit_strings(g, expanded(g, EDGES)) == edge_side, n


def test_reverse_matches_string_reversal():
    # past the 32 bits that a listing's rows hold, too
    rng = random.Random(4)
    for n in range(0, 41):
        for x in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            u = format(x, f"0{n}b") if n else ""
            assert _reverse(x, n) == int(u[::-1] or "0", 2)


def string_listing(g, ground, maps):
    """(least member, size) of each orbit as strings, ascending, from the images of every element under
    every map of the group; an edge's image has its ends sorted."""
    images = {u: [m(u) for m in maps] for u in vertex_strings(g)}
    if ground == VERTICES:
        orbits = set(map(frozenset, images.values()))
    else:
        orbits = {frozenset(tuple(sorted(pair)) for pair in zip(images[a], images[b])) for a, b in edge_strings(g)}
    return sorted((min(orbit), len(orbit)) for orbit in orbits)


def test_gamma_orbits_are_pairs_under_string_reversal():
    # on Γn the engine reads reversal from two half tables; here an orbit is {element, its reversal} of
    # strings, with its least member and the set's size, for odd and even n past the closure test's range
    for n in range(19):
        if n == 1:
            continue  # the swap of Γ1 is not reversal; the closure tests cover it
        g = build(n, GAMMA)
        for ground in (VERTICES, EDGES):
            listing = string_listing(g, ground, (lambda u: u, lambda u: u[::-1]))
            assert [(name(g, rep), size) for rep, size in canonical_orbits(g, ground)] == listing, (n, ground)


def test_lambda_orbits_are_rotation_and_reversal_classes_of_strings():
    # on Λn the engine rotates u and its reversal inline; here an orbit is every rotation of an element and
    # of its reversal, as strings, past the closure test's range (Λ0-Λ2, whose rotations are reversal, too)
    for n in range(17):
        g = build(n, LAMBDA)
        rotations = [lambda u, j=j: u[j:] + u[:j] for j in range(max(n, 1))]
        maps = rotations + [lambda u, m=m: m(u[::-1]) for m in rotations]
        for ground in (VERTICES, EDGES):
            listing = string_listing(g, ground, maps)
            assert [(name(g, rep), size) for rep, size in canonical_orbits(g, ground)] == listing, (n, ground)


def test_gamma_orbits_apply_the_one_reversal_routine(monkeypatch):
    # the half tables come from _reverse, the map that `verify automorphisms` checks: with it made the
    # identity, every vertex is its own orbit
    monkeypatch.setattr(oracle, "_reverse", lambda x, n: x)
    g = build(5, GAMMA)
    assert list(oracle.orbit_walk(g, VERTICES)) == [(x, 1) for x in g.vertices]
    assert len(g.vertices) == 13


def test_lambda_orbits_apply_the_one_reversal_routine(monkeypatch):
    # Λn reads its reversal from the same half tables: with _reverse made the identity, only the inline
    # rotations move a vertex, so each orbit is a rotation class, of size its period (the least rotation
    # that fixes it, found in the doubled string); every Lucas string of length 6 is a rotation of its
    # reversal, so Λ9 and Λ10, where some are not, are what show a walk that bypasses _reverse
    monkeypatch.setattr(oracle, "_reverse", lambda x, n: x)
    for n, count in ((6, 5), (9, 10), (10, 15)):
        g = build(n, LAMBDA)
        classes = sorted({min(u[j:] + u[:j] for j in range(n)) for u in vertex_strings(g)})
        assert [(name(g, rep), size) for rep, size in oracle.orbit_walk(g, VERTICES)] == [
            (u, (u + u).find(u, 1)) for u in classes
        ], n
        assert len(classes) == count, n


def test_half_reversals_are_the_reversals_of_each_entry():
    # the walk's two tables, doubled from the n single-bit reversals, equal _reverse entry by entry
    for n in range(BUILD_LIMIT + 1):
        s = n // 2
        low, high = oracle._half_reversals(n)
        assert low == [_reverse(x, n) for x in range(1 << s)], n
        assert high == [_reverse(x << s, n) for x in range(1 << (n - s))], n


def test_the_walk_calls_reverse_once_per_bit(monkeypatch):
    # the half tables are doubled from the reversals of the n single bits, not made one _reverse call per entry
    calls = []
    monkeypatch.setattr(oracle, "_reverse", lambda x, n: calls.append(x) or _reverse(x, n))
    for kind in (GAMMA, LAMBDA):
        for n in range(2, 21):
            g = build(n, kind)
            for ground in (VERTICES, EDGES):
                calls.clear()
                for _ in oracle.orbit_walk(g, ground):
                    pass
                assert sorted(calls) == [1 << j for j in range(n)], (kind, n, ground)


def string_maps(g):
    """Maps on strings that generate the group of g: the searched group on the tiny cubes, else reversal,
    and rotation by one position on Lucas cubes."""
    if g.n < (2 if g.kind == GAMMA else 3):
        return [dict(zip(vertex_strings(g), map(g.decode, images))).get for images in automorphism_group(g)]
    maps = [lambda u: u[::-1]]
    if g.kind == LAMBDA:
        maps.append(lambda u: u[-1:] + u[:-1])
    return maps


@pytest.mark.parametrize("kind", [GAMMA, LAMBDA])
def test_engine_equals_brute_force_closures(kind):
    # the least member and size of every closure, ascending, against what the engine yields; an edge's
    # image has its ends sorted, since on the tiny cubes an automorphism may map an edge's lower end up
    for n in range(13):
        g = build(n, kind)
        maps = string_maps(g)
        edge_maps = [lambda edge, m=m: tuple(sorted(map(m, edge))) for m in maps]
        for ground, elements, generators in (
            (VERTICES, vertex_strings(g), maps),
            (EDGES, edge_strings(g), edge_maps),
        ):
            closures = [(orbit[0], len(orbit)) for orbit in closure_orbits(elements, generators)]
            assert [(name(g, rep), size) for rep, size in canonical_orbits(g, ground)] == closures, (n, ground)


def test_engine_needs_no_closed_form(monkeypatch):
    # the enumeration route stays independent: with every public closed form but graph_counts (which
    # build checks its graph against) made to raise, a built graph gives the same orbits
    graphs = [build(n, kind) for kind in (GAMMA, LAMBDA) for n in range(13)]
    before = [list(canonical_orbits(g, ground)) for g in graphs for ground in (VERTICES, EDGES)]

    def closed_form(*args):
        raise AssertionError("orbit enumeration called a closed form")

    public = {
        name for name, obj in vars(formulas).items()
        if inspect.isfunction(obj) and obj.__module__ == formulas.__name__ and not name.startswith("_")
    }
    assert {"fib", "lucas", "gamma_edge_orbits", "lambda_edge_orbits"} <= public
    for module in (formulas, strings, oracle):  # and wherever a closed form was imported by name
        for fn in public - {"graph_counts"}:
            if getattr(module, fn, None) is getattr(formulas, fn):
                monkeypatch.setattr(module, fn, closed_form)
    assert [list(canonical_orbits(g, ground)) for g in graphs for ground in (VERTICES, EDGES)] == before


def test_edge_runs_are_whole_masks_or_single_edges():
    # a run is one orbit per bit: a kept vertex that only the identity fixes holds its whole free-position
    # mask in one run of the group's order, and a stabilized one a run per kept edge, ascending
    for kind in (GAMMA, LAMBDA):
        for n in range(2, 15):
            g = build(n, kind)
            order = 2 * n if kind == LAMBDA and n >= 3 else 2
            free = oracle._free_positions(n, kind)
            fixed = {u: order // size for u, size in oracle.orbit_walk(g, VERTICES)}
            runs = list(oracle.orbit_walk(g, EDGES))
            for u, bits, size in runs:
                assert bits and bits & free(u) == bits, (kind, n, u)
                if fixed[u] == 1:
                    assert (bits, size) == (free(u), order), (kind, n, u)
                else:
                    assert bits & bits - 1 == 0, (kind, n, u)
            ends = [(u, bits) for u, bits, _ in runs]
            assert ends == sorted(set(ends)), (kind, n)


def test_the_walk_tests_only_0_and_the_odd_lucas_vertices():
    # on Λn, n >= 3, the walk skips every even u > 0 untested: its orbit from members holds a smaller vertex,
    # so neither a vertex orbit nor an edge run starts at it, and the orbits start at every least member
    for n in range(3, 17):
        g = build(n, LAMBDA)
        even = {u for u in g.vertices if u and not u & 1}
        assert all(members(g, u)[0] < u for u in even), n
        starts = [u for u, _ in oracle.orbit_walk(g, VERTICES)]
        assert starts == sorted({members(g, u)[0] for u in g.vertices}), n
        runs = {u for u, _, _ in oracle.orbit_walk(g, EDGES)}
        assert not even & (set(starts) | runs), n


def test_reversal_lies_above_every_tested_lucas_vertex_but_0():
    # the walk tests 0 and the odd vertices of Λn, n >= 3: an odd u starts with a 0 and its reversal r with a
    # 1, so the walk's r < u never fires there, and r == u only at 0
    for n in range(3, 24):
        g = build(n, LAMBDA)
        s = n // 2
        low, high = oracle._half_reversals(n)
        tested = [u for u in g.vertices if u & 1 or not u]
        assert tested[0] == 0 and low[0] | high[0] == 0, n
        assert all(low[u & (1 << s) - 1] | high[u >> s] > u for u in tested[1:]), n
