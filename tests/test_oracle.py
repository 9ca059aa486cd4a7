"""Graph construction, orbit enumeration, and the automorphism search.

The oracle works on bitmasks (bit n-1 is string position 1); these tests
decode them with ``CubeGraph.decode`` wherever they compare with strings.
"""

import random

import pytest

from cube_orbits import formulas
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.oracle import (
    BUILD_LIMIT,
    EDGES,
    VERTICES,
    _reverse,
    automorphism_group,
    build,
    dihedral_vertex_permutation,
    edge_orbits,
    fixed_points,
    histogram,
    vertex_orbits,
)
from cube_orbits.strings import FIBONACCI, LUCAS, Dihedral, apply, enumerate_strings, weight


def vertex_strings(g):
    return tuple(map(g.decode, g.vertices))


def edge_strings(g):
    return [(g.decode(u), g.decode(v)) for u, v in g.edges]


def orbit_strings(g, partition):
    """The orbits with every vertex, or both ends of every edge, as strings."""
    def name(member):
        return g.decode(member) if type(member) is int else tuple(map(g.decode, member))

    return tuple(tuple(map(name, orbit)) for orbit in partition.orbits)


def test_build_examples():
    lam3 = build(3, LAMBDA)
    assert lam3.vertices == (0b000, 0b001, 0b010, 0b100)
    assert vertex_strings(lam3) == ("000", "001", "010", "100")
    assert list(lam3.edges) == [(0b000, 0b001), (0b000, 0b010), (0b000, 0b100)]  # the star on 4 vertices
    assert len(lam3.edges) == 3
    gam5 = build(5, GAMMA)
    assert (len(gam5.vertices), len(gam5.edges)) == (13, 20)
    gam0 = build(0, GAMMA)
    assert gam0.vertices == (0,)
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
    assert vertex_orbits(gam2).orbits == ((0b00,), (0b01, 0b10))
    assert orbit_strings(gam2, vertex_orbits(gam2)) == (("00",), ("01", "10"))
    # the 1-cube is a single edge whose endpoints swap
    gam1 = build(1, GAMMA)
    assert orbit_strings(gam1, vertex_orbits(gam1)) == (("0", "1"),)
    assert orbit_strings(gam1, edge_orbits(gam1)) == ((("0", "1"),),)
    lam9_edges = edge_orbits(build(9, LAMBDA))
    assert sorted(lam9_edges.sizes()) == [9, 9, 9] + [18] * 9


def test_histogram_examples():
    assert histogram(vertex_orbits(build(9, LAMBDA))) == {1: 1, 3: 1, 9: 6, 18: 1}
    assert histogram(vertex_orbits(build(5, GAMMA))) == {1: 5, 2: 4}
    assert histogram(vertex_orbits(build(0, GAMMA))) == {1: 1}
    assert histogram(vertex_orbits(build(0, LAMBDA))) == {1: 1}


def test_partitions_cover_and_are_closed():
    for kind in (GAMMA, LAMBDA):
        for n in range(1, 8):
            g = build(n, kind)
            vp = vertex_orbits(g)
            seen = [u for orbit in vp.orbits for u in orbit]
            assert sorted(seen) == sorted(g.vertices)
            assert len(seen) == len(set(seen))
            assert vp.representatives() == sorted(vp.representatives())
            ep = edge_orbits(g)
            seen_edges = [e for orbit in ep.orbits for e in orbit]
            assert sorted(seen_edges) == sorted(g.edges)
            assert sorted(e for orbit in orbit_strings(g, ep) for e in orbit) == sorted(edge_strings(g))
            assert ep.representatives() == sorted(ep.representatives())
            assert all(list(orbit) == sorted(orbit) for orbit in vp.orbits + ep.orbits)
            assert len(seen_edges) == len(set(seen_edges))


def test_lambda_orbits_closed_under_dihedral_maps():
    for n in range(3, 8):
        g = build(n, LAMBDA)
        for orbit in orbit_strings(g, vertex_orbits(g)):
            members = set(orbit)
            for u in orbit:
                for d in Dihedral.full_group(n):
                    assert apply(d, u) in members
        for orbit in orbit_strings(g, edge_orbits(g)):
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


def test_automorphism_group_bound():
    with pytest.raises(ValueError):
        automorphism_group(build(9, LAMBDA))  # 76 vertices


def test_automorphisms_are_automorphisms():
    for kind, n in ((GAMMA, 4), (LAMBDA, 5)):
        g = build(n, kind)
        index = {x: i for i, x in enumerate(g.vertices)}
        edges = {(index[u], index[v]) for u, v in g.edges}
        for perm in automorphism_group(g):
            assert sorted(perm) == list(range(len(g.vertices)))
            mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in edges}
            assert mapped == edges


def test_lambda_automorphisms_are_dihedral():
    for n in range(3, 7):
        g = build(n, LAMBDA)
        autos = set(automorphism_group(g))
        dihedral = {dihedral_vertex_permutation(g, d) for d in Dihedral.full_group(n)}
        assert autos == dihedral
        assert len(autos) == 2 * n


def test_dihedral_vertex_permutation_rejects_escaping_maps():
    # a plain rotation does not preserve Fibonacci validity
    with pytest.raises(ValueError):
        dihedral_vertex_permutation(build(3, GAMMA), Dihedral.rotation(1))


def test_fixed_points_examples():
    gam5 = build(5, GAMMA)
    assert fixed_points(Dihedral.reflection(), gam5, VERTICES) == {
        "00000",
        "00100",
        "01010",
        "10001",
        "10101",
    }
    assert fixed_points(Dihedral.identity(), gam5, VERTICES) == set(vertex_strings(gam5))
    assert fixed_points(Dihedral.rotation(1), build(3, LAMBDA), VERTICES) == {"000"}
    with pytest.raises(ValueError):
        fixed_points(Dihedral.identity(), gam5, "faces")


def test_fixed_edges():
    lam5 = build(5, LAMBDA)
    fixed = fixed_points(Dihedral.identity(), lam5, EDGES)
    assert fixed == set(edge_strings(lam5))
    # reversal fixes the edge {00000, 00100} and moves {00000, 00001}
    beta_fixed = fixed_points(Dihedral.reflection(), lam5, EDGES)
    assert ("00000", "00100") in beta_fixed
    assert ("00000", "00001") not in beta_fixed


def test_reflection_fixed_point_sum_identity():
    for d in range(1, 11):
        g = build(d, LAMBDA)
        total = sum(
            len(fixed_points(Dihedral(j, True), g, VERTICES)) for j in range(d)
        )
        assert total == d * formulas.fib(d // 2 + 2)


def test_automorphisms_preserve_weight():
    for kind, start, stop in ((GAMMA, 2, 6), (LAMBDA, 1, 7)):
        for n in range(start, stop):
            g = build(n, kind)
            for perm in automorphism_group(g):
                for i, j in enumerate(perm):
                    assert weight(g.decode(g.vertices[i])) == weight(g.decode(g.vertices[j]))


def test_oracle_matches_formulas_small():
    for n in range(2, 11):
        assert histogram(vertex_orbits(build(n, GAMMA))) == {
            k: v for k, v in formulas.gamma_vertex_orbits(n).by_size.items() if v
        }
    for n in range(0, 11):
        assert histogram(edge_orbits(build(n, GAMMA))) == {
            k: v for k, v in formulas.gamma_edge_orbits(n).by_size.items() if v
        }
    for n in range(1, 11):
        assert histogram(vertex_orbits(build(n, LAMBDA))) == {
            k: v for k, v in formulas.lambda_vertex_orbit_histogram(n).items() if v
        }
        assert histogram(edge_orbits(build(n, LAMBDA))) == {
            k: v for k, v in formulas.lambda_edge_orbits(n).by_size.items() if v
        }


def string_side_orbits(kind, n):
    """Vertex and edge orbits found on strings alone: the valid strings, the pairs
    at Hamming distance 1, and the dihedral maps of ``strings.apply``."""
    if kind == LAMBDA:
        group = Dihedral.full_group(n)
        names = enumerate_strings(n, LUCAS)
    else:
        group = [Dihedral.identity(), Dihedral.reflection()]
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
        assert orbit_strings(g, vertex_orbits(g)) == vertex_side, n
        assert orbit_strings(g, edge_orbits(g)) == edge_side, n


def test_reverse_matches_string_reversal():
    rng = random.Random(4)
    for n in range(0, BUILD_LIMIT + 1):
        for x in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            u = format(x, f"0{n}b") if n else ""
            assert _reverse(x, n) == int(u[::-1] or "0", 2)
