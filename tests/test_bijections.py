"""Tilings, ordered partitions, and the edge-to-vertex orbit correspondence."""

from collections import Counter

import pytest

from cube_orbits import bijections, formulas, oracle, verify
from cube_orbits.bijections import (
    distinct_partitions,
    distinct_tilings,
    enumerate_tilings,
    lambda_edge_to_gamma_vertex,
    ordered_partitions,
    string_to_tiling,
    tiling_to_string,
    verify_edge_orbit_bijection,
)
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.strings import FIBONACCI, enumerate_strings
from dihedral import Dihedral, apply
from orbits import canonical_orbits


def lucas_edge_strings(n):
    """The edges of the n-th Lucas cube as pairs of strings, ascending."""
    graph = oracle.build(n, LAMBDA)
    return [(graph.decode(u), graph.decode(v)) for u, v in graph.edges]


def test_codec_examples():
    assert string_to_tiling("10") == "HV"
    assert string_to_tiling("") == "V"
    assert string_to_tiling("010") == "VHV"
    assert tiling_to_string("HV") == "10"
    with pytest.raises(ValueError):
        string_to_tiling("011")
    for u in ["2", "0b1", "1 0"]:  # the two replacements would pass other characters through
        with pytest.raises(ValueError, match="other than 0 and 1"):
            string_to_tiling(u)
    with pytest.raises(ValueError, match=r"may only contain V and H, found \['X', 'x'\]$"):
        tiling_to_string("xVHX")
    with pytest.raises(ValueError, match="does not end in 0"):
        tiling_to_string("")


def test_enumerations():
    assert ordered_partitions(4) == [
        (1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2),
    ]
    assert enumerate_tilings(3) == ["VVV", "VH", "HV"]
    assert len(enumerate_tilings(10)) == formulas.fib(11)
    with pytest.raises(ValueError, match=r"^ordered_partitions requires m >= 0, got -1$"):
        ordered_partitions(-1)
    with pytest.raises(ValueError, match=r"^enumerate_tilings requires m >= 1, got 0$"):
        enumerate_tilings(0)
    # the tilings are built as strings, not from the partitions: V is a part 1 and H a part 2, in one order
    for m in range(1, 17):
        assert enumerate_tilings(m) == ["".join("V" if part == 1 else "H" for part in c) for c in ordered_partitions(m)]


def test_round_trips():
    for n in range(0, 13):
        for u in enumerate_strings(n, FIBONACCI):
            t = string_to_tiling(u)
            assert t.count("V") + 2 * t.count("H") == n + 1
            assert tiling_to_string(t) == u
    for m in range(1, 14):
        for t in enumerate_tilings(m):
            assert string_to_tiling(tiling_to_string(t)) == t


def greedy_tiling(u):
    """The tiling of u read one piece at a time: 1 starts a horizontal pair, 0 is a vertical domino."""
    v, pieces, i = u + "0", [], 0
    while i < len(v):
        pieces.append("H" if v[i] == "1" else "V")
        i += 2 if v[i] == "1" else 1
    return "".join(pieces)


def test_codec_equals_greedy_reader():
    for n in range(0, 17):
        for u in enumerate_strings(n, FIBONACCI):
            assert string_to_tiling(u) == greedy_tiling(u), u


def test_palindromes_match_reflection_invariant_tilings():
    for n in range(0, 13):
        for u in enumerate_strings(n, FIBONACCI):
            t = string_to_tiling(u)
            assert (u == u[::-1]) == (t == t[::-1])


def test_distinct_tilings_examples():
    assert distinct_tilings(2) == 1
    assert distinct_tilings(4) == 4
    assert distinct_tilings(8) == 21
    with pytest.raises(ValueError):
        distinct_tilings(1)


def test_distinct_partitions_examples():
    assert distinct_partitions(4) == 4
    assert distinct_partitions(1) == 1
    assert distinct_partitions(6) == 9
    with pytest.raises(ValueError):
        distinct_partitions(0)


def test_counts_equal_orbit_totals():
    for m in range(3, 17):
        expected = formulas.gamma_vertex_orbits(m - 1).total
        assert distinct_tilings(m) == expected
        assert distinct_partitions(m) == expected


def string_edge_map(u, v):
    """The reference reading of the edge map on strings: the n - 3 positions of u cyclically from i + 2 on,
    where i is the one index at which u and v differ."""
    n = len(u)
    i = next(p for p in range(n) if u[p] != v[p])
    start = (i + 2) % n
    return (u + u)[start : start + n - 3]


def test_edge_map_examples():
    assert lambda_edge_to_gamma_vertex(5, (0b01000, 0b00000)) == 0b00
    assert lambda_edge_to_gamma_vertex(6, (0b010001, 0b000001)) == 0b001
    assert lambda_edge_to_gamma_vertex(5, (0b10000, 0b10100)) == 0b01
    # windows that wrap: a flip at position 5 of 5 reads positions 2 and 3, and one at position 5 of 7 reads
    # positions 7, 1, 2 and 3
    assert lambda_edge_to_gamma_vertex(5, (0b01000, 0b01001)) == 0b10
    assert lambda_edge_to_gamma_vertex(7, (0b0100100, 0b0100000)) == 0b0010


def test_edge_map_rejections():
    def rejects(n, edge, message):
        # each end is tested, so the case is refused with its ends in either order
        for ends in (edge, edge[::-1]):
            with pytest.raises(ValueError, match=message):
                lambda_edge_to_gamma_vertex(n, ends)

    rejects(4, (0b0100, 0b0000), r"^edge map requires length >= 5, got 4$")  # too short
    rejects(5, (0b01000, 0b00001), r"^endpoints differ in 2 positions, not 1$")
    rejects(5, (0b01000, 0b01000), r"^endpoints differ in 0 positions, not 1$")
    rejects(5, (0b10001, 0b10000), r"^endpoints must be Lucas strings$")  # positions 5 and 1 are beside each other
    rejects(5, (0b01100, 0b01000), r"^endpoints must be Lucas strings$")  # positions 2 and 3
    # an end wider than n bits, and one below 0: each would pass every other test, the first mapped to 00
    rejects(5, (0b100000, 0b000000), r"^endpoints must be nonnegative ints of at most 5 bits, got ")
    rejects(5, (-32, 0b00000), r"^endpoints must be nonnegative ints of at most 5 bits, got ")


def test_edge_map_is_endpoint_independent():
    for n in range(5, 15):
        for u, v in lucas_edge_strings(n):
            read = string_edge_map(u, v)
            assert read == string_edge_map(v, u)
            x, y = int(u, 2), int(v, 2)
            assert lambda_edge_to_gamma_vertex(n, (x, y)) == lambda_edge_to_gamma_vertex(n, (y, x)) == int(read, 2)


def test_edge_map_equals_the_string_reading():
    # the bit convention: position 1 is bit n - 1, and the image's first position is its bit n - 4
    for n in range(5, 17):
        graph = oracle.build(n, LAMBDA)
        for x, y in graph.edges:
            u, v = graph.decode(x), graph.decode(y)
            for edge, read in (((x, y), string_edge_map(u, v)), ((y, x), string_edge_map(v, u))):
                image = lambda_edge_to_gamma_vertex(n, edge)
                assert f"{image:0{n - 3}b}" == read, (n, u, v)


def test_edge_map_constant_on_orbits():
    for n in range(5, 10):
        for u, v in lucas_edge_strings(n):
            base = f"{lambda_edge_to_gamma_vertex(n, (int(u, 2), int(v, 2))):0{n - 3}b}"
            rep = min(base, base[::-1])
            for g in Dihedral.full_group(n):
                image = f"{lambda_edge_to_gamma_vertex(n, (int(apply(g, u), 2), int(apply(g, v), 2))):0{n - 3}b}"
                assert min(image, image[::-1]) == rep


def test_edge_map_surjective():
    for n in range(5, 11):
        edges = set(lucas_edge_strings(n))
        for w in enumerate_strings(n - 3, FIBONACCI):
            edge = tuple(sorted(("010" + w, "000" + w)))
            assert edge in edges
            assert lambda_edge_to_gamma_vertex(n, (int(edge[0], 2), int(edge[1], 2))) == int(w, 2)


def test_verify_edge_orbit_bijection():
    assert verify_edge_orbit_bijection(5) is None
    assert verify_edge_orbit_bijection(9) is None
    # Λ10 is the first Lucas cube whose walk yields a run of more than one edge orbit
    assert verify_edge_orbit_bijection(10) is None
    assert len(canonical_orbits(oracle.build(9, LAMBDA), oracle.EDGES)) == 12
    assert len(list(oracle.orbit_walk(oracle.build(6, GAMMA), oracle.VERTICES))) == 12
    # below 5 the edge map is undefined; above the graph bound neither cube is built
    with pytest.raises(ValueError):
        verify_edge_orbit_bijection(4)
    with pytest.raises(ValueError, match="exceeds the enumeration bound"):
        verify_edge_orbit_bijection(oracle.BUILD_LIMIT + 1)


def test_verify_edge_orbit_bijection_counterexamples(monkeypatch):
    # the first two positions of the lower endpoint: constant on the orbit of 00000-00001 only
    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", lambda n, edge: edge[0] >> n - 2)
    assert verify_edge_orbit_bijection(5) == "n=5: the edge orbit of 00001-00101 does not map into one vertex orbit"
    # 11, outside the Fibonacci cube of dimension n - 3
    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", lambda n, edge: 0b11)
    assert verify_edge_orbit_bijection(5) == "n=5: the edge orbit of 00000-00001 does not map into one vertex orbit"
    # constant on orbits but not injective
    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", lambda n, edge: 0)
    assert verify_edge_orbit_bijection(6) == "n=6: 4 edge orbits map onto 1 of 4 vertex orbits"


def test_bijection_row_maps_every_edge(monkeypatch):
    # the row checks every edge of each orbit, not one representative: the map runs |E(Λn)| times for each n
    calls = Counter()
    edge_map = bijections.lambda_edge_to_gamma_vertex

    def counted(n, edge):
        calls[n] += 1
        return edge_map(n, edge)

    monkeypatch.setattr(bijections, "lambda_edge_to_gamma_vertex", counted)
    row = next(check for check in verify.CHECKS if check.name == "edge orbit bijection holds")
    assert verify.run_check(row, 14).status == verify.PASS
    assert calls == {n: len(oracle.build(n, LAMBDA).edges) for n in range(row.lo, 15)}
