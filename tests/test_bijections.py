"""Tilings, ordered partitions, and the edge-to-vertex orbit correspondence."""

import pytest

from cube_orbits import formulas, oracle
from cube_orbits.bijections import (
    distinct_partitions,
    distinct_tilings,
    enumerate_tilings,
    lambda_edge_to_gamma_vertex,
    ordered_partitions,
    string_to_tiling,
    tiling_to_string,
    tiling_width,
    verify_edge_orbit_bijection,
)
from cube_orbits.formulas import GAMMA, LAMBDA
from cube_orbits.strings import Dihedral, FIBONACCI, apply, enumerate_strings


def lucas_edge_strings(n):
    """The edges of the n-th Lucas cube as pairs of strings, ascending."""
    graph = oracle.build(n, LAMBDA)
    return [(graph.decode(u), graph.decode(v)) for u, v in graph.edges]


def test_codec_examples():
    assert string_to_tiling("10") == "HV"
    assert string_to_tiling("") == "V"
    assert string_to_tiling("010") == "VHV"
    assert tiling_to_string("HV") == "10"
    assert tiling_width("HV") == 3
    with pytest.raises(ValueError):
        string_to_tiling("011")
    with pytest.raises(ValueError):
        tiling_to_string("VX")
    with pytest.raises(ValueError):
        tiling_to_string("")
    with pytest.raises(ValueError):
        tiling_width("T")


def test_enumerations():
    assert ordered_partitions(4) == [
        (1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2),
    ]
    assert enumerate_tilings(3) == ["VVV", "VH", "HV"]
    assert len(enumerate_tilings(10)) == formulas.fib(11)


def test_round_trips():
    for n in range(0, 13):
        for u in enumerate_strings(n, FIBONACCI):
            t = string_to_tiling(u)
            assert tiling_width(t) == n + 1
            assert tiling_to_string(t) == u
    for m in range(1, 14):
        for t in enumerate_tilings(m):
            assert string_to_tiling(tiling_to_string(t)) == t


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


def test_edge_map_examples():
    assert lambda_edge_to_gamma_vertex(("01000", "00000")) == "00"
    assert lambda_edge_to_gamma_vertex(("010001", "000001")) == "001"
    assert lambda_edge_to_gamma_vertex(("10000", "10100")) == "01"


def test_edge_map_rejections():
    with pytest.raises(ValueError):
        lambda_edge_to_gamma_vertex(("0100", "0000"))  # too short
    with pytest.raises(ValueError):
        lambda_edge_to_gamma_vertex(("01000", "00001"))  # two positions differ
    with pytest.raises(ValueError):
        lambda_edge_to_gamma_vertex(("01000", "01000"))  # no position differs
    with pytest.raises(ValueError):
        lambda_edge_to_gamma_vertex(("10001", "10000"))  # endpoint not a Lucas string
    with pytest.raises(ValueError):
        lambda_edge_to_gamma_vertex(("01000", "0000"))  # length mismatch


def test_edge_map_is_endpoint_independent():
    for n in range(5, 9):
        for u, v in lucas_edge_strings(n):
            i = next(p for p in range(n) if u[p] != v[p])
            reads = set()
            for src in (u, v):
                doubled = src + src
                start = (i + 2) % n
                reads.add(doubled[start : start + n - 3])
            assert len(reads) == 1
            assert reads.pop() == lambda_edge_to_gamma_vertex((u, v))


def test_edge_map_constant_on_orbits():
    for n in range(5, 10):
        for u, v in lucas_edge_strings(n):
            base = lambda_edge_to_gamma_vertex((u, v))
            rep = min(base, base[::-1])
            for g in Dihedral.full_group(n):
                image = lambda_edge_to_gamma_vertex((apply(g, u), apply(g, v)))
                assert min(image, image[::-1]) == rep


def test_edge_map_surjective():
    for n in range(5, 11):
        edges = set(lucas_edge_strings(n))
        for w in enumerate_strings(n - 3, FIBONACCI):
            edge = tuple(sorted(("010" + w, "000" + w)))
            assert edge in edges
            assert lambda_edge_to_gamma_vertex(edge) == w


def test_verify_edge_orbit_bijection():
    assert verify_edge_orbit_bijection(5)
    assert verify_edge_orbit_bijection(9)
    assert len(oracle.edge_orbits(oracle.build(9, LAMBDA)).orbits) == 12
    assert len(oracle.vertex_orbits(oracle.build(6, GAMMA)).orbits) == 12
    with pytest.raises(ValueError):
        verify_edge_orbit_bijection(4)
    with pytest.raises(ValueError):
        verify_edge_orbit_bijection(19)
