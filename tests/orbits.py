"""The orbits of a cube one at a time, for the tests that read them so.

``cube_orbits.oracle.orbit_walk`` yields each vertex orbit as (least member, size), and the edge orbits as
runs (u, bits, size), one orbit of ``size`` edges with least member (u, u | b) for each bit b of ``bits``.
``canonical_orbits`` expands the runs here, reading each bit itself.  The module is not named ``test_*.py``,
so pytest does not collect it, and a test file imports it by its bare name.
"""

from __future__ import annotations

from cube_orbits import oracle


def canonical_orbits(graph: oracle.CubeGraph, ground: str) -> list[tuple[int | tuple[int, int], int]]:
    """Each vertex or edge orbit once, as (its least member, its size), ascending by that member."""
    walk = oracle.orbit_walk(graph, ground)
    if ground == oracle.VERTICES:
        return list(walk)
    # a run's edges go up from u, lowest bit first
    return [((u, u | 1 << k), size) for u, bits, size in walk for k in range(graph.n) if bits >> k & 1]
