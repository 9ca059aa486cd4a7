"""Structural correspondences behind the orbit counts, as executable maps.

Three bijections: Fibonacci strings of length n and domino tilings of the
2 x (n+1) rectangle, Fibonacci strings and ordered {1,2}-partitions of n+1,
and the map sending a Lucas-cube edge to a Fibonacci string three dimensions
down that matches edge orbits with vertex orbits.

A tiling is serialized as a string over {V, H}: V is a vertical domino
covering one column, H is a pair of horizontal dominoes covering two columns.
Reversing that string is the left-right reflection of the tiling; the up-down
reflection fixes every 2 x m tiling, so reversal is the only symmetry that
acts for m >= 3.
"""

from __future__ import annotations

from . import oracle
from .formulas import GAMMA, LAMBDA
from .strings import is_fibonacci, is_lucas


def tiling_width(t: str) -> int:
    """Number of columns covered by a tiling given as a V/H string."""
    _check_tiling(t)
    return t.count("V") + 2 * t.count("H")


def _check_tiling(t: str) -> None:
    bad = set(t) - {"V", "H"}
    if bad:
        raise ValueError(f"tiling may only contain V and H, found {sorted(bad)}")


def string_to_tiling(u: str) -> str:
    """Tiling of the 2 x (len(u)+1) rectangle coded by the Fibonacci string u.

    Appends a trailing 0, then reads left to right: each 0 becomes a vertical
    domino, each 10 a horizontal pair.
    """
    if not is_fibonacci(u):
        raise ValueError(f"{u!r} has two adjacent 1s")
    v = u + "0"
    pieces = []
    i = 0
    while i < len(v):
        if v[i] == "1":
            pieces.append("H")
            i += 2
        else:
            pieces.append("V")
            i += 1
    return "".join(pieces)


def tiling_to_string(t: str) -> str:
    """Inverse of string_to_tiling: decode pieces and drop the trailing 0."""
    _check_tiling(t)
    v = "".join("0" if piece == "V" else "10" for piece in t)
    if not v.endswith("0"):
        raise ValueError("decoded string does not end in 0")
    return v[:-1]


def ordered_partitions(m: int) -> list[tuple[int, ...]]:
    """All ordered sequences of parts 1 and 2 summing to m."""
    if m < 0:
        raise ValueError(f"ordered_partitions requires m >= 0, got {m}")
    levels: list[list[tuple[int, ...]]] = [[()], [(1,)]]
    for k in range(2, m + 1):
        levels.append(
            [(1,) + c for c in levels[k - 1]] + [(2,) + c for c in levels[k - 2]]
        )
    return levels[m]


def enumerate_tilings(m: int) -> list[str]:
    """All tilings of the 2 x m rectangle, as V/H strings."""
    if m < 1:
        raise ValueError(f"enumerate_tilings requires m >= 1, got {m}")
    return ["".join("V" if part == 1 else "H" for part in c) for c in ordered_partitions(m)]


def distinct_partitions(m: int) -> int:
    """Ordered {1,2}-partitions of m, counted up to reversal."""
    if m < 1:
        raise ValueError(f"distinct_partitions requires m >= 1, got {m}")
    return len({min(c, c[::-1]) for c in ordered_partitions(m)})


def distinct_tilings(m: int) -> int:
    """Domino tilings of the 2 x m rectangle up to reflections and rotations.

    For m >= 3 the only symmetry acting on tilings is the left-right
    reflection.  The 2 x 2 square additionally has the quarter turn, which
    identifies its two tilings, so that case is the constant 1.
    """
    if m < 2:
        raise ValueError(f"distinct_tilings requires m >= 2, got {m}")
    if m == 2:
        return 1
    return len({min(t, t[::-1]) for t in enumerate_tilings(m)})


def lambda_edge_to_gamma_vertex(edge: tuple[str, str]) -> str:
    """The Fibonacci string of length n-3 read around a Lucas-cube edge.

    The endpoints differ in one position i, and both neighborhoods of i hold
    0s; the image is the cyclic substring covering the remaining n-3
    positions, read from position i+2 onward.  Either endpoint gives the
    same result.
    """
    u, v = edge
    n = len(u)
    if n < 5:
        raise ValueError(f"edge map requires length >= 5, got {n}")
    if len(v) != n:
        raise ValueError("endpoints differ in length")
    if not (is_lucas(u) and is_lucas(v)):
        raise ValueError("endpoints must be Lucas strings")
    diffs = [i for i in range(n) if u[i] != v[i]]
    if len(diffs) != 1:
        raise ValueError(f"endpoints differ in {len(diffs)} positions, not 1")
    i = diffs[0]
    src = u if u[i] == "1" else v
    doubled = src + src
    start = (i + 2) % n
    image = doubled[start : start + n - 3]
    if not is_fibonacci(image):
        raise AssertionError(f"edge image {image} is not fibonacci-valid")
    return image


def verify_edge_orbit_bijection(n: int) -> bool:
    """Check that the edge map induces a bijection between orbit sets.

    Compares Lucas-cube edge orbits with Fibonacci-cube vertex orbits three
    dimensions down, both computed by enumeration.  True iff the induced map
    is well defined on orbits, injective, and surjective.
    """
    if not 5 <= n <= 18:
        raise ValueError(f"verify_edge_orbit_bijection requires 5 <= n <= 18, got {n}")
    lucas_cube, fibonacci_cube = oracle.build(n, LAMBDA), oracle.build(n - 3, GAMMA)
    edge_partition = oracle.edge_orbits(lucas_cube)
    vertex_partition = oracle.vertex_orbits(fibonacci_cube)
    orbit_of_rep = {fibonacci_cube.decode(orbit[0]): k for k, orbit in enumerate(vertex_partition.orbits)}

    image_ids = []
    for orbit in edge_partition.orbits:
        edges = (tuple(map(lucas_cube.decode, e)) for e in orbit)
        targets = {orbit_of_rep[min(w, w[::-1])] for w in map(lambda_edge_to_gamma_vertex, edges)}
        if len(targets) != 1:
            return False  # not constant on an edge orbit
        image_ids.append(targets.pop())
    distinct = set(image_ids)
    return len(distinct) == len(image_ids) == len(vertex_partition.orbits)
