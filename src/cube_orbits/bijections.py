"""Structural correspondences behind the orbit counts, as executable maps.

Three bijections: Fibonacci strings of length n and domino tilings of the
2 x (n+1) rectangle, Fibonacci strings and ordered {1,2}-partitions of n+1,
and the map sending a Lucas-cube edge to a Fibonacci-cube vertex three
dimensions down that matches edge orbits with vertex orbits; that map reads
and returns the oracle's bitmasks.

A tiling is serialized as a string over {V, H}: V is a vertical domino
covering one column, H is a pair of horizontal dominoes covering two columns.
Reversing that string is the left-right reflection of the tiling; the up-down
reflection fixes every 2 x m tiling, so reversal is the only symmetry that
acts for m >= 3.
"""

from __future__ import annotations

from itertools import repeat

from . import oracle
from .formulas import GAMMA, LAMBDA
from .oracle import EDGES, VERTICES
from .strings import is_fibonacci


def string_to_tiling(u: str) -> str:
    """Tiling of the 2 x (len(u)+1) rectangle coded by the Fibonacci string u.

    Appends a trailing 0, then reads left to right: each 0 becomes a vertical
    domino, each 10 a horizontal pair.  Every 1 of a Fibonacci string is
    followed by a 0, so replacing each 10 and then each remaining 0 reads the
    same pieces.
    """
    if u.strip("01"):
        raise ValueError(f"{u!r} holds a character other than 0 and 1")
    if not is_fibonacci(u):
        raise ValueError(f"{u!r} has two adjacent 1s")
    return (u + "0").replace("10", "H").replace("0", "V")


def tiling_to_string(t: str) -> str:
    """Inverse of string_to_tiling: decode pieces and drop the trailing 0.

    Each H becomes 10 and then each V a 0; no piece decodes to a V, so the two replacements read the
    pieces as one left-to-right pass would.
    """
    if t.strip("VH"):
        raise ValueError(f"tiling may only contain V and H, found {sorted(set(t) - {'V', 'H'})}")
    v = t.replace("H", "10").replace("V", "0")
    if not v.endswith("0"):
        raise ValueError("decoded string does not end in 0")
    return v[:-1]


def ordered_partitions(m: int) -> list[tuple[int, ...]]:
    """All ordered sequences of parts 1 and 2 summing to m."""
    if m < 0:
        raise ValueError(f"ordered_partitions requires m >= 0, got {m}")
    # the partitions of k: 1 before each partition of k - 1, then 2 before each of k - 2
    shorter, level = [], [()]  # k = 0, with none of -1
    for _ in range(m):
        shorter, level = level, [(1,) + c for c in level] + [(2,) + c for c in shorter]
    return level


def enumerate_tilings(m: int) -> list[str]:
    """All tilings of the 2 x m rectangle, as V/H strings."""
    if m < 1:
        raise ValueError(f"enumerate_tilings requires m >= 1, got {m}")
    # the tilings of width k: V before each tiling of width k - 1, then H before each of width k - 2, the order
    # of ordered_partitions with V for a part 1 and H for a part 2
    shorter, level = [], [""]  # width 0, with none of width -1
    for _ in range(m):
        shorter, level = level, ["V" + t for t in level] + ["H" + t for t in shorter]
    return level


def distinct_partitions(m: int) -> int:
    """Ordered {1,2}-partitions of m, counted up to reversal."""
    if m < 1:
        raise ValueError(f"distinct_partitions requires m >= 1, got {m}")
    return len({min(c, c[::-1]) for c in ordered_partitions(m)})


def distinct_tilings(m: int) -> int:
    """Domino tilings of the 2 x m rectangle up to reflections and rotations.

    For m >= 3 the only symmetry acting on tilings is the left-right
    reflection.  The 2 x 2 square also has the quarter turn, which maps its
    two vertical dominoes (VV) to two horizontal ones (H) and back.
    """
    if m < 2:
        raise ValueError(f"distinct_tilings requires m >= 2, got {m}")
    turn = {"VV": "H", "H": "VV"} if m == 2 else {}
    return len({min(t, t[::-1], turn.get(t, t)) for t in enumerate_tilings(m)})


def lambda_edge_to_gamma_vertex(n: int, edge: tuple[int, int]) -> int:
    """The vertex of the Fibonacci cube of dimension n-3 read around an edge of the Lucas cube of dimension n.

    A vertex is an int whose bit n-1 holds string position 1, as in ``oracle``.  The endpoints differ in one
    position i, and both neighbours of i hold 0s; the image is the cyclic substring covering the remaining
    n-3 positions, read from position i+2 onward: an (n-3)-bit int whose bit n-4 holds position i+2.  On u
    doubled, u << n | u, that window ends one bit above the flipped bit, so it is the doubled bits shifted
    right past that bit and read through n-3 bits.  Either endpoint gives the same result.
    """
    u, v = edge
    if n < 5:
        raise ValueError(f"edge map requires length >= 5, got {n}")
    # a negative int shifted right stays negative, so this also refuses an end below 0
    if u >> n or v >> n:
        raise ValueError(f"endpoints must be nonnegative ints of at most {n} bits, got {u} and {v}")
    # x >> 1 meets each 1 with its right neighbour, and x << n - 1 puts position n beside position 1; each end
    # is below 2^n, so the and of it needs no mask
    if u & (u >> 1 | u << n - 1) or v & (v >> 1 | v << n - 1):
        raise ValueError("endpoints must be Lucas strings")
    flips = u ^ v
    if flips.bit_count() != 1:
        raise ValueError(f"endpoints differ in {flips.bit_count()} positions, not 1")
    image = (u << n | u) >> flips.bit_length() + 1 & (1 << n - 3) - 1
    if image & image >> 1:
        raise AssertionError(f"edge image {image:0{n - 3}b} is not fibonacci-valid")
    return image


def verify_edge_orbit_bijection(n: int) -> str | None:
    """First counterexample to the edge map inducing a bijection between orbit sets, or None.

    Compares Lucas-cube edge orbits with Fibonacci-cube vertex orbits three
    dimensions down, both computed by enumeration.  The counterexample names an
    edge orbit whose images do not lie in one vertex orbit, or gives the orbit
    counts when the map is not injective or not surjective.
    """
    lucas_cube, fibonacci_cube = oracle.build(n, LAMBDA), oracle.build(n - 3, GAMMA)
    vertex_reps = [x for x, _ in oracle.orbit_walk(fibonacci_cube, VERTICES)]
    orbit_of = {y: k for k, x in enumerate(vertex_reps) for y in oracle.members(fibonacci_cube, x)}
    turned = oracle._images(lucas_cube)
    # read once per n, so a map set on the module attribute, a patch or a wrapper, is the one checked
    edge_map = lambda_edge_to_gamma_vertex
    images, edge_orbits = set(), 0
    for u, bits, _ in oracle.orbit_walk(lucas_cube, EDGES):
        lower = turned(u)
        for b in oracle._bits(bits):
            # the group preserves weight on Λn, n >= 5, so each image of the edge has its lower end first
            edges = set(zip(lower, turned(u | b)))
            targets = set(map(orbit_of.get, map(edge_map, repeat(n), edges)))
            if len(targets) != 1 or None in targets:
                ends = "-".join(map(lucas_cube.decode, min(edges)))
                return f"n={n}: the edge orbit of {ends} does not map into one vertex orbit"
            images |= targets
            edge_orbits += 1
    if not len(images) == edge_orbits == len(vertex_reps):
        return f"n={n}: {edge_orbits} edge orbits map onto {len(images)} of {len(vertex_reps)} vertex orbits"
    return None
