"""Brute-force ground truth for orbit structure.

Builds Fibonacci/Lucas cubes as explicit graphs on integer bitmasks, finds
vertex and edge orbits under the automorphism group, and (for small graphs)
computes the full automorphism group by exhaustive backtracking so the
assumed group structure can be validated rather than trusted.

A vertex is an int whose bit n-1 holds string position 1, so numeric order is
lexicographic order; ``CubeGraph.decode`` gives the string back where a caller
prints or compares strings.  An edge is a pair (u, v) where v is u with one
more 1, so |E| is the total weight of the vertices; edges are made on demand
and never stored.

The images of an element are taken under bit maps: reversal on Fibonacci
cubes and on the Lucas cubes of n <= 2, the full dihedral group, rotations and
rotations after reversal, on Lucas cubes for n >= 3.  The one exception is the
1-dimensional Fibonacci cube, a single edge, whose automorphism swaps its
ends, which reversal does not do.  These maps are the oracle's only group
action: ``group_permutations`` turns them into vertex permutations, so the
automorphism search checks exactly the maps that orbit enumeration applies,
the tiny cubes included.

Each orbit is reported by its least member in one ascending walk over the
vertices that keeps no orbit and no record of reached elements
(``canonical_orbits``; canonical augmentation, after McKay, J. Algorithms 26,
1998).  A vertex u is kept iff no rotation of u or of its reversal r is
smaller, the rotations taken one at a time up to the first smaller one; the
Fibonacci cubes and Λ0-Λ2 have no rotations, so there u is tested against r
alone.  With s = n // 2, r is read as low[u & (2^s - 1)] | high[u >> s] from
two tables of 2^s and 2^(n-s) entries, made once per walk from ``_reverse``.
The images equal to u count its stabilizer, and its orbit's size is the
group's order over that count.  The group preserves weight, so an image of an
edge (u, v) going up from u has lower end g(u): the edge is least in its orbit
iff u is and no element of u's stabilizer maps v below v, and when the
identity alone fixes u every edge up from u is.  Γ1 alone tests each vertex
and edge whole, by its orbit from ``members``.  No closed form is used.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from . import formulas
from .formulas import GAMMA, LAMBDA
from .strings import enumerate_strings, FIBONACCI

# Every `orbits` listing up to this n, of either cube and ground and in every format, answered
# within 22.5 s (30 s with a quarter in hand) and 1 GB peak RSS in each of three fresh runs on a
# 2-CPU machine (README "Bounds"). Each listing's rows are written from per-format tables of half
# strings (cli.OrbitRows.texts); gamma n = 30 edges, the slowest, took 13.8-23.3 s in the three
# formats over two batches of three runs, the slower batch in a slow phase of the host, at 209 MB,
# the vertex tuple and the rows, and n = 31 took 22.1-36.6 s.
BUILD_LIMIT = 30
NAMED_SIZE_LIMIT = 100
AUTOMORPHISM_VERTEX_LIMIT = 60

VERTICES = "vertices"
EDGES = "edges"

Edge = tuple[int, int]


class CubeGraph(NamedTuple):
    """A Fibonacci or Lucas cube with its vertices in ascending order."""

    kind: str
    n: int
    vertices: tuple[int, ...]
    edge_count: int

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def decode(self, x: int) -> str:
        """The string of vertex x; the one vertex of dimension 0 is the empty string, not "0"."""
        return bin(x)[2:].zfill(self.n) if self.n else ""


class EdgeView:
    """The edges of a graph as ascending (u, v) pairs with u < v, made on demand; len() is |E|."""

    def __init__(self, graph: CubeGraph) -> None:
        self.graph = graph

    def __len__(self) -> int:
        return self.graph.edge_count

    def __iter__(self) -> Iterator[Edge]:
        up = _upper_ends(self.graph.n, self.graph.kind)
        for u in self.graph.vertices:
            for v in up(u):
                yield u, v


def _upper_ends(n: int, kind: str) -> Callable[[int], Iterator[int]]:
    """The upper ends v of the edges (u, v) at vertex u of the cube, ascending: u with one more 1."""
    cyclic = kind == LAMBDA
    # a 1 may go where it has no 1 beside it; in a Lucas string the ends are
    # beside each other, and the one position of a 1-cycle is beside itself
    wrap = n - 1 if cyclic and n else 0
    positions = 0 if cyclic and n == 1 else (1 << n) - 1

    def up(u: int) -> Iterator[int]:
        free = positions & ~(u | u << 1 | u >> 1 | u << wrap | u >> wrap)
        while free:
            low = free & -free
            yield u | low
            free ^= low

    return up


def build(n: int, kind: str) -> CubeGraph:
    """Construct the cube graph; refuses n > BUILD_LIMIT, naming the size it would build up to NAMED_SIZE_LIMIT.

    The closed forms give only that size and the check of the built graph's size;
    the vertices come from string enumeration at half length (``_joined_halves``) and |E| from their weights.
    """
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    if kind not in (GAMMA, LAMBDA):
        raise ValueError(f"unknown cube kind {kind!r}")
    if n > BUILD_LIMIT:
        # the counts have about n/5 digits, more than the 4300 that Python prints by
        # default from n of about 20560, so they are named only while they fit a message
        size = ""
        if n <= NAMED_SIZE_LIMIT:
            counts = formulas.graph_counts(n, kind)
            size = f" ({counts.vertices} vertices, {counts.edges} edges)"
        raise ValueError(f"dimension {n} exceeds the enumeration bound {BUILD_LIMIT}{size}")
    expected = formulas.graph_counts(n, kind)
    if n <= 1:
        # the one position of a Lucas string of length 1 is beside itself, so "1" is not a vertex of Λ1
        vertices = (0, 1) if n == 1 and kind == GAMMA else (0,)
    else:
        vertices = _joined_halves(n, kind == LAMBDA)
    edge_count = sum(x.bit_count() for x in vertices)
    if (len(vertices), edge_count) != (expected.vertices, expected.edges):
        raise AssertionError(
            f"graph construction mismatch for {kind} n={n}: "
            f"got {(len(vertices), edge_count)}, expected {tuple(expected)}"
        )
    return CubeGraph(kind=kind, n=n, vertices=vertices, edge_count=edge_count)


def _joined_halves(n: int, cyclic: bool) -> tuple[int, ...]:
    """The valid strings of length n >= 2 as ints, ascending, each a high half joined to a low half.

    Both halves are Fibonacci strings, of lengths ceil(n/2) and floor(n/2), enumerated once each, so no
    string of length n is made.  A low half may not start with a 1 where the high half ends in one, nor,
    on a Lucas cube, end with a 1 where the high half starts with one.  The high halves ascend, so the
    joined vertices do.
    """
    shift = n // 2
    highs = [int(u, 2) for u in enumerate_strings(n - shift, FIBONACCI)]
    lows = [int(u, 2) for u in enumerate_strings(shift, FIBONACCI)]
    low_first, high_first = 1 << (shift - 1), 1 << (n - shift - 1)  # the bit of each half's first position
    # allowed[ends in 1][starts with 1 on a Lucas cube]: the low halves a high half may be joined to
    allowed = [
        [[y for y in lows if not (end and y & low_first or wrap and y & 1)] for wrap in (0, 1)] for end in (0, 1)
    ]
    return tuple(x << shift | y for x in highs for y in allowed[x & 1][cyclic and x >= high_first])


def _reverse(x: int, n: int) -> int:
    """x with its low n bits (n <= 32) in reverse order."""
    x = (x & 0x55555555) << 1 | x >> 1 & 0x55555555
    x = (x & 0x33333333) << 2 | x >> 2 & 0x33333333
    x = (x & 0x0F0F0F0F) << 4 | x >> 4 & 0x0F0F0F0F
    x = (x & 0x00FF00FF) << 8 | x >> 8 & 0x00FF00FF
    return ((x & 0xFFFF) << 16 | x >> 16) >> (32 - n)


def _images(graph: CubeGraph) -> Callable[[int], list[int]]:
    """Images of a vertex under every automorphism, listed in one fixed order of the group.

    The order is identity then reversal on Fibonacci cubes and on Λ0-Λ2, save Γ1, whose second map swaps its
    two vertices; that of ``Dihedral.full_group(n)``, rotations then rotations after reversal, on Lucas cubes
    (n >= 3).  A rotation by j moves the last j positions to the front, as in ``canonical_orbits``.
    """
    n = graph.n
    if graph.kind == GAMMA or n < 3:
        # on Γ1 reversal is the identity, yet the vertices 0 and 1 are swapped by its one automorphism; on Γ0,
        # Λ0 and Λ1 reversal is the identity and is counted twice, so each orbit's size still comes out right
        swap = int(graph.kind == GAMMA and n == 1)
        return lambda x: [x, _reverse(x, n) ^ swap]
    full = (1 << n) - 1
    return lambda x: [(y >> j | y << n - j) & full for y in (x, _reverse(x, n)) for j in range(n)]


def _edge_images(images: Callable[[int], list[int]], u: int, v: int) -> Iterator[Edge]:
    """Images of the edge (u, v) in the group's order, each with its ends ascending."""
    return ((a, b) if a < b else (b, a) for a, b in zip(images(u), images(v)))


def group_permutations(graph: CubeGraph) -> list[tuple[int | None, ...]]:
    """One vertex-index permutation per group element, in the order of ``_images``.

    An image outside the graph is None, so a broken map is a mismatch, not an error.
    """
    index = {x: i for i, x in enumerate(graph.vertices)}
    return [tuple(map(index.get, column)) for column in zip(*map(_images(graph), graph.vertices))]


def canonical_orbits(graph: CubeGraph, ground: str) -> Iterator[tuple[int | Edge, int]]:
    """Each vertex or edge orbit once, as (its least member, its size), in ascending order of that member.

    The size is the group's order over its stabilizer's.  Orbits are made one at a time and none is kept.
    A vertex u is kept iff no rotation of u or of its reversal r is below u; on Γn and on Λ0-Λ2 there are
    no rotations, so u is tested against r alone.  Γ1 tests each element whole through ``members``.
    """
    n = graph.n
    if graph.kind == GAMMA and n == 1:
        # the swap of Γ1 is not reversal, nor does it preserve weight
        for x in graph.vertices if ground == VERTICES else graph.edges:
            orbit = members(graph, x)
            if orbit[0] == x:
                yield x, len(orbit)
        return
    # rev(x) is the reversal of x's low s bits, moved to the top, joined to that of its high n - s bits
    s, full = n // 2, (1 << n) - 1
    mask = (1 << s) - 1
    low = [_reverse(x, n) for x in range(1 << s)]
    high = [_reverse(x << s, n) for x in range(1 << (n - s))]
    turns = range(1, n) if graph.kind == LAMBDA and n >= 3 else ()
    order = 2 * n if turns else 2
    up = _upper_ends(n, graph.kind)
    for u in graph.vertices:
        r = low[u & mask] | high[u >> s]
        if r < u:
            continue
        fixes = 2 if r == u else 1  # the elements that fix u: identity and reversal, then the turns
        for j in turns:
            a = (u >> j | u << n - j) & full
            b = (r >> j | r << n - j) & full
            if a < u or b < u:
                break
            fixes += (a == u) + (b == u)
        else:
            if ground == VERTICES:
                yield u, order // fixes
            elif fixes == 1:
                # the identity alone fixes u: each edge up from u is least in an orbit of `order` edges
                yield from (((u, v), order) for v in up(u))
            else:
                # the group preserves weight, so an image of an edge (u, v) has lower end g(u): the edge is
                # least in its orbit iff no element of u's stabilizer, (turn, reflected), maps v below v
                stabilizer = [
                    (j, t) for j in (0, *turns) for t, x in ((0, u), (1, r)) if (x >> j | x << n - j) & full == u
                ]
                for v in up(u):
                    w = (v, low[v & mask] | high[v >> s])
                    image = [(w[t] >> j | w[t] << n - j) & full for j, t in stabilizer]
                    if min(image) == v:
                        yield (u, v), order // image.count(v)


def members(graph: CubeGraph, element: int | Edge) -> list:
    """The orbit of one vertex, or of one edge (u, v) with u < v: its distinct images, ascending."""
    images = _images(graph)
    return sorted(set(images(element) if type(element) is int else _edge_images(images, *element)))


def automorphism_group(graph: CubeGraph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, found by backtracking.

    A permutation maps vertex indices (positions in ``graph.vertices``).
    Vertices are mapped in ascending order.  Every x > 0 is adjacent to
    x & (x - 1), which comes before it, so every vertex v but 0 has a mapped
    neighbour: v goes to an unused neighbour of the image of its lowest one,
    and vertex 0, with none, to any unused vertex.  A candidate is kept when
    its degree is v's and its adjacency to the used images is exactly the
    images of v's mapped neighbours.  The search recurses once per vertex.
    Bounded to 60 vertices.
    """
    count = len(graph.vertices)
    if count > AUTOMORPHISM_VERTEX_LIMIT:
        raise ValueError(
            f"{count} vertices exceed the automorphism search bound {AUTOMORPHISM_VERTEX_LIMIT}"
        )
    index = {x: i for i, x in enumerate(graph.vertices)}
    # the edges ascend, so each list holds the lower neighbours, then the upper ones, ascending
    near: list[list[int]] = [[] for _ in range(count)]
    for u, v in graph.edges:
        near[index[u]].append(index[v])
        near[index[v]].append(index[u])
    adj = [sum(1 << j for j in js) for js in near]

    results: list[tuple[int, ...]] = []
    mapping = [-1] * count

    def extend(v: int, used: int) -> None:
        if v == count:
            results.append(tuple(mapping))
            return
        # the vertices below v are the mapped ones
        images = [mapping[u] for u in near[v] if u < v]
        required = sum(1 << w for w in images)
        for w in near[images[0]] if images else range(count):
            if not used >> w & 1 and len(near[w]) == len(near[v]) and adj[w] & used == required:
                mapping[v] = w
                extend(v + 1, used | 1 << w)

    extend(0, 0)
    return sorted(results)
