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

For dimensions where the automorphism group is known to be realized by string
maps (reversal on Fibonacci cubes for n >= 2, the full dihedral group on Lucas
cubes for n >= 3), the images of an element are taken under those maps,
applied with bit operations.  The remaining tiny cases use the exhaustive
automorphism search, because there the graph has symmetries the string action
does not show (e.g. the single edge swap of the 1-dimensional Fibonacci cube).
These maps are the oracle's only group action: ``group_permutations`` turns
them into vertex permutations, so the automorphism search checks exactly the
maps that orbit enumeration applies.

Orbits come from one ascending pass over the elements.  Where the group has at
most two elements (every Fibonacci cube, and the Lucas cubes up to n = 2), an
orbit is {x, y} with y the image of x under the group's other element (or x
itself), so x is its orbit's least member iff x <= y and no record of reached
elements is kept.  Elsewhere (Lucas cubes from
n = 3, with 2n elements) the first element not yet reached is its orbit's
least member, and the orbit is its set of images.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import formulas
from .formulas import GAMMA, LAMBDA
from .strings import enumerate_strings, FIBONACCI, LUCAS

# The largest n whose `orbits <cube> n edges` stays within the budget of 30 s
# and 1 GB peak RSS on a 2-CPU machine in every format (README "Bounds"): gamma
# n = 26 took 7.6 s and 555 MB as plain and 7.3 s and 554 MB as JSON; n = 27
# took 17.6 s and 1166 MB as plain.
BUILD_LIMIT = 26
NAMED_SIZE_LIMIT = 100
AUTOMORPHISM_VERTEX_LIMIT = 60

VERTICES = "vertices"
EDGES = "edges"

Edge = tuple[int, int]


@dataclass(frozen=True)
class CubeGraph:
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
        n, cyclic = self.graph.n, self.graph.kind == LAMBDA
        # a 1 may go where it has no 1 beside it; in a Lucas string the ends are
        # beside each other, and the one position of a 1-cycle is beside itself
        wrap = n - 1 if cyclic and n else 0
        positions = 0 if cyclic and n == 1 else (1 << n) - 1
        for u in self.graph.vertices:
            free = positions & ~(u | u << 1 | u >> 1 | u << wrap | u >> wrap)
            while free:
                low = free & -free
                yield u, u | low
                free ^= low


@dataclass
class OrbitPartition:
    """Disjoint orbits covering all vertices (or all edges) of one graph.

    Orbit members are sorted ascending, orbits are sorted by their first
    member, so orbit[0] is the canonical representative.
    """

    orbits: tuple[tuple, ...]

    def sizes(self) -> list[int]:
        return [len(orbit) for orbit in self.orbits]


def build(n: int, kind: str) -> CubeGraph:
    """Construct the cube graph; refuses n > BUILD_LIMIT, naming the size it would build up to NAMED_SIZE_LIMIT.

    The closed forms give only that size and the check of the built graph's size;
    the vertices come from string enumeration and |E| from their weights.
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
    names = enumerate_strings(n, FIBONACCI if kind == GAMMA else LUCAS)
    vertices = tuple(int(u, 2) for u in names) if n else (0,)  # int("", 2) is an error
    edge_count = sum(x.bit_count() for x in vertices)
    if (len(vertices), edge_count) != (expected.vertices, expected.edges):
        raise AssertionError(
            f"graph construction mismatch for {kind} n={n}: "
            f"got {(len(vertices), edge_count)}, expected {tuple(expected)}"
        )
    return CubeGraph(kind=kind, n=n, vertices=vertices, edge_count=edge_count)


def _reverse(x: int, n: int) -> int:
    """x with its low n bits (n <= 32) in reverse order."""
    x = (x & 0x55555555) << 1 | x >> 1 & 0x55555555
    x = (x & 0x33333333) << 2 | x >> 2 & 0x33333333
    x = (x & 0x0F0F0F0F) << 4 | x >> 4 & 0x0F0F0F0F
    x = (x & 0x00FF00FF) << 8 | x >> 8 & 0x00FF00FF
    return ((x & 0xFFFF) << 16 | x >> 16) >> (32 - n)


def _images(graph: CubeGraph) -> Callable[[int], list[int]]:
    """Images of a vertex under every automorphism, listed in one fixed order of the group.

    The order is identity then reversal on Fibonacci cubes (n >= 2); that of ``Dihedral.full_group(n)``,
    rotations then rotations after reversal, on Lucas cubes (n >= 3); the searched group's on the tiny cubes.
    """
    n, vertices = graph.n, graph.vertices
    if n < (2 if graph.kind == GAMMA else 3):
        # tiny graphs: the string action misses automorphisms, so take the whole searched group
        maps = [dict(zip(vertices, (vertices[j] for j in perm))) for perm in searched_group(graph.kind, n)]
        return lambda x: [m[x] for m in maps]
    if graph.kind == GAMMA:
        return lambda x: [x, _reverse(x, n)]
    top = n - 1

    def dihedral(x: int) -> list[int]:
        # every rotation of x and of its reversal; a rotation moves the last position to the front
        out = []
        for y in (x, _reverse(x, n)):
            for _ in range(n):
                out.append(y)
                y = y >> 1 | (y & 1) << top
        return out

    return dihedral


def group_permutations(graph: CubeGraph) -> list[tuple[int | None, ...]]:
    """One vertex-index permutation per group element, in the order of ``_images``.

    An image outside the graph is None, so a broken map is a mismatch, not an error.
    """
    index = {x: i for i, x in enumerate(graph.vertices)}
    return [tuple(map(index.get, column)) for column in zip(*map(_images(graph), graph.vertices))]


def _ascending_orbits(elements: Iterable, orbit_of: Callable[[object], tuple]) -> OrbitPartition:
    """One ascending pass: an element not reached by an earlier orbit is its own orbit's least member."""
    reached: set = set()
    orbits = []
    for x in elements:
        if x in reached:
            reached.remove(x)  # each element comes once, so its mark is no longer needed
            continue
        orbit = orbit_of(x)
        reached.update(orbit[1:])
        orbits.append(orbit)
    return OrbitPartition(tuple(orbits))


def _pair_orbits(elements: Iterable, image: Callable) -> OrbitPartition:
    """One ascending pass for a group {identity, g}: x with y = g(x) is its orbit's least member iff x <= y."""
    orbits = []
    for x in elements:
        y = image(x)
        if x < y:
            orbits.append((x, y))
        elif x == y:
            orbits.append((x,))
    return OrbitPartition(tuple(orbits))


def vertex_orbits(graph: CubeGraph) -> OrbitPartition:
    """Vertex orbits under the automorphism group, sorted by representative."""
    images = _images(graph)
    if len(images(0)) <= 2:  # the group's order; 0 is a vertex of every cube
        return _pair_orbits(graph.vertices, lambda x: images(x)[-1])
    return _ascending_orbits(graph.vertices, lambda x: tuple(sorted(set(images(x)))))


def edge_orbits(graph: CubeGraph) -> OrbitPartition:
    """Edge orbits under the induced action {u,v} -> {g(u), g(v)}."""
    images = _images(graph)
    if len(images(0)) <= 2:
        # each vertex's image once, shared by the edges at it: against taking it per edge end,
        # `orbits gamma 26 edges` took 8.8-9.5 s and 699 MB instead of 12.7-14.2 s and 760 MB
        other = {x: images(x)[-1] for x in graph.vertices}

        def image(edge: Edge) -> Edge:
            a, b = other[edge[0]], other[edge[1]]
            return (a, b) if a < b else (b, a)

        return _pair_orbits(graph.edges, image)

    def orbit_of(edge: Edge) -> tuple[Edge, ...]:
        pairs = zip(images(edge[0]), images(edge[1]))
        return tuple(sorted({(a, b) if a < b else (b, a) for a, b in pairs}))

    return _ascending_orbits(graph.edges, orbit_of)


def histogram(partition: OrbitPartition) -> dict[int, int]:
    """Map orbit size -> number of orbits of that size, keys ascending."""
    counts = Counter(len(orbit) for orbit in partition.orbits)
    return {size: counts[size] for size in sorted(counts)}


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.cache
def searched_group(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """``automorphism_group`` of the cube of this kind and dimension, searched once per process.

    A cube's group depends on its kind and n alone, and the search bound admits 18 cubes (n <= 8 of
    each kind), so the cache holds at most 18 small groups.
    """
    return tuple(automorphism_group(build(n, kind)))


def automorphism_group(graph: CubeGraph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, found by backtracking.

    A permutation maps vertex indices (positions in ``graph.vertices``).
    Vertices are mapped in ascending order, which keeps the mapped part
    connected (every x > 0 is adjacent to x & (x - 1)).  Candidates are pruned
    by (degree, sorted neighbor degrees) signatures and by adjacency
    consistency with the mapped neighbors.  Bounded to 60 vertices.
    """
    count = len(graph.vertices)
    if count > AUTOMORPHISM_VERTEX_LIMIT:
        raise ValueError(
            f"{count} vertices exceed the automorphism search bound {AUTOMORPHISM_VERTEX_LIMIT}"
        )
    index = {x: i for i, x in enumerate(graph.vertices)}
    adj = [0] * count
    for u, v in graph.edges:
        i, j = index[u], index[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    deg = [a.bit_count() for a in adj]
    sig = [
        (deg[v], tuple(sorted(deg[w] for w in _bit_indices(adj[v])))) for v in range(count)
    ]
    candidates: dict[tuple, list[int]] = {}
    for v in range(count):
        candidates.setdefault(sig[v], []).append(v)

    results: list[tuple[int, ...]] = []
    mapping = [-1] * count
    used = 0

    def backtrack(v: int) -> None:
        nonlocal used
        if v == count:
            results.append(tuple(mapping))
            return
        # the vertices below v are the mapped ones
        required = 0
        for u in _bit_indices(adj[v] & ((1 << v) - 1)):
            required |= 1 << mapping[u]
        for w in candidates[sig[v]]:
            bit = 1 << w
            if used & bit or (adj[w] & used) != required:
                continue
            mapping[v] = w
            used |= bit
            backtrack(v + 1)
            used &= ~bit

    backtrack(0)
    return sorted(results)
