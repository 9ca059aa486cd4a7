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

Orbits come from one ascending pass: the first element not yet reached is its
orbit's least member, and the orbit is its set of images.  For dimensions
where the automorphism group is known to be realized by string maps (reversal
on Fibonacci cubes for n >= 2, the full dihedral group on Lucas cubes for
n >= 3), the images are taken under those maps, applied with bit operations.
The remaining tiny cases use the exhaustive automorphism search, because there
the graph has symmetries the string action does not show (e.g. the single edge
swap of the 1-dimensional Fibonacci cube).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import formulas
from .formulas import GAMMA, LAMBDA
from .strings import Dihedral, apply, enumerate_strings, FIBONACCI, LUCAS

# The largest n whose `orbits <cube> n edges --format plain` stays within the
# budget of 30 s and 1 GB peak RSS on a 2-CPU machine (README "Bounds"):
# gamma n = 26 took 13.4 s and 698 MB, n = 27 took 20.7 s and 1163 MB.
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

    def representatives(self) -> list:
        return [orbit[0] for orbit in self.orbits]

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
        # the counts have about n/5 digits and take O(n) big-integer steps, so they
        # are named only while that is instant
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
    """Images of a vertex under every automorphism, listed in one fixed order of the group."""
    n, vertices = graph.n, graph.vertices
    if n < (2 if graph.kind == GAMMA else 3):
        # tiny graphs: the string action misses automorphisms, so take the whole searched group
        maps = [dict(zip(vertices, (vertices[j] for j in perm))) for perm in automorphism_group(graph)]
        return lambda x: [m[x] for m in maps]
    if graph.kind == GAMMA:
        # one shared int per reversed vertex: against calling _reverse per edge end,
        # `orbits gamma 26 edges` takes 13.4-13.9 s and 698 MB instead of 15.5-15.7 s and 760 MB
        reverse = {x: _reverse(x, n) for x in vertices}
        return lambda x: [x, reverse[x]]
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


def vertex_orbits(graph: CubeGraph) -> OrbitPartition:
    """Vertex orbits under the automorphism group, sorted by representative."""
    images = _images(graph)
    return _ascending_orbits(graph.vertices, lambda x: tuple(sorted(set(images(x)))))


def edge_orbits(graph: CubeGraph) -> OrbitPartition:
    """Edge orbits under the induced action {u,v} -> {g(u), g(v)}."""
    images = _images(graph)

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


def automorphism_group(graph: CubeGraph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, found by backtracking.

    A permutation maps vertex indices (positions in ``graph.vertices``).
    Candidates are pruned by (degree, sorted neighbor degrees) signatures and
    by adjacency consistency with the partial map.  Bounded to 60 vertices.
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

    # order vertices so each one touches as much of the mapped part as possible
    order: list[int] = []
    placed_mask = 0
    remaining = set(range(count))
    while remaining:
        best = min(
            remaining,
            key=lambda v: (-(adj[v] & placed_mask).bit_count(), len(candidates[sig[v]]), v),
        )
        order.append(best)
        placed_mask |= 1 << best
        remaining.remove(best)

    results: list[tuple[int, ...]] = []
    mapping = [-1] * count
    used = 0

    def backtrack(pos: int) -> None:
        nonlocal used
        if pos == count:
            results.append(tuple(mapping))
            return
        v = order[pos]
        required = 0
        for u in _bit_indices(adj[v]):
            if mapping[u] != -1:
                required |= 1 << mapping[u]
        for w in candidates[sig[v]]:
            bit = 1 << w
            if used & bit or (adj[w] & used) != required:
                continue
            mapping[v] = w
            used |= bit
            backtrack(pos + 1)
            mapping[v] = -1
            used &= ~bit

    backtrack(0)
    return sorted(results)


def dihedral_vertex_permutation(graph: CubeGraph, g: Dihedral) -> tuple[int, ...]:
    """Vertex index permutation induced by a dihedral string map, if it preserves the graph."""
    names = [graph.decode(x) for x in graph.vertices]
    index = {u: i for i, u in enumerate(names)}
    images = []
    for u in names:
        v = apply(g, u)
        j = index.get(v)
        if j is None:
            raise ValueError(f"map {g} sends vertex {u} outside the graph")
        images.append(j)
    return tuple(images)


def fixed_points(g: Dihedral, graph: CubeGraph, ground: str) -> set:
    """Vertices (or edges, as string pairs) fixed by one dihedral string map."""
    if ground == VERTICES:
        return {u for u in map(graph.decode, graph.vertices) if apply(g, u) == u}
    if ground == EDGES:
        pairs = ((graph.decode(u), graph.decode(v)) for u, v in graph.edges)
        return {(u, v) for u, v in pairs if {apply(g, u), apply(g, v)} == {u, v}}
    raise ValueError(f"unknown ground set {ground!r}")
