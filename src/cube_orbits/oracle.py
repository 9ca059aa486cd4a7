"""Brute-force ground truth for orbit structure.

Builds Fibonacci/Lucas cubes as explicit graphs, enumerates vertex and edge
orbits under the automorphism group, and (for small graphs) computes the full
automorphism group by exhaustive backtracking so the assumed group structure
can be validated rather than trusted.

For dimensions where the automorphism group is known to be realized by string
maps (reversal on Fibonacci cubes for n >= 2, the full dihedral group on
Lucas cubes for n >= 3), orbits are computed under those generators.  The
remaining tiny cases go through the exhaustive automorphism search, because
there the graph has symmetries the string action does not show (e.g. the
single edge swap of the 1-dimensional Fibonacci cube).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import formulas
from .formulas import GAMMA, LAMBDA
from .strings import Dihedral, apply, enumerate_strings, FIBONACCI, LUCAS

BUILD_LIMIT = 30
AUTOMORPHISM_VERTEX_LIMIT = 60

VERTICES = "vertices"
EDGES = "edges"

Edge = tuple[str, str]


@dataclass
class CubeGraph:
    """A Fibonacci or Lucas cube with lexicographically sorted vertices.

    Treated as immutable after construction.
    """

    kind: str
    n: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # index pairs (i, j) with i < j, sorted
    index: dict[str, int] = field(repr=False)

    def edge_strings(self) -> list[Edge]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]


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
    """Construct the cube graph; refuses n > 30 to bound enumeration."""
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    if n > BUILD_LIMIT:
        raise ValueError(f"dimension {n} exceeds the enumeration bound {BUILD_LIMIT}")
    if kind not in (GAMMA, LAMBDA):
        raise ValueError(f"unknown cube kind {kind!r}")
    vertices = tuple(enumerate_strings(n, FIBONACCI if kind == GAMMA else LUCAS))
    index = {u: i for i, u in enumerate(vertices)}
    edges: list[tuple[int, int]] = []
    for i, u in enumerate(vertices):
        for pos in range(n):
            v = u[:pos] + ("1" if u[pos] == "0" else "0") + u[pos + 1 :]
            j = index.get(v)
            if j is not None and i < j:
                edges.append((i, j))
    edges.sort()
    expected = formulas.graph_counts(n, kind)
    if (len(vertices), len(edges)) != (expected.vertices, expected.edges):
        raise AssertionError(
            f"graph construction mismatch for {kind} n={n}: "
            f"got {(len(vertices), len(edges))}, expected {tuple(expected)}"
        )
    return CubeGraph(kind=kind, n=n, vertices=vertices, edges=tuple(edges), index=index)


def _string_generators(graph: CubeGraph) -> list[tuple[int, ...]]:
    """Vertex image arrays for the generating string maps of the known group."""
    gens = []
    if graph.kind == LAMBDA:
        gens.append(tuple(graph.index[u[-1] + u[:-1]] for u in graph.vertices))
    gens.append(tuple(graph.index[u[::-1]] for u in graph.vertices))
    return gens


def _generators(graph: CubeGraph) -> list[tuple[int, ...]]:
    if graph.n >= (2 if graph.kind == GAMMA else 3):
        return _string_generators(graph)
    # tiny graphs: the string action misses automorphisms, search exhaustively
    return automorphism_group(graph)


def _union_find_orbits(count: int, generators: Sequence[Sequence[int]]) -> list[list[int]]:
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for x in range(count):
            rx, ry = find(x), find(g[x])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

    groups: dict[int, list[int]] = {}
    for x in range(count):
        groups.setdefault(find(x), []).append(x)
    return [groups[root] for root in sorted(groups)]


def vertex_orbits(graph: CubeGraph) -> OrbitPartition:
    """Vertex orbits under the automorphism group, sorted by representative."""
    groups = _union_find_orbits(len(graph.vertices), _generators(graph))
    orbits = tuple(tuple(graph.vertices[i] for i in grp) for grp in groups)
    return OrbitPartition(orbits)


def edge_orbits(graph: CubeGraph) -> OrbitPartition:
    """Edge orbits under the induced action {u,v} -> {g(u), g(v)}."""
    edge_id = {e: eid for eid, e in enumerate(graph.edges)}
    edge_gens = []
    for g in _generators(graph):
        images = []
        for i, j in graph.edges:
            a, b = g[i], g[j]
            images.append(edge_id[(a, b) if a < b else (b, a)])
        edge_gens.append(images)
    groups = _union_find_orbits(len(graph.edges), edge_gens)
    verts = graph.vertices
    orbits = tuple(
        tuple((verts[i], verts[j]) for i, j in (graph.edges[eid] for eid in grp))
        for grp in groups
    )
    return OrbitPartition(orbits)


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

    Candidates are pruned by (degree, sorted neighbor degrees) signatures and
    by adjacency consistency with the partial map.  Bounded to 60 vertices.
    """
    count = len(graph.vertices)
    if count > AUTOMORPHISM_VERTEX_LIMIT:
        raise ValueError(
            f"{count} vertices exceed the automorphism search bound {AUTOMORPHISM_VERTEX_LIMIT}"
        )
    adj = [0] * count
    for i, j in graph.edges:
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
    """Vertex permutation induced by a dihedral string map, if it preserves the graph."""
    images = []
    for u in graph.vertices:
        v = apply(g, u)
        j = graph.index.get(v)
        if j is None:
            raise ValueError(f"map {g} sends vertex {u} outside the graph")
        images.append(j)
    return tuple(images)


def fixed_points(g: Dihedral, graph: CubeGraph, ground: str) -> set:
    """Vertices (or edges, as string pairs) fixed by one dihedral string map."""
    if ground == VERTICES:
        return {u for u in graph.vertices if apply(g, u) == u}
    if ground == EDGES:
        return {
            (u, v)
            for u, v in graph.edge_strings()
            if {apply(g, u), apply(g, v)} == {u, v}
        }
    raise ValueError(f"unknown ground set {ground!r}")
