"""Brute-force ground truth for orbit structure.

Builds Fibonacci/Lucas cubes as explicit graphs on integer bitmasks, finds
vertex and edge orbits under the automorphism group, and computes the full
automorphism group by exhaustive backtracking, to a measured bound of
``verify``, so the assumed group structure is validated, not trusted.

A vertex is an int whose bit n-1 holds string position 1, so numeric order is
lexicographic order; ``CubeGraph.decode`` gives the string back where a caller
prints or compares strings.  With s = n // 2, u is x << s | y, a high half x
of n - s bits and a low half y of s bits, and the vertices are held as their
halves (``Vertices``): each high half with the list of low halves it may be
joined to, so the vertices are joined on each pass, ascending, and never
stored.  An edge is a pair (u, v) where v is u with one more 1, so |E| is the
total weight of the vertices, counted from the halves; edges are made on
demand and never stored.

The images of an element are taken under bit maps: the rotations of
``_turns``, each also after reversal (``_reverse``).  The one exception is the
1-dimensional Fibonacci cube, a single edge, whose automorphism swaps its
ends, which reversal does not do.  ``group_permutations`` lists these maps
in the form the automorphism search returns, the images of the vertices in
order, and the orbit walk reads the same ``_turns`` and ``_reverse``, so that
check reaches the group the walk applies.

Each orbit is reported by its least member in one ascending walk over the
vertices that keeps no orbit and no record of reached elements
(``orbit_walk``, the one iterator over orbits; canonical augmentation, after
McKay, J. Algorithms 26, 1998).  A vertex u is kept iff no rotation of u or of
its reversal r is smaller, the rotations taken one at a time up to the first
smaller one; the Fibonacci cubes and Λ0-Λ2 have no rotations, so there u is
tested against r alone.  The walk goes over the high halves x, and r is read
as low[y] | high[x] from two tables of 2^s and 2^(n-s) entries, made once per
walk from the n reversals of single bits by ``_reverse`` (``_half_reversals``),
high[x] once for each x.  Where there are rotations, the turn by one maps an
even u > 0 to u >> 1, below u, so only 0 and the odd vertices are tested,
17,712 of Λ23's 64,079: the odd low halves under each x, and 0 under x = 0, so
no even vertex is made; u and r are doubled once, u << n | u, and each turn
right by j is the doubled bits shifted by j, read through n bits.  Neither the
filter nor the doubling runs on a cube without rotations.  The elements whose image is u, met on the
way, are its stabilizer, and its orbit's size is the group's order over
their count.  The group preserves weight, so an image of an edge (u, v)
going up from u has lower end g(u): the edge is least in its orbit iff u is
and no element of u's stabilizer maps v below v, so no edge up from a skipped
u is lost, and when the identity alone fixes u every edge up from u is least.
So the walk gives the edge orbits as runs, one for each such u,
holding its whole free-position mask (``_free_positions``), and one for each
edge a stabilized u keeps; a run's orbits all have one size, and the edges are
made one by one only where a caller expands the runs.  Γ1 alone tests each
vertex and edge whole, by its orbit from ``members``.  No closed form is used.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, NamedTuple

from . import formulas
from .formulas import GAMMA, LAMBDA
from .strings import enumerate_strings, FIBONACCI

# Every `orbits` listing up to this n, of either cube and ground and in every format, answered within 22.5 s
# (30 s with a quarter in hand) and 1 GB peak RSS in each of three fresh runs on a 2-CPU machine (README
# "Bounds"). Each listing's rows are made from per-format tables of half strings (cli.OrbitRows.texts), an edge
# run's rows as one text, and written 256 vertex rows or 32 edge runs to a write; the graph holds only the halves
# of its vertices (Vertices), and an edge listing holds three ints per run of orbits (orbit_walk); gamma n = 30
# edges, the slowest, took 1.9-2.9 s in the three formats at 37-41 MB, 13 MB of it the runs.
BUILD_LIMIT = 30
NAMED_SIZE_LIMIT = 100

VERTICES = "vertices"
EDGES = "edges"

Edge = tuple[int, int]


class CubeGraph(NamedTuple):
    """A Fibonacci or Lucas cube with its vertices in ascending order."""

    kind: str
    n: int
    vertices: Vertices
    edge_count: int

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def decode(self, x: int) -> str:
        """The string of vertex x; the one vertex of dimension 0 is the empty string, not "0"."""
        return bin(x)[2:].zfill(self.n) if self.n else ""


class Vertices:
    """The vertices of a cube, ascending, joined from its halves on each pass and never stored; len() is |V|.

    ``highs`` holds (x, i) for each high half x, ascending: x, shifted up by n // 2, is joined to each low half
    of the ascending list ``lows[i]``.  Its length is counted from the lists.
    """

    def __init__(self, n: int, highs: list[tuple[int, int]], lows: list[list[int]]) -> None:
        self.n, self.highs, self.lows = n, highs, lows
        self.count = sum(len(lows[i]) for _, i in highs)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        s, lows = self.n // 2, self.lows
        return chain.from_iterable(map((x << s).__or__, lows[i]) for x, i in self.highs)


class EdgeView:
    """The edges of a graph as ascending (u, v) pairs with u < v, made on demand; len() is |E|."""

    def __init__(self, graph: CubeGraph) -> None:
        self.graph = graph

    def __len__(self) -> int:
        return self.graph.edge_count

    def __iter__(self) -> Iterator[Edge]:
        free = _free_positions(self.graph.n, self.graph.kind)
        for u in self.graph.vertices:
            for b in _bits(free(u)):
                yield u, u | b


def _free_positions(n: int, kind: str) -> Callable[[int], int]:
    """The free-position mask of a vertex u of the cube: the bits b whose u | b is a vertex, u with one more 1."""
    cyclic = kind == LAMBDA
    # a 1 may go where it has no 1 beside it; in a Lucas string the ends are
    # beside each other, and the one position of a 1-cycle is beside itself
    wrap = n - 1 if cyclic and n else 0
    positions = 0 if cyclic and n == 1 else (1 << n) - 1
    return lambda u: positions & ~(u | u << 1 | u >> 1 | u << wrap | u >> wrap)


def _bits(mask: int) -> Iterator[int]:
    """Each set bit of mask as its own power of two, ascending."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def build(n: int, kind: str) -> CubeGraph:
    """Construct the cube graph; refuses n > BUILD_LIMIT, naming the size it would build up to NAMED_SIZE_LIMIT.

    The closed forms give only that size and the check of the built graph's size;
    the vertices are a view over the halves enumerated as strings of half length (``_halves``), and |V| and |E|
    are counted from the halves without joining them.
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
        vertices = Vertices(n, [(0, 0), (1, 0)] if n == 1 and kind == GAMMA else [(0, 0)], [[0]])
    else:
        vertices = Vertices(n, *_halves(n, kind == LAMBDA))
    # an edge goes up from u by each free position, so |E| is the vertices' total weight: each high half's
    # weight once for each low half joined to it, and each low list's weight once for each high half it serves
    weights = [sum(map(int.bit_count, lows)) for lows in vertices.lows]
    edge_count = sum(x.bit_count() * len(vertices.lows[i]) + weights[i] for x, i in vertices.highs)
    if (len(vertices), edge_count) != (expected.vertices, expected.edges):
        raise AssertionError(
            f"graph construction mismatch for {kind} n={n}: "
            f"got {(len(vertices), edge_count)}, expected {tuple(expected)}"
        )
    return CubeGraph(kind=kind, n=n, vertices=vertices, edge_count=edge_count)


def _halves(n: int, cyclic: bool) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The valid strings of length n >= 2 as halves: each high half x with the index of its list of low halves.

    Both halves are Fibonacci strings, of lengths ceil(n/2) and floor(n/2), enumerated once each, so no
    string of length n is made.  A low half may not start with a 1 where the high half ends in one, nor,
    on a Lucas cube, end with a 1 where the high half starts with one, so there are four lists, each
    ascending, indexed 2 * (x ends in 1) + (x starts with 1 on a Lucas cube).  The high halves ascend.
    """
    shift = n // 2
    highs = [int(u, 2) for u in enumerate_strings(n - shift, FIBONACCI)]
    lows = [int(u, 2) for u in enumerate_strings(shift, FIBONACCI)]
    low_first, high_first = 1 << (shift - 1), 1 << (n - shift - 1)  # the bit of each half's first position
    allowed = [
        [y for y in lows if not (end and y & low_first or wrap and y & 1)] for end in (0, 1) for wrap in (0, 1)
    ]
    return [(x, 2 * (x & 1) + (cyclic and x >= high_first)) for x in highs], allowed


def _reverse(x: int, n: int) -> int:
    """The n-bit x with its bits in reverse order."""
    return int(format(x, f"0{n}b")[::-1], 2)


def _half_reversals(n: int) -> tuple[list[int], list[int]]:
    """The n-bit reversals of x for x below 2^s and of x << s for x below 2^(n-s), s = n // 2, as two lists.

    Reversal moves each bit on its own, so each list starts as [0], and each bit j of its half doubles it: every
    entry is followed by itself with the reversal of 1 << j set.  Only those n reversals come from ``_reverse``.
    """
    s, tables = n // 2, ([0], [0])
    for j in range(n):
        table, r = tables[j >= s], _reverse(1 << j, n)
        table += [x | r for x in table]
    return tables


def _turns(graph: CubeGraph) -> range:
    """The group's rotations, each as the j it turns right by: every j < n on Lucas cubes of n >= 3, else j = 0."""
    return range(graph.n) if graph.kind == LAMBDA and graph.n >= 3 else range(1)


def _images(graph: CubeGraph) -> Callable[[int], list[int]]:
    """Images of a vertex under every automorphism, listed in one fixed order of the group.

    The order is the turns of ``_turns``, then the same turns after reversal.  A rotation by j moves the last j
    positions to the front: as in ``orbit_walk``, it is x doubled, x << n | x, shifted right by j and read through
    n bits.  On Γ1 reversal is the identity, yet its one automorphism swaps the vertices 0 and 1, so its swap is
    xor'ed onto the reversal; on Γ0, Λ0 and Λ1 reversal is the identity and is counted twice, so each orbit's size
    still comes out right.
    """
    n, full, turns = graph.n, (1 << graph.n) - 1, _turns(graph)
    swap = int(graph.kind == GAMMA and n == 1)
    return lambda x: [d >> j & full for r in [_reverse(x, n) ^ swap] for d in (x << n | x, r << n | r) for j in turns]


def group_permutations(graph: CubeGraph) -> list[tuple[int, ...]]:
    """One map per group element, in the order of ``_images``, each as the images of ``graph.vertices``.

    An image outside the graph is an int that no searched map holds, so a broken map is a mismatch, not an error.
    """
    return list(zip(*map(_images(graph), graph.vertices)))


def orbit_walk(graph: CubeGraph, ground: str) -> Iterator[tuple[int, int] | tuple[int, int, int]]:
    """The one ascending walk over the vertices, as the module docstring gives it: each vertex orbit as (u, size),
    or the edge orbits as runs.

    A run (u, bits, size) stands for one orbit of ``size`` edges, least member (u, u | b), for each bit b of
    ``bits``: the whole free-position mask of a vertex that the identity alone fixes, or one bit for each edge
    that a stabilized one keeps.  The runs, each expanded, ascend by least member.
    """
    n, vertices = graph.n, ground == VERTICES
    if graph.kind == GAMMA and n == 1:
        # the swap of Γ1 is not reversal, nor does it preserve weight
        for x in graph.vertices if vertices else [(0, 1)]:
            orbit = members(graph, x)
            if orbit[0] == x:
                yield (x, len(orbit)) if vertices else (x[0], x[0] ^ x[1], len(orbit))
        return
    # rev(u) is the reversal of u's low s bits, moved to the top, joined to that of its high n - s bits
    s, full = n // 2, (1 << n) - 1
    mask = (1 << s) - 1
    low, high = _half_reversals(n)
    turns = _turns(graph)
    order, rotations = 2 * len(turns), turns[1:]  # every turn but the identity, which fixes each u
    free = _free_positions(n, graph.kind)
    lows = graph.vertices.lows
    if rotations:
        # the turn by one maps an even u > 0 to u >> 1, below u, so where there are turns only 0 and the odd u
        # can be least: the odd low halves, and 0 under x = 0; an edge is kept only if its lower end is, so no
        # edge up from a skipped u is lost
        odd = [[y for y in ys if y & 1] for ys in lows]
        tested = [(x, odd[i] if x else [0, *odd[i]]) for x, i in graph.vertices.highs]
    else:
        tested = [(x, lows[i]) for x, i in graph.vertices.highs]
    for x, ys in tested:
        top, hx = x << s, high[x]
        for y in ys:
            u, r = top | y, low[y] | hx
            # where there are turns a tested u > 0 is odd, so it starts with a 0 and r with a 1, above u: there
            # r serves the turns and u = 0, and the test stays so that every cube takes this one path
            if r < u:
                continue
            # the elements (turn, reflected) that fix u: the identity, reversal if r is u, then the turns
            stabilizer = ((0, 0), (0, 1)) if r == u else ((0, 0),)
            if rotations:
                # u and r doubled, each turn right by j is the doubled bits shifted by j, read through n bits
                du, dr = u << n | u, r << n | r
            for j in rotations:
                a = du >> j & full
                b = dr >> j & full
                if a <= u or b <= u:
                    # most turns move u and r above u, so this one test passes them
                    if a < u or b < u:
                        break
                    if a == u:
                        stabilizer += ((j, 0),)
                    if b == u:
                        stabilizer += ((j, 1),)
            else:
                if vertices:
                    yield u, order // len(stabilizer)
                elif len(stabilizer) == 1:
                    # the identity alone fixes u: each edge up from u is least in an orbit of `order` edges
                    bits = free(u)
                    if bits:
                        yield u, bits, order
                else:
                    # the group preserves weight, so an image of an edge (u, v) has lower end g(u): the edge is
                    # least in its orbit iff no element of u's stabilizer maps v below v
                    for b in _bits(free(u)):
                        v = u | b
                        rv = low[v & mask] | high[v >> s]
                        w = (v << n | v, rv << n | rv)
                        image = [w[t] >> j & full for j, t in stabilizer]
                        if min(image) == v:
                            yield u, b, order // image.count(v)


def members(graph: CubeGraph, element: int | Edge) -> list:
    """The orbit of one vertex, or of one edge (u, v) with u < v: its distinct images, ascending."""
    images = _images(graph)
    if type(element) is int:
        return sorted(set(images(element)))
    # each image of the edge, with its ends ascending
    return sorted({(a, b) if a < b else (b, a) for a, b in zip(*map(images, element))})


def automorphism_group(graph: CubeGraph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, found by backtracking, each as the images of the vertices.

    The search maps vertex indices (positions in one tuple of ``graph.vertices``) and reads each map through that
    tuple once, as it records it.  The cube is an induced subgraph of Q_n, so the neighbours of a vertex are the
    vertices one bit away from it, listed ascending; the search shares no adjacency rule with orbit enumeration.
    Vertices are mapped in ascending order.  Every x > 0 is adjacent to x & (x - 1), which precedes it, so every
    vertex v but 0 has a mapped neighbour: v goes to a neighbour of the image of its lowest one, and vertex 0, with
    none, to any vertex.  A candidate must have v's degree, be unused and neighbour the images of v's mapped
    neighbours.  Non-edges need no test: a one-to-one map of a finite graph sending edges to edges sends the edge
    set onto itself, and so non-edges to non-edges.  The search is one loop over a stack of frames, one per vertex
    being mapped, each holding its candidates left and the images they must neighbour.  Candidates are tried
    ascending and the vertices ascend, so the maps come out sorted.
    """
    vertices = tuple(graph.vertices)
    count = len(vertices)
    index = {x: i for i, x in enumerate(vertices)}
    near = [[index[y] for y in sorted(x ^ 1 << k for k in range(graph.n)) if y in index] for x in vertices]
    adjacent = [frozenset(js) for js in near]

    results: list[tuple[int, ...]] = []
    mapping: list[int] = []
    used, frames = bytearray(count), [(iter(range(count)), [])]
    while frames:
        v = len(frames) - 1
        candidates, required = frames[-1]
        if len(mapping) > v:
            # the frame resumes: release the image its vertex took last
            used[mapping.pop()] = 0
        for w in candidates:
            if len(near[w]) == len(near[v]) and not used[w] and adjacent[w].issuperset(required):
                mapping.append(w)
                used[w] = 1
                break
        else:
            frames.pop()
            continue
        if v + 1 == count:
            results.append(tuple(map(vertices.__getitem__, mapping)))
        else:
            # the vertices up to v are the mapped ones
            images = [mapping[u] for u in near[v + 1] if u <= v]
            frames.append((iter(near[images[0]]), images))
    return results
