"""Binary strings under rotation and reversal.

Strings are plain ``str`` objects over "0"/"1"; the usual 1-based position i
corresponds to index i-1 here.  This module holds the validity predicates for
Fibonacci/Lucas strings, ordered enumeration, the period/root decomposition,
orbit sizes under rotation+reversal, and the constructive witnesses for
prescribed orbit sizes.
"""

from __future__ import annotations

from typing import NamedTuple

from .formulas import divisors

FIBONACCI = "fibonacci"
LUCAS = "lucas"


def is_fibonacci(u: str) -> bool:
    """True iff u contains no two adjacent 1s."""
    return "11" not in u


def is_lucas(u: str) -> bool:
    """True iff u contains no two cyclically adjacent 1s.

    Equivalently: fibonacci-valid and not both starting and ending with 1.
    The length-1 string "1" starts and ends with 1, so it is not valid.
    """
    return "11" not in u and not (u != "" and u[0] == "1" and u[-1] == "1")


def enumerate_strings(n: int, kind: str) -> list[str]:
    """All valid strings of length n in ascending lexicographic order."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    if kind not in (FIBONACCI, LUCAS):
        raise ValueError(f"unknown string kind {kind!r}")
    if n == 0:
        return [""]
    # length k: "0" before each string of length k-1, then "10" before each of length k-2
    shorter, out = [""], ["0", "1"]
    for _ in range(n - 1):
        shorter, out = out, ["0" + u for u in out] + ["10" + u for u in shorter]
    if kind == LUCAS:
        out = [u for u in out if u[0] == "0" or u[-1] == "0"]
    return out


def period(u: str) -> int:
    """Smallest k > 0 such that rotating u by k fixes it; divides len(u)."""
    n = len(u)
    if n == 0:
        raise ValueError("the empty string has no period")
    # rotating by d fixes u iff u occurs at offset d of u + u, compared in place
    doubled = u + u
    for d in divisors(n):
        if doubled.startswith(u, d):
            return d
    raise AssertionError("unreachable: every string is fixed by a full rotation")


class PeriodDecomposition(NamedTuple):
    period: int
    exponent: int
    root: str
    symmetric: bool  # the root's reversal is one of its rotations


def decompose(u: str) -> PeriodDecomposition:
    """Period, exponent, primitive root, and the root's symmetry class.

    period * exponent == len(u) and root * exponent == u always hold.
    """
    n = len(u)
    if n == 0:
        raise ValueError("cannot decompose the empty string")
    p = period(u)
    root = u[:p]
    return PeriodDecomposition(p, n // p, root, root[::-1] in root + root)


def orbit_size(u: str) -> int:
    """Size of the orbit of u under all rotations and reversals; divides 2*len(u).

    It is period(u) when the primitive root is symmetric and 2*period(u) otherwise.
    """
    d = decompose(u)
    return d.period if d.symmetric else 2 * d.period


def asymmetric_witness(n: int) -> str:
    """A Lucas-valid primitive string of length n whose orbit has full size 2n.

    No such string exists below length 9, so those lengths are rejected.
    """
    if n < 9:
        raise ValueError(f"no asymmetric Lucas string exists for length {n} < 9")
    return "101001" + "0" * (n - 6)


def vertex_orbit_witness(n: int, k: int) -> str:
    """A Lucas-valid string of length n >= 3 whose orbit size is exactly k.

    Sizes k dividing n come from powers of a primitive symmetric block;
    the remaining realizable sizes are even k >= 18 dividing 2n, built from
    an asymmetric block of length k/2.
    """
    if n < 3:
        raise ValueError(f"witness construction requires n >= 3, got {n}")
    if k < 1:
        raise ValueError(f"orbit size must be positive, got {k}")
    if n % k == 0:
        if k == 1:
            return "0" * n
        return ("1" + "0" * (k - 1)) * (n // k)
    if k >= 18 and (2 * n) % k == 0:
        return asymmetric_witness(k // 2) * (2 * n // k)
    raise ValueError(f"no vertex orbit of size {k} exists for length {n}")
