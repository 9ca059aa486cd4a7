"""The dihedral group on strings, the reference the tests hold the program's bit maps to.

The program acts on the cubes only through the bit maps of ``cube_orbits.oracle``;
these string maps stay in the tests as the independent route those maps are checked
against.  The module is not named ``test_*.py``, so pytest does not collect it, and a
test file imports it by its bare name.
"""

from __future__ import annotations

from typing import NamedTuple


def rotate(u: str, j: int) -> str:
    """Rotate right by j positions: the last j characters move to the front."""
    n = len(u)
    if n == 0:
        raise ValueError("cannot rotate the empty string")
    j %= n
    return u[-j:] + u[:-j] if j else u


class Dihedral(NamedTuple):
    """Element of the dihedral group acting on length-n strings.

    Represents rotation**shift when reflected is False, and
    rotation**shift composed after reversal when reflected is True.
    """

    shift: int
    reflected: bool = False

    @classmethod
    def full_group(cls, n: int) -> list["Dihedral"]:
        """All 2n elements valid for strings of length n; rotations first."""
        if n < 1:
            raise ValueError(f"dihedral group needs n >= 1, got {n}")
        return [cls(j, r) for r in (False, True) for j in range(n)]


def apply(g: Dihedral, u: str) -> str:
    """Image of u under g: reversal first when g is reflected, then rotation."""
    n = len(u)
    if n == 0:
        raise ValueError("dihedral maps are undefined on the empty string")
    if not 0 <= g.shift < n:
        raise ValueError(f"shift {g.shift} out of range for length {n}")
    return rotate(u[::-1] if g.reflected else u, g.shift)


def dihedral_orbit(u: str) -> set[str]:
    """The set of all rotations of u and of its reversal."""
    n = len(u)
    if n == 0:
        raise ValueError("dihedral orbits are undefined for the empty string")
    doubled = u + u
    rev = u[::-1]
    rev_doubled = rev + rev
    return {doubled[i : i + n] for i in range(n)} | {rev_doubled[i : i + n] for i in range(n)}


def all_binary(n: int) -> list[str]:
    """Every binary string of length n, ascending; the one empty string at n = 0."""
    return [format(x, f"0{n}b") if n else "" for x in range(2**n)]
