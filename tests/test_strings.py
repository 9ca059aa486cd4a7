"""String machinery: validity, enumeration, dihedral action, periods, orbits."""

import random

import pytest

from cube_orbits import formulas
from cube_orbits.strings import (
    FIBONACCI,
    LUCAS,
    asymmetric_witness,
    decompose,
    enumerate_strings,
    is_fibonacci,
    is_lucas,
    orbit_size,
    period,
    vertex_orbit_witness,
)
from dihedral import Dihedral, all_binary, apply, dihedral_orbit, rotate


# Independent reference for the dihedral action: the 1-based index formulas,
# with "a mod n" taken in {1, ..., n}.
def naive_apply(shift, reflected, u):
    n = len(u)

    def mod1(a):
        return (a - 1) % n + 1

    if reflected:
        return "".join(u[mod1(1 - i + shift) - 1] for i in range(1, n + 1))
    return "".join(u[mod1(i - shift) - 1] for i in range(1, n + 1))


def test_is_fibonacci():
    assert is_fibonacci("0101")
    assert not is_fibonacci("0110")
    assert is_fibonacci("")


def test_is_lucas():
    assert not is_lucas("1001")
    assert is_lucas("1010")
    assert not is_lucas("1")
    assert is_lucas("")


def test_enumerate_small():
    assert enumerate_strings(3, FIBONACCI) == ["000", "001", "010", "100", "101"]
    assert enumerate_strings(3, LUCAS) == ["000", "001", "010", "100"]
    assert enumerate_strings(0, FIBONACCI) == [""]
    assert enumerate_strings(0, LUCAS) == [""]
    assert enumerate_strings(1, LUCAS) == ["0"]


@pytest.mark.parametrize("n", range(0, 13))
def test_enumerate_counts_and_order(n):
    fib_strings = enumerate_strings(n, FIBONACCI)
    lucas_strings = enumerate_strings(n, LUCAS)
    assert len(fib_strings) == formulas.fib(n + 2)
    assert len(lucas_strings) == (formulas.lucas(n) if n >= 1 else 1)
    assert fib_strings == sorted(fib_strings)
    assert lucas_strings == sorted(lucas_strings)
    assert fib_strings == [u for u in all_binary(n) if is_fibonacci(u)]
    assert lucas_strings == [u for u in all_binary(n) if is_lucas(u)]


def test_enumerate_rejects():
    with pytest.raises(ValueError):
        enumerate_strings(-1, FIBONACCI)
    with pytest.raises(ValueError):
        enumerate_strings(3, "binary")


def test_apply_examples():
    assert apply(Dihedral(1), "0101") == "1010"
    assert apply(Dihedral(0, True), "001") == "100"
    # rotate the reversal 00101 right by two
    assert apply(Dihedral(2, True), "10100") == "01001"


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_matches_index_formulas(n):
    for u in all_binary(n):
        for g in Dihedral.full_group(n):
            assert apply(g, u) == naive_apply(g.shift, g.reflected, u)


def test_apply_rejects_bad_input():
    with pytest.raises(ValueError):
        apply(Dihedral(0), "")
    with pytest.raises(ValueError):
        apply(Dihedral(3), "010")
    with pytest.raises(ValueError):
        apply(Dihedral(-1, False), "010")


def test_apply_preserves_length_weight_lucas_validity():
    for n in range(1, 9):
        for u in enumerate_strings(n, LUCAS):
            for g in Dihedral.full_group(n):
                v = apply(g, u)
                assert len(v) == n
                assert v.count("1") == u.count("1")
                assert is_lucas(v)


def test_group_laws():
    # rotation has order n, reversal has order 2, and they braid as
    # rotation o reversal == reversal o rotation^(-1)
    for n in range(1, 9):
        alpha = Dihedral(1 % n)
        alpha_inv = Dihedral((n - 1) % n)
        beta = Dihedral(0, True)
        for u in all_binary(n):
            v = u
            for _ in range(n):
                v = apply(alpha, v)
            assert v == u
            assert apply(beta, apply(beta, u)) == u
            assert apply(alpha, apply(beta, u)) == apply(beta, apply(alpha_inv, u))


def test_rotation_and_reversal_commute_with_powers():
    for n in range(1, 7):
        for u in all_binary(n):
            for k in range(1, 4):
                for j in range(0, n + 1):
                    assert rotate(u * k, j) == rotate(u, j) * k
                assert (u * k)[::-1] == (u[::-1]) * k


def test_decompose_examples():
    assert decompose("0101") == (2, 2, "01", True)
    assert decompose("0011") == (4, 1, "0011", True)
    assert decompose("0000") == (1, 4, "0", True)
    with pytest.raises(ValueError):
        decompose("")
    with pytest.raises(ValueError, match="^the empty string has no period$"):
        period("")


@pytest.mark.parametrize("n", range(1, 11))
def test_decompose_invariants(n):
    for u in all_binary(n):
        d = decompose(u)
        assert d.period * d.exponent == n
        assert n % d.period == 0
        assert d.root * d.exponent == u
        assert decompose(d.root).exponent == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_period_counts_distinct_rotations(n):
    for u in all_binary(n):
        assert period(u) == len({rotate(u, j) for j in range(n)})


def test_period_of_powers():
    for n in range(1, 7):
        for u in all_binary(n):
            for k in range(1, 5):
                assert period(u * k) == period(u)


def test_is_symmetric_examples():
    assert decompose("001100").symmetric
    assert not decompose("010011").symmetric
    assert decompose("000000").symmetric
    with pytest.raises(ValueError):
        decompose("")


def test_orbit_size_examples():
    assert orbit_size("000000") == 1
    assert orbit_size("010011") == 12
    assert orbit_size("101010") == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_size_equals_orbit_cardinality(n):
    for u in all_binary(n):
        assert orbit_size(u) == len(dihedral_orbit(u))
        assert (2 * n) % orbit_size(u) == 0


def random_lucas(rng, n):
    """A random Lucas string of length n: a 1 only after a 0, and a last 1 turned to 0 after a first 1."""
    u = []
    for _ in range(n):
        u.append("1" if u[-1:] != ["1"] and rng.random() < 0.4 else "0")
    if u[0] == u[-1] == "1":
        u[-1] = "0"
    return "".join(u)


def test_decompose_random_lucas_strings():
    # the exhaustive tests stop at length 10; random strings up to 64, with powers of random roots so that
    # non-primitive strings occur, reach roots of every length, the asymmetric ones of 23 and 46 among them
    rng = random.Random(2026)
    for n in range(1, 65):
        samples = [random_lucas(rng, n) for _ in range(12)]
        samples += [random_lucas(rng, d) * (n // d) for d in range(1, n) if n % d == 0 for _ in range(2)]
        for u in samples:
            assert is_lucas(u), u
            d = decompose(u)
            assert d.root * d.exponent == u and d.period * d.exponent == n, u
            assert d.period == min(p for p in range(1, n + 1) if u[p:] + u[:p] == u), u
            # a primitive root's orbit has one member per rotation when its reversal is one of them, else two
            assert d.symmetric == (len(dihedral_orbit(d.root)) == d.period), u
            assert orbit_size(u) == len(dihedral_orbit(u)), u


def test_dihedral_orbit_examples():
    assert dihedral_orbit("000") == {"000"}
    assert dihedral_orbit("100") == {"100", "010", "001"}
    assert dihedral_orbit("0011") == {"0011", "1001", "1100", "0110"}
    with pytest.raises(ValueError):
        dihedral_orbit("")


def test_orbit_closed_under_the_action():
    for n in range(1, 7):
        for u in all_binary(n):
            orbit = dihedral_orbit(u)
            for v in orbit:
                assert dihedral_orbit(v) == orbit


@pytest.mark.parametrize("n", range(1, 13))
def test_asymmetric_strings_are_primitive(n):
    for u in all_binary(n):
        if orbit_size(u) == 2 * n:
            assert decompose(u).exponent == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_primitive_symmetric_iff_some_reflection_fixes(n):
    for u in all_binary(n):
        d = decompose(u)
        fixed = any(apply(Dihedral(j, True), u) == u for j in range(n))
        assert (d.exponent == 1 and d.symmetric) == (d.exponent == 1 and fixed)


@pytest.mark.parametrize("n", range(1, 9))
def test_reflection_fixes_iff_palindrome_pair(n):
    for u in all_binary(n):
        for j in range(n):
            fixed = apply(Dihedral(j, True), u) == u
            x, y = u[:j], u[j:]
            assert fixed == (x == x[::-1] and y == y[::-1])


@pytest.mark.parametrize("n", range(1, 9))
def test_primitive_strings_have_at_most_one_fixing_reflection(n):
    for u in all_binary(n):
        if decompose(u).exponent == 1:
            fixing = [j for j in range(n) if apply(Dihedral(j, True), u) == u]
            assert len(fixing) <= 1


def test_asymmetric_witness():
    assert asymmetric_witness(9) == "101001000"
    assert asymmetric_witness(10) == "1010010000"
    with pytest.raises(ValueError):
        asymmetric_witness(8)
    for n in range(9, 17):
        w = asymmetric_witness(n)
        assert is_lucas(w)
        assert decompose(w).exponent == 1
        assert orbit_size(w) == 2 * n


def test_vertex_orbit_witness_examples():
    assert vertex_orbit_witness(6, 3) == "100100"
    assert orbit_size(vertex_orbit_witness(6, 3)) == 3
    assert vertex_orbit_witness(9, 18) == "101001000"
    with pytest.raises(ValueError):
        vertex_orbit_witness(9, 2)
    with pytest.raises(ValueError):
        vertex_orbit_witness(2, 1)
    with pytest.raises(ValueError):
        vertex_orbit_witness(6, 0)


def test_vertex_orbit_witness_covers_the_size_set():
    for n in range(3, 13):
        for k in sorted(formulas.lambda_vertex_orbit_size_set(n)):
            w = vertex_orbit_witness(n, k)
            assert len(w) == n
            assert is_lucas(w)
            assert orbit_size(w) == k
        for k in range(1, 2 * n + 1):
            if k not in formulas.lambda_vertex_orbit_size_set(n):
                with pytest.raises(ValueError):
                    vertex_orbit_witness(n, k)
