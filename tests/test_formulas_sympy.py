"""Closed-form building blocks against sympy's independent implementations."""

import sympy

from cube_orbits.formulas import divisors, euler_phi, fib, lucas, lucas_string_classes, mobius

LARGE = (2**40, 999999999989, 10**12)  # a power of two, a prime, a smooth composite


def test_fib_and_lucas_match_sympy():
    for n in range(1001):
        assert fib(n) == sympy.fibonacci(n), n
        assert lucas(n) == sympy.lucas(n), n


def test_fib_and_lucas_match_sympy_at_large_n():
    for n in (10**5 + 1, 2**17 - 1, 2**17, 2**17 + 1):
        assert fib(n) == sympy.fibonacci(n), n
        assert lucas(n) == sympy.lucas(n), n


def test_divisor_functions_match_sympy():
    for n in [*range(1, 5001), *LARGE]:
        assert divisors(n) == sympy.divisors(n), n
        assert mobius(n) == sympy.mobius(n), n
        assert euler_phi(n) == sympy.totient(n), n


def test_lucas_string_classes_match_mobius_sums():
    for n in range(1, 401):
        quotients = [(d, sympy.mobius(n // d)) for d in sympy.divisors(n)]
        primitive = sum(mu * sympy.lucas(d) for d, mu in quotients)
        symmetric = n * sum(mu * sympy.fibonacci(d // 2 + 2) for d, mu in quotients)
        assert lucas_string_classes(n) == (primitive, symmetric, primitive - symmetric), n
