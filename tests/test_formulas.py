"""Closed-form counts: published values, identities, and exactness."""

import math
import random
from collections import Counter

import pytest

from cube_orbits import formulas
from cube_orbits.formulas import (
    GAMMA,
    LAMBDA,
    divisors,
    fib,
    fib_palindrome_fix,
    gamma_edge_orbits,
    gamma_vertex_orbits,
    graph_counts,
    lambda_edge_orbits,
    lambda_vertex_orbit_count,
    lambda_vertex_orbit_histogram,
    lambda_vertex_orbit_size_set,
    lambda_vertex_orbit_total,
    lucas,
    lucas_string_classes,
    necklace_count,
)
from cube_orbits.strings import FIBONACCI, enumerate_strings


def test_fib_values():
    assert [fib(n) for n in range(-1, 11)] == [1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fib(-2)


def test_lucas_values():
    assert [lucas(n) for n in range(0, 10)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76]
    with pytest.raises(ValueError):
        lucas(-1)


def test_fast_doubling_matches_the_recurrence_loop():
    # each term against a running loop over the sequence, for both seed pairs;
    # lucas is undefined at -1, where the sequence 2, 1, ... has term -1
    for (first, second), closed_form, window in (((0, 1), fib, formulas._fibs), ((2, 1), lucas, formulas._lucases)):
        # from empty, after two terms the window only adds held terms, so fast doubling is also called at every n
        window.clear()
        previous, term = second - first, first  # terms -1 and 0
        assert formulas._fast_doubling(first, second, -1) == previous
        if closed_form is fib:
            assert fib(-1) == previous
        for n in range(0, 5001):
            assert closed_form(n) == term, (first, second, n)
            assert formulas._fast_doubling(first, second, n) == term, (first, second, n)
            previous, term = term, previous + term


def test_fast_doubling_at_powers_of_two():
    # [[1, 1], [1, 0]]^m = [[F(m+1), F(m)], [F(m), F(m-1)]]: squaring it k times gives
    # F(n) at n = 2^k - 1, 2^k and 2^k + 1, where n - 1 is 1...10, 1...1 and 10...0 in
    # binary, the extremes of the bit walk in fast doubling
    a, b, d = 1, 1, 0  # the symmetric matrix [[a, b], [b, d]], m = 1
    for k in range(1, 21):
        a, b, d = a * a + b * b, b * (a + d), b * b + d * d
        m = 2**k
        assert (fib(m - 1), fib(m), fib(m + 1)) == (d, b, a), k
        # L(j) = F(j - 1) + F(j + 1)
        assert (lucas(m - 1), lucas(m), lucas(m + 1)) == (2 * b - d, d + a, 2 * b + a), k
        # fib and lucas may take F(m + 1) as a sum of held terms; fast doubling takes each from the bits
        assert tuple(formulas._fast_doubling(0, 1, j) for j in (m - 1, m, m + 1)) == (d, b, a), k
        assert tuple(formulas._fast_doubling(2, 1, j) for j in (m - 1, m, m + 1)) == (2 * b - d, d + a, 2 * b + a), k


def test_term_memo_matches_the_recurrence_loop_in_any_order(monkeypatch):
    # each window adds two held terms or falls back to fast doubling; asked in any order, with jumps, repeats,
    # descending runs, both sequences interleaved and more terms than they hold, fib and lucas answer as the loop
    # does, and call fast doubling exactly for the terms their window neither holds nor can add
    top = 1200
    sequences = {fib: (formulas._fibs, 0, 1), lucas: (formulas._lucases, 2, 1)}
    loops = {}
    for closed_form, (_, first, second) in sequences.items():
        column = [second - first, first]  # term n at index n + 1
        while len(column) <= top + 1:
            column.append(column[-2] + column[-1])
        loops[closed_form] = column
    lowest = {fib: -1, lucas: 0}  # lucas is undefined at -1
    rng = random.Random(24)
    queries = [(each, n) for n in (-1, 0, 1) for each in sequences if n >= lowest[each]]
    while len(queries) < 4000:
        each = rng.choice(list(sequences))
        start = rng.randrange(lowest[each], top + 1)
        up = range(start, min(start + rng.randrange(2, 40), top + 1))
        shape = rng.randrange(5)
        if shape == 0:  # ascending run
            queries += [(each, n) for n in up]
        elif shape == 1:  # ascending run, both sequences in turn
            queries += [(other, n) for n in up for other in sequences if n >= lowest[other]]
        elif shape == 2:  # descending run
            queries += [(each, n) for n in range(start, max(start - rng.randrange(2, 40), lowest[each] - 1), -1)]
        elif shape == 3:  # repeats
            queries += [(each, start)] * rng.randrange(2, 5)
        else:  # jump
            queries.append((each, start))
    assert len(set(queries)) > 256
    calls = []
    fast_doubling = formulas._fast_doubling

    def counting(*args):
        calls.append(args)
        return fast_doubling(*args)

    monkeypatch.setattr(formulas, "_fast_doubling", counting)
    for window, _, _ in sequences.values():
        window.clear()
    added = 0
    for each, n in queries:
        window = sequences[each][0]
        held = n in window
        adds = not held and n - 2 in window and n - 1 in window
        doubled = len(calls) + (not held and not adds)
        assert each(n) == loops[each][n + 1], (each.__name__, n)
        assert len(calls) == doubled, (each.__name__, n)
        assert len(formulas._fibs) + len(formulas._lucases) <= 256
        added += adds
    assert added > len(calls) > 0


def test_fib_and_lucas_answer_from_their_windows(monkeypatch):
    # a held term is the answer as held, with no sum and no fast doubling: a value planted in a window is returned
    def fail(*args):
        raise AssertionError(f"fast doubling called for {args}")

    monkeypatch.setattr(formulas, "_fast_doubling", fail)
    monkeypatch.setitem(formulas._fibs, 10**6, -1)
    monkeypatch.setitem(formulas._lucases, 10**6, -2)
    monkeypatch.setitem(formulas._fibs, 10**6 + 1, -3)
    monkeypatch.setitem(formulas._lucases, 10**6 + 1, -4)
    assert (fib(10**6), lucas(10**6), fib(10**6 + 1), lucas(10**6 + 1)) == (-1, -2, -3, -4)


def test_number_theory_helpers():
    assert divisors(18) == [1, 2, 3, 6, 9, 18]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_returns_a_fresh_list():
    # the divisors come from a cache; a caller that changes its list must not change the next answer
    divisors(12).append(24)
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_graph_counts():
    assert graph_counts(5, GAMMA) == (13, 20)
    assert graph_counts(9, LAMBDA) == (76, 189)
    assert graph_counts(0, LAMBDA) == (1, 0)
    assert graph_counts(0, GAMMA) == (1, 0)
    with pytest.raises(ValueError):
        graph_counts(-1, GAMMA)
    with pytest.raises(ValueError):
        graph_counts(3, "qube")


def test_fib_palindrome_fix_counts_palindromes_by_first_letter():
    for n in range(1, 21):
        palindromes = [u for u in enumerate_strings(n, FIBONACCI) if u == u[::-1]]
        first = Counter(u[0] for u in palindromes)
        assert fib_palindrome_fix(n) == (len(palindromes), first["0"], first["1"]), n
    with pytest.raises(ValueError):
        fib_palindrome_fix(0)


def test_gamma_vertex_orbits_examples():
    assert gamma_vertex_orbits(5) == (9, {1: 5, 2: 4})
    assert gamma_vertex_orbits(15) == (826, {1: 55, 2: 771})
    assert gamma_vertex_orbits(2) == (2, {1: 1, 2: 1})
    # the automorphism of the 1-cube swaps its two vertices
    assert gamma_vertex_orbits(1) == (1, {1: 0, 2: 1})
    with pytest.raises(ValueError):
        gamma_vertex_orbits(0)


def test_gamma_edge_orbits_examples():
    assert gamma_edge_orbits(5) == (11, {1: 2, 2: 9})
    assert gamma_edge_orbits(14) == (1985, {1: 0, 2: 1985})
    assert gamma_edge_orbits(0).total == 0
    with pytest.raises(ValueError):
        gamma_edge_orbits(-1)


def test_gamma_histogram_sums():
    for n in range(2, 65):
        total, hist = gamma_vertex_orbits(n)
        assert sorted(hist) == [1, 2]
        assert hist[1] + 2 * hist[2] == fib(n + 2)
        assert hist[1] + hist[2] == total
    for n in range(0, 65):
        total, hist = gamma_edge_orbits(n)
        assert hist[1] + 2 * hist[2] == graph_counts(n, GAMMA).edges
        assert hist[1] + hist[2] == total


def test_lambda_vertex_orbit_total_examples():
    assert lambda_vertex_orbit_total(5) == 3
    assert lambda_vertex_orbit_total(12) == 26
    assert lambda_vertex_orbit_total(18) == 209
    with pytest.raises(ValueError):
        lambda_vertex_orbit_total(0)


def test_lambda_vertex_orbit_total_reflective_binomial_sum():
    # the reflective term was once this binomial sum; it equals F(floor(n/2) + 2)
    for n in range(1, 401):
        half = n // 2
        reflective = sum(math.comb(half - (a + 1) // 2, a // 2) for a in range(half + 1))
        assert reflective == fib(half + 2), n
        assert lambda_vertex_orbit_total(n) == (necklace_count(n) + reflective) // 2, n


def test_necklace_count_examples():
    assert necklace_count(1) == 1
    assert necklace_count(2) == 2
    assert necklace_count(5) == 3
    with pytest.raises(ValueError):
        necklace_count(0)


def test_necklace_count_is_the_totient_sum():
    # sum of phi(n / d) L(d) over the divisors d of n, over n (Burnside over the n rotations), with phi counted
    # by gcd, apart from the factorization from which necklace_count makes each divisor with its totient
    phi = [0] + [sum(math.gcd(j, m) == 1 for j in range(1, m + 1)) for m in range(1, 601)]
    assert (phi[1], phi[12], phi[16], phi[600]) == (1, 4, 8, 160)
    for n in range(1, 601):
        total = sum(phi[n // d] * lucas(d) for d in range(1, n + 1) if n % d == 0)
        assert total % n == 0 and necklace_count(n) == total // n, n


def test_lucas_string_classes_examples():
    assert lucas_string_classes(9) == (72, 54, 18)
    assert lucas_string_classes(12) == (300, 180, 120)
    assert lucas_string_classes(8) == (40, 40, 0)
    with pytest.raises(ValueError):
        lucas_string_classes(0)


def test_lucas_string_classes_follow_the_sequences_they_read(monkeypatch):
    # the class counts are cached, keyed on n and on the lucas and fib read at call time, so a count made
    # before either is patched is never served after it
    quotients = {12: 1, 6: -1, 4: -1, 2: 1}  # d: mu(12 / d), for each d with 12 / d squarefree

    def mobius_sums(lucas_of, fib_of):
        primitive = sum(mu * lucas_of(d) for d, mu in quotients.items())
        symmetric = 12 * sum(mu * fib_of(d // 2 + 2) for d, mu in quotients.items())
        return (primitive, symmetric, primitive - symmetric)

    def shifted(f):
        return lambda d: f(d + 1)

    assert lucas_string_classes(12) == lucas_string_classes(12) == mobius_sums(lucas, fib) == (300, 180, 120)
    monkeypatch.setattr(formulas, "lucas", shifted(lucas))
    assert lucas_string_classes(12) == mobius_sums(shifted(lucas), fib) == (485, 180, 305)
    monkeypatch.setattr(formulas, "lucas", lucas)
    monkeypatch.setattr(formulas, "fib", shifted(fib))
    assert lucas_string_classes(12) == mobius_sums(lucas, shifted(fib)) == (300, 288, 12)
    monkeypatch.undo()
    assert lucas_string_classes(12) == (300, 180, 120)


def test_lucas_string_classes_identities():
    for n in range(1, 65):
        classes = lucas_string_classes(n)
        assert classes.primitive == classes.primitive_symmetric + classes.asymmetric
        assert (classes.asymmetric == 0) == (n <= 8)
        total = sum(lucas_string_classes(d).primitive for d in divisors(n))
        assert total == lucas(n)


def test_lambda_vertex_orbit_size_set_examples():
    assert lambda_vertex_orbit_size_set(9) == {1, 3, 9, 18}
    assert lambda_vertex_orbit_size_set(6) == {1, 2, 3, 6}
    assert lambda_vertex_orbit_size_set(12) == {1, 2, 3, 4, 6, 12, 24}
    with pytest.raises(ValueError, match=r"^lambda_vertex_orbit_size_set requires n >= 1, got 0$"):
        lambda_vertex_orbit_size_set(0)


def test_lambda_vertex_orbit_count_examples():
    assert lambda_vertex_orbit_count(9, 9) == 6
    assert lambda_vertex_orbit_count(9, 18) == 1
    assert lambda_vertex_orbit_count(9, 6) == 0
    assert lambda_vertex_orbit_count(9, 7) == 0  # 7 does not divide 18
    with pytest.raises(ValueError):
        lambda_vertex_orbit_count(0, 1)
    with pytest.raises(ValueError):
        lambda_vertex_orbit_count(9, 0)


def test_lambda_vertex_histograms():
    for n in range(1, 65):
        hist = lambda_vertex_orbit_histogram(n)
        assert {k for k, c in hist.items() if c > 0} == lambda_vertex_orbit_size_set(n)
        assert sum(k * c for k, c in hist.items()) == lucas(n)
        assert sum(hist.values()) == lambda_vertex_orbit_total(n)


def test_lambda_edge_orbits_examples():
    assert lambda_edge_orbits(9) == (12, {9: 3, 18: 9})
    assert lambda_edge_orbits(4) == (2, {4: 2, 8: 0})
    assert lambda_edge_orbits(16) == (322, {16: 34, 32: 288})
    with pytest.raises(ValueError):
        lambda_edge_orbits(0)


def test_lambda_edge_orbit_identities():
    for n in range(1, 65):
        total, hist = lambda_edge_orbits(n)
        assert sum(k * c for k, c in hist.items()) == n * fib(n - 1)
        assert sum(hist.values()) == total
        assert (hist[2 * n] == 0) == (n <= 4)
    for n in range(5, 65):
        assert lambda_edge_orbits(n).total == gamma_vertex_orbits(n - 3).total


def test_binomial_sum_identities():
    # the three Fibonacci/Lucas summation identities, exact over a wide range
    for n in range(-1, 101):
        assert fib(n + 1) == sum(math.comb(n - k, k) for k in range(0, n // 2 + 1))
    for n in range(1, 101):
        total = 0
        for k in range(0, n // 2 + 1):
            term = n * math.comb(n - k, k)
            assert term % (n - k) == 0
            total += term // (n - k)
        assert total == lucas(n)
    for n in range(0, 101):
        assert sum(fib(i) * lucas(n - i) for i in range(n + 1)) == (n + 1) * fib(n)
    for n in range(1, 101):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_counts_exceed_machine_words():
    # 64-bit overflow territory stays exact
    assert fib(93) == 12200160415121876738
    assert graph_counts(93, GAMMA).vertices == fib(95)
    total, hist = gamma_vertex_orbits(120)
    assert hist[1] + 2 * hist[2] == fib(122)
