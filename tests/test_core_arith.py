"""Unit and property tests for the exact-arithmetic primitives."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import falling_factorial, min_phi, min_residue, mod_inverse
from twistnp.core_arith import (
    INFINITY,
    PSI_13,
    artin_hasse_coeffs,
    bareiss_det,
    berkowitz,
    charpoly_mod,
    decompose,
    factorial_inv_or_zero,
    is_prime,
    mod_dot,
    multiplicative_order,
    power_sums,
    prime_factors,
)


def test_min_residue_examples():
    assert min_residue(0, 5) == 0
    assert min_residue(-2, 3) == 1
    assert min_residue(22, 3) == 1


def test_min_residue_rejects_zero_modulus():
    with pytest.raises(ValueError):
        min_residue(3, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 500), st.integers(-50, 50))
def test_min_residue_shift_invariance(x, d, k):
    assert min_residue(x + k * d, d) == min_residue(x, d)
    r = min_residue(x, d)
    assert 0 <= r < d and (x - r) % d == 0


def test_mod_inverse_examples():
    assert mod_inverse(2, 3) == 2
    assert mod_inverse(3, 7) == 5
    for d in range(2, 40):
        assert mod_inverse(1, d) == 1
    assert mod_inverse(5, 1) == 0


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(ValueError):
        mod_inverse(6, 9)


def test_falling_factorial_examples():
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(Fraction(-3), 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(Fraction(-1, 2), 2) == Fraction(3, 4)


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.integers(0, 8),
    st.integers(0, 8),
)
def test_falling_factorial_functional_equation(x, m, n):
    lhs = falling_factorial(x, m + n)
    rhs = falling_factorial(x, m) * falling_factorial(x - m, n)
    assert lhs == rhs


def test_factorial_inv_or_zero():
    assert factorial_inv_or_zero(0) == 1
    assert factorial_inv_or_zero(3) == Fraction(1, 6)
    assert factorial_inv_or_zero(-2) == 0
    assert factorial_inv_or_zero(-1) == 0


def _artin_hasse_oracle(p: int, n_max: int) -> list[Fraction]:
    """Symbolic expansion of exp(sum X^{p^i}/p^i) through sympy."""
    x = sympy.symbols("x")
    arg = sum(x ** (p**i) / sympy.Integer(p**i)
              for i in range(0, n_max.bit_length() + 1) if p**i <= n_max)
    series = sympy.series(sympy.exp(arg), x, 0, n_max + 1).removeO()
    poly = sympy.Poly(series, x)
    return [Fraction(str(poly.coeff_monomial(x**n))) for n in range(n_max + 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_artin_hasse_matches_symbolic_oracle(p):
    got = artin_hasse_coeffs(p, 12)
    expected = _artin_hasse_oracle(p, 12)
    assert got == expected


def test_artin_hasse_low_terms():
    for p in [2, 3, 5, 7, 11]:
        lam = artin_hasse_coeffs(p, p + 2)
        assert lam[0] == 1
        for n in range(p):
            assert lam[n] == Fraction(1, math.factorial(n))
    # frozen from the symbolic oracle: exp(X + X^2/2 + ...) has X^2 coeff 1
    assert artin_hasse_coeffs(2, 2)[2] == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_artin_hasse_p_integrality(p):
    for lam in artin_hasse_coeffs(p, 60):
        assert lam.denominator % p != 0


@pytest.mark.parametrize("d,e", [(3, 2), (3, 1), (5, 2), (7, 4), (12, 5)])
def test_min_phi_against_enumeration(d, e):
    for n in range(0, 20 * d + 1):
        candidates = [x + y
                      for x in range(n // d + 1)
                      for y in range(n // e + 1)
                      if d * x + e * y == n]
        expected = min(candidates) if candidates else INFINITY
        got = min_phi(n, d, e)
        assert got == expected
        x, y = decompose(n, d, e)
        assert d * x + e * y == n and 0 <= y < d
        if candidates:
            assert got == Fraction(n + (d - e) * min_residue(mod_inverse(e, d) * n, d), d)
            assert x >= 0 and x + y == got
        else:
            assert x < 0


def test_min_phi_small_cases():
    assert min_phi(0, 3, 2) == 0
    assert min_phi(3, 3, 2) == 1
    assert min_phi(7, 3, 2) == 3
    assert min_phi(1, 3, 2) is INFINITY
    assert min_phi(-4, 3, 2) is INFINITY


# psi_1..psi_12 (OEIS A014233): psi_k is the least odd composite that is a
# strong probable prime to each of the first k prime bases
_PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461]


def _strong_probable_prime(n: int, base: int) -> bool:
    s, odd = 0, n - 1
    while odd % 2 == 0:
        s, odd = s + 1, odd // 2
    x = pow(base, odd, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_matches_sympy_on_a_range():
    assert [n for n in range(200_000) if is_prime(n)] == list(sympy.primerange(200_000))


def test_is_prime_matches_sympy_on_random_integers():
    rng = random.Random(20171)
    for n in (rng.randrange(10**12) for _ in range(3000)):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_the_strong_pseudoprimes():
    for n in _PSI:
        assert not sympy.isprime(n)
        assert not is_prime(n), n
    # only the thirteenth base, 41, exposes psi_12
    first_12 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert all(_strong_probable_prime(_PSI[11], b) for b in first_12)
    assert not _strong_probable_prime(_PSI[11], 41)


def test_is_prime_refuses_from_psi_13_on():
    assert not sympy.isprime(PSI_13)
    assert is_prime(PSI_13 - 2) == sympy.isprime(PSI_13 - 2)
    for n in (PSI_13, 2**127 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_prime_factors_matches_sympy():
    rng = random.Random(7)
    cases = list(range(1, 2000)) + [rng.randrange(1, 10**10) for _ in range(200)]
    cases += [11**6 - 1, 2**32 - 1, 97 * 97 * 101]
    for n in cases:
        assert prime_factors(n) == sympy.primefactors(n), n
    with pytest.raises(ValueError):
        prime_factors(0)


def test_multiplicative_order_matches_sympy():
    for c in range(2, 120):
        for x in range(-3, 3 * c):
            if math.gcd(x, c) == 1:
                assert multiplicative_order(x, c) == sympy.n_order(x % c, c)
            else:
                with pytest.raises(ValueError):
                    multiplicative_order(x, c)
    assert multiplicative_order(1009, 1) == multiplicative_order(0, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 0)


@pytest.mark.parametrize("n", range(8))
def test_bareiss_det_matches_sympy(n):
    rng = random.Random(1000 + n)
    for _ in range(40):
        rows = [[rng.randrange(-10**30, 10**30) if rng.random() < 0.4 else 0
                 for _ in range(n)] for _ in range(n)]
        assert bareiss_det(rows) == sympy.Matrix(n, n, sum(rows, [])).det(method="bareiss")


@pytest.mark.parametrize("n, mod", [(0, 7), (1, 5**3), (2, 2), (3, 3**4), (4, 2**10),
                                    (5, 11**9), (6, 7**6)])
def test_charpoly_mod_satisfies_cayley_hamilton(n, mod):
    rng = random.Random(2000 + n)
    for _ in range(10):
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        coeffs = charpoly_mod(rows, mod)
        assert len(coeffs) == n + 1 and coeffs[0] == 1 % mod
        # sum_i c_i A^(n-i) vanishes mod ``mod``
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        acc = [[0] * n for _ in range(n)]
        for c in reversed(coeffs):
            acc = [[x + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
            power = [[sum(rp[t] * rows[t][j] for t in range(n)) for j in range(n)]
                     for rp in power]
        assert all(x % mod == 0 for row in acc for x in row)
        if n:
            want = sympy.Matrix(rows).charpoly().all_coeffs()  # det(x - A), leading 1
            assert coeffs == [int(x) % mod for x in want]


@pytest.mark.parametrize("n, mod", [(1, 5**3), (3, 3**4), (5, 11**9), (6, 7**6)])
def test_berkowitz_truncates_and_power_sums_are_traces(n, mod):
    # truncated at s^n_max, det(1 - A s) is the prefix of the full one,
    # zero past degree n; its power sums are the traces of A^k
    rng = random.Random(3000 + n)
    rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
    full = charpoly_mod(rows, mod) + [0, 0]
    for n_max in range(n + 3):
        got = berkowitz(rows, n_max, mod_dot(mod), 1, 0)
        assert [c % mod for c in got] == full[:n_max + 1]
    traces = power_sums(full, mod_dot(mod))
    power = rows
    for k in range(1, n + 3):
        assert traces[k] % mod == sum(power[i][i] for i in range(n)) % mod
        power = [[sum(rp[t] * rows[t][j] for t in range(n)) for j in range(n)]
                 for rp in power]
