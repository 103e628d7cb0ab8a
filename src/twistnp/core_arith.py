"""Exact integer and rational building blocks.

Everything here is exact: Python ints, ``fractions.Fraction``, and an
infinity sentinel for a valuation that does not exist.  No floats ever
enter a value that is later asserted on.  The number theory the package
needs (primality, prime factors, multiplicative orders, integer
determinants) is here too, as plain integer code, with the one exponent
check, the one decomposition n = d*x + e*y and the one twist-digit rule.
So are the two recurrences of a characteristic series, written once for
any ring: Berkowitz's det(1 - A s) (``berkowitz``) and the traces
Tr(A^k) by the Newton identities (``power_sums``), run mod n here and in
``padic``, and on T-adic series in ``dwork``.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Sentinel for the valuation of zero.  Only ever compared, never used in
#: arithmetic with exact values.
INFINITY = math.inf


def check_exponents(d: int, e: int) -> None:
    """Refuse the exponents of x^d + lambda x^e unless d > e >= 1, gcd(d, e) = 1."""
    if not (d > e >= 1):
        raise ValueError(f"need d > e >= 1, got d={d}, e={e}")
    if math.gcd(d, e) != 1:
        raise ValueError(f"need gcd(d, e) = 1, got {d}, {e}")


def decompose(n: int, d: int, e: int) -> tuple[int, int]:
    """The (x, y) with d*x + e*y = n and 0 <= y < d, for coprime d and e.

    n lies in dN + eN exactly when x >= 0, and then x + y is the least
    x' + y' over its representations: every other one is
    (x - k*e, y + k*d) with k >= 1, whose sum is larger by k*(d - e).
    """
    y = n * pow(e, -1, d) % d
    return (n - e * y) // d, y


#: Sorenson and Webster, Math. Comp. 86 (2017): Miller-Rabin to the first
#: 13 prime bases decides primality of every n below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < psi_13.

    From psi_13 on no fixed set of bases is proved exact, so this raises
    ``ValueError`` rather than guess.
    """
    if n >= PSI_13:
        raise ValueError(f"primality is decided only below psi_13 = {PSI_13}, got {n}")
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    s, odd = 0, n - 1
    while odd % 2 == 0:
        s, odd = s + 1, odd // 2
    for base in _MR_BASES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(x: int, c: int) -> int:
    """The least b >= 1 with x^b = 1 mod c (1 when c == 1)."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    if math.gcd(x, c) != 1:
        raise ValueError(f"{x} is not invertible modulo {c}")
    b, y = 1, x % c
    while y != 1 % c:
        b, y = b + 1, y * x % c
    return b


def twist_digits(P: int, mu: int, c: int) -> list[tuple[int, int]]:
    """The pairs (t_{k+1}, u_k) for k = 0..b-1, with b the order of P mod c.

    t_k is the least residue of P^-k * mu mod c (0 when c = 1), periodic
    with period b, and u_k = (t_{k+1} * P - t_k) / c, exact because
    t_{k+1} * P = t_k mod c.  For P = p the u_k are the base-p digits of
    (q - 1) * mu / c; for P = pp = p mod c*d each is the p-digit minus
    t_{k+1} * d * (p - pp) / (c*d).
    """
    b = multiplicative_order(P, c)
    inv = pow(P, -1, c)
    t = [pow(inv, k, c) * mu % c for k in range(b + 1)]
    return [(t[k + 1], (t[k + 1] * P - t[k]) // c) for k in range(b)]


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, given as a list of rows.

    Fraction-free elimination (Bareiss, Math. Comp. 22 (1968)): after step
    k every entry is a (k+1)-minor of the input, so each division by the
    previous pivot is exact.  A zero pivot is swapped with a row below it.
    """
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - lead * row_k[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def berkowitz(rows, n_max: int, dot, one, zero) -> list:
    """c_0..c_{n_max} with det(1 - A s) = sum_i c_i s^i, for the square
    matrix A, given as a list of rows, over any commutative ring.

    ``dot(pairs)`` is the ring's sum of x * y over the pairs (x, y).
    Berkowitz's recurrence (Inf. Process. Lett. 18 (1984)): bordering the
    leading r x r block A_r by the column C, the row R and the corner a
    multiplies det(1 - A_r s) by 1 - a s - sum_j (R A_r^j C) s^(j+2).  The
    product is det(1 - A_{r+1} s), of degree r + 1, so it is kept to
    s^min(r+1, n_max): what a truncating ring (p^M, pi^O) drops past
    that degree is an exact zero.  It never divides.
    """
    coeffs = [one] + [zero] * n_max
    for r, row in enumerate(rows):
        top = min(r + 1, n_max)
        factor = [zero, row[r]]  # factor[m]: minus the s^m coefficient
        col = [rows[w][r] for w in range(r)]
        for j in range(top - 1):
            if j:
                col = [dot(zip(rows[w][:r], col)) for w in range(r)]
            if not any(col):
                break
            factor.append(dot(zip(row[:r], col)))
        coeffs[:top + 1] = [coeffs[n] - dot((factor[m], coeffs[n - m])
                                            for m in range(1, min(n + 1, len(factor))))
                            for n in range(top + 1)]
    return coeffs


def power_sums(coeffs: list, dot) -> list:
    """Tr(A^k) for 0 < k < len(coeffs), from det(1 - A s) = sum_k c_k s^k.

    The Newton identities in their division-free direction,
    t_k = -k c_k - sum_{0<j<k} t_j c_{k-j}, with ``dot`` the ring's sum of
    products as in ``berkowitz``; index 0 is None.
    """
    traces = [None]
    for k in range(1, len(coeffs)):
        traces.append(coeffs[k] * -k - dot((traces[j], coeffs[k - j]) for j in range(1, k)))
    return traces


def mod_dot(mod: int):
    """The sum of products of integer pairs, reduced mod ``mod``."""
    return lambda pairs: sum(x * y for x, y in pairs) % mod


def charpoly_mod(rows, mod: int) -> list[int]:
    """c_0..c_n with det(1 - A s) = sum_i c_i s^i mod ``mod``, for the
    n x n integer matrix A given as a list of rows (``berkowitz``)."""
    return [c % mod for c in berkowitz(rows, len(rows), mod_dot(mod), 1, 0)]


def factorial_inv_or_zero(k: int) -> Fraction:
    """1/k! for k >= 0, and 0 for negative k.

    The zero branch is what makes permutation sums over non-representable
    decompositions vanish without special-casing.
    """
    if k < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(k))


def artin_hasse_coeffs(p: int, n_max: int) -> list[Fraction]:
    """Coefficients lambda_0..lambda_{n_max} of exp(sum_i X^{p^i}/p^i).

    Computed by the recurrence n*lambda_n = sum_{p^i <= n} lambda_{n-p^i},
    obtained from E'(X) = E(X) * sum_i X^{p^i - 1}.  Each coefficient is a
    rational with denominator coprime to p.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    lam = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        q = 1
        while q <= n:
            acc += lam[n - q]
            q *= p
        lam.append(acc / n)
    return lam
