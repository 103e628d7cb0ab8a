"""Hasse numbers, their product valuation, and the integral Hasse constant.

The Hasse number at (n, k) is a signed sum over optimal permutations of
inverse factorial products; its p-adic unit-ness decides whether the
Newton polygon attains the assignment lower bound.  The Hasse constant
repackages the same sum with p replaced by its residue mod c*d, each
rational falling factorial paired with a matching power of c*d so that
every permutation term is an integer.  Divisibility of the constant by p
is then equivalent to the product of Hasse numbers not being a unit.

One Hungarian solve of the assignment problem gives an optimal dual, and
the permutations made of its tight edges are exactly the optimal ones
(complementary slackness), so each sum is one exact determinant of the
weights on ``tight_edges``.  The determinant is an integer Bareiss
elimination: each row of rational weights is first scaled by the lcm of
its denominators, and the product of those scales divides out at the end.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .combinatorics import (
    CombInstance,
    optimal_perm_sets,  # noqa: F401  uncalled here; perfbench's tracer wraps this name
    tight_edges,
)
from .core_arith import (
    INFINITY,
    bareiss_det,
    check_exponents,
    factorial_inv_or_zero,
    twist_digits,
)
from .padic import vp_min
from .polygon import Params


def _optimal_det(inst: CombInstance, n: int, weight) -> Fraction:
    """Signed sum over optimal permutations tau of prod_i weight(i, tau(i))."""
    edges = tight_edges(inst, n)
    rows, scale = [], 1
    for i in range(n + 1):
        row = [Fraction(weight(i, j)) if (i, j) in edges else Fraction(0)
               for j in range(n + 1)]
        s = math.lcm(*(w.denominator for w in row))
        rows.append([w.numerator * (s // w.denominator) for w in row])
        scale *= s
    return Fraction(bareiss_det(rows), scale)


def hasse_number(params: Params, n: int, k: int) -> Fraction:
    """Signed sum over optimal permutations of 1/(x_i! y_i!) products.

    The sum runs over the full optimal set; permutations with a
    non-representable target contribute zero through the 1/(negative)! = 0
    convention, which makes the two textbook definitions of the restricted
    optimal set agree automatically.
    """
    if not (0 <= n <= params.d - 2):
        raise ValueError(f"n must lie in [0, d-2], got {n}")
    if not (1 <= k <= params.b):
        raise ValueError(f"k must lie in [1, b], got {k}")
    inst = CombInstance(params.p, params.d, params.e, params.u_digit(k))

    def weight(i, j):
        x, y = inst.decompose(i, j)
        return factorial_inv_or_zero(x) * factorial_inv_or_zero(y)

    return _optimal_det(inst, n, weight)


def fraction_vp(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero")
    return vp_min((x.numerator,), p) - vp_min((x.denominator,), p)


def _integer_weight(inst: CombInstance, c: int, t_next: int, i: int, j: int) -> int:
    """Edge weight of the Hasse constant, a product of integer factors."""
    pp, d, e = inst.p, inst.d, inst.e
    x, y = inst.decompose(i, j)
    assert -e <= x < pp, f"x-residue {x} out of [{-e}, {pp})"
    cdr = -pp * (c * i + t_next) + c * d * (pp - 1)
    prod = math.perm(d - 1, d - 1 - y)  # (d-1)!/y!
    for m in range(pp - 1 - x):
        prod *= cdr - c * d * m
    return prod


def hasse_constant(c: int, mu: int, pp: int, e: int, d: int) -> int:
    """The integer constant deciding polygon equality for p = pp mod c*d.

    Every permutation term is assembled from integer factors: the
    d-1 falling factorial over y, and the rational falling factorial over
    x paired with its (cd)-power, expanded as a product of integers
    cd*(arg - j).  Terms with a non-representable x vanish through the
    falling factorial crossing zero, mirroring the 1/x! = 0 convention.
    """
    if c < 1 or pp < 1:
        raise ValueError("c and pp must be positive")
    check_exponents(d, e)
    if math.gcd(mu, c) != 1:
        raise ValueError(f"need gcd(mu, c) = 1, got mu={mu}, c={c}")
    if math.gcd(pp, c * d) != 1:
        raise ValueError(f"need gcd(pp, c*d) = 1, got pp={pp}, c*d={c * d}")
    H = 1
    for t_next, u in twist_digits(pp, mu, c):
        inst = CombInstance(pp, d, e, u)
        for n in range(d - 1):
            H *= int(_optimal_det(
                inst, n, lambda i, j: _integer_weight(inst, c, t_next, i, j)))
    return H


def _digits(n: int) -> str:
    """Decimal digits of n; str(int) stops at 4300, a guard for untrusted text."""
    return str(decimal.Decimal(n))


class HasseCertificate:
    """Everything Theorem-1.3-shaped about one parameter tuple.

    ``pp`` is p mod c*d, the residue H is computed at.
    """

    __slots__ = ("p", "pp", "h_factors", "h_valuation", "h_unit", "H", "p_divides_H")

    def __init__(self, p: int, pp: int, h_factors: dict, h_valuation, h_unit: bool, H: int,
                 p_divides_H: bool):
        self.p, self.pp, self.h_factors, self.h_valuation = p, pp, h_factors, h_valuation
        self.h_unit, self.H, self.p_divides_H = h_unit, H, p_divides_H

    def verdicts_consistent(self) -> bool:
        return self.h_unit == (not self.p_divides_H)

    def to_json_dict(self) -> dict:
        hlist = []
        for (n, k), h in sorted(self.h_factors.items()):
            val = "inf" if h == 0 else str(fraction_vp(h, self.p))
            hlist.append([n, k, f"{_digits(h.numerator)}/{_digits(h.denominator)}", val])
        return {
            "h": hlist,
            "H": _digits(self.H),
            "p_divides_H": self.p_divides_H,
            "h_unit": self.h_unit,
        }


def hasse_certificate(params: Params) -> HasseCertificate:
    pp = params.p % (params.c * params.d)
    h_factors = {(n, k): hasse_number(params, n, k)
                 for n in range(params.d - 1) for k in range(1, params.b + 1)}
    # valuation of the product of all Hasse numbers, INFINITY if one vanishes
    val = (INFINITY if 0 in h_factors.values()
           else sum(fraction_vp(h, params.p) for h in h_factors.values()))
    H = hasse_constant(params.c, params.mu, pp, params.e, params.d)
    return HasseCertificate(
        p=params.p,
        pp=pp,
        h_factors=h_factors,
        h_valuation=val,
        h_unit=(val == 0),
        H=H,
        p_divides_H=(H % params.p == 0),
    )
