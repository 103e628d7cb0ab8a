"""Hasse numbers, their product valuation, and the integral Hasse constant.

The Hasse number at (n, k) is a signed sum over optimal permutations of
inverse factorial products; its p-adic unit-ness decides whether the
Newton polygon attains the assignment lower bound.  The Hasse constant
repackages the same sum with p replaced by its residue mod c*d, each
rational falling factorial paired with a matching power of c*d so that
every permutation term is an integer.  Divisibility of the constant by p
is then equivalent to the product of Hasse numbers not being a unit.

A permutation is optimal exactly when all its edges lie on optimal
permutations (each such edge is tight for every optimal dual), so each sum
is one exact determinant of the weights on ``optimal_edges``.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .combinatorics import (
    CombInstance,
    compute_C,
    optimal_edges,
    optimal_perm_sets,
    xy_decomposition,
)
from .core_arith import INFINITY, factorial_inv_or_zero, falling_factorial
from .polygon import Params


class VExponentUndefinedError(ValueError):
    """Raised when the optimal set with representable targets is empty."""


@dataclass(frozen=True)
class TwistData:
    """Residue data tying the digit twists to p mod c*d.

    ``t`` lists the minimal residues of p^{-k} * mu mod c for k = 0..b-1
    (cyclic beyond).  ``pp`` is the minimal positive residue of p mod c*d
    and ``ell`` the quotient (p - pp)/(c*d).  ``uu`` are the digit
    residues built from pp in place of p; they agree with the true digits
    mod d and differ by t_{k+1} * d * ell exactly.
    """

    c: int
    mu: int
    b: int
    p: int
    d: int
    pp: int
    ell: int
    t: tuple[int, ...]
    u: tuple[int, ...]
    uu: tuple[int, ...]

    def t_of(self, k: int) -> int:
        return self.t[k % self.b]

    def u_of(self, k: int) -> int:
        return self.u[k % self.b]

    def uu_of(self, k: int) -> int:
        return self.uu[k % self.b]


def _t_residues(p_or_pp: int, mu: int, c: int, b: int) -> tuple[int, ...]:
    if c == 1:
        return (0,) * b
    inv = pow(p_or_pp, -1, c)
    return tuple(pow(inv, k, c) * mu % c for k in range(b))


def twist_data(params: Params) -> TwistData:
    p, c, d, mu, b = params.p, params.c, params.d, params.mu, params.b
    t = _t_residues(p, mu, c, b)
    pp = p % (c * d)
    assert math.gcd(pp, c * d) == 1
    ell = (p - pp) // (c * d)
    u = []
    uu = []
    for k in range(b):
        t_next = t[(k + 1) % b]
        num = t_next * p - t[k]
        assert num % c == 0
        u_k = num // c
        num_res = t_next * pp - t[k]
        assert num_res % c == 0
        uu_k = num_res // c
        assert u_k == params.u_digit(k), "digit reconstruction failed"
        assert u_k == t_next * d * ell + uu_k
        assert 0 <= u_k <= p - 1 and (u_k - uu_k) % d == 0
        u.append(u_k)
        uu.append(uu_k)
    return TwistData(c=c, mu=mu, b=b, p=p, d=d, pp=pp, ell=ell,
                     t=t, u=tuple(u), uu=tuple(uu))


def _optimal_det(inst: CombInstance, n: int, weight):
    """Signed sum over optimal permutations tau of prod_i weight(i, tau(i))."""
    edges = optimal_edges(inst, n)
    return sympy.Matrix(n + 1, n + 1,
                        lambda i, j: weight(i, j) if (i, j) in edges else 0
                        ).det(method="bareiss")


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
        sol = xy_decomposition(inst, i, j)
        return factorial_inv_or_zero(sol.x) * factorial_inv_or_zero(sol.y)

    h = _optimal_det(inst, n, weight)
    return Fraction(int(h.p), int(h.q))


def v_exponent(params: Params, n: int, k: int) -> int:
    """Common value of sum_i y_i over the representable optimal set.

    Equals C_{t,n} for t the k-th digit; asserted constant across the set.
    """
    inst = CombInstance(params.p, params.d, params.e, params.u_digit(k))
    circle, _ = optimal_perm_sets(inst, n)
    if not circle:
        raise VExponentUndefinedError(f"no representable optimum at n={n}, k={k}")
    values = set()
    for tau in circle:
        values.add(sum(xy_decomposition(inst, i, tau[i]).y for i in range(n + 1)))
    assert len(values) == 1, "sum of y over the optimal set is not constant"
    v = values.pop()
    assert v == compute_C(inst, n).value
    return v


def fraction_vp(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _integer_weight(inst: CombInstance, c: int, t_next: int, i: int, j: int) -> int:
    """Edge weight of the Hasse constant, a product of integer factors."""
    pp, d, e = inst.p, inst.d, inst.e
    sol = xy_decomposition(inst, i, j)
    assert -e <= sol.x < pp, f"x-residue {sol.x} out of [{-e}, {pp})"
    ff_y = falling_factorial(d - 1, d - 1 - sol.y)
    assert ff_y.denominator == 1
    cdr = -pp * (c * i + t_next) + c * d * (pp - 1)
    prod = int(ff_y)
    for m in range(pp - 1 - sol.x):
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
    if not (d > e >= 1) or math.gcd(d, e) != 1:
        raise ValueError(f"need d > e >= 1 coprime, got d={d}, e={e}")
    if math.gcd(mu, c) != 1:
        raise ValueError(f"need gcd(mu, c) = 1, got mu={mu}, c={c}")
    if math.gcd(pp, c * d) != 1:
        raise ValueError(f"need gcd(pp, c*d) = 1, got pp={pp}, c*d={c * d}")
    b = 1 if c == 1 else sympy.n_order(pp, c)
    t = _t_residues(pp, mu, c, b)
    H = 1
    for k in range(1, b + 1):
        t_next = t[k % b]
        num = t_next * pp - t[(k - 1) % b]
        assert num % c == 0
        inst = CombInstance(pp, d, e, num // c)
        for n in range(d - 1):
            H *= int(_optimal_det(
                inst, n, lambda i, j: _integer_weight(inst, c, t_next, i, j)))
    return H


def _digits(n: int) -> str:
    """Decimal digits of n; str(int) stops at 4300, a guard for untrusted text."""
    return str(decimal.Decimal(n))


@dataclass(frozen=True)
class HasseCertificate:
    """Everything Theorem-1.3-shaped about one parameter tuple."""

    params_key: str
    p: int
    twist: TwistData
    h_factors: dict
    h_valuation: object
    h_unit: bool
    H: int
    p_divides_H: bool

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
    twist = twist_data(params)
    h_factors = {(n, k): hasse_number(params, n, k)
                 for n in range(params.d - 1) for k in range(1, params.b + 1)}
    # valuation of the product of all Hasse numbers, INFINITY if one vanishes
    val = (INFINITY if 0 in h_factors.values()
           else sum(fraction_vp(h, params.p) for h in h_factors.values()))
    H = hasse_constant(params.c, params.mu, twist.pp, params.e, params.d)
    return HasseCertificate(
        params_key=params.key(),
        p=params.p,
        twist=twist,
        h_factors=h_factors,
        h_valuation=val,
        h_unit=(val == 0),
        H=H,
        p_divides_H=(H % params.p == 0),
    )
