"""Tests for Hasse numbers and the integral Hasse constant.

Two independent oracles.  The pi-graded determinant: entries collect all
decompositions d*x + e*y = p*i - j + t as terms (1/(x! y!)) * pi^(x+y)
* L^y, the determinant is expanded exactly, and the coefficient at the
predicted leading pi-order must reproduce the Hasse number times L^v.
And the textbook permutation sums: the optimal set is enumerated
((n+1)! permutations) and each signed product is added up directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import pytest
import sympy

from twistnp import combinatorics, hasse
from twistnp.combinatorics import (
    CombInstance,
    compute_C,
    optimal_perm_sets,
    perm_sign,
    xy_decomposition,
)
from twistnp.core_arith import INFINITY, factorial_inv_or_zero, falling_factorial
from twistnp.hasse import (
    VExponentUndefinedError,
    fraction_vp,
    hasse_certificate,
    hasse_constant,
    hasse_number,
    twist_data,
    v_exponent,
)
from twistnp.polygon import Params

F = Fraction


def test_twist_data_twisted_anchor():
    pr = Params(p=11, a=2, d=3, e=2, c=3, mu=1)
    tw = twist_data(pr)
    assert tw.b == 2
    assert tw.t == (1, 2)
    assert tw.u == (7, 3)
    assert tw.pp == 2 and tw.ell == 1
    assert tw.uu == (1, 0)
    for k in range(2):
        assert tw.u_of(k) == tw.t_of(k + 1) * 3 * tw.ell + tw.uu_of(k)


def test_twist_data_trivial_character():
    pr = Params(p=7, a=1, d=3, e=2, c=1, mu=1)
    tw = twist_data(pr)
    assert tw.t == (0,) and tw.u == (0,) and tw.uu == (0,)
    assert tw.pp == 1 and tw.ell == 2


def test_hasse_number_smallest_case():
    pr = Params(p=5, a=1, d=2, e=1, c=1, mu=1)
    assert hasse_number(pr, 0, 1) == 1


def test_hasse_number_p_equiv_1_closed_form():
    # identity is the unique optimum; x_i = (p-1)i/d, y_i = 0
    pr = Params(p=13, a=1, d=3, e=2, c=1, mu=1)
    assert hasse_number(pr, 0, 1) == 1
    assert hasse_number(pr, 1, 1) == F(1, math.factorial(4))
    pr5 = Params(p=11, a=1, d=5, e=2, c=1, mu=1)
    for n in range(4):
        expected = F(1)
        for i in range(n + 1):
            expected /= math.factorial(2 * i)
        assert hasse_number(pr5, n, 1) == expected


def test_hasse_number_twisted_anchor_values():
    # frozen from a hand expansion of the two-permutation sums
    pr = Params(p=11, a=2, d=3, e=2, c=3, mu=1)
    assert hasse_number(pr, 0, 1) == 1
    assert hasse_number(pr, 0, 2) == F(1, 2)
    assert hasse_number(pr, 1, 1) == F(1, 24)
    assert hasse_number(pr, 1, 2) == F(-1, 1440)
    assert hasse_certificate(pr).h_valuation == 0


def _gamma_entry(inst, i, j, cap):
    """All decompositions of p*i - j + t as {(x+y, y): 1/(x! y!)}."""
    target = inst.p * i - j + inst.t
    out = {}
    if target < 0:
        return out
    for y in range(target // inst.e + 1):
        rest = target - inst.e * y
        if rest % inst.d:
            continue
        x = rest // inst.d
        if x + y > cap:
            continue
        out[(x + y, y)] = F(1, math.factorial(x) * math.factorial(y))
    return out


def _poly_mul(a, b, cap):
    out = {}
    for (pa, la), ca in a.items():
        for (pb, lb), cb in b.items():
            if pa + pb > cap:
                continue
            key = (pa + pb, la + lb)
            out[key] = out.get(key, F(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _det_oracle(inst, n, cap):
    total = {}
    for tau in itertools.permutations(range(n + 1)):
        term = {(0, 0): F(perm_sign(tau))}
        for i in range(n + 1):
            term = _poly_mul(term, _gamma_entry(inst, i, tau[i], cap), cap)
            if not term:
                break
        for k, v in term.items():
            total[k] = total.get(k, F(0)) + v
    return {k: v for k, v in total.items() if v != 0}


def _leading_order(inst, n):
    C = compute_C(inst, n).value
    num = (inst.p - 1) * n * (n + 1) // 2 + (n + 1) * inst.t + (inst.d - inst.e) * C
    assert num % inst.d == 0
    return num // inst.d, C


@pytest.mark.parametrize(
    "p,a,d,e,c,mu",
    [
        (11, 1, 3, 2, 1, 1),
        (13, 1, 3, 2, 1, 1),
        (11, 1, 3, 1, 1, 1),
        (13, 1, 4, 3, 1, 1),
        (11, 1, 4, 3, 1, 1),
        (11, 1, 3, 2, 2, 1),
        (11, 2, 3, 2, 3, 1),
        (13, 1, 5, 2, 2, 1),
    ],
)
def test_hasse_number_against_determinant_oracle(p, a, d, e, c, mu):
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
    for k in range(1, pr.b + 1):
        inst = CombInstance(pr.p, pr.d, pr.e, pr.u_digit(k))
        for n in range(pr.d - 1):
            m, C = _leading_order(inst, n)
            det = _det_oracle(inst, n, m)
            # nothing below the leading order
            assert all(pi_deg >= m for (pi_deg, _) in det)
            h = hasse_number(pr, n, k)
            lead = {lam: v for (pi_deg, lam), v in det.items() if pi_deg == m}
            if h == 0:
                assert lead == {} or set(lead.values()) == {F(0)}
            else:
                assert lead == {C: h}


def test_v_exponent_basic():
    pr = Params(p=13, a=1, d=3, e=2, c=1, mu=1)
    assert v_exponent(pr, 0, 1) == 0
    assert v_exponent(pr, 1, 1) == 0
    pr2 = Params(p=11, a=2, d=3, e=2, c=3, mu=1)
    # v equals C_{u_k, n}; frozen from the assignment oracle
    assert v_exponent(pr2, 1, 1) == 2
    assert v_exponent(pr2, 0, 2) == 2


def test_v_exponent_undefined_when_no_representable_optimum():
    pr = Params(p=2, a=1, d=3, e=2, c=1, mu=1)
    with pytest.raises(VExponentUndefinedError):
        v_exponent(pr, 1, 1)
    assert hasse_number(pr, 1, 1) == 0
    assert hasse_certificate(pr).h_valuation == INFINITY


def test_fraction_vp():
    assert fraction_vp(F(44, 3), 11) == 1
    assert fraction_vp(F(3, 121), 11) == -2
    assert fraction_vp(F(5), 11) == 0


def test_hasse_constant_smallest_case():
    assert hasse_constant(1, 1, 1, 1, 2) == 1


def test_hasse_constant_frozen_values():
    # traced by hand through the integer factor products
    assert hasse_constant(1, 1, 2, 2, 3) == -72
    assert hasse_constant(1, 1, 1, 2, 3) == 8


@functools.lru_cache(maxsize=None)
def _optimal_perms(inst, n):
    # the optimal set depends on p and t mod d only (see the residue test)
    if inst.p >= inst.d or inst.t >= inst.d:
        return _optimal_perms(CombInstance(inst.p % inst.d, inst.d, inst.e,
                                           inst.t % inst.d), n)
    return optimal_perm_sets(inst, n)[1]


def _perm_sum(inst, n, weight):
    """Signed sum of prod_i weight(i, tau(i)) over the enumerated optimal set."""
    weight = functools.cache(weight)
    total = F(0)
    for tau in _optimal_perms(inst, n):
        term = F(perm_sign(tau))
        for i in range(n + 1):
            term *= weight(i, tau[i])
        total += term
    return total


def _hasse_number_oracle(pr, n, k):
    inst = CombInstance(pr.p, pr.d, pr.e, pr.u_digit(k))

    def weight(i, j):
        sol = xy_decomposition(inst, i, j)
        return factorial_inv_or_zero(sol.x) * factorial_inv_or_zero(sol.y)

    return _perm_sum(inst, n, weight)


def _hasse_constant_rational_oracle(c, mu, pp, e, d):
    """Direct evaluation with rational falling factorials and cd-powers."""
    b = 1 if c == 1 else sympy.n_order(pp, c)
    if c == 1:
        t = (0,) * b
    else:
        inv = pow(pp, -1, c)
        t = tuple(pow(inv, k, c) * mu % c for k in range(b))
    total = F(1)
    for k in range(1, b + 1):
        t_next = t[k % b]
        uu = (t_next * pp - t[(k - 1) % b]) // c
        inst = CombInstance(pp, d, e, uu)

        def weight(i, j):
            sol = xy_decomposition(inst, i, j)
            arg = F(-pp * (c * i + t_next), c * d) + pp - 1
            length = pp - 1 - sol.x
            return (falling_factorial(d - 1, d - 1 - sol.y)
                    * F(c * d) ** length
                    * falling_factorial(arg, length))

        for n in range(d - 1):
            total *= _perm_sum(inst, n, weight)
    return total


@pytest.mark.parametrize(
    "c,mu,pp,e,d",
    [
        (1, 1, 1, 1, 2),
        (1, 1, 1, 2, 3),
        (1, 1, 2, 2, 3),
        (1, 1, 2, 1, 3),
        (1, 1, 3, 1, 4),
        (1, 1, 3, 2, 5),
        (2, 1, 1, 1, 2),
        (2, 1, 1, 2, 3),
        (2, 1, 5, 2, 3),
        (3, 1, 2, 2, 3),
        (3, 2, 2, 1, 3),
        (4, 3, 3, 3, 4),
    ],
)
def test_hasse_constant_integrality_against_rational_oracle(c, mu, pp, e, d):
    oracle = _hasse_constant_rational_oracle(c, mu, pp, e, d)
    assert oracle.denominator == 1
    assert hasse_constant(c, mu, pp, e, d) == oracle


def _oracle_grid(d):
    """(p, e, c) for every e coprime to d and c in {1, 2, 3}."""
    out = []
    for e in range(1, d):
        if math.gcd(d, e) != 1:
            continue
        for c in (1, 2, 3):
            p = sympy.nextprime(d + 2 * e + c)
            while math.gcd(p, c * d) != 1:
                p = sympy.nextprime(p)
            out.append((p, e, c))
    return out


@pytest.mark.parametrize("d", range(2, 10))
def test_determinants_match_permutation_sums(d):
    for p, e, c in _oracle_grid(d):
        pr = Params(p=p, a=1 if c == 1 else sympy.n_order(p, c), d=d, e=e, c=c, mu=1)
        for k in range(1, pr.b + 1):
            for n in range(d - 1):
                assert hasse_number(pr, n, k) == _hasse_number_oracle(pr, n, k), \
                    (p, d, e, c, n, k)
        pp = p % (c * d)
        assert hasse_constant(c, 1, pp, e, d) == _hasse_constant_rational_oracle(
            c, 1, pp, e, d), (p, d, e, c)


def test_strict_instance_against_permutation_sums():
    pr = Params(p=43, a=1, d=5, e=2, c=1, mu=1)
    h = {n: hasse_number(pr, n, 1) for n in range(4)}
    assert h == {n: _hasse_number_oracle(pr, n, 1) for n in range(4)}
    H = hasse_constant(1, 1, 43 % 5, 2, 5)
    assert H == _hasse_constant_rational_oracle(1, 1, 43 % 5, 2, 5)
    cert = hasse_certificate(pr)
    assert cert.p_divides_H and not cert.h_unit and cert.verdicts_consistent()


def test_certificate_past_d_10():
    for p, e, c in [(23, 10, 1), (37, 2, 1), (13, 3, 2)]:
        cert = hasse_certificate(Params(p=p, a=1, d=11, e=e, c=c, mu=1))
        assert cert.verdicts_consistent(), (p, e, c)
    # e = d-1 and p > c(d^2-d+1) = 111: forced equality, so a unit
    forced = hasse_certificate(Params(p=113, a=1, d=11, e=10, c=1, mu=1))
    assert forced.h_unit and not forced.p_divides_H and forced.h_valuation == 0
    # 13 and 79 are both 13 mod 22
    c13 = hasse_certificate(Params(p=13, a=1, d=11, e=3, c=2, mu=1))
    c79 = hasse_certificate(Params(p=79, a=1, d=11, e=3, c=2, mu=1))
    assert c13.twist.pp == c79.twist.pp == 13
    assert c13.H == c79.H


def test_certificate_enumerates_no_permutation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate must not enumerate permutations")

    monkeypatch.setattr(hasse, "optimal_perm_sets", refuse)
    monkeypatch.setattr(combinatorics, "_exhaustive_C", refuse)
    cert = hasse_certificate(Params(p=211, a=1, d=10, e=3, c=1, mu=1))
    assert cert.verdicts_consistent() and len(cert.h_factors) == 9


def test_certificate_consistency_small_grid():
    for (p, a, d, e, c, mu) in [
        (11, 1, 3, 2, 1, 1),
        (13, 1, 3, 2, 1, 1),
        (11, 1, 3, 1, 1, 1),
        (11, 2, 3, 2, 3, 1),
        (11, 1, 3, 2, 2, 1),
        (13, 1, 4, 3, 1, 1),
    ]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
        cert = hasse_certificate(pr)
        if pr.monotone_bound_ok():
            assert cert.verdicts_consistent(), (p, a, d, e, c, mu)
        js = cert.to_json_dict()
        assert set(js) == {"h", "H", "p_divides_H", "h_unit"}


def test_certificate_residue_class_invariance():
    # p = 11 and p = 17 are both 2 mod 3; the certificates share H
    pr1 = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    pr2 = Params(p=17, a=1, d=3, e=2, c=1, mu=1)
    c1, c2 = hasse_certificate(pr1), hasse_certificate(pr2)
    assert twist_data(pr1).pp == twist_data(pr2).pp == 2
    assert c1.H == c2.H


def test_optimal_sets_residue_invariance():
    # bullet sets depend only on residues: substituting pp for p keeps them
    for (p, d, e, t_list) in [(11, 3, 2, [0, 1, 2]), (13, 4, 3, [0, 5]), (17, 5, 3, [7])]:
        pp = p % d
        for t in t_list:
            for n in range(d - 1):
                _, b1 = optimal_perm_sets(CombInstance(p, d, e, t), n)
                _, b2 = optimal_perm_sets(CombInstance(pp, d, e, t % d), n)
                assert b1 == b2


def test_thm14_unit_hasse_numbers_small():
    # e = d-1 and p > c(d^2-d+1): every factor is a unit
    for (p, d, c) in [(11, 3, 1), (13, 3, 1), (17, 3, 2), (19, 3, 2), (17, 4, 1)]:
        pr = Params(p=p, a=1, d=d, e=d - 1, c=c, mu=1)
        assert p > c * (d * d - d + 1)
        assert hasse_certificate(pr).h_valuation == 0
