"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All arithmetic is exact; every comparison is equality of rationals
(certified-precision checks are noted where they occur).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
import sympy

from oracles import (
    R_value,
    compute_bfC,
    exhaustive_C,
    full_sums_by_lambda,
    l_polynomial_full,
    r_value,
)
from twistnp.combinatorics import CombInstance, compute_C, optimal_perm_sets
from twistnp.dwork import np_T, trace_consistency
from twistnp.hasse import hasse_certificate
from twistnp.lfunction import l_polynomial, newton_polygon_classical
from twistnp.polygon import Params, hodge_polygon, lies_above, lower_bound_polygon

F = Fraction

BIG_BUDGET = 2 * 10**8


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _grid_criterion1():
    """(d, e, p) points: d in 2..6, coprime e, primes <= 60 past the bound."""
    pts = []
    for d in range(2, 7):
        for e in range(1, d):
            if math.gcd(d, e) != 1:
                continue
            bound = (d - e) * (2 * d - 1)
            for p in sympy.primerange(2, 61):
                if p > bound and d % p != 0:
                    pts.append((d, e, int(p)))
    return pts


@pytest.fixture(scope="module")
def c_tables():
    """Cached C-values: (d, e, p, t) -> list over n in [-1, 2d]."""
    tables = {}
    for (d, e, p) in _grid_criterion1():
        for t in list(range(d)) + [p - 1]:
            inst = CombInstance(p, d, e, t)
            tables[(d, e, p, t)] = {
                n: compute_C(inst, n) for n in range(-1, 2 * d + 1)
            }
    return tables


def test_criterion_1_combinatorial_identities(c_tables):
    t0 = time.monotonic()
    checked = 0
    for (d, e, p, t), Cvals in c_tables.items():
        inst = CombInstance(p, d, e, t)
        Rr = {alpha: ([R_value(inst, i, alpha) for i in range(2 * d + 1)],
                      [r_value(inst, i, alpha) for i in range(2 * d + 1)])
              for alpha in range(d)}
        bf = {}
        for n in range(-1, 2 * d + 1):
            for alpha in range(d):
                bf[(n, alpha)] = compute_bfC(inst, n, alpha)
        for n in range(-1, d + 1):
            # the residue-overflow identity, every alpha
            for alpha in range(d):
                R, r = Rr[alpha]
                total = sum(R[i] + r[i] for i in range(n + 1))
                assert Cvals[n] == total - d * bf[(n, alpha)], (d, e, p, t, n, alpha)
                # period shift of the matching count
                assert bf[(n + d, alpha)] == d - 1 + bf[(n, alpha)]
            # periodicity of the value
            assert Cvals[n + d] == Cvals[n], (d, e, p, t, n)
            checked += 1
        # per-digit convexity bound forcing slope monotonicity
        for n in range(1, 2 * d + 1):
            dd2 = Cvals[n] - 2 * Cvals[n - 1] + Cvals[n - 2]
            assert (p - 1) + (d - e) * dd2 >= 0, (d, e, p, t, n)
    elapsed = time.monotonic() - t0
    _report(1, True, f"identity suite on {checked} points, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_2_solver_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    cases = 0
    for (d, e, p) in _grid_criterion1():
        for t in range(d):
            inst = CombInstance(p, d, e, t)
            for n in range(-1, 7):
                if n + 1 > 7:
                    continue
                cases += 1
                if n == -1:
                    continue
                # the tight edges' matchings are the exhaustive optimal set
                best, optimal = exhaustive_C(inst, n)
                if compute_C(inst, n) != best or optimal_perm_sets(inst, n)[1] != optimal:
                    mismatches += 1
    _report(2, mismatches == 0,
            f"assignment solver vs exhaustive: {cases} cases, "
            f"{mismatches} mismatches, {time.monotonic() - t0:.1f}s")


def _first_primes_above(bound: int, count: int, avoid_divisor: int):
    out = []
    p = sympy.nextprime(bound)
    while len(out) < count:
        if avoid_divisor % p != 0:
            out.append(int(p))
        p = sympy.nextprime(p)
    return out


def _np_all_lambdas(p, a, d, e, c, mu, budget=BIG_BUDGET):
    base = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=0)
    lam_all = list(range(base.q - 1))
    sums = full_sums_by_lambda(base, lam_all, budget=budget)
    out = {}
    for lam in lam_all:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
        out[lam] = newton_polygon_classical(l_polynomial_full(pr, sums=sums[lam]))
    return out


def test_criterion_3_forced_equality_reproduction():
    t0 = time.monotonic()
    tuples = 0
    for d in (2, 3, 4):
        e = d - 1
        for c in (1, 2):
            for p in _first_primes_above(c * (d * d - d + 1), 3, d):
                P = lower_bound_polygon(
                    Params(p=p, a=1, d=d, e=e, c=c, mu=1), d)
                polys = _np_all_lambdas(p, 1, d, e, c, 1)
                for lam, np_poly in polys.items():
                    assert np_poly.values == P.values, (d, e, c, p, lam)
                    tuples += 1
    # concrete anchor, frozen from the exhaustive assignment oracle
    anchor = lower_bound_polygon(Params(p=11, a=1, d=3, e=2, c=1, mu=1), 3)
    assert anchor.slopes() == [F(0), F(2, 5), F(3, 5)]
    assert sum(anchor.slopes()) == 1
    elapsed = time.monotonic() - t0
    _report(3, True,
            f"polygon equality on {tuples} (p,lambda) tuples; p=11 anchor "
            f"slopes 0, 2/5, 3/5 sum to 1; {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_4_unit_criterion_both_directions():
    t0 = time.monotonic()
    divisible_cases = 0
    equal_cases = 0
    grid = []
    for (d, e) in [(3, 1), (4, 1), (5, 2)]:
        bound = (d - e) * (2 * d - 1)
        units = {r for r in range(1, d) if math.gcd(r, d) == 1}
        seen_classes = set()
        p = sympy.nextprime(bound)
        while seen_classes != units:
            p = int(p)
            if p % d in units and p % d not in seen_classes:
                seen_classes.add(p % d)
                grid.append((d, e, p))
            p = sympy.nextprime(p)
    for (d, e, p) in grid:
        pr = Params(p=p, a=1, d=d, e=e, c=1, mu=1, lam_index=1)
        cert = hasse_certificate(pr)
        P = lower_bound_polygon(pr, d)
        # every sum S_1..S_d, and the functional-equation route beside it
        np_poly = newton_polygon_classical(l_polynomial_full(pr, budget=BIG_BUDGET))
        assert newton_polygon_classical(l_polynomial(pr)).values == np_poly.values, (d, e, p)
        assert lies_above(np_poly, P), (d, e, p)
        equal = np_poly.values == P.values
        assert cert.verdicts_consistent(), (d, e, p)
        assert equal == cert.h_unit == (not cert.p_divides_H), (d, e, p)
        if cert.p_divides_H:
            divisible_cases += 1
            assert any(np_poly.value(n) > P.value(n) for n in range(d + 1))
        else:
            equal_cases += 1
    # verdict is independent of the coefficient: full lambda sweeps, small d
    for (d, e, p) in [(3, 1, 11), (3, 1, 13)]:
        pr = Params(p=p, a=1, d=d, e=e, c=1, mu=1)
        P = lower_bound_polygon(pr, d)
        cert = hasse_certificate(pr)
        verdicts = {lam: poly.values == P.values
                    for lam, poly in _np_all_lambdas(p, 1, d, e, 1, 1).items()}
        assert set(verdicts.values()) == {cert.h_unit}, (d, e, p)
    note = (f"full and half routes agree on {len(grid)} tuples; "
            f"{equal_cases} unit cases all equal; "
            + (f"{divisible_cases} divisible cases all strictly above"
               if divisible_cases else
               "no p | H instance in this grid (consistent with the "
               "large-p conjecture); equality held throughout"))
    _report(4, True, f"{note}; {time.monotonic() - t0:.1f}s")


def test_criterion_5_hodge_attainment():
    t0 = time.monotonic()
    cases = 0
    for d in (3, 4, 5):
        primes = []
        p = 2
        while len(primes) < 2:
            p = int(sympy.nextprime(p))
            if p % d == 1 and p > d:
                primes.append(p)
        for p in primes:
            for e in {1, d - 1}:
                pr = Params(p=p, a=1, d=d, e=e, c=1, mu=1, lam_index=1)
                np_poly = newton_polygon_classical(l_polynomial(pr, budget=BIG_BUDGET))
                H = hodge_polygon(pr, d)
                assert np_poly.values == H.values, (d, e, p)
                assert np_poly.slopes() == [F(n, d) for n in range(d)]
                cases += 1
    _report(5, True,
            f"Newton polygon equals the Hodge bound with slopes 0..(d-1)/d "
            f"on {cases} cases; {time.monotonic() - t0:.1f}s")


def test_criterion_6_dwork_route():
    t0 = time.monotonic()
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    res = np_T(pr, 3)
    P = lower_bound_polygon(pr, 3)
    assert res.polygon.values == P.values
    assert res.polygon.slopes() == [F(0), F(2, 5), F(3, 5)]
    reports = trace_consistency(res.matrix, k_max=3, J=6)
    assert all(r.ok and r.checked_order == 6 for r in reports)
    np_classical = newton_polygon_classical(l_polynomial(pr))
    assert lies_above(res.polygon, P)
    assert lies_above(np_classical, res.polygon)
    res2 = np_T(pr, 3, N=2 * res.matrix.N, O=res.matrix.O)
    assert res2.polygon.values == res.polygon.values
    for c1, c2 in zip(res.coeffs, res2.coeffs):
        cap = res.matrix.O
        assert {k: v for k, v in c1.terms.items() if k < cap} == \
            {k: v for k, v in c2.terms.items() if k < cap}
    elapsed = time.monotonic() - t0
    _report(6, True,
            f"T-adic route: slopes match, trace formula agrees to certified "
            f"order for k<=3, sandwich holds, doubling N is bit-identical; "
            f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_7_twisted_b2_case():
    t0 = time.monotonic()
    pr = Params(p=11, a=2, d=3, e=2, c=3, mu=1, lam_index=1)
    assert pr.u == 40 and pr.digits == (7, 3) and pr.b == 2
    cert = hasse_certificate(pr)
    P = lower_bound_polygon(pr, 3)
    np_poly = newton_polygon_classical(l_polynomial(pr, budget=BIG_BUDGET))
    assert lies_above(np_poly, P)
    equal = np_poly.values == P.values
    assert cert.verdicts_consistent()
    assert equal == cert.h_unit
    res = np_T(pr, 3)
    assert res.polygon.values == np_poly.values
    reports = trace_consistency(res.matrix, k_max=2, J=4)
    assert all(r.ok for r in reports)
    elapsed = time.monotonic() - t0
    _report(7, True,
            f"twisted case q=121, u=40: bound holds, equality verdict "
            f"({equal}) matches the certificate, classical and T-adic "
            f"routes agree; {elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_8_residue_class_invariance():
    t0 = time.monotonic()
    pairs = [
        ((3, 2, 1, 1), (11, 17)),
        ((3, 2, 1, 1), (13, 19)),
        ((4, 3, 1, 1), (17, 29)),
        ((4, 3, 1, 1), (19, 23)),
        ((5, 2, 1, 1), (31, 41)),
        ((3, 2, 2, 1), (13, 19)),
        ((3, 2, 2, 1), (17, 23)),
        ((3, 2, 3, 1), (11, 29)),
    ]
    for (d, e, c, mu), (p1, p2) in pairs:
        assert p1 % (c * d) == p2 % (c * d)
        b1 = 1 if c == 1 else sympy.n_order(p1, c)
        b2 = 1 if c == 1 else sympy.n_order(p2, c)
        cert1 = hasse_certificate(Params(p=p1, a=b1, d=d, e=e, c=c, mu=mu))
        cert2 = hasse_certificate(Params(p=p2, a=b2, d=d, e=e, c=c, mu=mu))
        assert cert1.H == cert2.H, (d, e, c, mu, p1, p2)
        assert isinstance(cert1.H, int)
    _report(8, True,
            f"{len(pairs)} prime pairs in shared residue classes produced "
            f"identical integral constants; {time.monotonic() - t0:.1f}s")


def test_criterion_9_hodge_gap_bound(c_tables):
    t0 = time.monotonic()
    checked = 0
    seen = set()
    for (d, e, p, _t) in c_tables:
        if (d, e, p) in seen:
            continue
        seen.add((d, e, p))
        pr = Params(p=p, a=1, d=d, e=e, c=1, mu=1)
        P = lower_bound_polygon(pr, 3 * d)
        H = hodge_polygon(pr, 3 * d)
        gap = max(P.value(n) - H.value(n) for n in range(3 * d + 1))
        bound = F((d - e) * (d - 1) ** 2, d * (p - 1))
        assert 0 <= gap <= bound, (d, e, p)
        checked += 1
    # twisted points too
    for (p, a, d, e, c, mu) in [(11, 2, 3, 2, 3, 1), (11, 1, 3, 2, 2, 1),
                                (17, 1, 4, 3, 2, 1)]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
        P = lower_bound_polygon(pr, 3 * d)
        H = hodge_polygon(pr, 3 * d)
        gap = max(P.value(n) - H.value(n) for n in range(3 * d + 1))
        assert 0 <= gap <= F((d - e) * (d - 1) ** 2, d * (p - 1))
        checked += 1
    _report(9, True,
            f"gap to the Hodge bound within (d-e)(d-1)^2/(d(p-1)) on "
            f"{checked} parameter points; {time.monotonic() - t0:.1f}s")
