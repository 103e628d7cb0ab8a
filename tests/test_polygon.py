"""Tests for exact polygons: Hodge bound, assignment bound, hulls."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import corners, fraction_hull
from twistnp.combinatorics import CombInstance, compute_C
from twistnp.polygon import (
    Params,
    Polygon,
    hodge_polygon,
    lies_above,
    lower_bound_polygon,
    lower_convex_hull,
)

F = Fraction


def test_params_derivation_twisted_case():
    pr = Params(p=11, a=2, d=3, e=2, c=3, mu=1)
    assert pr.q == 121
    assert pr.u == 40
    assert pr.b == 2
    assert pr.digits == (7, 3)
    assert pr.u_digit(1) == 3 and pr.u_digit(2) == 7 and pr.u_digit(0) == 7


def test_params_validation():
    with pytest.raises(ValueError):
        Params(p=10, a=1, d=3, e=2, c=1, mu=1)  # p not prime
    with pytest.raises(ValueError):
        Params(p=11, a=1, d=3, e=2, c=4, mu=1)  # c does not divide q-1
    with pytest.raises(ValueError):
        Params(p=11, a=1, d=4, e=2, c=1, mu=1)  # gcd(d,e) != 1
    with pytest.raises(ValueError):
        Params(p=3, a=1, d=3, e=2, c=1, mu=1)  # p divides d
    with pytest.raises(ValueError):
        Params(p=11, a=1, d=3, e=2, c=2, mu=2)  # gcd(mu,c) != 1


def test_hodge_polygon_untwisted():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    assert pr.u == 0
    H = hodge_polygon(pr, 7)
    assert H.slopes()[:4] == [F(0), F(1, 3), F(2, 3), F(1)]
    for n in range(4):
        assert H.slope(n + 3) == H.slope(n) + 1


def test_hodge_polygon_quadratic_twist_example():
    # u = 5 over F_11 has order c = 2; single digit 5
    pr = Params(p=11, a=1, d=3, e=2, c=2, mu=1)
    assert pr.u == 5 and pr.b == 1
    H = hodge_polygon(pr, 3)
    assert H.slope(0) == F(5, 30) == F(1, 6)


def test_lower_bound_polygon_p11_anchor():
    # frozen from the exhaustive assignment oracle: C_{0,-1..2} = 0,0,2,0
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    P = lower_bound_polygon(pr, 3)
    assert P.slopes() == [F(0), F(2, 5), F(3, 5)]
    assert sum(P.slopes()) == 1
    inst = CombInstance(p=11, d=3, e=2, t=0)
    got = [compute_C(inst, n) for n in (-1, 0, 1, 2)]
    assert got == [0, 0, 2, 0]
    for n in range(3):
        expected_slope = F(n, 3) + F(got[n + 1] - got[n], 30)
        assert P.slope(n) == expected_slope


def test_lower_bound_polygon_twisted_anchor():
    # frozen from the assignment oracle: C_{3,*} = (0,0,2,0), C_{7,*} = (0,2,0,0)
    pr = Params(p=11, a=2, d=3, e=2, c=3, mu=1)
    P = lower_bound_polygon(pr, 3)
    assert [P.value(n) for n in range(4)] == [F(0), F(1, 5), F(7, 10), F(3, 2)]
    H = hodge_polygon(pr, 3)
    assert P.value(3) == H.value(3)
    assert lies_above(P, H)


def test_lower_bound_meets_hodge_on_d_multiples():
    for (p, a, d, e, c, mu) in [(11, 1, 3, 2, 1, 1), (13, 1, 4, 3, 1, 1),
                                (11, 2, 3, 2, 3, 1), (17, 1, 5, 2, 2, 1)]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
        P = lower_bound_polygon(pr, 3 * d)
        H = hodge_polygon(pr, 3 * d)
        assert lies_above(P, H)
        for m in range(4):
            assert P.value(d * m) == H.value(d * m)
        for n in range(2 * d):
            assert P.slope(n + d) == P.slope(n) + 1
        if pr.monotone_bound_ok():
            assert P.is_convex()


def test_p_equiv_1_case_collapses_to_hodge():
    pr = Params(p=13, a=1, d=3, e=2, c=1, mu=1)
    P = lower_bound_polygon(pr, 9)
    H = hodge_polygon(pr, 9)
    assert P.values == H.values


def test_hull_basic():
    hull = lower_convex_hull([0, 1, 1], 1)
    assert hull.values == (F(0), F(1, 2), F(1))
    assert corners(hull) == [(0, F(0)), (2, F(1))]


def test_hull_skips_missing_points():
    hull = lower_convex_hull([0, None, 1], 1)
    assert hull.values == (F(0), F(1, 2), F(1))
    # a missing last point shortens the polygon
    assert lower_convex_hull([0, None, 1, None], 1).values == hull.values


def test_hull_collinear_keeps_values():
    hull = lower_convex_hull([0, 1, 2, 10], 2)
    assert hull.values == (F(0), F(1, 2), F(1), F(5))
    assert corners(hull) == [(0, F(0)), (2, F(1)), (3, F(5))]


def test_hull_interpolates_over_scale_times_run():
    # the chord from (0, 0) to (3, 1) at scale 10: value n/30, whose
    # denominator is scale * (x2 - x1), not scale
    hull = lower_convex_hull([0, None, None, 1], 10)
    assert hull.values == (F(0), F(1, 30), F(1, 15), F(1, 10))
    assert hull.value(1).denominator == 30


def test_hull_errors():
    with pytest.raises(ValueError, match="no finite points"):
        lower_convex_hull([], 1)
    with pytest.raises(ValueError, match="no finite points"):
        lower_convex_hull([None, None], 1)
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        lower_convex_hull([None, 0, 1], 1)
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        lower_convex_hull([1, 2], 1)


def test_hull_is_convex_and_below_points():
    rng = random.Random(5)
    for _ in range(50):
        # the rationals num/den, den <= 7, over the common scale 420
        pts = [F(0)] + [F(rng.randint(-20, 40), rng.randint(1, 7))
                        for n in range(1, rng.randint(2, 9))]
        hull = lower_convex_hull([int(v * 420) for v in pts], 420)
        assert hull.is_convex()
        for n, v in enumerate(pts):
            assert hull.value(n) <= v


def test_hull_matches_the_fraction_oracle():
    rng = random.Random(27)
    for _ in range(2000):
        scale = rng.choice([10, 22, 40, 84, 120])
        vals = [0] + [None if rng.random() < 0.3 else rng.randrange(400)
                      for _ in range(rng.randint(2, 12))]
        want = fraction_hull([(n, None if v is None else F(v, scale))
                              for n, v in enumerate(vals)])
        assert lower_convex_hull(vals, scale) == want, (vals, scale)


def test_lies_above():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    P = lower_bound_polygon(pr, 6)
    H = hodge_polygon(pr, 6)
    assert lies_above(P, P) is True
    assert lies_above(P, H) is True
    assert lies_above(H, P) is False
    # the first violation is at index 2
    assert all(H.value(n) >= P.value(n) for n in range(2))
    assert H.value(2) == F(1, 3) and P.value(2) == F(2, 5)
    # only the shared range counts
    assert lies_above(H.restrict(1), P) is True


def test_polygon_json_shape():
    poly = Polygon((F(0), F(1, 3), F(1)))
    js = poly.to_json_dict()
    assert js == {"vertices": [[0, "0/1"], [1, "1/3"], [2, "1/1"]]}
