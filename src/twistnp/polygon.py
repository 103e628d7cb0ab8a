"""Exact-rational polygons: Hodge-type lower bounds and convex hulls.

Polygons are stored as their values at every integer index of the range,
not just at corner points, so comparisons are plain index-wise checks on
``Fraction`` values.  A Newton polygon comes from one hull,
``lower_convex_hull``, of integer valuations in a ring's uniformizer over
one integer scale: it runs on integers and makes each value's
``Fraction`` once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import C_value_reduced, CombInstance
from .core_arith import check_exponents, is_prime, twist_digits


class Params:
    """Full parameter tuple of one twisted binomial instance.

    ``lam_index`` is the discrete log of the binomial's lower coefficient
    with respect to the deterministic generator of the residue field (see
    ``padic.make_context``), which keeps sweeps over that coefficient
    reproducible.

    Derived data: q = p^a, u = (q-1)*mu/c reduced mod q-1, b the
    multiplicative order of p mod c, and the digit list of u in base p:
    the b digits u_k of ``twist_digits``, repeated a/b times (b divides a
    once c divides q-1).  Two tuples are equal, and hash alike, when their
    seven given fields are.  A tuple is immutable by convention.
    """

    __slots__ = ("p", "a", "d", "e", "c", "mu", "lam_index", "q", "u", "b", "digits")

    def __init__(self, p: int, a: int, d: int, e: int, c: int, mu: int, lam_index: int = 0):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if a < 1:
            raise ValueError(f"a must be >= 1, got {a}")
        check_exponents(d, e)
        if d % p == 0:
            raise ValueError(f"p must not divide d, got p={p}, d={d}")
        if c < 1:
            raise ValueError(f"c must be >= 1, got {c}")
        q = p ** a
        if (q - 1) % c != 0:
            raise ValueError(f"c={c} must divide q-1={q - 1}")
        if math.gcd(mu, c) != 1:
            raise ValueError(f"need gcd(mu, c) = 1, got mu={mu}, c={c}")
        if not (0 <= lam_index <= q - 2):
            raise ValueError(f"lam_index must lie in [0, q-2], got {lam_index}")
        digits = tuple(u for _, u in twist_digits(p, mu, c))
        self.p, self.a, self.d, self.e = p, a, d, e
        self.c, self.mu, self.lam_index = c, mu, lam_index
        self.q = q
        self.u = ((q - 1) // c * mu) % (q - 1)
        self.b = len(digits)
        self.digits = digits * (a // self.b)

    def _fields(self) -> tuple[int, ...]:
        return (self.p, self.a, self.d, self.e, self.c, self.mu, self.lam_index)

    def __eq__(self, other):
        if not isinstance(other, Params):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("Params(p={}, a={}, d={}, e={}, c={}, mu={}, lam_index={})"
                .format(*self._fields()))

    def u_digit(self, k: int) -> int:
        """Digit u_k of u in base p, indexed cyclically mod b."""
        return self.digits[k % self.b]

    def monotone_bound_ok(self) -> bool:
        """Whether p > (d-e)(2d-1), the slope-monotonicity threshold."""
        return self.p > monotone_bound(self.d, self.e)

    def key(self) -> str:
        """The sweep-record key."""
        return f"p{self.p}_a{self.a}_d{self.d}_e{self.e}_c{self.c}_mu{self.mu}_l{self.lam_index}"


def monotone_bound(d: int, e: int) -> int:
    """The slope-monotonicity threshold (d-e)(2d-1); theorems need p above it."""
    return (d - e) * (2 * d - 1)


class Polygon:
    """Values of a polygon at indices 0..n_max as exact rationals; two
    polygons are equal when their values are."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        if not values:
            raise ValueError("polygon needs at least the index-0 point")
        if values[0] != 0:
            raise ValueError("polygon must start at value 0")
        self.values = values

    def __eq__(self, other):
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.values == other.values

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> Fraction:
        return self.values[n]

    def slope(self, n: int) -> Fraction:
        return self.values[n + 1] - self.values[n]

    def slopes(self) -> list[Fraction]:
        return [self.slope(n) for n in range(self.n_max)]

    def is_convex(self) -> bool:
        s = self.slopes()
        return all(s[i] <= s[i + 1] for i in range(len(s) - 1))

    def restrict(self, n_max: int) -> "Polygon":
        return Polygon(self.values[: n_max + 1])

    def to_json_dict(self) -> dict:
        return {"vertices": [[n, f"{v.numerator}/{v.denominator}"]
                             for n, v in enumerate(self.values)]}


def hodge_polygon(params: Params, n_max: int) -> Polygon:
    """Polygon with slope n/d + (sum of one digit period)/(b*d*(p-1)) at n."""
    shift = Fraction(sum(params.u_digit(k) for k in range(1, params.b + 1)),
                     params.b * params.d * (params.p - 1))
    vals = [Fraction(n * (n - 1), 2 * params.d) + n * shift for n in range(n_max + 1)]
    return Polygon(tuple(vals))


def hodge_order(params: Params, n: int) -> int:
    """HP(n) a(p-1), the Hodge polygon at a multiple n = md of d in
    pi-units: a(p-1) m(n-1)/2 + m (a/b) (digit sum of one period).

    An integer, since b | a and (p-1) m(n-1) is even for p prime to d.
    """
    m = n // params.d
    return params.a * (params.p - 1) * m * (n - 1) // 2 + m * sum(params.digits)


def lower_bound_polygon(params: Params, n_max: int) -> Polygon:
    """The sharper lower bound built from assignment optima.

    Value at n: n(n-1)/(2d) + sum_k (n*u_k + (d-e)*C_{u_k,n-1}) / (bd(p-1)),
    the k-sum running over one digit period.
    """
    insts = [CombInstance(params.p, params.d, params.e, params.u_digit(k))
             for k in range(1, params.b + 1)]
    denom = params.b * params.d * (params.p - 1)
    vals = []
    for n in range(n_max + 1):
        acc = Fraction(n * (n - 1), 2 * params.d)
        for inst in insts:
            acc += Fraction(n * inst.t + (params.d - params.e) * C_value_reduced(inst, n - 1),
                            denom)
        vals.append(acc)
    return Polygon(tuple(vals))


def lower_convex_hull(valuations: list[int | None], scale: int) -> Polygon:
    """Lower convex hull of the points (n, valuations[n] / scale), evaluated
    at every index up to the last point.

    ``valuations`` are integers, None where a coefficient vanishes mod the
    precision and has no point; ``scale`` is a positive integer.  The hull
    is taken on the integers, and value n on the hull segment from (x1, y1)
    to (x2, y2) is (y1 (x2 - x1) + (y2 - y1)(n - x1)) / (scale (x2 - x1)).
    The point (0, 0) must be present.
    """
    if all(v is None for v in valuations):
        raise ValueError("no finite points given")
    if valuations[0] != 0:
        raise ValueError("hull needs the point (0, 0)")
    hull: list[tuple[int, int]] = []
    for x, y in enumerate(valuations):
        if y is None:
            continue
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only right turns: slope into (x, y) must not drop
            if (y2 - y1) * (x - x2) > (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    vals = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        dx, dy = x2 - x1, y2 - y1
        vals += [Fraction(y1 * dx + dy * k, scale * dx) for k in range(dx)]
    vals.append(Fraction(hull[-1][1], scale))
    return Polygon(tuple(vals))


def lies_above(upper: Polygon, lower: Polygon) -> bool:
    """Whether ``upper`` is at least ``lower`` at every index both cover."""
    return all(u >= v for u, v in zip(upper.values, lower.values))
