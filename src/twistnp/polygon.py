"""Exact-rational polygons: Hodge-type lower bounds and convex hulls.

Polygons are stored as their values at every integer index of the range,
not just at corner points, so comparisons are plain index-wise checks on
``Fraction`` values.  Corner extraction is available for compact output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from .combinatorics import C_value_reduced, CombInstance


@dataclass(frozen=True)
class Params:
    """Full parameter tuple of one twisted binomial instance.

    ``lam_index`` is the discrete log of the binomial's lower coefficient
    with respect to the deterministic generator of the residue field (see
    ``padic.make_context``), which keeps sweeps over that coefficient
    reproducible.

    Derived data: q = p^a, u = (q-1)*mu/c reduced mod q-1, the digit list
    of u in base p (length a, periodic with period b), and b the
    multiplicative order of p mod c.
    """

    p: int
    a: int
    d: int
    e: int
    c: int
    mu: int
    lam_index: int = 0
    q: int = field(init=False)
    u: int = field(init=False)
    b: int = field(init=False)
    digits: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not sympy.isprime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if not (self.d > self.e >= 1):
            raise ValueError(f"need d > e >= 1, got d={self.d}, e={self.e}")
        if math.gcd(self.d, self.e) != 1:
            raise ValueError(f"need gcd(d, e) = 1, got {self.d}, {self.e}")
        if self.d % self.p == 0:
            raise ValueError(f"p must not divide d, got p={self.p}, d={self.d}")
        if self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")
        q = self.p ** self.a
        if (q - 1) % self.c != 0:
            raise ValueError(f"c={self.c} must divide q-1={q - 1}")
        if math.gcd(self.mu, self.c) != 1:
            raise ValueError(f"need gcd(mu, c) = 1, got mu={self.mu}, c={self.c}")
        if not (0 <= self.lam_index <= q - 2):
            raise ValueError(f"lam_index must lie in [0, q-2], got {self.lam_index}")
        u = ((q - 1) // self.c * self.mu) % (q - 1)
        b = 1
        if self.c > 1:
            b = sympy.n_order(self.p, self.c)
        if self.a % b != 0:
            raise ValueError(f"order b={b} of p mod c must divide a={self.a}")
        digits = []
        rem = u
        for _ in range(self.a):
            digits.append(rem % self.p)
            rem //= self.p
        assert rem == 0
        for i in range(self.a):
            assert digits[i] == digits[(b + i) % self.a], "digits not b-periodic"
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "digits", tuple(digits))

    def u_digit(self, k: int) -> int:
        """Digit u_k of u in base p, indexed cyclically mod b."""
        return self.digits[k % self.b]

    def monotone_bound_ok(self) -> bool:
        """Whether p > (d-e)(2d-1), the slope-monotonicity threshold."""
        return self.p > (self.d - self.e) * (2 * self.d - 1)

    def key(self) -> str:
        return record_key((self.p, self.a, self.d, self.e, self.c, self.mu,
                           self.lam_index))


def record_key(tup: tuple[int, ...]) -> str:
    """Sweep-record key of a (p, a, d, e, c, mu, lam) tuple, valid or not."""
    p, a, d, e, c, mu, lam = tup
    return f"p{p}_a{a}_d{d}_e{e}_c{c}_mu{mu}_l{lam}"


@dataclass(frozen=True)
class Polygon:
    """Values of a polygon at indices 0..n_max as exact rationals."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("polygon needs at least the index-0 point")
        if self.values[0] != 0:
            raise ValueError("polygon must start at value 0")

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

    def corners(self) -> list[tuple[int, Fraction]]:
        """Vertices with collinear interior points dropped."""
        out = [(0, self.values[0])]
        for n in range(1, self.n_max):
            if self.slope(n - 1) != self.slope(n):
                out.append((n, self.values[n]))
        if self.n_max >= 1:
            out.append((self.n_max, self.values[self.n_max]))
        return out

    def restrict(self, n_max: int) -> "Polygon":
        return Polygon(self.values[: n_max + 1])

    def to_json_dict(self, corners_only: bool = False) -> dict:
        pts = self.corners() if corners_only else list(enumerate(self.values))
        return {"vertices": [[n, f"{v.numerator}/{v.denominator}"] for n, v in pts]}


@dataclass(frozen=True)
class AboveVerdict:
    ok: bool
    index: int | None = None
    upper_value: Fraction | None = None
    lower_value: Fraction | None = None


def hodge_polygon(params: Params, n_max: int) -> Polygon:
    """Polygon with slope n/d + (sum of one digit period)/(b*d*(p-1)) at n."""
    shift = Fraction(sum(params.u_digit(k) for k in range(1, params.b + 1)),
                     params.b * params.d * (params.p - 1))
    vals = [Fraction(n * (n - 1), 2 * params.d) + n * shift for n in range(n_max + 1)]
    return Polygon(tuple(vals))


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


def lower_convex_hull(points: list[tuple[int, Fraction | None]]) -> Polygon:
    """Lower convex closure of (index, value) points, evaluated index-wise.

    Entries with value None (or +infinity) are treated as missing
    coefficients and ignored.  The index-0 point must be present.
    """
    finite = [(n, Fraction(v)) for n, v in points
              if v is not None and v != math.inf]
    if not finite:
        raise ValueError("no finite points given")
    finite.sort()
    if finite[0][0] != 0:
        raise ValueError("hull needs a finite point at index 0")
    hull: list[tuple[int, Fraction]] = []
    for pt in finite:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only right turns: slope into pt must not drop
            if (y2 - y1) * (pt[0] - x2) > (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        if len(hull) == 1 and hull[0][0] == pt[0]:
            continue
        hull.append(pt)
    n_max = finite[-1][0]
    vals = []
    seg = 0
    for n in range(n_max + 1):
        while seg + 1 < len(hull) and hull[seg + 1][0] < n:
            seg += 1
        if hull[seg][0] == n:
            vals.append(hull[seg][1])
        else:
            (x1, y1), (x2, y2) = hull[seg], hull[seg + 1]
            vals.append(y1 + (y2 - y1) * Fraction(n - x1, x2 - x1))
    if vals[0] != 0:
        raise ValueError("hull must start at value 0 at index 0")
    return Polygon(tuple(vals))


def lies_above(upper: Polygon, lower: Polygon) -> AboveVerdict:
    """Index-wise comparison on the shared range; reports first violation."""
    n_max = min(upper.n_max, lower.n_max)
    for n in range(n_max + 1):
        if upper.value(n) < lower.value(n):
            return AboveVerdict(ok=False, index=n,
                                upper_value=upper.value(n), lower_value=lower.value(n))
    return AboveVerdict(ok=True)
