"""Oracles and test-only helpers: code no command runs, kept as the
independent side of the checks on the program.

- the assignment layer: the least residue, the inverse mod d and the
  closed form of min x + y over d*x + e*y = n (``min_phi``), rational
  falling factorials, (n+1)!
  enumerations that the Hungarian solve, its
  tight edges and the matching count are checked against, the
  overflow-count matching with its residue columns, and the sum of y over
  the representable optimal set (``v_exponent``)
- the polygons: the hull on ``Fraction`` points and the corners of a
  polygon
- the residue fields: the generator search over every code, and the numpy
  enumeration kernel that counts traces by small matrix products
- the unramified ring: unit inverses, Newton lifting of roots, the
  Teichmuller lift by iterated q-th powers, the lifted Frobenius, and the
  companion-matrix traces
- the ramified ring over the pi_1-basis: its packed product with the
  pi-fold, the Newton identities there, the full change of basis from
  zeta_p-coordinates and back, zeta_p powers and congruence mod pi_1
- the classical L-polynomial from every sum S_1..S_d, the full route the
  half route's reflection is checked against
- the T-adic layer: the series product over dicts of Z_q elements, the
  direct sum by a walk over the field, the reversion pi(T) of
  T = E(pi) - 1 and the T-expansion of a pi-series, the stated entry
  and aggregate bounds, and the operator sized by the lower bound's top
  point P(n_top) with the hull read off it
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from twistnp.combinatorics import (
    CombInstance,
    compute_C,
    cost_matrix,
    optimal_perm_sets,
)
from twistnp.core_arith import (
    INFINITY,
    artin_hasse_coeffs,
    prime_factors,
)
from twistnp.dwork import (
    DEFAULT_GUARD,
    PiSeries,
    PsiMatrix,
    _dot,
    _ProductCoeffs,
    char_series,
    psi_a_matrix,
)
from twistnp.lfunction import (
    DEFAULT_BUDGET,
    ClassicalSum,
    LFunctionData,
    SmallPrimeError,
    SubfieldDescent,
    TadicSum,
    _descent_for,
    _newton_coeffs,
    check_budget,
    classical_sums_multi,
    default_precision,
)
from twistnp.padic import (
    RamifiedElem,
    ZqContext,
    ZqElem,
    basis_traces,
    checked_pairs,
    make_context,
    pack,
    poly_mod,
    poly_pow_mod,
    poly_trim,
    slot_bytes,
    smallest_irreducible,
    unpack,
    vp_min,
    x_walk,
)
from twistnp.polygon import Params, Polygon, lower_bound_polygon, lower_convex_hull

# ---------------------------------------------------------------------------
# the assignment layer


def min_residue(x: int, d: int) -> int:
    """Minimal non-negative residue of ``x`` modulo ``d``."""
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    return x % d


def mod_inverse(e: int, d: int) -> int:
    """Inverse of ``e`` modulo ``d``, in ``[1, d)`` (0 when d == 1)."""
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    if math.gcd(e, d) != 1:
        raise ValueError(f"{e} is not invertible modulo {d}")
    return pow(e, -1, d)


@lru_cache(maxsize=None)
def min_phi(n: int, d: int, e: int) -> int | float:
    """min{x + y : dx + ey = n, x, y >= 0}, or INFINITY if unsolvable.

    When finite this equals (n + (d-e) * min_residue(e^{-1} n, d)) / d: the
    minimum is attained at the smallest admissible y.
    """
    if not (d > e >= 1):
        raise ValueError(f"need d > e >= 1, got d={d}, e={e}")
    if math.gcd(d, e) != 1:
        raise ValueError(f"need gcd(d, e) = 1, got d={d}, e={e}")
    if n < 0:
        return INFINITY
    y = min_residue(mod_inverse(e, d) * n, d)
    x2 = n - e * y
    if x2 < 0:
        return INFINITY
    assert x2 % d == 0
    return x2 // d + y


def falling_factorial(x: int | Fraction, n: int) -> Fraction:
    """x(x-1)...(x-n+1) with n factors; n = 0 gives 1."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    out = Fraction(1)
    xf = Fraction(x)
    for j in range(n):
        out *= xf - j
    return out


def exhaustive_C(inst: CombInstance, n: int) -> tuple[int, frozenset[tuple[int, ...]]]:
    """The optimum over permutations of {0..n} and the permutations attaining it."""
    mat = cost_matrix(inst, n)
    totals = {tau: sum(mat[i][tau[i]] for i in range(n + 1))
              for tau in itertools.permutations(range(n + 1))}
    best = min(totals.values())
    return best, frozenset(tau for tau, s in totals.items() if s == best)


def R_value(inst: CombInstance, i: int, alpha: int) -> int:
    return min_residue(mod_inverse(inst.e, inst.d) * (inst.p * i + alpha), inst.d)


def r_value(inst: CombInstance, i: int, alpha: int) -> int:
    return min_residue(mod_inverse(inst.e, inst.d) * (inst.t - alpha - i), inst.d)


def perm_sign(tau: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(tau)
    for start in range(len(tau)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = tau[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def max_matching(adj: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size by augmenting paths."""
    match_right = [-1] * n_right

    def try_augment(i: int, visited: list[bool]) -> bool:
        for j in adj[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_right[j] == -1 or try_augment(match_right[j], visited):
                match_right[j] = i
                return True
        return False

    return sum(1 for i in range(len(adj)) if try_augment(i, [False] * n_right))


def compute_bfC(inst: CombInstance, n: int, alpha: int) -> int:
    """Maximal number of i in {0..n} with R_i + r_{tau(i)} >= d over tau.

    Solved as a maximum-cardinality bipartite matching on the pairs that
    satisfy the inequality.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    if n == -1:
        return 0
    R = [R_value(inst, i, alpha) for i in range(n + 1)]
    r = [r_value(inst, j, alpha) for j in range(n + 1)]
    adj = [[j for j in range(n + 1) if R[i] + r[j] >= inst.d] for i in range(n + 1)]
    return max_matching(adj, n + 1)


def bfC_exhaustive(inst: CombInstance, n: int, alpha: int) -> int:
    """Brute-force version of compute_bfC."""
    if n == -1:
        return 0
    R = [R_value(inst, i, alpha) for i in range(n + 1)]
    r = [r_value(inst, j, alpha) for j in range(n + 1)]
    return max(
        sum(1 for i in range(n + 1) if R[i] + r[tau[i]] >= inst.d)
        for tau in itertools.permutations(range(n + 1))
    )


class VExponentUndefinedError(ValueError):
    """Raised when the optimal set with representable targets is empty."""


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
        values.add(sum(inst.decompose(i, tau[i])[1] for i in range(n + 1)))
    assert len(values) == 1, "sum of y over the optimal set is not constant"
    v = values.pop()
    assert v == compute_C(inst, n)
    return v


def fraction_hull(points: list[tuple[int, Fraction | None]]) -> Polygon:
    """Lower convex closure of (index, value) points on ``Fraction``
    values, evaluated index-wise: the oracle of the integer
    ``polygon.lower_convex_hull``.  Points with value None are missing;
    the hull must start at (0, 0)."""
    finite = sorted((n, Fraction(v)) for n, v in points if v is not None)
    if not finite:
        raise ValueError("no finite points given")
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
    vals = []
    seg = 0
    for n in range(finite[-1][0] + 1):
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


def corners(poly: Polygon) -> list[tuple[int, Fraction]]:
    """Vertices with collinear interior points dropped."""
    out = [(0, poly.values[0])]
    for n in range(1, poly.n_max):
        if poly.slope(n - 1) != poly.slope(n):
            out.append((n, poly.values[n]))
    if poly.n_max >= 1:
        out.append((poly.n_max, poly.values[poly.n_max]))
    return out


# ---------------------------------------------------------------------------
# the residue fields: the generator search and the vectorised enumeration


def find_generator_every_code(p: int, deg: int) -> tuple[int, ...]:
    """``padic.find_generator`` without its skip: every code from 1 on is
    tried, the constants included."""
    modulus = smallest_irreducible(p, deg)
    order = p**deg - 1
    primes = prime_factors(order)
    for code in range(1, p**deg):
        z = poly_trim(tuple(code // p**i % p for i in range(deg)))
        if all(poly_pow_mod(z, order // r, modulus, p) != (1,) for r in primes):
            return z
    raise AssertionError("no generator found")


def mult_matrix(z, modulus, p, m) -> np.ndarray:
    """Matrix of multiplication by z on the power basis of F_{p^m}: column
    t is z * X^t, one step of ``x_walk`` from column t - 1."""
    cols = x_walk(poly_mod(z, modulus, p), modulus[:m], p, m)
    return np.array(cols, dtype=np.int64).T


def power_block(h, modulus, p, m, width) -> np.ndarray:
    """Columns h^0 .. h^{width-1} as an (m, width) array, by doubling."""
    P = np.zeros((m, width), dtype=np.int64)
    P[0, 0] = 1
    filled = 1
    while filled < width:
        take = min(filled, width - filled)
        mat = mult_matrix(poly_pow_mod(h, filled, modulus, p), modulus, p, m)
        P[:, filled:filled + take] = (mat @ P[:, :take]) % p
        filled += take
    return P


def row_basis(rows, p, m) -> tuple[np.ndarray, np.ndarray]:
    """An echelon basis of the F_p-span of length-m ``rows``, and each row's
    coordinates.

    Returns ``(basis, coords)``, an (r, m) and an (len(rows), r) array with
    ``rows == coords @ basis`` mod p, where r is the rank.  Each basis
    vector is zero at the pivots of the vectors before it, so reducing a
    row against them in order leaves every earlier pivot at zero.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    coords: list[list[int]] = []
    for row in rows:
        v = [int(x) % p for x in row]
        f = []
        for piv, b in zip(pivots, basis):
            s = v[piv]
            f.append(s)
            if s:
                v = [(x - s * y) % p for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            inv = pow(v[piv], -1, p)
            f.append(v[piv])
            basis.append([x * inv % p for x in v])
            pivots.append(piv)
        coords.append(f)
    r = len(basis)
    coords_arr = np.zeros((len(rows), r), dtype=np.int64)
    for li, f in enumerate(coords):
        coords_arr[li, :len(f)] = f
    return np.array(basis, dtype=np.int64).reshape(r, m), coords_arr


def joint_histogram_fits(p: int, r: int, c: int, n_lam: int, width: int) -> bool:
    """Whether the joint (Tr x^d, z, j mod c) histogram is worth binning.

    It has p^(r+1) * c bins; it is used only while that is no larger than
    the per-coefficient output (n_lam * p * c) or one block of powers, so
    the pass never holds more than those already need.
    """
    return p**(r + 1) * c <= max(n_lam * p * c, width)


def trace_count_matrix_numpy(p, m, ctx, lam_vecs, d_exp, e_exp, c,
                             block=1 << 14) -> np.ndarray:
    """Counts N[l, r, j mod c] over x = g^j of Tr(x^d + lam_l * x^e) = r,
    for the coefficients' residue vectors ``lam_vecs``: the numpy kernel
    that ``lfunction.trace_count_matrix`` replaced.

    ``ctx`` is the context of F_{p^m}, g its generator.  One pass over the
    q^k - 1 generator powers serves every coefficient in ``lam_vecs``:
    Tr(lam * y) = row_lam . y is linear in the coordinates y of x^e, and
    the rows row_lam span a space of rank r <= min(#lam, a).  The pass
    reads z, the projection of y onto a basis of that span, and
    Tr(lam_l * y) = coords[l] . z.  When ``joint_histogram_fits``, it bins
    (Tr x^d, z, j mod c) and folds each coefficient's counts out
    afterwards; otherwise it bins each coefficient's trace directly.
    Blocks of powers come from small matrix products: multiplication by a
    fixed field element is a linear map over F_p.
    """
    modulus, g = ctx.modulus, ctx.generator
    total = p**m - 1
    width = min(block, total)
    tr = np.array(basis_traces(modulus, p), dtype=np.int64)
    h_d = poly_pow_mod(g, d_exp, modulus, p)
    h_e = poly_pow_mod(g, e_exp, modulus, p)
    P_d = power_block(h_d, modulus, p, m, width)
    P_e = power_block(h_e, modulus, p, m, width)
    step_d = mult_matrix(poly_pow_mod(h_d, width, modulus, p), modulus, p, m)
    step_e = mult_matrix(poly_pow_mod(h_e, width, modulus, p), modulus, p, m)
    n_lam = len(lam_vecs)
    basis, coords = row_basis([(tr @ mult_matrix(vec, modulus, p, m)) % p
                               for vec in lam_vecs], p, m)
    r = len(basis)
    joint = joint_histogram_fits(p, r, c, n_lam, width)
    if joint:
        z_place = p ** np.arange(r, dtype=np.int64)
        bins = np.zeros(p**(r + 1) * c, dtype=np.int64)
    else:
        counts = np.zeros((n_lam, p * c), dtype=np.int64)
    # the trace rows at the block's first power x = g^j0, one product a block
    row_d, rows_e = tr, basis
    j0 = 0
    while j0 < total:
        nb = min(width, total - j0)
        alpha = (row_d @ P_d[:, :nb]) % p
        z = (rows_e @ P_e[:, :nb]) % p
        jmod = (j0 + np.arange(nb, dtype=np.int64)) % c
        if joint:
            keys = (alpha * p**r + z_place @ z) * c + jmod
            bins += np.bincount(keys, minlength=bins.size)
        else:
            for li in range(n_lam):
                t_vals = (alpha + coords[li] @ z) % p
                counts[li] += np.bincount(t_vals * c + jmod, minlength=p * c)
        row_d = (row_d @ step_d) % p
        rows_e = (rows_e @ step_e) % p
        j0 += nb
    if not joint:
        return counts.reshape(n_lam, p, c)
    # bin b = alpha * p^r + sum_i z_i p^i; its trace under lam_l is
    # alpha + coords[l] . z
    cells = np.arange(p**(r + 1), dtype=np.int64)
    alpha = cells // p**r
    z_digits = (cells[:, None] // z_place) % p
    bins = bins.reshape(p**(r + 1), c)
    out = np.zeros((n_lam, p, c), dtype=np.int64)
    for li in range(n_lam):
        np.add.at(out[li], (alpha + z_digits @ coords[li]) % p, bins)
    return out


# ---------------------------------------------------------------------------
# the unramified ring Z_q mod p^M


def _newton_steps(ctx: ZqContext) -> int:
    return max(1, math.ceil(math.log2(ctx.M))) + 1


def inverse(ctx: ZqContext, a: ZqElem) -> ZqElem:
    """Inverse of a unit: the residue inverse res^(q-2), Newton-lifted."""
    res = poly_trim(tuple(c % ctx.p for c in a.coeffs))
    if not res:
        raise ZeroDivisionError("element is not a unit")
    w = ctx.elem(poly_pow_mod(res, ctx.p**ctx.deg - 2, ctx.modulus, ctx.p))
    for _ in range(_newton_steps(ctx)):
        w = ctx.mul(w, 2 - ctx.mul(a, w))
    assert ctx.mul(a, w) == 1
    return w


def eval_int_poly(ctx: ZqContext, coeffs, z: ZqElem) -> tuple[ZqElem, ZqElem]:
    """f(z) and f'(z) for the integer polynomial f with little-endian
    ``coeffs``, by one Horner pass."""
    val = deriv = ctx.zero()
    for c in reversed(coeffs):
        deriv = ctx.mul(deriv, z) + val
        val = ctx.mul(val, z) + ctx.from_int(c)
    return val, deriv


def lift_root(ctx: ZqContext, coeffs, z: ZqElem) -> ZqElem:
    """Newton-lift z, a simple root of the integer polynomial mod p, to a
    root mod p^M."""
    for _ in range(_newton_steps(ctx)):
        fz, dfz = eval_int_poly(ctx, coeffs, z)
        z = z - ctx.mul(fz, inverse(ctx, dfz))
    assert eval_int_poly(ctx, coeffs, z)[0].is_zero()
    return z


def teichmuller_iterated(ctx: ZqContext, residue) -> ZqElem:
    """``ZqContext.teichmuller`` by iterating z -> z^q, q = p^deg, M + 1
    times from the residue: each step gains one p-adic digit.  Zero maps
    to zero."""
    z = ctx.elem(tuple(c % ctx.p for c in residue))
    for _ in range(ctx.M + 1):
        z = ctx.pow(z, ctx.p**ctx.deg)
    return z


@lru_cache(maxsize=None)
def frobenius_matrix(ctx: ZqContext) -> list[tuple[int, ...]]:
    """Columns sigma(X^v), v < deg, of the lifted Frobenius, mod p^M.

    sigma(X) is the root of the modulus lifted from X^p mod p; on Z_p
    (deg 1) the one column is sigma(1) = 1.
    """
    x_p = poly_pow_mod((0, 1), ctx.p, ctx.modulus, ctx.p)
    z = lift_root(ctx, ctx.modulus, ctx.elem(x_p))
    cols = [ctx.one()]
    for _ in range(ctx.deg - 1):
        cols.append(ctx.mul(cols[-1], z))
    return [c.coeffs for c in cols]


def frobenius(ctx: ZqContext, a: ZqElem) -> ZqElem:
    out = [0] * ctx.deg
    for cv, col in zip(a.coeffs, frobenius_matrix(ctx)):
        if cv:
            out = [(o + cv * x) % ctx.pM for o, x in zip(out, col)]
    return ZqElem(ctx, tuple(out))


def companion_trace_table(ctx: ZqContext) -> list[int]:
    """Tr(x^v) for v = 0..deg-1 as traces of companion-matrix powers."""
    deg, pM = ctx.deg, ctx.pM
    comp = [[0] * deg for _ in range(deg)]
    for i in range(1, deg):
        comp[i][i - 1] = 1
    for i in range(deg):
        comp[i][deg - 1] = (-ctx.modulus[i]) % pM
    table = [deg % pM]
    mat = [[1 if i == j else 0 for j in range(deg)] for i in range(deg)]
    for _ in range(1, deg):
        mat = [[sum(mat[i][k] * comp[k][j] for k in range(deg)) % pM
                for j in range(deg)] for i in range(deg)]
        table.append(sum(mat[i][i] for i in range(deg)) % pM)
    return table


# ---------------------------------------------------------------------------
# the ramified ring over the pi_1-basis, and the change of basis to it


class PiElem:
    """Element of Z_q[pi_1] as a vector of Z_q elements over 1, pi_1, ...,
    pi_1^(p-2), the basis the program's valuations are read in."""

    __slots__ = ("ctx", "comps")

    def __init__(self, ctx: ZqContext, comps):
        comps = tuple(comps)
        assert len(comps) == ctx.p - 1
        self.ctx = ctx
        self.comps = comps

    def __add__(self, other):
        return PiElem(self.ctx, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return PiElem(self.ctx, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return PiElem(self.ctx, tuple(-a for a in self.comps))

    def scale(self, factor) -> "PiElem":
        """Multiply by an int or ZqElem scalar."""
        return PiElem(self.ctx, tuple(c * factor for c in self.comps))

    def __mul__(self, other):
        """Product by an int or ZqElem scalar, or the one-pair ``ram_dot``."""
        if isinstance(other, (int, ZqElem)):
            return self.scale(other)
        return ram_dot(self.ctx, [(self, other)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        return isinstance(other, PiElem) and self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def valuation(self) -> int | None:
        """Valuation in pi_1-units, None when zero mod p^M: the minimum of
        j + (p - 1) v_p over the nonzero components j."""
        p = self.ctx.p
        units = [j + (p - 1) * v for j, v in enumerate(vp_min(c.coeffs, p) for c in self.comps)
                 if v is not None]
        return min(units) if units else None

    def __repr__(self):
        return f"Pi({self.comps})"


def pi_zero(ctx: ZqContext) -> PiElem:
    return PiElem(ctx, (ctx.zero(),) * (ctx.p - 1))


def pi_one(ctx: ZqContext) -> PiElem:
    return PiElem(ctx, (ctx.one(),) + (ctx.zero(),) * (ctx.p - 2))


@lru_cache(maxsize=None)
def pi_xpow_table(ctx: ZqContext):
    """Reduction rows for pi^(p-1+t) against ((1+X)^p - 1)/X, for
    t = 0..p-3; at p = 2 the one row t = 0, which ``zeta_basis`` reads."""
    n = ctx.p - 1
    low = [math.comb(ctx.p, i + 1) % ctx.pM for i in range(n)]
    return x_walk((0,) * (n - 1) + (1,), low, ctx.pM, max(n, 2))[1:]


@lru_cache(maxsize=None)
def ram_packing(ctx: ZqContext) -> tuple[int, list[int]]:
    """Slot bytes of a packed element of Z_q[pi_1], whose pi_1^i X^v sits
    in slot i (2 deg - 1) + v, and the rows of ``pi_xpow_table`` packed in
    that layout.  A pair's product adds at most (p-1) deg products to a
    slot, and the pi-fold after the sum at most one pair's worth more."""
    nbytes = slot_bytes(ctx.pM, (ctx.p - 1) * ctx.deg)
    pad = (0,) * (2 * ctx.deg - 2)
    return nbytes, [pack([x for t in row for x in (t,) + pad], nbytes)
                    for row in pi_xpow_table(ctx)]


def ram_dot(ctx: ZqContext, pairs) -> PiElem:
    """Sum of x * y over pairs in Z_q[pi_1], one big-integer product per
    pair in the layout of ``ram_packing``: pi-row n + t (n = p - 1) of the
    sum is folded into the rows below as residues times the packed row t
    of ``pi_xpow_table``, and each of the n rows left is reduced in X and
    mod p^M, once per call."""
    n, deg, pM = ctx.p - 1, ctx.deg, ctx.pM
    nbytes, pi_rows = ram_packing(ctx)
    span, pad = 2 * deg - 1, (0,) * (deg - 1)

    def packed(x):
        return pack([c for z in x.comps for c in z.coeffs + pad], nbytes)

    total = sum(packed(x) * packed(y) for x, y in checked_pairs(pairs))
    low_bits = 8 * nbytes * span * n
    high = [c % pM for c in unpack(total >> low_bits, nbytes, span * (n - 1))]
    total &= (1 << low_bits) - 1
    for t, row in enumerate(pi_rows[:n - 1]):
        total += pack(high[t * span:(t + 1) * span], nbytes) * row
    low = unpack(total, nbytes, span * n)
    return PiElem(ctx, (ZqElem(ctx, poly_mod(low[i * span:(i + 1) * span], ctx.modulus, pM))
                        for i in range(n)))


def exp_coeffs(sums: list[PiElem]) -> list[PiElem]:
    """l_0..l_n of exp(sum_k S_k s^k / k) from S_1..S_n over the
    pi_1-basis: n l_n is the sum of S_k l_(n-k) over k, one ``ram_dot``,
    then scaled by 1/n."""
    ctx = sums[0].ctx
    coeffs = [pi_one(ctx)]
    for n in range(1, len(sums) + 1):
        acc = ram_dot(ctx, zip(sums, reversed(coeffs)))
        coeffs.append(acc.scale(pow(n, -1, ctx.pM)))
    return coeffs


@lru_cache(maxsize=None)
def zeta_basis(ctx: ZqContext) -> np.ndarray:
    """The (p-1, p) object array whose column r is zeta_p^r over 1, pi_1,
    ..., pi_1^(p-2), mod p^M: zeta_p^r = (1 + pi_1)^r = sum_j C(r, j) pi_1^j,
    and only r = p - 1 reaches pi_1^(p-1), whose reduction is the first
    row of ``pi_xpow_table``."""
    n, pM = ctx.p - 1, ctx.pM
    rows = [[math.comb(r, j) % pM for r in range(n + 1)] for j in range(n)]
    for row, t in zip(rows, pi_xpow_table(ctx)[0]):
        row[n] = (row[n] + t) % pM
    return np.array(rows, dtype=object)


def to_pi(x: RamifiedElem) -> PiElem:
    """The full change of basis of an element kept over zeta_p^0..zeta_p^(p-2)."""
    ctx = x.ctx
    coords = np.array(x.coords, dtype=object).reshape(ctx.p - 1, ctx.deg)
    comps = (zeta_basis(ctx)[:, :ctx.p - 1] @ coords) % ctx.pM
    return PiElem(ctx, (ZqElem(ctx, tuple(row)) for row in comps.tolist()))


def from_pi(y: PiElem) -> RamifiedElem:
    """The element over zeta_p^0..zeta_p^(p-2): pi_1^j = (zeta_p - 1)^j =
    sum_r C(j, r) (-1)^(j-r) zeta_p^r."""
    ctx = y.ctx
    n = ctx.p - 1
    coords = [[sum((-1) ** (j - r) * math.comb(j, r) * y.comps[j].coeffs[v]
                   for j in range(r, n)) % ctx.pM for v in range(ctx.deg)]
              for r in range(n)]
    return RamifiedElem(ctx, map(tuple, coords))


def ram_from_zq(ctx: ZqContext, a: ZqElem) -> PiElem:
    return PiElem(ctx, (a,) + (ctx.zero(),) * (ctx.p - 2))


def zeta_p_power(ctx: ZqContext, n: int) -> PiElem:
    """(1 + pi_1)^(n mod p), the additive character value at n."""
    n = n % ctx.p
    comps = [ctx.zero()] * (ctx.p - 1)
    if n <= ctx.p - 2:
        for j in range(n + 1):
            comps[j] = ctx.from_int(math.comb(n, j))
        return PiElem(ctx, comps)
    # n = p - 1: one reduction step against the minimal polynomial
    for j in range(ctx.p - 1):
        comps[j] = ctx.from_int(math.comb(n, j))
    elem = PiElem(ctx, comps)
    top = pi_xpow_table(ctx)[0]
    corr = PiElem(ctx, tuple(ctx.from_int(t) for t in top))
    return elem + corr.scale(math.comb(n, ctx.p - 1))


def congruent_mod_pi(x, y, k: int) -> bool:
    """Whether x - y, two ``RamifiedElem`` or two ``PiElem``, has
    pi_1-valuation at least k (true when it vanishes)."""
    v = (x - y).valuation()
    return v is None or v >= k


# ---------------------------------------------------------------------------
# sums and the T-adic layer


def exp_sum_classical(params: Params, k: int, M: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> ClassicalSum:
    return classical_sums_multi(params, k, [params.lam_index], M, budget)[params.lam_index]


FULL_ENUMERATION = "full-enumeration"


def full_sums_by_lambda(params: Params, lam_indices: list[int], M: int | None = None,
                        budget: int = DEFAULT_BUDGET) -> dict[int, list[RamifiedElem]]:
    """S_1..S_d of each coefficient index in ``lam_indices``, one pass per
    k for all, once every field up to F_{q^d} fits the budget."""
    check_budget(params, params.d, budget)
    by_k = [classical_sums_multi(params, k, lam_indices, M, budget)
            for k in range(1, params.d + 1)]
    return {lam: [s[lam].value for s in by_k] for lam in lam_indices}


class FullLFunction(LFunctionData):
    """The full route's ``LFunctionData``, which keeps the sums S_1..S_d
    and the coefficients l_0..l_d they give."""

    __slots__ = ("sums", "coeffs")

    def __init__(self, params: Params, M: int, sums: list[RamifiedElem]):
        self.sums, self.coeffs = sums, _newton_coeffs(sums)
        super().__init__(params, M, [c.valuation() for c in self.coeffs], FULL_ENUMERATION)


def l_polynomial_full(params: Params, M: int | None = None, budget: int = DEFAULT_BUDGET,
                      sums: list[RamifiedElem] | None = None) -> FullLFunction:
    """Every coefficient of exp(sum_k S_k s^k / k) up to degree d, by
    Newton's identities from every sum S_1..S_d, with no reflection: the
    oracle of ``l_polynomial``.  ``sums`` are S_1..S_d, enumerated over
    F_q .. F_{q^d} when absent.  The identities divide by n <= d, so p
    must exceed d."""
    M = M or default_precision(params)
    if params.p <= params.d:
        raise SmallPrimeError(params.d)
    if sums is None:
        sums = full_sums_by_lambda(params, [params.lam_index], M, budget)[params.lam_index]
    return FullLFunction(params, M, sums)


def lambda_residues(descent: SubfieldDescent, lam_indices: list[int]) -> list[tuple[int, ...]]:
    """Residue vectors of the embedded binomial coefficients theta^l =
    g_big^(l s_1), one power of g_big each."""
    big = descent.big
    N = big.p**big.deg - 1
    return [poly_pow_mod(big.generator, li * descent.log_theta % N, big.modulus, big.p)
            for li in lam_indices]


def exp_sum_Tadic_walk(params: Params, k: int, J: int, M: int | None = None) -> TadicSum:
    """``exp_sum_Tadic`` by walking F_{q^k}^*: the Teichmuller powers of
    x^d and x^e are kept as Z_q elements, three products and a trace per
    element, with no trace recurrence."""
    M = M or default_precision(params)
    big = make_context(params.p, params.a * k, M)
    descent = _descent_for(params, big)
    pM, c = big.pM, params.c
    g_teich = big.teichmuller(big.generator)
    omega_d = big.pow(g_teich, params.d)
    omega_e = big.pow(g_teich, params.e)
    lam_hat = big.teichmuller(lambda_residues(descent, [params.lam_index])[0])
    xd, xe = big.one(), big.one()
    acc = [[0] * (J + 1) for _ in range(c)]
    for j in range(params.p**big.deg - 1):
        t = big.trace_zp(xd + big.mul(lam_hat, xe))
        falling = 1
        for jj in range(J + 1):
            acc[j % c][jj] += falling
            falling = falling * (t - jj) % pM
        xd = big.mul(xd, omega_d)
        xe = big.mul(xe, omega_e)
    coeffs = [sum((descent.V[mm] * (acc[mm][jj] % pM) for mm in range(c)), descent.base.zero())
              * pow(math.factorial(jj), -1, pM) for jj in range(J + 1)]
    return TadicSum(k=k, J=J, coeffs=coeffs)


def direct_traces_full(mat: PsiMatrix, k_max: int) -> list[PiSeries | None]:
    """``direct_traces`` from the whole of A^2, every entry to the grid's
    cap."""
    A, N, zero = mat.entries, mat.N, mat.entries[0][0].zero()

    def tr_prod(X, Y):  # Tr(XY) = sum_ij X_ij Y_ji
        return _dot(((X[i][j], Y[j][i]) for i in range(N) for j in range(N)), zero)

    traces = [None, sum((A[i][i] for i in range(N)), zero), tr_prod(A, A)]
    if k_max >= 3:
        A2 = [[_dot(((A[i][t], A[t][j]) for t in range(N)), zero) for j in range(N)]
              for i in range(N)]
        traces.append(tr_prod(A2, A))
        if k_max >= 4:
            traces.append(tr_prod(A2, A2))
    return traces[:k_max + 1]


def series_of(ctx: ZqContext, order: int, terms: dict[int, ZqElem]) -> PiSeries:
    """The series of order ``order`` with the {exponent: coefficient}
    ``terms``, packed as ``PiSeries.packed``; zero coefficients are left
    out, and exponents must lie in [0, order)."""
    zero = PiSeries(ctx, order)
    assert all(0 <= n < order for n in terms)
    nbytes = zero.slot_width()
    return PiSeries(ctx, order, [(n, pack(c.coeffs, nbytes))
                                 for n, c in sorted(terms.items()) if not c.is_zero()])


def with_terms(series: PiSeries, terms: dict[int, ZqElem]) -> PiSeries:
    """``series_of`` at the order of ``series``."""
    return series_of(series.ctx, series.order, terms)


def shift(series: PiSeries, num: int) -> PiSeries:
    """series * pi^num, cut at its order; an exponent below 0 raises."""
    terms = series.terms
    if any(n + num < 0 for n in terms):
        raise ValueError("negative pi-exponent")
    return with_terms(series, {n + num: c for n, c in terms.items() if n + num < series.order})


def psi_a_matrix_padded(params: Params, N: int, O: int, M: int | None = None) -> PsiMatrix:
    """The operator A itself, the oracle of its integral form
    ``dwork.psi_a_matrix``: entry (w, i) is pi^((i-w)/d) F_{q*w - i + u}.

    A's exponents are fractions over d, so its series count in units of
    pi^(1/d): an entry is F_{q*w - i + u} with its exponents times d,
    shifted by i - w.  The series are carried at the padded order
    O_pad = O + ceil((N-1)/d), d*O_pad in these units: a partial product
    inside a determinant or trace monomial can sit up to (N-1)/d above its
    final exponent (the fractional shifts cancel only once a cycle
    closes), so every result is exact below pi^O.
    """
    ctx = make_context(params.p, params.a, M or default_precision(params))
    d, q, u = params.d, params.q, params.u
    O_pad = O + (N - 1 + d - 1) // d
    prod = _ProductCoeffs(params, ctx, O_pad)
    zero = PiSeries(ctx, d * O_pad)

    def entry(m, num):
        terms = prod.coeff(m).terms
        return shift(series_of(ctx, d * O_pad, {n * d: c for n, c in terms.items()}), num)

    entries = [[zero if q * w - i + u < 0 else entry(q * w - i + u, i - w)
                for i in range(N)] for w in range(N)]
    return PsiMatrix(params=params, ctx=ctx, N=N, O=O, entries=entries)


def dict_dot(pairs, zero: PiSeries, views: dict | None = None) -> PiSeries:
    """Sum of x * y over pairs of series of the order of ``zero``, term pair
    by term pair over the ``terms`` views: each product is accumulated as
    an unreduced polynomial and reduced once per exponent by ``poly_mod``,
    and pairs at or past the cap are dropped.

    ``views``, kept by the caller across calls, holds each series read
    with its view, by id; holding the series keeps its id its own.
    """
    ctx, cap = zero.ctx, zero.order
    width = 2 * ctx.deg - 1
    acc: dict[int, list[int]] = {}
    views = {} if views is None else views
    for x, y in pairs:
        zero.check_same_order(x)
        zero.check_same_order(y)
        for s in (x, y):
            if id(s) not in views:
                views[id(s)] = (s, s.terms)
        for na, ca in views[id(x)][1].items():
            for nb, cb in views[id(y)][1].items():
                n = na + nb
                if n >= cap:
                    continue
                row = acc.get(n)
                if row is None:
                    row = acc[n] = [0] * width
                bc = cb.coeffs
                for i, ai in enumerate(ca.coeffs):
                    if ai:
                        for j, bj in enumerate(bc):
                            row[i + j] += ai * bj
    return with_terms(zero, {n: ZqElem(ctx, poly_mod(row, ctx.modulus, ctx.pM))
                             for n, row in acc.items()})


def pi_of_T_coeffs(p: int, order: int) -> list[Fraction]:
    """Reversion pi(T) of T = E(pi) - 1, up to T^order inclusive."""
    lam = artin_hasse_coeffs(p, order)
    r = [Fraction(0), Fraction(1)]
    for j in range(2, order + 1):
        # residual coefficient of T^j from lower-order data
        powers = _poly_powers([Fraction(0)] + r[1:] + [Fraction(0)], j)
        resid = Fraction(0)
        for n in range(2, j + 1):
            resid += lam[n] * powers[n][j]
        r.append(-resid)
    return r


def _poly_powers(poly: list[Fraction], order: int) -> list[list[Fraction]]:
    """poly^0..poly^order truncated at degree order."""
    out = [[Fraction(1)] + [Fraction(0)] * order]
    cur = list(poly[: order + 1]) + [Fraction(0)] * max(0, order + 1 - len(poly))
    out.append(cur)
    for _ in range(order - 1):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(out[-1]):
            if a == 0:
                continue
            for jj, b in enumerate(cur):
                if i + jj <= order and b != 0:
                    nxt[i + jj] += a * b
        out.append(nxt)
    return out


def pi_series_to_T(series: PiSeries, order: int) -> list[ZqElem]:
    """T-expansion of a pi-series, to T^order."""
    ctx = series.ctx
    coeff_map = series.terms
    rev = pi_of_T_coeffs(ctx.p, order)
    powers = _poly_powers(rev[: order + 1] + [Fraction(0)] * (order + 1 - len(rev)), order)
    out = [ctx.zero() for _ in range(order + 1)]
    for i, a in coeff_map.items():
        if i > order:
            continue
        for jj in range(order + 1):
            frac = powers[i][jj]
            if frac == 0:
                continue
            assert frac.denominator % ctx.p != 0
            scalar = frac.numerator * pow(frac.denominator % ctx.pM, -1, ctx.pM)
            out[jj] = out[jj] + a * (scalar % ctx.pM)
    return out


def entry_valuation_bound(params: Params, i: int, j: int, k: int) -> Fraction | float:
    """Stated lower bound for a one-step operator entry, as a diagnostic."""
    if not (1 <= k <= params.b):
        raise ValueError(f"k must lie in [1, b], got {k}")
    q = params.q
    s_k = (pow(params.p, k, q - 1) * params.u) % (q - 1)
    s_k1 = (pow(params.p, k - 1, q - 1) * params.u) % (q - 1)
    u_mk = params.u_digit(params.b - k)
    phi = min_phi(params.p * i - j + u_mk, params.d, params.e)
    if phi is INFINITY:
        return INFINITY
    return (Fraction(s_k - s_k1, params.d * (q - 1))
            + Fraction(j - i, params.d) + phi)


def compare_aggregate_bound(params: Params, coeffs: list[PiSeries]) -> bool:
    """Every char-series coefficient clears the assignment lower bound."""
    P = lower_bound_polygon(params, len(coeffs) - 1)
    scale = params.a * (params.p - 1)
    for n, cs in enumerate(coeffs):
        v = cs.t_valuation()
        if v is not None and v < scale * P.value(n):
            return False
    return True


def sizes_by_P(params: Params, n_max: int) -> tuple[int, int]:
    """The operator sizes (N, O) that resolve the lower bound's top point
    P(n_top), n_top = d*ceil(n_max/d): O clears a(p-1) P(n_top) by
    ``DEFAULT_GUARD``, and N is the least size whose tail rows clear O, at
    least n_top.  ``dwork.auto_sizes`` sizes by the Hodge chord below
    n_top instead."""
    d, p = params.d, params.p
    n_top = -(-n_max // d) * d
    P = lower_bound_polygon(params, n_top)
    O = math.ceil(params.a * (p - 1) * P.value(n_top)) + DEFAULT_GUARD
    return max(-(-d * O // (p - 1)) + 1, n_top), O


def np_T_by_P(params: Params, n_max: int) -> tuple[Polygon, int | None, tuple[int, int]]:
    """NP_T on [0, n_max] from an operator of the sizes ``sizes_by_P``:
    the hull of c_0..c_{n_top} as read, c_{n_top} included.  Returns the
    polygon, the order of c_{n_top} (None if it vanishes mod pi^O) and
    the sizes."""
    n_top = -(-n_max // params.d) * params.d
    N, O = sizes_by_P(params, n_max)
    coeffs = char_series(psi_a_matrix(params, N, O), n_top)
    valuations = [cs.t_valuation() for cs in coeffs]
    hull = lower_convex_hull(valuations, params.a * (params.p - 1))
    return hull.restrict(n_max), valuations[n_top], (N, O)
