"""Oracles and test-only helpers: code no command runs, kept as the
independent side of the checks on the program.

- the assignment layer: (n+1)! enumerations that the Hungarian solve, its
  tight edges and the matching count are checked against, the
  overflow-count matching with its residue columns, and the sum of y over
  the representable optimal set (``v_exponent``)
- the unramified ring: unit inverses, Newton lifting of roots, the lifted
  Frobenius, and the companion-matrix traces
- the ramified ring over the pi_1-basis: its packed product with the
  pi-fold, the Newton identities there, the full change of basis from
  zeta_p-coordinates and back, zeta_p powers and congruence mod pi_1
- the T-adic layer: the series product over dicts of Z_q elements, the
  direct sum by a walk over the field, the reversion pi(T) of
  T = E(pi) - 1 and the T-expansion of a pi-series, and the stated entry
  and aggregate bounds
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
    xy_decomposition,
)
from twistnp.core_arith import INFINITY, artin_hasse_coeffs, min_phi, min_residue
from twistnp.dwork import PiSeries, PsiMatrix
from twistnp.lfunction import (
    DEFAULT_BUDGET,
    ClassicalSum,
    TadicSum,
    _descent_for,
    classical_sums_multi,
    default_precision,
)
from twistnp.padic import (
    RamifiedElem,
    ZqContext,
    ZqElem,
    checked_pairs,
    make_context,
    pack,
    poly_pow_mod,
    poly_trim,
    slot_bytes,
    unpack,
    x_walk,
)
from twistnp.polygon import Params, Polygon, lower_bound_polygon

# ---------------------------------------------------------------------------
# the assignment layer


def exhaustive_C(inst: CombInstance, n: int) -> tuple[int, frozenset[tuple[int, ...]]]:
    """The optimum over permutations of {0..n} and the permutations attaining it."""
    mat = cost_matrix(inst, n)
    totals = {tau: sum(mat[i][tau[i]] for i in range(n + 1))
              for tau in itertools.permutations(range(n + 1))}
    best = min(totals.values())
    return best, frozenset(tau for tau, s in totals.items() if s == best)


def R_value(inst: CombInstance, i: int, alpha: int) -> int:
    return min_residue(inst.e_inv * (inst.p * i + alpha), inst.d)


def r_value(inst: CombInstance, i: int, alpha: int) -> int:
    return min_residue(inst.e_inv * (inst.t - alpha - i), inst.d)


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
        values.add(sum(xy_decomposition(inst, i, tau[i]).y for i in range(n + 1)))
    assert len(values) == 1, "sum of y over the optimal set is not constant"
    v = values.pop()
    assert v == compute_C(inst, n)
    return v


def cyclic(seq: tuple[int, ...], k: int) -> int:
    """Entry k of a digit period, indexed cyclically (``TwistData.t``, ``u``, ``uu``)."""
    return seq[k % len(seq)]


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
    assert ctx.mul(a, w).is_one()
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

    def valuation(self) -> Fraction | None:
        """Valuation in pi_1-units, None when zero mod p^M: the minimum of
        j + (p - 1) v_p over the nonzero components j."""
        n = self.ctx.p - 1
        units = [j + n * v for j, v in enumerate(c.vp() for c in self.comps)
                 if v is not None]
        return Fraction(min(units)) if units else None

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
    return PiElem(ctx, (ZqElem(ctx, ctx.reduce_product(low[i * span:(i + 1) * span]))
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
    lam_hat = big.teichmuller(descent.lambda_residues([params.lam_index])[0])
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


def dict_dot(pairs, zero: PiSeries) -> PiSeries:
    """Sum of x * y over pairs of series on the grid of ``zero``, term pair
    by term pair over the dicts: each product is accumulated as an
    unreduced polynomial and reduced once per exponent, and pairs at or
    past the cap are dropped."""
    ctx, cap = zero.ctx, zero.D * zero.order
    width = 2 * ctx.deg - 1
    acc: dict[int, list[int]] = {}
    for x, y in pairs:
        zero.check_same_grid(x)
        zero.check_same_grid(y)
        for na, ca in x.terms.items():
            for nb, cb in y.terms.items():
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
    terms = {}
    for n, row in acc.items():
        c = ctx.reduce_product(row)
        if any(c):
            terms[n] = ZqElem(ctx, c)
    return zero.copy_with(terms)


def work_order(mat: PsiMatrix) -> int:
    """The padded order the operator's series are carried at."""
    return mat.entries[0][0].order


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
    """T-expansion of an integer-exponent pi-series, to T^order."""
    ctx = series.ctx
    coeff_map = series.integer_coeff_map()
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
