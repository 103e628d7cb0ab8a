"""Truncated T-adic Dwork theory on the monomial basis.

The splitting-series coefficients gamma_n are finite sums of
pi^(x+y) * lambda_x * lambda_y * lamhat^y over decompositions
d*x + e*y = n, truncated at a working pi-order O.  The power-q operator is
realised directly on the monomial basis of the twisted Banach space over
Z_q: entry (w, i) is pi^((i-w)/d) times coefficient q*w - i + u of the
product of the Frobenius-twisted splitting series.  Valuations here are
T-adic: p is a unit, so the order of a series is simply its smallest
exponent carrying a nonzero coefficient.

Truncation is certified, not guessed: every term routed through a basis
row w carries order at least (p-1)*w/d, so rows beyond N are irrelevant
once (p-1)*N/d clears the working order.  One rule, ``auto_sizes``, fills
a size not given from the one given; ``np_T`` sizes for the least multiple
of d at or above n_max, and raises ``TruncationError`` on sizes that
cannot certify the series.  The characteristic series and Tr(A^k) are
``core_arith.berkowitz`` and ``core_arith.power_sums`` run with the one
series product ``_dot``.

The trace formula S_k(T) = (q^k - 1) Tr(A^k) is checked in pi: the
direct T-adic sum is a polynomial in T, and T = E(pi) - 1 is substituted
into it with the Artin-Hasse coefficients of E as Z_q integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .core_arith import artin_hasse_coeffs, berkowitz, decompose, power_sums
from .lfunction import DEFAULT_BUDGET, check_trace_inputs, default_precision, exp_sum_Tadic
from .padic import (PrecisionError, ZqContext, ZqElem, checked_pairs, make_context, pack,
                    poly_mod, poly_pow_mod, slot_bytes, unpack)
from .polygon import Params, Polygon, lower_bound_polygon, lower_convex_hull

#: extra pi-orders kept beyond the largest valuation that must be resolved
DEFAULT_GUARD = 6


class DworkConsistencyError(ArithmeticError):
    """Trace formula and direct enumeration disagree at certified order."""


class TruncationError(PrecisionError):
    """The operator sizes (N, O) cannot certify the characteristic series."""


@dataclass
class PiSeries:
    """Finite sum of c * pi^(num/D) with num in [0, D*order).

    ``(D, order)`` is the series' grid.  Every series of one operator sits
    on the same grid, so sums and products never realign exponents; an
    operation on series of two grids raises ``ValueError``.

    A series is immutable by convention: ``packed`` caches a view of
    ``terms`` the first time a product reads it, so ``terms`` must not
    change afterwards; ``copy_with`` makes a fresh series.
    """

    ctx: ZqContext
    D: int
    order: int
    terms: dict[int, ZqElem] = field(default_factory=dict)
    _packed: list[tuple[int, int]] | None = field(default=None, init=False,
                                                  repr=False, compare=False)

    def copy_with(self, terms):
        return PiSeries(self.ctx, self.D, self.order, terms)

    @classmethod
    def one(cls, ctx, order, D):
        return cls(ctx, D, order, {0: ctx.one()})

    def is_zero(self):
        return not self.terms

    def packed(self) -> list[tuple[int, int]]:
        """The terms as (exponent, packed coefficient), by exponent.

        The coefficient sum_i c_i X^i is packed with c_i in slot i
        (``padic.pack``), so a product of two coefficients is one integer
        product whose slot i + j holds the X^(i+j) sum.
        """
        if self._packed is None:
            nbytes = self.slot_width()
            self._packed = [(n, pack(z.coeffs, nbytes)) for n, z in sorted(self.terms.items())]
        return self._packed

    def slot_width(self) -> int:
        """Bytes of a packed slot on this grid: a pair of series adds to an
        exponent at most one term product per left exponent below the cap."""
        return slot_bytes(self.ctx.pM, self.D * self.order * self.ctx.deg)

    def __bool__(self):
        return bool(self.terms)

    def check_same_grid(self, other):
        if (self.D, self.order) != (other.D, other.order):
            raise ValueError(f"series on the grids (D, order) = {(self.D, self.order)} "
                             f"and {(other.D, other.order)}")

    def __add__(self, other):
        self.check_same_grid(other)
        out = dict(self.terms)
        for num, c in other.terms.items():
            s = out[num] + c if num in out else c
            if s.is_zero():
                out.pop(num, None)
            else:
                out[num] = s
        return self.copy_with(out)

    def __sub__(self, other):
        return self + other.negate()

    def negate(self):
        return self.copy_with({n: -c for n, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, ZqElem)):
            return self.copy_with({num: s for num, c in self.terms.items()
                                   if not (s := c * other).is_zero()})
        return _dot([(self, other)], self.copy_with({}))

    __rmul__ = __mul__

    def shift(self, num: int) -> "PiSeries":
        """Multiply by pi^(num/D); exponents must stay non-negative."""
        cap = self.D * self.order
        out = {}
        for n, c in self.terms.items():
            nn = n + num
            if nn < 0:
                raise ValueError("negative pi-exponent")
            if nn < cap:
                out[nn] = c
        return self.copy_with(out)

    def t_valuation(self) -> Fraction | None:
        """T-adic order: smallest exponent present, None if empty."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.D)

    def integer_coeff_map(self) -> dict[int, ZqElem]:
        out = {}
        for num, c in self.terms.items():
            if num % self.D:
                raise ValueError("series has genuinely fractional exponents")
            out[num // self.D] = c
        return out


def artin_hasse_zp(ctx: ZqContext, n_max: int) -> list[int]:
    """Artin-Hasse coefficients as Z_p integers mod p^M (denominators are
    units)."""
    out = []
    for lam in artin_hasse_coeffs(ctx.p, n_max):
        assert lam.denominator % ctx.p != 0
        inv = pow(lam.denominator % ctx.pM, -1, ctx.pM)
        out.append(lam.numerator * inv % ctx.pM)
    return out


def ef_gamma_coeffs(ctx: ZqContext, d: int, e: int, lam_hat: ZqElem,
                    n_max: int, O: int) -> list[PiSeries]:
    """Splitting-series coefficients gamma_0..gamma_{n_max} mod pi^O.

    The series sit on the operator's grid (d, O): pi^(x+y) is exponent
    (x+y)*d.
    """
    lam, pM = artin_hasse_zp(ctx, O), ctx.pM
    lam_pows = [ctx.one()]
    for _ in range(O):
        lam_pows.append(ctx.mul(lam_pows[-1], lam_hat))
    out = []
    for n in range(n_max + 1):
        terms: dict[int, ZqElem] = {}
        x, y = decompose(n, d, e)
        while x >= 0:
            total = x + y
            if total >= O:
                break  # totals grow by d - e > 0 along the solution line
            coeff = lam_pows[y] * (lam[x] * lam[y] % pM)
            if not coeff.is_zero():  # each total comes once
                terms[total * d] = coeff
            x -= e
            y += d
        out.append(PiSeries(ctx, d, O, terms))
    return out


@dataclass
class PsiMatrix:
    """Matrix of the power-q operator on the first N monomial basis vectors.

    ``traces[k]`` holds Tr(A^k) once the characteristic series has been
    computed to s^k (``power_traces``); index 0 is unused.
    """

    params: Params
    ctx: ZqContext
    N: int
    O: int
    entries: list[list[PiSeries]]
    traces: list[PiSeries | None] = field(default_factory=list, repr=False)

    def trace_power(self, k: int) -> PiSeries:
        """Tr(A^k), read off the characteristic series."""
        if len(self.traces) <= k:
            self.traces = power_traces(char_series(self, k))
        return self.traces[k]


def _dot(pairs, zero: PiSeries, cap: int | None = None) -> PiSeries:
    """Sum of x * y over pairs of series on the grid of ``zero``, below the
    exponent ``cap``, by default the grid's own.

    This is the one series product; a series on another grid, or a cap
    above the grid's, raises.  Each term product is one integer product of
    packed coefficients (``PiSeries.packed``); the right-hand terms are
    walked by exponent and left at the cap, so no pair past the truncation
    is visited.  Each exponent's sum is unpacked and reduced once.
    """
    ctx, top = zero.ctx, zero.D * zero.order
    if cap is None:
        cap = top
    elif cap > top:
        raise ValueError(f"cap {cap} above the grid's cap {top}")
    acc: dict[int, int] = {}
    for x, y in checked_pairs(pairs):
        zero.check_same_grid(x)
        zero.check_same_grid(y)
        right = y.packed()
        if not right:
            continue
        first = right[0][0]
        for na, va in x.packed():
            lim = cap - na
            if lim <= first:
                break
            for nb, vb in right:
                if nb >= lim:
                    break
                n = na + nb
                acc[n] = acc.get(n, 0) + va * vb
    nbytes, span = zero.slot_width(), 2 * ctx.deg - 1
    return zero.copy_with({n: ZqElem(ctx, c) for n, v in acc.items()
                           if any(c := poly_mod(unpack(v, nbytes, span), ctx.modulus, ctx.pM))})


class _ProductCoeffs:
    """Coefficients of prod_j E_f^{sigma^j}(X^{p^j}) mod pi^O, on demand."""

    def __init__(self, params: Params, ctx: ZqContext, O: int):
        self.params = params
        p, d, e = params.p, params.d, params.e
        lam_res = poly_pow_mod(ctx.generator, params.lam_index, ctx.modulus, p)
        lam_hat = ctx.teichmuller(lam_res)
        self.gamma_max = d * O  # gamma_n vanishes mod pi^O beyond d*O
        self.gammas = []
        for j in range(params.a):
            twisted = ctx.pow(lam_hat, p**j)
            self.gammas.append(
                ef_gamma_coeffs(ctx, d, e, twisted, self.gamma_max, O))
        self.zero = PiSeries(ctx, d, O, {})
        self._memo: dict[tuple[int, int], PiSeries] = {}

    def coeff(self, m: int) -> PiSeries:
        """X^m coefficient of the full a-fold product."""
        return self._level(0, m)

    def _level(self, j: int, m: int) -> PiSeries:
        """X^m coefficient of the product over j' >= j, a series in X^(p^j):
        zero unless p^j divides m."""
        p = self.params.p
        pj = p**j
        if m % pj:
            return self.zero
        if j == self.params.a - 1:
            return self.gammas[j][m // pj] if m // pj <= self.gamma_max else self.zero
        key = (j, m)
        if key not in self._memo:
            pairs = []
            # level j + 1 is nonzero only where p^(j+1) divides m - n p^j
            for n in range(m // pj % p, min(m // pj, self.gamma_max) + 1, p):
                g = self.gammas[j][n]
                if g.terms:
                    rest = self._level(j + 1, m - n * pj)
                    if rest.terms:
                        pairs.append((g, rest))
            self._memo[key] = _dot(pairs, self.zero)
        return self._memo[key]


def psi_a_matrix(params: Params, N: int, O: int, M: int | None = None) -> PsiMatrix:
    """Matrix entries pi^((i-w)/d) * F_{q*w - i + u} for w, i < N.

    Internally the series are carried at order O + ceil((N-1)/d): partial
    products inside determinant or trace monomials can sit up to (N-1)/d
    above their final exponent (the fractional shifts only cancel once a
    cycle closes), so the padding keeps every truncation decision safe.
    Results are trustworthy below the target order O.
    """
    ctx = make_context(params.p, params.a, M or default_precision(params))
    d, q, u = params.d, params.q, params.u
    O_work = O + (N - 1 + d - 1) // d
    prod = _ProductCoeffs(params, ctx, O_work)
    entries = []
    for w in range(N):
        row = []
        for i in range(N):
            midx = q * w - i + u
            row.append(prod.zero if midx < 0 else prod.coeff(midx).shift(i - w))
        entries.append(row)
    return PsiMatrix(params=params, ctx=ctx, N=N, O=O, entries=entries)


def char_series(mat: PsiMatrix, n_max: int) -> list[PiSeries]:
    """Coefficients of det(1 - A s) in s^0..s^{n_max}, by ``berkowitz``
    on series."""
    zero = mat.entries[0][0].copy_with({})
    return berkowitz(mat.entries, n_max, lambda pairs: _dot(pairs, zero),
                     zero.copy_with({0: mat.ctx.one()}), zero)


def power_traces(coeffs: list[PiSeries]) -> list[PiSeries | None]:
    """Tr(A^k) for k <= n_max from det(1 - A s), by ``power_sums``."""
    zero = coeffs[0].copy_with({})
    return power_sums(coeffs, lambda pairs: _dot(pairs, zero))


def direct_traces(mat: PsiMatrix, k_max: int) -> list[PiSeries | None]:
    """Tr(A^k) for k <= min(k_max, 4), from A and the one product A^2.

    This is the runtime cross-check on ``char_series``: it shares no code
    with the recurrence beyond the series product.  Index 0 is unused.

    A term of A2[i][j] meets only A[j][i] (in Tr(A^3)) and A2[j][i] (in
    Tr(A^4)), so A2[i][j] is needed only below the cap less the least
    exponent m of those partners: of A[j][i], and for k_max >= 4 of
    min_t A[j][t] A[t][i] by its entries' least exponents.  An entry with
    m at or past the cap is left zero.  Every trace below the cap is that
    of the full A^2.
    """
    A, N, zero = mat.entries, mat.N, mat.entries[0][0].copy_with({})
    cap = zero.D * zero.order

    def tr_prod(X, Y):  # Tr(XY) = sum_ij X_ij Y_ji
        return _dot(((X[i][j], Y[j][i]) for i in range(N) for j in range(N)), zero)

    traces = [None, sum((A[i][i] for i in range(N)), zero), tr_prod(A, A)]
    if k_max >= 3:
        low = [[min(x.terms, default=cap) for x in row] for row in A]  # cap where zero
        if k_max >= 4:
            cols = list(zip(*low))
            low = [[min(lo, min(map(operator.add, low[j], cols[i])))
                    for i, lo in enumerate(row)] for j, row in enumerate(low)]
        A2 = [[zero if low[j][i] >= cap else
               _dot(((A[i][t], A[t][j]) for t in range(N)), zero, cap - low[j][i])
               for j in range(N)] for i in range(N)]
        traces.append(tr_prod(A2, A))
        if k_max >= 4:
            traces.append(tr_prod(A2, A2))
    return traces[:k_max + 1]


def auto_sizes(params: Params, n_max: int, least_order: int = 0,
               N: int | None = None, O: int | None = None) -> tuple[int, int]:
    """The operator sizes (N, O) that resolve the first n_max valuations.

    A size given is kept.  O clears the lower bound's P(n_max), in
    pi-units, by ``DEFAULT_GUARD`` and is raised to ``least_order``; N is
    the least size whose tail rows clear the O in use, and at least n_max.
    """
    if O is None:
        P = lower_bound_polygon(params, n_max)
        O = max(math.ceil(params.a * (params.p - 1) * P.value(n_max)) + DEFAULT_GUARD,
                least_order)
    if N is None:
        N = max(math.ceil(Fraction(params.d * O, params.p - 1)) + 1, n_max)
    return N, O


@dataclass
class NpTResult:
    polygon: Polygon
    coeffs: list[PiSeries]
    matrix: PsiMatrix


def np_T(params: Params, n_max: int, N: int | None = None, O: int | None = None,
         M: int | None = None) -> NpTResult:
    """T-adic Newton polygon of the characteristic series on [0, n_max].

    The polygon is the hull of c_0..c_{n_top}, n_top = d*ceil(n_max/d),
    restricted to n_max: NP_T meets the Hodge polygon at every multiple of
    d, so no point past n_top lowers it.  The operator is sized for n_top
    by ``auto_sizes``, and the sizes in use are certified, or this raises
    ``TruncationError``: O clears the order ``auto_sizes`` requires, the
    tail rows w >= N, whose terms have order at least (p-1)*w/d, clear O,
    and N >= n_top.  ``coeffs`` and the matrix's traces stop at n_max.

    The traces of A^k read off the series must equal those computed from A
    directly (``direct_traces``), or this raises ``DworkConsistencyError``.
    """
    n_top = -(-n_max // params.d) * params.d
    N, O = auto_sizes(params, n_top, N=N, O=O)
    need_N, need_O = auto_sizes(params, n_top, O)
    for failed, reason in ((O < need_O, f"working order {O} below required {need_O}"),
                           ((params.p - 1) * N < params.d * O,
                            f"tail rows reach below order {O} for N={N}"),
                           (n_top > N, f"n_max={n_top} exceeds matrix size {N}")):
        if failed:
            raise TruncationError(f"truncation certificate failed: {reason}; "
                                  f"suggest N={need_N}, O={need_O}")
    mat = psi_a_matrix(params, N, O, M)
    coeffs = char_series(mat, n_top)
    mat.traces = power_traces(coeffs[:n_max + 1])
    for k, direct in enumerate(direct_traces(mat, n_max)):
        if k and direct != mat.traces[k]:
            raise DworkConsistencyError(
                f"Tr(A^{k}) from A and from the characteristic series disagree")
    scale = params.a * (params.p - 1)
    # digits at or beyond the target order live in the padding zone
    points = [(n, None if v is None or v >= O else v / scale)
              for n, v in enumerate(cs.t_valuation() for cs in coeffs)]
    return NpTResult(polygon=lower_convex_hull(points).restrict(n_max),
                     coeffs=coeffs[:n_max + 1], matrix=mat)


# ---------------------------------------------------------------------------
# the trace-formula cross check


def substitute_T(coeffs: list[ZqElem], order: int) -> list[ZqElem]:
    """pi^0..pi^order coefficients of sum_j coeffs[j] T^j at T = E(pi) - 1.

    Horner's rule on pi-series truncated past pi^order.  T = pi + O(pi^2),
    so terms past T^order do not reach pi^order, and the change of
    variable is triangular with unit diagonal.
    """
    ctx = coeffs[0].ctx
    lam = artin_hasse_zp(ctx, order)
    acc = [ctx.zero()] * (order + 1)
    for c in reversed(coeffs[:order + 1]):
        acc = [c] + [sum((lam[i] * acc[n - i] for i in range(1, n + 1)), ctx.zero())
                     for n in range(1, order + 1)]
    return acc


@dataclass
class TraceReport:
    k: int
    checked_order: int
    agree_order: int
    ok: bool


def trace_consistency(params: Params, k_max: int, J: int,
                      N: int | None = None, O: int | None = None,
                      M: int | None = None,
                      mat: PsiMatrix | None = None,
                      budget: int = DEFAULT_BUDGET) -> list[TraceReport]:
    """Check S_k(T) = (q^k - 1) * trace(M^k) as truncated series.

    The left side is the direct T-adic character sum, a polynomial in T;
    ``substitute_T`` turns it into a pi-series, which is compared with the
    operator's trace coefficient by coefficient.  The first coefficient
    that differs has the same index in T and in pi, so ``agree_order``
    counts the agreeing T-coefficients too.  Both sides are exact mod p^M,
    so any mismatch within the certified order is a failure, reported as
    ``ok=False``.  An operator ``mat`` already built for these params is
    reused when its (N, O, M) match the sizes the check needs.  Before any
    work, ``check_trace_inputs`` gates the direct sums over F_{q^k} by
    ``budget`` for every k, and J by [0, p).
    """
    check_trace_inputs(params, k_max, J, budget)
    M = M or default_precision(params)
    N, O = auto_sizes(params, max(k_max, params.d), J + 2, N, O)
    if mat is None or (mat.params, mat.N, mat.O, mat.ctx.M) != (params, N, O, M):
        mat = psi_a_matrix(params, N, O, M)
    check_order = min(J, O - 1)
    zero = mat.ctx.zero()
    reports = []
    for k in range(1, k_max + 1):
        lhs = substitute_T(exp_sum_Tadic(params, k, J, M, budget).coeffs, check_order)
        rhs = mat.trace_power(k).integer_coeff_map()
        scale = (params.q**k - 1) % mat.ctx.pM
        agree = next((jj for jj in range(check_order + 1)
                      if lhs[jj].coeffs != (rhs.get(jj, zero) * scale).coeffs),
                     check_order + 1)
        reports.append(TraceReport(k=k, checked_order=check_order,
                                   agree_order=agree, ok=agree > check_order))
    return reports
