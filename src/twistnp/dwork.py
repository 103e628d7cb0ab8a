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
once (p-1)*N/d clears the working order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core_arith import INFINITY, artin_hasse_coeffs, min_phi, phi_minimizer
from .lfunction import exp_sum_Tadic
from .padic import ZqContext, ZqElem, make_context
from .polygon import Params, Polygon, lower_bound_polygon, lower_convex_hull

#: extra pi-orders kept beyond the largest valuation that must be resolved
DEFAULT_GUARD = 6


class DworkConsistencyError(ArithmeticError):
    """Trace formula and direct enumeration disagree at certified order."""


class TruncationError(RuntimeError):
    def __init__(self, verdict):
        super().__init__(f"truncation certificate failed: {verdict.reason}; "
                         f"suggest N={verdict.suggested_N}, O={verdict.suggested_O}")
        self.verdict = verdict


@dataclass
class PiSeries:
    """Finite sum of c * pi^(num/D) with num in [0, D*order)."""

    ctx: ZqContext
    D: int
    order: int
    terms: dict[int, ZqElem] = field(default_factory=dict)

    def copy_with(self, terms):
        return PiSeries(self.ctx, self.D, self.order, terms)

    @classmethod
    def zero(cls, ctx, order, D=1):
        return cls(ctx, D, order, {})

    @classmethod
    def one(cls, ctx, order, D=1):
        return cls(ctx, D, order, {0: ctx.one()})

    def is_zero(self):
        return not self.terms

    def _aligned(self, other):
        D = math.lcm(self.D, other.D)
        order = min(self.order, other.order)
        return D, order

    def _rescaled_terms(self, D, order):
        f = D // self.D
        cap = D * order
        out = {}
        for num, c in self.terms.items():
            nn = num * f
            if nn < cap and not c.is_zero():
                out[nn] = c
        return out

    def __add__(self, other):
        D, order = self._aligned(other)
        out = self._rescaled_terms(D, order)
        for num, c in other._rescaled_terms(D, order).items():
            acc = out.get(num)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(num, None)
            else:
                out[num] = s
        return PiSeries(self.ctx, D, order, out)

    def __sub__(self, other):
        return self + other.negate()

    def negate(self):
        return self.copy_with({n: -c for n, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, ZqElem)):
            out = {}
            for num, c in self.terms.items():
                s = c * other
                if not s.is_zero():
                    out[num] = s
            return self.copy_with(out)
        D, order = self._aligned(other)
        cap = D * order
        a = self._rescaled_terms(D, order)
        b = other._rescaled_terms(D, order)
        out: dict[int, ZqElem] = {}
        for na, ca in a.items():
            if na >= cap:
                continue
            for nb, cb in b.items():
                n = na + nb
                if n >= cap:
                    continue
                prod = ca * cb
                acc = out.get(n)
                s = prod if acc is None else acc + prod
                if s.is_zero():
                    out.pop(n, None)
                else:
                    out[n] = s
        return PiSeries(self.ctx, D, order, out)

    __rmul__ = __mul__

    def shift(self, num: int, D: int) -> "PiSeries":
        """Multiply by pi^(num/D); exponents must stay non-negative."""
        DD = math.lcm(self.D, D)
        cap = DD * self.order
        f_self = DD // self.D
        f_arg = DD // D
        out = {}
        for n, c in self.terms.items():
            nn = n * f_self + num * f_arg
            if nn < 0:
                raise ValueError("negative pi-exponent")
            if nn < cap:
                out[nn] = c
        return PiSeries(self.ctx, DD, self.order, out)

    def scalar_div_unit(self, k: int) -> "PiSeries":
        inv = pow(k, -1, self.ctx.pM)
        return self * inv

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

    def __eq__(self, other):
        if not isinstance(other, PiSeries):
            return NotImplemented
        D, order = self._aligned(other)
        return self._rescaled_terms(D, order) == other._rescaled_terms(D, order)


def artin_hasse_zq(ctx: ZqContext, n_max: int) -> list[ZqElem]:
    """Artin-Hasse coefficients as Z_q scalars (denominators are units)."""
    out = []
    for lam in artin_hasse_coeffs(ctx.p, n_max):
        assert lam.denominator % ctx.p != 0
        inv = pow(lam.denominator % ctx.pM, -1, ctx.pM)
        out.append(ctx.from_int(lam.numerator * inv))
    return out


def ef_gamma_coeffs(ctx: ZqContext, d: int, e: int, lam_hat: ZqElem,
                    n_max: int, O: int) -> list[PiSeries]:
    """Splitting-series coefficients gamma_0..gamma_{n_max} mod pi^O."""
    lam = artin_hasse_zq(ctx, O)
    lam_pows = [ctx.one()]
    for _ in range(O):
        lam_pows.append(ctx.mul(lam_pows[-1], lam_hat))
    out = []
    for n in range(n_max + 1):
        terms: dict[int, ZqElem] = {}
        start = phi_minimizer(n, d, e)
        if start is not None:
            x, y = start
            while x >= 0:
                total = x + y
                if total >= O:
                    break  # totals grow by d - e > 0 along the solution line
                coeff = ctx.mul(ctx.mul(lam[x], lam[y]), lam_pows[y])
                if not coeff.is_zero():
                    acc = terms.get(total)
                    s = coeff if acc is None else acc + coeff
                    if s.is_zero():
                        terms.pop(total, None)
                    else:
                        terms[total] = s
                x -= e
                y += d
        out.append(PiSeries(ctx, 1, O, terms))
    return out


@dataclass
class PsiMatrix:
    """Matrix of the power-q operator on the first N monomial basis vectors."""

    params: Params
    ctx: ZqContext
    N: int
    O: int
    entries: list[list[PiSeries]]

    @property
    def work_order(self) -> int:
        return self.entries[0][0].order

    def trace_power(self, k: int) -> PiSeries:
        mat = self.entries
        for _ in range(k - 1):
            mat = _mat_mul(mat, self.entries)
        total = PiSeries.zero(self.ctx, self.work_order, self.params.d)
        for w in range(self.N):
            total = total + mat[w][w]
        return total


def _mat_mul(A, B):
    n = len(A)
    ctx = A[0][0].ctx
    order = A[0][0].order
    D = A[0][0].D
    out = [[PiSeries.zero(ctx, order, D) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for t in range(n):
            a = A[i][t]
            if a.is_zero():
                continue
            row_b = B[t]
            for j in range(n):
                if not row_b[j].is_zero():
                    out[i][j] = out[i][j] + a * row_b[j]
    return out


class _ProductCoeffs:
    """Coefficients of prod_j E_f^{sigma^j}(X^{p^j}) mod pi^O, on demand."""

    def __init__(self, params: Params, ctx: ZqContext, O: int):
        self.params = params
        self.ctx = ctx
        self.O = O
        p, d, e = params.p, params.d, params.e
        g = ctx.generator
        from .padic import poly_pow_mod

        lam_res = poly_pow_mod(g, params.lam_index, ctx.modulus, p)
        lam_hat = ctx.teichmuller(lam_res)
        self.gamma_max = d * O  # gamma_n vanishes mod pi^O beyond d*O
        self.gammas = []
        for j in range(params.a):
            twisted = ctx.pow(lam_hat, p**j)
            self.gammas.append(
                ef_gamma_coeffs(ctx, d, e, twisted, self.gamma_max, O))
        self._memo: dict[tuple[int, int], PiSeries] = {}

    def factor_coeff(self, j: int, n: int) -> PiSeries:
        if n <= self.gamma_max:
            return self.gammas[j][n]
        return PiSeries.zero(self.ctx, self.O)

    def coeff(self, m: int) -> PiSeries:
        """X^m coefficient of the full a-fold product."""
        return self._level(0, m)

    def _level(self, j: int, m: int) -> PiSeries:
        a = self.params.a
        if j == a - 1:
            pj = self.params.p**j
            if m % pj == 0 and m // pj <= self.gamma_max:
                return self.factor_coeff(j, m // pj)
            return PiSeries.zero(self.ctx, self.O)
        key = (j, m)
        if key in self._memo:
            return self._memo[key]
        pj = self.params.p**j
        total = PiSeries.zero(self.ctx, self.O)
        n = 0
        while n * pj <= m and n <= self.gamma_max:
            g = self.factor_coeff(j, n)
            if not g.is_zero():
                rest = self._level(j + 1, m - n * pj)
                if not rest.is_zero():
                    total = total + g * rest
            n += 1
        self._memo[key] = total
        return total


def psi_a_matrix(params: Params, N: int, O: int, M: int | None = None,
                 ctx: ZqContext | None = None) -> PsiMatrix:
    """Matrix entries pi^((i-w)/d) * F_{q*w - i + u} for w, i < N.

    Internally the series are carried at order O + ceil((N-1)/d): partial
    products inside determinant or trace monomials can sit up to (N-1)/d
    above their final exponent (the fractional shifts only cancel once a
    cycle closes), so the padding keeps every truncation decision safe.
    Results are trustworthy below the target order O.
    """
    if ctx is None:
        from .lfunction import default_precision

        ctx = make_context(params.p, params.a, M or default_precision(params))
    d, q, u = params.d, params.q, params.u
    O_work = O + (N - 1 + d - 1) // d
    prod = _ProductCoeffs(params, ctx, O_work)
    entries = []
    for w in range(N):
        row = []
        for i in range(N):
            midx = q * w - i + u
            if midx < 0:
                row.append(PiSeries.zero(ctx, O_work, d))
                continue
            series = prod.coeff(midx)
            row.append(series.shift(i - w, d))
        entries.append(row)
    return PsiMatrix(params=params, ctx=ctx, N=N, O=O, entries=entries)


def char_series(mat: PsiMatrix, n_max: int, method: str = "newton") -> list[PiSeries]:
    """Coefficients of det(1 - M s) in s^0..s^{n_max}."""
    ctx, O, D = mat.ctx, mat.work_order, mat.params.d
    if method == "newton":
        traces = [None]
        power = mat.entries
        for k in range(1, n_max + 1):
            if k > 1:
                power = _mat_mul(power, mat.entries)
            tr = PiSeries.zero(ctx, O, D)
            for w in range(mat.N):
                tr = tr + power[w][w]
            traces.append(tr)
        coeffs = [PiSeries.one(ctx, O, D)]
        for k in range(1, n_max + 1):
            acc = PiSeries.zero(ctx, O, D)
            for j in range(1, k + 1):
                acc = acc + traces[j] * coeffs[k - j]
            coeffs.append(acc.negate().scalar_div_unit(k))
        return coeffs
    if method == "minors":
        coeffs = [PiSeries.one(ctx, O, D)]
        for k in range(1, n_max + 1):
            acc = PiSeries.zero(ctx, O, D)
            for subset in itertools.combinations(range(mat.N), k):
                acc = acc + _det([[mat.entries[w][i] for i in subset] for w in subset])
            sign = 1 if k % 2 == 0 else -1
            coeffs.append(acc * sign)
        return coeffs
    raise ValueError(f"unknown method {method!r}")


def _det(m: list[list[PiSeries]]) -> PiSeries:
    from .combinatorics import perm_sign

    k = len(m)
    ctx, order, D = m[0][0].ctx, m[0][0].order, m[0][0].D
    total = PiSeries.zero(ctx, order, D)
    for tau in itertools.permutations(range(k)):
        term = PiSeries.one(ctx, order, D)
        for i in range(k):
            term = term * m[i][tau[i]]
            if term.is_zero():
                break
        if not term.is_zero():
            total = total + term * perm_sign(tau)
    return total


@dataclass(frozen=True)
class TruncationVerdict:
    ok: bool
    N: int
    O: int
    suggested_N: int
    suggested_O: int
    reason: str = ""


def required_order(params: Params, n_max: int, guard: int = DEFAULT_GUARD) -> int:
    P = lower_bound_polygon(params, n_max)
    top = params.a * (params.p - 1) * P.value(n_max)
    return math.ceil(top) + guard


def truncation_certificate(params: Params, N: int, O: int, n_max: int,
                           guard: int = DEFAULT_GUARD) -> TruncationVerdict:
    """Certify that (N, O) resolve the first n_max char-series valuations.

    Tail rows w >= N only feed terms of order at least (p-1)*w/d, so they
    cannot touch anything below O once (p-1)*N/d >= O.
    """
    O_needed = required_order(params, n_max, guard)
    d, p = params.d, params.p
    N_needed = math.ceil(Fraction(d * max(O, O_needed), p - 1)) + 1
    if O < O_needed:
        return TruncationVerdict(False, N, O, N_needed, O_needed,
                                 f"working order {O} below required {O_needed}")
    if Fraction((p - 1) * N, d) < O:
        return TruncationVerdict(False, N, O, N_needed, O_needed,
                                 f"tail rows reach below order {O} for N={N}")
    if n_max > N:
        return TruncationVerdict(False, N, O, N_needed, O_needed,
                                 f"n_max={n_max} exceeds matrix size {N}")
    return TruncationVerdict(True, N, O, N, O)


def auto_sizes(params: Params, n_max: int, guard: int = DEFAULT_GUARD) -> tuple[int, int]:
    O = required_order(params, n_max, guard)
    N = math.ceil(Fraction(params.d * O, params.p - 1)) + 1
    N = max(N, n_max)
    return N, O


@dataclass
class NpTResult:
    polygon: Polygon
    coeffs: list[PiSeries]
    matrix: PsiMatrix
    verdict: TruncationVerdict


def np_T(params: Params, n_max: int, N: int | None = None, O: int | None = None,
         M: int | None = None, guard: int = DEFAULT_GUARD,
         check_minors: bool = True) -> NpTResult:
    """T-adic Newton polygon of the characteristic series on [0, n_max]."""
    autoN, autoO = auto_sizes(params, n_max, guard)
    N = N if N is not None else autoN
    O = O if O is not None else autoO
    verdict = truncation_certificate(params, N, O, n_max, guard)
    if not verdict.ok:
        raise TruncationError(verdict)
    mat = psi_a_matrix(params, N, O, M)
    coeffs = char_series(mat, n_max, "newton")
    if check_minors:
        alt = char_series(mat, min(n_max, 4), "minors")
        for k, (x, y) in enumerate(zip(alt, coeffs)):
            if x != y:
                raise DworkConsistencyError(f"char-series paths disagree at s^{k}")
    scale = params.a * (params.p - 1)
    points: list[tuple[int, Fraction | None]] = []
    for n, cs in enumerate(coeffs):
        v = cs.t_valuation()
        # digits at or beyond the target order live in the padding zone
        if v is not None and v >= O:
            v = None
        points.append((n, None if v is None else v / scale))
    return NpTResult(polygon=lower_convex_hull(points), coeffs=coeffs,
                     matrix=mat, verdict=verdict)


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


# ---------------------------------------------------------------------------
# T-series conversion and the trace-formula cross check


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
    rev_poly = [Fraction(0)] * (order + 1)
    for idx, val in enumerate(rev[: order + 1]):
        rev_poly[idx] = val
    powers = _poly_powers(rev_poly, order)
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


@dataclass
class TraceReport:
    k: int
    checked_order: int
    agree_order: int
    ok: bool


def trace_consistency(params: Params, k_max: int, J: int,
                      N: int | None = None, O: int | None = None,
                      M: int | None = None, strict: bool = True,
                      tadic_budget: int | None = None) -> list[TraceReport]:
    """Check S_k(T) = (q^k - 1) * trace(M^k) as truncated T-series.

    The left side is the direct T-adic character sum; the right side comes
    from the operator matrix, converted to a T-series by reverting
    E(pi) = 1 + T.  Both sides are exact mod p^M, so any mismatch within
    the certified order is a hard failure.
    """
    from .lfunction import DEFAULT_TADIC_BUDGET, default_precision

    M = M or default_precision(params)
    n_max = max(k_max, params.d)
    autoN, autoO = auto_sizes(params, n_max)
    autoO = max(autoO, J + 2)
    autoN = max(autoN, math.ceil(Fraction(params.d * autoO, params.p - 1)) + 1)
    N = N if N is not None else autoN
    O = O if O is not None else autoO
    mat = psi_a_matrix(params, N, O, M)
    reports = []
    budget = tadic_budget if tadic_budget is not None else DEFAULT_TADIC_BUDGET
    for k in range(1, k_max + 1):
        lhs = exp_sum_Tadic(params, k, J, M, budget=budget)
        tr = mat.trace_power(k)
        check_order = min(J, O - 1)
        rhs_T = pi_series_to_T(tr, check_order)
        scale = (params.q**k - 1) % mat.ctx.pM
        agree = 0
        ok = True
        for jj in range(check_order + 1):
            want = rhs_T[jj] * scale
            if lhs.coeffs[jj].coeffs == want.coeffs:
                agree = jj + 1
            else:
                ok = False
                break
        reports.append(TraceReport(k=k, checked_order=check_order,
                                   agree_order=agree, ok=ok))
        if strict and not ok:
            raise DworkConsistencyError(
                f"trace formula mismatch at k={k}, T^{agree}")
    return reports


def compare_aggregate_bound(params: Params, coeffs: list[PiSeries]) -> bool:
    """Every char-series coefficient clears the assignment lower bound."""
    P = lower_bound_polygon(params, len(coeffs) - 1)
    scale = params.a * (params.p - 1)
    for n, cs in enumerate(coeffs):
        v = cs.t_valuation()
        if v is not None and v < scale * P.value(n):
            return False
    return True
