"""Truncated T-adic Dwork theory on the monomial basis.

The splitting-series coefficients gamma_n are finite sums of
pi^(x+y) * lambda_x * lambda_y * lamhat^y over decompositions
d*x + e*y = n, truncated at the pi-order O.  The power-q operator A on the
monomial basis of the twisted Banach space over Z_q has entry (w, i) equal
to pi^((i-w)/d) times the coefficient F_{q*w - i + u} of X^(q*w - i + u) in
the product of the Frobenius-twisted splitting series.  It is realised in
its integral form B = Delta A Delta^-1, Delta = diag(pi^(w/d)), whose entry
(w, i) is F_{q*w - i + u} itself, a series in Z_q[[pi]] (``psi_a_matrix``).
Conjugation keeps det(1 - A s) and every Tr(A^k), and truncation at pi^O
is a ring map on Z_q[[pi]], so every series below is exact mod pi^O.
Valuations here are T-adic: p is a unit, so the order of a series is simply
its smallest exponent carrying a nonzero coefficient, an integer.

A series (``PiSeries``) is one sorted list of (exponent, packed
coefficient), exponent k standing for pi^k: the coefficient's Z_q
coordinates, reduced mod p^M, sit in the slots of one integer, so the one
series product ``_dot`` multiplies two coefficients by one integer
product and reduces each exponent's sum without leaving the packed
integer.  A series' order is the power of pi it is cut at.

Truncation is certified, not guessed: every term routed through a basis
row w carries order at least (p-1)*w/d, so rows beyond N are irrelevant
once (p-1)*N/d clears the order O.  One rule, ``auto_sizes``, fills a size
not given from the one given.  ``np_T`` reads the hull up to n_top, the
least multiple of d at or above n_max, where NP_T meets the Hodge
polygon: that top point is known, so O need only clear the Hodge chord
below it, which bounds every other point the hull can use.  ``np_T``
raises ``TruncationError`` on sizes that cannot certify the series.  The
characteristic series and Tr(A^k) are ``core_arith.berkowitz`` and
``core_arith.power_sums`` run with ``_dot``.

The trace formula S_k(T) = (q^k - 1) Tr(A^k) is checked in pi on the
operator ``np_T`` built: the direct T-adic sum is a polynomial in T, and
T = E(pi) - 1 is substituted into it with the Artin-Hasse coefficients of
E as Z_q integers.
"""

from __future__ import annotations

import operator

from .core_arith import artin_hasse_coeffs, berkowitz, decompose, power_sums
from .lfunction import DEFAULT_BUDGET, check_trace_inputs, default_precision, exp_sum_Tadic
from .padic import (PrecisionError, ZqContext, ZqElem, checked_pairs, make_context, pack,
                    poly_pow_mod, slot_bytes)
from .polygon import Params, Polygon, hodge_order, lower_convex_hull

#: extra pi-orders kept beyond the largest valuation that must be resolved
DEFAULT_GUARD = 6


class DworkConsistencyError(ArithmeticError):
    """Trace formula and direct enumeration disagree at certified order."""


class TruncationError(PrecisionError):
    """The operator sizes (N, O) cannot certify the characteristic series."""


class PiSeries:
    """Finite sum of c * pi^n with n in [0, order).

    Every series of one operator has the same ``order``, so sums and
    products never realign exponents; an operation on series of two orders
    raises ``ValueError``.

    ``packed`` is the series' one representation: its terms as (exponent,
    packed coefficient), by exponent, with no zero coefficient.  The
    coefficient sum_i c_i X^i, reduced mod p^M, is packed with c_i in slot
    i (``padic.pack``, slots of ``slot_width`` bytes), so a product of two
    coefficients is one integer product whose slot i + j holds the X^(i+j)
    sum.  Every operation, sums and scalar multiples included, is ``_dot``.
    A series is immutable by convention; two series are equal when their
    context, order and terms are, and a series has no hash.
    """

    __slots__ = ("ctx", "order", "packed")

    def __init__(self, ctx: ZqContext, order: int, packed: list[tuple[int, int]] | None = None):
        self.ctx, self.order, self.packed = ctx, order, [] if packed is None else packed

    def __eq__(self, other):
        if not isinstance(other, PiSeries):
            return NotImplemented
        return (self.ctx, self.order, self.packed) == (other.ctx, other.order, other.packed)

    def zero(self) -> "PiSeries":
        """The zero series of this order."""
        return PiSeries(self.ctx, self.order)

    def constant(self, c: int | ZqElem) -> "PiSeries":
        """The constant c at this order."""
        if isinstance(c, int):
            c = self.ctx.from_int(c)
        return PiSeries(self.ctx, self.order,
                        [] if c.is_zero() else [(0, pack(c.coeffs, self.slot_width()))])

    def is_zero(self):
        return not self.packed

    def slot_width(self) -> int:
        """Bytes of a packed slot at this order: a pair of series adds to an
        exponent at most one term product per left exponent below the cap."""
        return slot_bytes(self.ctx.pM, self.order * self.ctx.deg)

    def __bool__(self):
        return bool(self.packed)

    def check_same_order(self, other):
        if self.order != other.order:
            raise ValueError(f"series of the orders {self.order} and {other.order}")

    def __add__(self, other):
        one = self.constant(1)
        return _dot([(self, one), (other, one)], self.zero())

    def __sub__(self, other):
        return _dot([(self, self.constant(1)), (other, self.constant(-1))], self.zero())

    def __mul__(self, other):
        if not isinstance(other, PiSeries):
            other = self.constant(other)
        return _dot([(self, other)], self.zero())

    __rmul__ = __mul__

    @property
    def terms(self) -> dict[int, ZqElem]:
        """The terms as {exponent: coefficient}: a read-only view of
        ``packed``, its slots taken out by shift and mask."""
        bits = 8 * self.slot_width()
        mask, offsets = (1 << bits) - 1, range(0, self.ctx.deg * bits, bits)
        return {n: ZqElem(self.ctx, tuple([v >> k & mask for k in offsets])) for n, v in self.packed}

    def t_valuation(self) -> int | None:
        """T-adic order: smallest exponent present, None if empty."""
        return self.packed[0][0] if self.packed else None


def _reducer(ctx: ZqContext, nbytes: int):
    """The packed remainder of a packed sum of products, as a function.

    A sum of products of packed coefficients holds the X^s coefficient in
    slot s < 2 deg - 1.  The slots come out by shift and mask; slot s >=
    deg folds onto slots s - deg.. by the monic modulus, from the top down,
    as in ``padic.poly_mod``; each slot below deg is reduced mod p^M; and
    the remainders are packed again by shifts.  At deg = 1 the packed
    integer is the coefficient itself.
    """
    pM, deg = ctx.pM, ctx.deg
    if deg == 1:
        return pM.__rmod__
    bits = 8 * nbytes
    mask = (1 << bits) - 1
    low = ctx.modulus[:deg]
    offsets = range(0, (2 * deg - 1) * bits, bits)
    tops = range(2 * deg - 2, deg - 1, -1)
    outs = range(deg - 1, -1, -1)

    def reduce(v: int) -> int:
        s = [v >> k & mask for k in offsets]
        for i in tops:
            c = s[i] % pM
            if c:
                for j, f in enumerate(low, i - deg):
                    s[j] -= c * f
        out = 0
        for i in outs:
            out = out << bits | s[i] % pM
        return out

    return reduce


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

    Each term is the packed lamhat^y times the integer lambda_x * lambda_y
    at pi^(x+y), reduced by ``_reducer``.
    """
    lam, pM = artin_hasse_zp(ctx, O), ctx.pM
    nbytes = PiSeries(ctx, O).slot_width()
    reduce = _reducer(ctx, nbytes)
    lam_pows, z = [], ctx.one()
    for _ in range(O):
        lam_pows.append(pack(z.coeffs, nbytes))
        z = ctx.mul(z, lam_hat)
    out = []
    for n in range(n_max + 1):
        packed = []
        x, y = decompose(n, d, e)
        while x >= 0:
            total = x + y
            if total >= O:
                break  # totals grow by d - e > 0 along the solution line
            if coeff := reduce(lam_pows[y] * (lam[x] * lam[y] % pM)):  # each total comes once
                packed.append((total, coeff))
            x -= e
            y += d
        out.append(PiSeries(ctx, O, packed))
    return out


class PsiMatrix:
    """The power-q operator on the first N monomial basis vectors, in its
    integral form B = Delta A Delta^-1, Delta = diag(pi^(w/d)): entry (w, i)
    is F_{q*w - i + u}, every entry a series of order O.

    Every entry of B lies in Z_q[[pi]], and Berkowitz's recurrence and the
    Newton identities never divide, so cutting every series at pi^O, a
    ring map, is exact for every intermediate: the series hold det(1 - B s)
    and Tr(B^k) mod pi^O exactly, with no padding order.  Conjugation by a
    diagonal keeps every principal minor and every trace, so these are
    det(1 - A s) and Tr(A^k), and the tail-row certificate, a bound on the
    orders of principal minors, is that of A.

    ``traces[k]`` holds Tr(A^k) once the characteristic series has been
    computed to s^k (``power_traces``); index 0 is unused.  ``np_T`` keeps
    them to n_top, where the trace check reads them.
    """

    __slots__ = ("params", "ctx", "N", "O", "entries", "traces")

    def __init__(self, params: Params, ctx: ZqContext, N: int, O: int,
                 entries: list[list[PiSeries]]):
        self.params, self.ctx, self.N, self.O, self.entries = params, ctx, N, O, entries
        self.traces: list[PiSeries] = []

    def trace_power(self, k: int) -> PiSeries:
        """Tr(A^k), read off the characteristic series, which is extended
        to s^k, in one run of the recurrence, when k is past the cache."""
        if len(self.traces) <= k:
            self.traces = power_traces(char_series(self, k))
        return self.traces[k]


def _dot(pairs, zero: PiSeries, cap: int | None = None) -> PiSeries:
    """Sum of x * y over pairs of series of the order of ``zero``, below the
    exponent ``cap``, by default that order.

    This is the one series product; a series of another order, or a cap
    above the order, raises.  Each term product is one integer product of
    packed coefficients (``PiSeries.packed``); the right-hand terms are
    walked by exponent and left at the cap, so no pair past the truncation
    is visited.  Each exponent's sum is reduced once, in its packed form
    (``_reducer``).
    """
    ctx = zero.ctx
    if cap is None:
        cap = zero.order
    elif cap > zero.order:
        raise ValueError(f"cap {cap} above the order {zero.order}")
    acc: dict[int, int] = {}
    for x, y in checked_pairs(pairs):
        zero.check_same_order(x)
        zero.check_same_order(y)
        right = y.packed
        if not right:
            continue
        first = right[0][0]
        for na, va in x.packed:
            lim = cap - na
            if lim <= first:
                break
            for nb, vb in right:
                if nb >= lim:
                    break
                n = na + nb
                acc[n] = acc.get(n, 0) + va * vb
    reduce = _reducer(ctx, zero.slot_width())
    return PiSeries(ctx, zero.order, sorted((n, r) for n, v in acc.items() if (r := reduce(v))))


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
        self.zero = PiSeries(ctx, O)
        self._memo: dict[tuple[int, int], PiSeries] = {}

    def coeff(self, m: int) -> PiSeries:
        """X^m coefficient of the full a-fold product."""
        return self._level(0, m)

    def _level(self, j: int, m: int) -> PiSeries:
        """X^m coefficient of the product over j' >= j, a series in X^(p^j).

        Precondition: p^j divides m.  The top call has j = 0, and each
        recursive call passes m - n p^j with n = m/p^j mod p, which p^(j+1)
        divides."""
        p = self.params.p
        pj = p**j
        if j == self.params.a - 1:
            return self.gammas[j][m // pj] if m // pj <= self.gamma_max else self.zero
        key = (j, m)
        if key not in self._memo:
            pairs = []
            # level j + 1 is nonzero only where p^(j+1) divides m - n p^j
            for n in range(m // pj % p, min(m // pj, self.gamma_max) + 1, p):
                g = self.gammas[j][n]
                if g.packed:
                    rest = self._level(j + 1, m - n * pj)
                    if rest.packed:
                        pairs.append((g, rest))
            self._memo[key] = _dot(pairs, self.zero)
        return self._memo[key]


def psi_a_matrix(params: Params, N: int, O: int, M: int | None = None) -> PsiMatrix:
    """The operator's integral form B on the first N basis vectors: entry
    (w, i) is F_{q*w - i + u} mod pi^O, for w, i < N (``PsiMatrix``).

    det(1 - B s) and Tr(B^k) are those of A, and every series of B is
    exact mod pi^O, so O is the order the series are carried at.
    """
    ctx = make_context(params.p, params.a, M or default_precision(params))
    q, u = params.q, params.u
    prod = _ProductCoeffs(params, ctx, O)
    entries = [[prod.coeff(q * w - i + u) if q * w - i + u >= 0 else prod.zero
                for i in range(N)] for w in range(N)]
    return PsiMatrix(params=params, ctx=ctx, N=N, O=O, entries=entries)


def char_series(mat: PsiMatrix, n_max: int) -> list[PiSeries]:
    """Coefficients of det(1 - A s) in s^0..s^{n_max}, by ``berkowitz``
    on series."""
    zero = mat.entries[0][0].zero()
    return berkowitz(mat.entries, n_max, lambda pairs: _dot(pairs, zero),
                     zero.constant(1), zero)


def power_traces(coeffs: list[PiSeries]) -> list[PiSeries | None]:
    """Tr(A^k) for k <= n_max from det(1 - A s), by ``power_sums``."""
    zero = coeffs[0].zero()
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
    A, N, zero = mat.entries, mat.N, mat.entries[0][0].zero()
    cap = zero.order

    def tr_prod(X, Y):  # Tr(XY) = sum_ij X_ij Y_ji
        return _dot(((X[i][j], Y[j][i]) for i in range(N) for j in range(N)), zero)

    traces = [None, sum((A[i][i] for i in range(N)), zero), tr_prod(A, A)]
    if k_max >= 3:
        low = [[x.packed[0][0] if x.packed else cap for x in row] for row in A]  # cap where zero
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


def top_degree(params: Params, n_max: int) -> int:
    """n_top = d*ceil(n_max/d), the least multiple of d at or above n_max,
    where NP_T meets the Hodge polygon."""
    return -(-n_max // params.d) * params.d


def auto_sizes(params: Params, n_max: int, least_order: int = 0,
               N: int | None = None, O: int | None = None) -> tuple[int, int]:
    """The operator sizes (N, O) that resolve NP_T on [0, n_max].

    A size given is kept.  The hull runs to n_top (``top_degree``), where
    NP_T meets the Hodge polygon HP, so its top point is known; below it,
    convexity puts NP_T(n) at or under the chord of HP between the
    multiples of d around n, and HP rises, so every point the hull can use
    has a value at most chord(n_top - 1).  O clears that value, in
    pi-units, by ``DEFAULT_GUARD`` and is raised to ``least_order``; N is
    the least size whose tail rows clear the O in use, and at least n_top.
    These are the sizes of a command's one operator: the trace check reads
    that operator and sizes none of its own.
    """
    d = params.d
    n_top = top_degree(params, n_max)
    if O is None:
        lo, hi = hodge_order(params, n_top - d), hodge_order(params, n_top)
        chord = -(-(lo + (d - 1) * hi) // d)  # at n_top - 1, rounded up
        O = max(chord + DEFAULT_GUARD, least_order)
    if N is None:
        N = max(-(-d * O // (params.p - 1)) + 1, n_top)
    return N, O


def certify_sizes(params: Params, N: int, O: int, need_O: int = 0, n_top: int = 0,
                  suggest: str = "") -> None:
    """Raise ``TruncationError`` unless the sizes (N, O) certify the series:
    O reaches ``need_O``, the tail rows w >= N, whose terms have order at
    least (p-1)*w/d, clear O, and N >= ``n_top``.  The message names the
    first condition that fails, then ``suggest``."""
    for failed, reason in ((O < need_O, f"working order {O} below required {need_O}"),
                           ((params.p - 1) * N < params.d * O,
                            f"tail rows reach below order {O} for N={N}"),
                           (n_top > N, f"n_max={n_top} exceeds matrix size {N}")):
        if failed:
            raise TruncationError(f"truncation certificate failed: {reason}{suggest}")


class NpTResult:
    """The T-adic polygon to n_max, c_0..c_{n_max} of the characteristic
    series, and the operator they come from."""

    __slots__ = ("polygon", "coeffs", "matrix")

    def __init__(self, polygon: Polygon, coeffs: list[PiSeries], matrix: PsiMatrix):
        self.polygon, self.coeffs, self.matrix = polygon, coeffs, matrix


def np_T(params: Params, n_max: int, N: int | None = None, O: int | None = None,
         M: int | None = None) -> NpTResult:
    """T-adic Newton polygon of the characteristic series on [0, n_max].

    The polygon is the hull of c_0..c_{n_top}, n_top = d*ceil(n_max/d),
    restricted to n_max: NP_T meets the Hodge polygon HP at every multiple
    of d, so no point past n_top lowers it.  The operator is sized by
    ``auto_sizes``, to resolve every point below n_top that the hull can
    use, and the sizes in use are certified by ``certify_sizes``, or this
    raises ``TruncationError``: O clears the order ``auto_sizes`` requires,
    the tail rows clear O, and N >= n_top.  ``coeffs`` stops at n_max; the
    matrix keeps its traces to n_top, for the trace check to read.

    The series come from the operator's integral form (``PsiMatrix``):
    its entries lie in Z_q[[pi]] and nothing divides, so every coefficient
    is exact mod pi^O, and a coefficient below n_top that vanishes there
    has no point.  The top point is (n_top, HP(n_top)), of order
    ``hodge_order`` in pi-units.

    The traces of A^k, k <= n_max, read off the series must equal those
    from A directly (``direct_traces``), and c_{n_top} must have the top
    point's order wherever O resolves it, or this raises
    ``DworkConsistencyError``.
    """
    n_top = top_degree(params, n_max)
    N, O = auto_sizes(params, n_max, N=N, O=O)
    need_N, need_O = auto_sizes(params, n_max, O)
    certify_sizes(params, N, O, need_O, n_top, f"; suggest N={need_N}, O={need_O}")
    top = hodge_order(params, n_top)
    mat = psi_a_matrix(params, N, O, M)
    coeffs = char_series(mat, n_top)
    mat.traces = power_traces(coeffs)
    for k, direct in enumerate(direct_traces(mat, n_max)):
        if k and direct != mat.traces[k]:
            raise DworkConsistencyError(
                f"Tr(A^{k}) from A and from the characteristic series disagree")
    valuations = [cs.t_valuation() for cs in coeffs]
    if (valuations[n_top] is not None or top < O) and valuations[n_top] != top:
        raise DworkConsistencyError(f"c_{n_top} has order {valuations[n_top]} mod pi^{O}, "
                                    f"the Hodge polygon {top}")
    valuations[n_top] = top
    polygon = lower_convex_hull(valuations, params.a * (params.p - 1))
    return NpTResult(polygon=polygon.restrict(n_max),
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


class TraceReport:
    """The trace check at T^0..T^checked_order of Tr(A^k)."""

    __slots__ = ("k", "checked_order", "ok")

    def __init__(self, k: int, checked_order: int, ok: bool):
        self.k, self.checked_order, self.ok = k, checked_order, ok


def default_trace_order(params: Params) -> int:
    """The truncation order J the trace check uses when none is given:
    min(6, p - 1), the largest in [0, p) up to 6."""
    return min(6, params.p - 1)


def trace_consistency(mat: PsiMatrix, k_max: int, J: int,
                      budget: int = DEFAULT_BUDGET) -> list[TraceReport]:
    """Check S_k(T) = (q^k - 1) * trace(M^k) as truncated series on the
    operator ``mat`` that ``np_T`` built, for its params ``mat.params``.

    The left side is the direct T-adic character sum, a polynomial in T,
    at the operator's precision M; ``substitute_T`` turns it into a
    pi-series, which is compared with the trace the operator keeps
    (to n_top; a k past it extends the series once) coefficient by
    coefficient.  Both sides are exact mod p^M, and the traces mod pi^(mat.O), so
    any mismatch below the checked order min(J, mat.O - 1) is a failure,
    reported as ``ok=False``.  The traces are exact only where the tail
    rows clear the order, or ``certify_sizes`` raises ``TruncationError``.
    Before any work, ``check_trace_inputs`` gates the direct sums over
    F_{q^k} by ``budget`` for every k, and J by [0, p).
    """
    params = mat.params
    check_trace_inputs(params, k_max, J, budget)
    certify_sizes(params, mat.N, mat.O)
    check_order = min(J, mat.O - 1)
    M, zero = mat.ctx.M, mat.ctx.zero()
    mat.trace_power(k_max)  # past n_top, the characteristic series, extended once
    reports = []
    for k in range(1, k_max + 1):
        lhs = substitute_T(exp_sum_Tadic(params, k, J, M, budget).coeffs, check_order)
        rhs = mat.trace_power(k).terms
        scale = (params.q**k - 1) % mat.ctx.pM
        ok = all(lhs[jj].coeffs == (rhs.get(jj, zero) * scale).coeffs
                 for jj in range(check_order + 1))
        reports.append(TraceReport(k=k, checked_order=check_order, ok=ok))
    return reports
