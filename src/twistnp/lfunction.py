"""Twisted exponential sums, the L-polynomial, and its Newton polygon.

The classical sum over F_{q^k} is reduced to integer bookkeeping: the
additive character value depends only on the finite-field trace of f(x),
the multiplicative character value only on the discrete log mod c, so one
streaming pass over generator powers produces a (p x c) count matrix and
the sum is assembled from p + c Teichmuller data afterwards.  The pass
itself is vectorised: multiplication by a fixed field element is a linear
map over F_p, so blocks of powers come from small matrix products.

Sums over F_{q^k} live in Z_{q^k}[pi_1] but are Frobenius-invariant; they
are descended to the base Z_q[pi_1] by solving against a Hensel-lifted
subfield basis, which doubles as the invariance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import (
    PrecisionError,
    RamifiedElem,
    ZqContext,
    ZqElem,
    make_context,
    poly_mul_mod,
    poly_pow_mod,
    poly_trim,
    zeta_p_power,
)
from .polygon import Params, Polygon, lower_convex_hull

#: Default cap on field size for a single exponential sum.
DEFAULT_BUDGET = 2 * 10**7

#: Default cap for the per-element T-adic path (pure Python loop).
DEFAULT_TADIC_BUDGET = 2 * 10**5

_BLOCK = 1 << 14


class BudgetExceededError(RuntimeError):
    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} elements, budget is {budget}")
        self.needed = needed
        self.budget = budget


class DescentError(ArithmeticError):
    """A sum failed to lie in the base subring (Frobenius invariance)."""


def default_precision(params: Params) -> int:
    return params.a * params.d + 8


# ---------------------------------------------------------------------------
# residue-field bulk enumeration


def _mult_matrix(z, modulus, p, m) -> np.ndarray:
    """Matrix of multiplication by z on the power basis of F_{p^m}."""
    cols = []
    for t in range(m):
        xt = (0,) * t + (1,)
        col = poly_mul_mod(z, xt, modulus, p)
        cols.append(tuple(col) + (0,) * (m - len(col)))
    return np.array(cols, dtype=np.int64).T % p


def _ff_trace_row(modulus, p, m) -> np.ndarray:
    """Finite-field traces of the power basis, as a length-m row mod p."""
    comp = [[0] * m for _ in range(m)]
    for i in range(1, m):
        comp[i][i - 1] = 1
    for i in range(m):
        comp[i][m - 1] = (-modulus[i]) % p
    row = [m % p]
    mat = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(1, m):
        mat = [[sum(mat[i][t] * comp[t][j] for t in range(m)) % p for j in range(m)]
               for i in range(m)]
        row.append(sum(mat[i][i] for i in range(m)) % p)
    return np.array(row, dtype=np.int64)


def _power_block(h, modulus, p, m, width) -> np.ndarray:
    """Columns h^0 .. h^{width-1} as an (m, width) array, by doubling."""
    P = np.zeros((m, width), dtype=np.int64)
    P[0, 0] = 1
    filled = 1
    while filled < width:
        take = min(filled, width - filled)
        mat = _mult_matrix(poly_pow_mod(h, filled, modulus, p), modulus, p, m)
        P[:, filled:filled + take] = (mat @ P[:, :take]) % p
        filled += take
    return P


def trace_count_matrix(p, m, modulus, g, lam_vecs, d_exp, e_exp, c,
                       block=_BLOCK) -> np.ndarray:
    """Counts N[l, r, j mod c] over x = g^j of Tr(x^d + lam_l * x^e) = r.

    One pass over the q^k - 1 generator powers serves every coefficient in
    ``lam_vecs`` at once; only the trace row depends on the coefficient.
    """
    total = p**m - 1
    width = min(block, total)
    tr = _ff_trace_row(modulus, p, m)
    h_d = poly_pow_mod(g, d_exp, modulus, p)
    h_e = poly_pow_mod(g, e_exp, modulus, p)
    P_d = _power_block(h_d, modulus, p, m, width)
    P_e = _power_block(h_e, modulus, p, m, width)
    lam_rows = []
    for vec in lam_vecs:
        lam_mat = _mult_matrix(vec, modulus, p, m)
        lam_rows.append((tr @ lam_mat) % p)
    counts = np.zeros((len(lam_vecs), p * c), dtype=np.int64)
    base_d = (1,)
    base_e = (1,)
    step_d = poly_pow_mod(h_d, width, modulus, p)
    step_e = poly_pow_mod(h_e, width, modulus, p)
    j0 = 0
    while j0 < total:
        nb = min(width, total - j0)
        mat_d = _mult_matrix(base_d, modulus, p, m)
        mat_e = _mult_matrix(base_e, modulus, p, m)
        alpha = ((tr @ mat_d) @ P_d[:, :nb]) % p
        Ye = (mat_e @ P_e[:, :nb]) % p
        jmod = (j0 + np.arange(nb, dtype=np.int64)) % c
        for li, lam_row in enumerate(lam_rows):
            t_vals = (alpha + lam_row @ Ye) % p
            keys = t_vals * c + jmod
            counts[li] += np.bincount(keys, minlength=p * c)
        base_d = poly_mul_mod(base_d, step_d, modulus, p)
        base_e = poly_mul_mod(base_e, step_e, modulus, p)
        j0 += nb
    return counts.reshape(len(lam_vecs), p, c)


# ---------------------------------------------------------------------------
# subfield embedding and descent


def _base_generator_minpoly(p: int, a: int, M: int) -> list[int]:
    """Minimal polynomial over F_p of the base-field generator."""
    base = make_context(p, a, M)
    g = base.generator
    # product of (X - g^{p^i}) computed with polynomial coefficients in F_{p^a}
    conj = g
    poly = [tuple((-c) % p for c in _pad(conj, a)), (1,) + (0,) * (a - 1)]
    for _ in range(a - 1):
        conj = poly_pow_mod(conj, p, base.modulus, p)
        root = tuple((-c) % p for c in _pad(conj, a))
        new = [(0,) * a] * (len(poly) + 1)
        new = [list(t) for t in new]
        for i, coef in enumerate(poly):
            prod = poly_mul_mod(coef, root, base.modulus, p)
            prod = _pad(prod, a)
            for t in range(a):
                new[i][t] = (new[i][t] + prod[t]) % p
            for t in range(a):
                new[i + 1][t] = (new[i + 1][t] + coef[t]) % p
        poly = [tuple(t) for t in new]
    out = []
    for coef in poly:
        assert all(x == 0 for x in coef[1:]), "minimal polynomial not over F_p"
        out.append(coef[0])
    return out


def _pad(t, n):
    t = tuple(t)
    return t + (0,) * (n - len(t))


def _eval_fp_poly_in_ff(coeffs: list[int], z, modulus, p):
    """Evaluate an F_p[X] polynomial at a field element; trimmed tuple."""
    acc: tuple = ()
    for c in reversed(coeffs):
        acc = poly_mul_mod(acc, z, modulus, p)
        acc = _pad(acc, 1)
        acc = ((acc[0] + c) % p,) + acc[1:]
    return poly_trim(acc)


class SubfieldDescent:
    """Maps elements of Z_{q^k} known to lie in Z_q back to base coordinates."""

    def __init__(self, params: Params, big: ZqContext):
        self.big = big
        self.a = params.a
        self.p = params.p
        self.base = make_context(params.p, params.a, big.M)
        self.embed_exponent = self._find_embedding_exponent(params)
        self._build_basis()

    def _find_embedding_exponent(self, params: Params) -> int:
        """Exponent E with big_gen^E the image of the base generator."""
        p, a = self.p, self.a
        if a == 1:
            g_int = make_context(p, 1, 2).generator[0]
            return self._dlog_in_subfield((g_int,))
        minpoly = _base_generator_minpoly(p, a, 2)
        q = p**a
        Q1 = p**self.big.deg - 1
        step = Q1 // (q - 1)
        h = poly_pow_mod(self.big.generator, step, self.big.modulus, p)
        z = (1,)
        for j in range(q - 1):
            if not _eval_fp_poly_in_ff(minpoly, z, self.big.modulus, p):
                return (step * j) % Q1
            z = poly_mul_mod(z, h, self.big.modulus, p)
        raise AssertionError("no root of the base minimal polynomial found")

    def _dlog_in_subfield(self, target) -> int:
        """Discrete log of a subfield element, by scanning the small group."""
        p = self.p
        q = p**self.a
        Q1 = p**self.big.deg - 1
        step = Q1 // (q - 1)
        h = poly_pow_mod(self.big.generator, step, self.big.modulus, p)
        z = (1,)
        tgt = poly_trim(tuple(c % p for c in target))
        for j in range(q - 1):
            if z == tgt:
                return (step * j) % Q1
            z = poly_mul_mod(z, h, self.big.modulus, p)
        raise AssertionError("element does not lie in the subfield")

    def _build_basis(self):
        big, a = self.big, self.a
        if a == 1:
            self._rows = None
            return
        # Hensel-lift the residue embedding of the base power-basis root
        base_mod = self.base.modulus
        x_img_res = poly_pow_mod(big.generator,
                                 self._x_exponent(), big.modulus, big.p)
        z = big.elem(x_img_res)
        for _ in range(max(1, math.ceil(math.log2(big.M))) + 1):
            fz = _eval_int_poly(big, base_mod, z)
            dfz = _eval_int_poly_deriv(big, base_mod, z)
            z = z - big.mul(fz, big.inverse(dfz))
        assert _eval_int_poly(big, base_mod, z).is_zero()
        cols = [big.one()]
        for _ in range(a - 1):
            cols.append(big.mul(cols[-1], z))
        self._B = [c.coeffs for c in cols]  # a columns, each length big.deg
        self._prepare_solver()

    def _x_exponent(self) -> int:
        """Dlog of the residue image of the base ring generator X."""
        # X generates the residue field as a ring; write it in terms of the
        # base generator: X = g_base^dlog, so its image is big_gen^(E * dlog)
        p, a = self.p, self.a
        base = self.base
        g = base.generator
        target = (0, 1)
        z = (1,)
        for j in range(p**a - 1):
            if _pad(z, a) == _pad(target, a):
                Q1 = p**self.big.deg - 1
                return (self.embed_exponent * j) % Q1
            z = poly_mul_mod(z, g, base.modulus, p)
        raise AssertionError("power basis root not generated")

    def _prepare_solver(self):
        big, a = self.big, self.a
        p, pM = big.p, big.pM
        mat = [[self._B[t][r] for t in range(a)] for r in range(big.deg)]
        # pick a rows forming an invertible minor, by elimination mod p
        work = [[x % p for x in row] for row in mat]
        chosen: list[int] = []
        for t in range(a):
            pivot = None
            for r in range(big.deg):
                if r not in chosen and work[r][t] % p != 0:
                    pivot = r
                    break
            assert pivot is not None, "subfield basis is degenerate mod p"
            chosen.append(pivot)
            inv = pow(work[pivot][t], -1, p)
            for r in range(big.deg):
                if r != pivot and work[r][t]:
                    f = work[r][t] * inv % p
                    for tt in range(a):
                        work[r][tt] = (work[r][tt] - f * work[pivot][tt]) % p
        self._rows = chosen
        # invert the a x a minor mod p^M by Gauss-Jordan with unit pivots
        minor = [[mat[r][t] % pM for t in range(a)] for r in chosen]
        inv = [[1 if i == j else 0 for j in range(a)] for i in range(a)]
        for t in range(a):
            piv = None
            for r in range(t, a):
                if minor[r][t] % p != 0:
                    piv = r
                    break
            assert piv is not None
            minor[t], minor[piv] = minor[piv], minor[t]
            inv[t], inv[piv] = inv[piv], inv[t]
            scale = pow(minor[t][t], -1, pM)
            minor[t] = [x * scale % pM for x in minor[t]]
            inv[t] = [x * scale % pM for x in inv[t]]
            for r in range(a):
                if r != t and minor[r][t]:
                    f = minor[r][t]
                    minor[r] = [(x - f * y) % pM for x, y in zip(minor[r], minor[t])]
                    inv[r] = [(x - f * y) % pM for x, y in zip(inv[r], inv[t])]
        self._minor_inv = inv

    def descend_zq(self, elem: ZqElem) -> ZqElem:
        big, a = self.big, self.a
        pM = big.pM
        if a == 1:
            if any(c != 0 for c in elem.coeffs[1:]):
                raise DescentError("value has non-constant coordinates")
            return self.base.from_int(elem.coeffs[0])
        v = [elem.coeffs[r] for r in self._rows]
        y = [sum(self._minor_inv[i][j] * v[j] for j in range(a)) % pM for i in range(a)]
        # full-system check: this is the Frobenius-invariance assertion
        for r in range(big.deg):
            got = sum(self._B[t][r] * y[t] for t in range(a)) % pM
            if got != elem.coeffs[r]:
                raise DescentError(f"value does not lie in the subring (row {r})")
        return self.base.elem(tuple(y))

    def descend_ram(self, elem: RamifiedElem) -> RamifiedElem:
        return RamifiedElem(self.base, tuple(self.descend_zq(c) for c in elem.comps))

    def lambda_residue(self, lam_index: int):
        """Residue vector of the embedded binomial coefficient."""
        big = self.big
        Q1 = big.p**big.deg - 1
        exp = (self.embed_exponent * lam_index) % Q1
        return poly_pow_mod(big.generator, exp, big.modulus, big.p)


def _eval_int_poly(ctx: ZqContext, coeffs, z: ZqElem) -> ZqElem:
    acc = ctx.zero()
    for c in reversed(coeffs):
        acc = ctx.mul(acc, z) + ctx.from_int(c)
    return acc


def _eval_int_poly_deriv(ctx: ZqContext, coeffs, z: ZqElem) -> ZqElem:
    acc = ctx.zero()
    for i in range(len(coeffs) - 1, 0, -1):
        acc = ctx.mul(acc, z) + ctx.from_int(i * coeffs[i])
    return acc


# ---------------------------------------------------------------------------
# exponential sums


@dataclass
class ClassicalSum:
    """One classical twisted sum: raw counts plus assembled values."""

    k: int
    big_ctx: ZqContext
    counts: np.ndarray  # (p, c) int64
    value_big: RamifiedElem
    value: RamifiedElem  # descended to the base context


def _character_values(params: Params, k: int, descent: SubfieldDescent):
    """Teichmuller values V_0..V_{c-1} of the twisted character."""
    big = descent.big
    Qk1 = params.p**(params.a * k) - 1
    s_exp = (-params.u * (Qk1 // (params.q - 1))) % Qk1
    vals = []
    for mm in range(params.c):
        res = poly_pow_mod(big.generator, (s_exp * mm) % Qk1, big.modulus, big.p)
        vals.append(big.teichmuller(res))
    return vals


def _assemble_from_counts(big: ZqContext, counts: np.ndarray, V: list[ZqElem]):
    p, c = counts.shape
    out = big.ram_zero()
    for r in range(p):
        acc = big.zero()
        for mm in range(c):
            n = int(counts[r, mm])
            if n:
                acc = acc + V[mm] * n
        if not acc.is_zero():
            out = out + zeta_p_power(big, r).scale(acc)
    return out


def classical_sums_multi(params: Params, k: int, lam_indices: list[int],
                         M: int | None = None,
                         budget: int = DEFAULT_BUDGET) -> dict[int, ClassicalSum]:
    """Classical sums over F_{q^k} for several binomial coefficients at once."""
    M = M or default_precision(params)
    m = params.a * k
    size = params.p**m - 1
    if size + 1 > budget:
        raise BudgetExceededError(size + 1, budget)
    big = make_context(params.p, m, M)
    descent = _descent_for(params, big)
    lam_vecs = [descent.lambda_residue(li) for li in lam_indices]
    counts = trace_count_matrix(params.p, m, big.modulus, big.generator,
                                lam_vecs, params.d, params.e, params.c)
    V = _character_values(params, k, descent)
    out = {}
    for li, lam_index in enumerate(lam_indices):
        big_val = _assemble_from_counts(big, counts[li], V)
        out[lam_index] = ClassicalSum(k=k, big_ctx=big, counts=counts[li],
                                      value_big=big_val,
                                      value=descent.descend_ram(big_val))
    return out


_descent_cache: dict = {}


def _descent_for(params: Params, big: ZqContext) -> SubfieldDescent:
    key = (params.p, params.a, big.deg, big.M)
    if key not in _descent_cache:
        _descent_cache[key] = SubfieldDescent(params, big)
    return _descent_cache[key]


def exp_sum_classical(params: Params, k: int, M: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> ClassicalSum:
    return classical_sums_multi(params, k, [params.lam_index], M, budget)[params.lam_index]


@dataclass
class TadicSum:
    """Truncated T-adic sum: coefficients of T^0..T^J over the base ring."""

    k: int
    J: int
    coeffs: list[ZqElem]


def exp_sum_Tadic(params: Params, k: int, J: int, M: int | None = None,
                  budget: int = DEFAULT_TADIC_BUDGET) -> TadicSum:
    """Coefficient-wise twisted T-adic sum, truncated at T^J.

    Walks the multiplicative group once, maintaining the Teichmuller
    powers of x^d and x^e incrementally; each element contributes the
    falling-factorial expansion of (1+T)^{trace}.
    """
    if J >= params.p:
        raise ValueError("T-adic truncation order must stay below p")
    M = M or default_precision(params)
    m = params.a * k
    size = params.p**m - 1
    if size + 1 > budget:
        raise BudgetExceededError(size + 1, budget)
    big = make_context(params.p, m, M)
    descent = _descent_for(params, big)
    pM = big.pM
    g_teich = big.teichmuller(big.generator)
    omega_d = big.pow(g_teich, params.d)
    omega_e = big.pow(g_teich, params.e)
    lam_hat = big.teichmuller(descent.lambda_residue(params.lam_index))
    xd = big.one()
    xe = big.one()
    acc = [[0] * (J + 1) for _ in range(params.c)]
    c = params.c
    for j in range(size):
        fhat = xd + big.mul(lam_hat, xe)
        t = big.trace_zp(fhat)
        bucket = acc[j % c]
        bucket[0] += 1
        ff = 1
        for jj in range(1, J + 1):
            ff = ff * (t - jj + 1) % pM
            bucket[jj] += ff
        xd = big.mul(xd, omega_d)
        xe = big.mul(xe, omega_e)
    V = _character_values(params, k, descent)
    inv_fact = [pow(math.factorial(jj) % pM, -1, pM) for jj in range(J + 1)]
    coeffs = []
    for jj in range(J + 1):
        total = big.zero()
        for mm in range(c):
            total = total + V[mm] * (acc[mm][jj] % pM)
        coeffs.append(descent.descend_zq(total * inv_fact[jj]))
    return TadicSum(k=k, J=J, coeffs=coeffs)


# ---------------------------------------------------------------------------
# the L-polynomial and its polygon


@dataclass
class LFunctionData:
    params: Params
    M: int
    sums: list[RamifiedElem]  # S_1..S_d over the base context
    coeffs: list[RamifiedElem]  # l_0..l_d
    valuations: list[Fraction | None]  # pi-units; None when below precision

    def newton_points(self) -> list[tuple[int, Fraction | None]]:
        scale = self.params.a * (self.params.p - 1)
        return [(n, None if v is None else v / scale)
                for n, v in enumerate(self.valuations)]


def l_polynomial(params: Params, M: int | None = None,
                 budget: int = DEFAULT_BUDGET,
                 _sums: list[RamifiedElem] | None = None) -> LFunctionData:
    """Coefficients of exp(sum_k S_k s^k / k) up to degree d."""
    M = M or default_precision(params)
    if params.p <= params.d:
        raise ValueError("need p > d so the exponential recurrence divides by units")
    if _sums is None:
        sums = [exp_sum_classical(params, k, M, budget).value
                for k in range(1, params.d + 1)]
    else:
        sums = _sums
    base = sums[0].ctx
    coeffs = [base.ram_one()]
    for n in range(1, params.d + 1):
        acc = base.ram_zero()
        for k in range(1, n + 1):
            acc = acc + sums[k - 1] * coeffs[n - k]
        coeffs.append(acc.divide_by_unit_int(n))
    vals: list[Fraction | None] = []
    for coeff in coeffs:
        v = coeff.valuation()
        vals.append(v.pi_units(params.p) if v.exact else None)
    return LFunctionData(params=params, M=M, sums=sums, coeffs=coeffs, valuations=vals)


def newton_polygon_classical(params: Params, M: int | None = None,
                             budget: int = DEFAULT_BUDGET,
                             data: LFunctionData | None = None) -> Polygon:
    """Newton polygon of the L-polynomial on [0, d], in q-adic units."""
    if data is None:
        data = l_polynomial(params, M, budget)
    M = data.M
    if data.valuations[params.d] is None:
        raise PrecisionError(
            f"degree-{params.d} coefficient vanishes mod p^{M}; "
            f"retry with M >= {M + params.a * params.d}")
    cap = Fraction(M * (params.p - 1))
    needed = max(v for v in data.valuations if v is not None)
    if cap <= needed:
        raise PrecisionError(f"precision M={M} cannot certify valuations up to {needed}")
    return lower_convex_hull(data.newton_points())


def extend_newton_polygon(restriction: Polygon, n_max: int) -> Polygon:
    """Extend the degree-d restriction to [0, n_max] by the slope rule.

    The full characteristic-series polygon has slope multiset
    {j + s_i : j >= 0} for s_0..s_{d-1} the restriction slopes, so
    extension is the formal transform slope(n + d) = slope(n) + 1.
    """
    base = restriction.slopes()
    d = len(base)
    vals = [Fraction(0)]
    for n in range(n_max):
        vals.append(vals[-1] + base[n % d] + n // d)
    return Polygon(tuple(vals))
