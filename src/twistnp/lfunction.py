"""Twisted exponential sums, the L-polynomial, and its Newton polygon.

The classical sum over F_{q^k} is reduced to integer bookkeeping: the
additive character value depends only on the finite-field trace of f(x),
the multiplicative character value only on the discrete log mod c, so one
streaming pass over generator powers produces a (p x c) count matrix and
the sum is assembled from p + c Teichmuller data afterwards.  The pass
itself is vectorised: multiplication by a fixed field element is a linear
map over F_p, so blocks of powers come from small matrix products.

The twist is chi(Norm x), whose values are c-th roots of unity in Z_q,
so every sum is assembled in the base ring Z_q[zeta_p] directly
(``SubfieldDescent``): one embedding of F_q in F_{q^k} places the
binomial's coefficient in the enumeration and fixes the character values.
Over 1, zeta_p, ..., zeta_p^(p-2) a sum is its character-weighted counts,
and the Newton identities run there: each n l_n is one sum of products in
the group ring Z_q[x]/(x^p - 1) (``ZqContext.group_dot``), and only the
valuations of the l_n go to the pi_1-basis, row by row.

The classical polygon needs only about half the sums: the L-function is
pure of weight 1, so its top coefficients' valuations are those of the
bottom ones reflected (``classical_route``).  ``l_polynomial`` still
computes every coefficient from S_1..S_d, and is the oracle of the
reflection.

The T-adic sum (``exp_sum_Tadic``) needs the p-adic trace of each lifted
value, not its residue, so it cannot bin traces mod p.  Instead the two
traces of x = g^j, Tr(omega^(dj)) and Tr(lamhat * omega^(ej)) with omega
the Teichmuller lift of g, are linear recurring sequences of order ak in
j, streamed by integer recurrences whose characteristic polynomials come
from Berkowitz's division-free algorithm (``core_arith.berkowitz``).
The direct sum thus uses only the residue field, Teichmuller lifts and
the base-ring assembly, never the Dwork operator it is checked against.
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
    poly_divmod,
    poly_eval_mod,
    poly_mul_mod,
    poly_pow_mod,
    x_walk,
)
from .polygon import Params, Polygon, hodge_polygon, lower_convex_hull

#: Default cap on field size for a single exponential sum.
DEFAULT_BUDGET = 2 * 10**7

_BLOCK = 1 << 14


class BudgetExceededError(RuntimeError):
    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} elements, budget is {budget}")
        self.needed = needed
        self.budget = budget


class FunctionalEquationError(ArithmeticError):
    """A computed coefficient disagrees with its reflection."""


class SmallPrimeError(ValueError):
    """p does not exceed ``threshold``, the largest n by which the Newton
    identities divide n l_n."""

    def __init__(self, threshold: int):
        super().__init__(f"need p > {threshold} so the exponential recurrence "
                         f"divides by units")
        self.threshold = threshold


def default_precision(params: Params) -> int:
    return params.a * params.d + 8


# ---------------------------------------------------------------------------
# residue-field bulk enumeration


def _mult_matrix(z, modulus, p, m) -> np.ndarray:
    """Matrix of multiplication by z on the power basis of F_{p^m}: column
    t is z * X^t, one step of ``x_walk`` from column t - 1."""
    cols = x_walk(poly_divmod(z, modulus, p)[1], modulus[:m], p, m)
    return np.array(cols, dtype=np.int64).T


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


def _row_basis(rows, p, m) -> tuple[np.ndarray, np.ndarray]:
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


def trace_count_matrix(p, m, ctx, lam_vecs, d_exp, e_exp, c,
                       block=_BLOCK) -> np.ndarray:
    """Counts N[l, r, j mod c] over x = g^j of Tr(x^d + lam_l * x^e) = r.

    ``ctx`` is the context of F_{p^m}, g its generator.  One pass over the
    q^k - 1 generator powers serves every coefficient in ``lam_vecs``:
    Tr(lam * y) = row_lam . y is linear in the coordinates y of x^e, and
    the rows row_lam span a space of rank r <= min(#lam, a).  The pass
    reads z, the projection of y onto a basis of that span, and
    Tr(lam_l * y) = coords[l] . z.  When ``joint_histogram_fits``, it bins
    (Tr x^d, z, j mod c) and folds each coefficient's counts out
    afterwards; otherwise it bins each coefficient's trace directly.
    """
    modulus, g = ctx.modulus, ctx.generator
    total = p**m - 1
    width = min(block, total)
    tr = np.array(ctx.residue_traces(), dtype=np.int64)
    h_d = poly_pow_mod(g, d_exp, modulus, p)
    h_e = poly_pow_mod(g, e_exp, modulus, p)
    P_d = _power_block(h_d, modulus, p, m, width)
    P_e = _power_block(h_e, modulus, p, m, width)
    step_d = _mult_matrix(poly_pow_mod(h_d, width, modulus, p), modulus, p, m)
    step_e = _mult_matrix(poly_pow_mod(h_e, width, modulus, p), modulus, p, m)
    n_lam = len(lam_vecs)
    basis, coords = _row_basis([(tr @ _mult_matrix(vec, modulus, p, m)) % p
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
# the base ring: one embedding and the norm character


class SubfieldDescent:
    """Sums over F_{q^k} assembled in the base ring Z_q[zeta_p].

    The twist chi(Norm x) takes c-th roots of unity, which lie in Z_q, so
    each sum is assembled over the base ring from its (p, c) counts.  One
    embedding iota of F_q in F_{q^k}, sending X to a root z of the base
    modulus, serves both sides: coefficient index l is iota(g)^l in the
    enumeration, and with ell the index where iota(g)^((q-1)/c * ell) =
    g_big^((q^k-1)/c), class mm of x = g_big^j (j = mm mod c) weighs
    V_mm = Teich(g^(-u * ell * mm)).  Any embedding gives the same sums,
    as a Frobenius power only permutes the field elements.
    """

    def __init__(self, params: Params, big: ZqContext):
        p, a, c = params.p, params.a, params.c
        q, Qk1 = p**a, p**big.deg - 1
        self.big = big
        self.base = base = make_context(p, a, big.M)
        z = ()  # a = 1: the base modulus is X, whose root is 0
        if big.deg == a > 1:  # k = 1: the two moduli agree, so X is a root
            z = (0, 1)
        elif a > 1:  # the roots lie among the elements of order dividing q - 1
            h = poly_pow_mod(big.generator, Qk1 // (q - 1), big.modulus, p)
            z = (1,)
            while poly_eval_mod(base.modulus, z, big.modulus, p):
                z = poly_mul_mod(z, h, big.modulus, p)
        # the base generator's residue image: index l maps to its l-th power
        self._lam_base = poly_eval_mod(base.generator, z, big.modulus, p)
        root = poly_pow_mod(self._lam_base, (q - 1) // c, big.modulus, p)
        want = poly_pow_mod(big.generator, Qk1 // c, big.modulus, p)
        ell = next(i for i in range(c) if poly_pow_mod(root, i, big.modulus, p) == want)
        w = base.teichmuller(poly_pow_mod(base.generator, -params.u * ell % (q - 1),
                                          base.modulus, p))
        self.V = [base.pow(w, mm) for mm in range(c)]
        self._V_rows = np.array([v.coeffs for v in self.V], dtype=object)

    def weigh(self, counts) -> np.ndarray:
        """Row i of the (n, c) array ``counts`` weighted by the character:
        sum_mm counts[i, mm] * V_mm, as an (n, deg) integer array mod p^M."""
        return (np.asarray(counts, dtype=object) @ self._V_rows) % self.base.pM

    def descend_ram(self, counts: np.ndarray, conjugate: bool = False) -> RamifiedElem:
        """sum_r zeta_p^r * acc_r with acc_r the r-th row of ``weigh``, over
        1, zeta_p, ..., zeta_p^(p-2): zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2))
        takes count row p - 1 off the others before they are weighed.  With
        ``conjugate`` it is the sum of the conjugate characters: count
        (r, mm) weighs zeta_p^-r V_-mm, an index permutation of the counts.
        """
        if conjugate:
            p, c = counts.shape
            counts = counts[-np.arange(p) % p][:, -np.arange(c) % c]
        return RamifiedElem(self.base, map(tuple, self.weigh(counts[:-1] - counts[-1]).tolist()))

    def lambda_residues(self, lam_indices: list[int]) -> list[tuple[int, ...]]:
        """Residue vectors of the embedded binomial coefficients.

        Index l maps to the l-th power of the base generator's image, which
        has order dividing q - 1.  One walk through those powers, over the
        sorted indices, makes fewer than q products.
        """
        big, q = self.big, self.base.p**self.base.deg
        found, res, at = {}, (1,), 0
        for lam in sorted({li % (q - 1) for li in lam_indices}):
            for _ in range(lam - at):
                res = poly_mul_mod(res, self._lam_base, big.modulus, big.p)
            found[lam], at = res, lam
        return [found[li % (q - 1)] for li in lam_indices]


# ---------------------------------------------------------------------------
# exponential sums


@dataclass
class ClassicalSum:
    """One classical twisted sum over F_{q^k}: its (p, c) counts and its
    values in the base ring Z_q[zeta_p]."""

    k: int
    counts: np.ndarray  # (p, c) int64
    value: RamifiedElem
    conj_value: RamifiedElem | None = None  # the complex conjugate


def classical_sums_multi(params: Params, k: int, lam_indices: list[int],
                         M: int | None = None, budget: int = DEFAULT_BUDGET,
                         conjugate: bool = False) -> dict[int, ClassicalSum]:
    """Classical sums over F_{q^k} for several binomial coefficients at once.

    With ``conjugate`` each sum also gets its complex conjugate, the sum of
    the conjugate characters chi^-1 and psi^-1, from the same counts.
    """
    big, descent = _field(params, k, M, budget)
    lam_vecs = descent.lambda_residues(lam_indices)
    counts = trace_count_matrix(params.p, big.deg, big, lam_vecs,
                                params.d, params.e, params.c)
    return {lam_index: ClassicalSum(k, counts[li], descent.descend_ram(counts[li]),
                                    descent.descend_ram(counts[li], conjugate=True)
                                    if conjugate else None)
            for li, lam_index in enumerate(lam_indices)}


_descent_cache: dict = {}


def _descent_for(params: Params, big: ZqContext) -> SubfieldDescent:
    key = (params.p, params.a, params.c, params.mu, big.deg, big.M)
    if key not in _descent_cache:
        _descent_cache[key] = SubfieldDescent(params, big)
    return _descent_cache[key]


def check_budget(params: Params, k_max: int, budget: int) -> None:
    """The one budget gate: refuse sums over F_q .. F_{q^k_max} once any
    of these fields has more than ``budget`` elements, naming the smallest
    such field."""
    for k in range(1, k_max + 1):
        if params.q**k > budget:
            raise BudgetExceededError(params.q**k, budget)


def _field(params: Params, k: int, M: int | None,
           budget: int) -> tuple[ZqContext, SubfieldDescent]:
    """What every sum over F_{q^k} starts from: the budget gate, the
    context of F_{q^k} at precision M, and its base-ring descent."""
    check_budget(params, k, budget)
    big = make_context(params.p, params.a * k, M or default_precision(params))
    return big, _descent_for(params, big)


@dataclass
class TadicSum:
    """Truncated T-adic sum: coefficients of T^0..T^J over the base ring."""

    k: int
    J: int
    coeffs: list[ZqElem]


def check_tadic_order(params: Params, J: int) -> None:
    """Refuse a T-adic truncation order J outside [0, p)."""
    if not 0 <= J < params.p:
        raise ValueError(f"T-adic truncation order J={J} must lie in [0, p)")


def exp_sum_Tadic(params: Params, k: int, J: int, M: int | None = None,
                  budget: int = DEFAULT_BUDGET) -> TadicSum:
    """Coefficient-wise twisted T-adic sum, truncated at T^J.

    With omega the Teichmuller lift of the generator g of F_{q^k} and
    lamhat that of the coefficient, x = g^j contributes the falling-factorial
    expansion of (1+T)^t, t = Tr(omega^(dj)) + Tr(lamhat * omega^(ej)), to
    the bucket j mod c.  Both traces are linear recurring sequences in j
    (``ZqContext.trace_sequence``), streamed together, so each element
    costs 2ak integer products and no table of the field is kept.
    """
    check_tadic_order(params, J)
    big, descent = _field(params, k, M, budget)
    pM, c = big.pM, params.c
    omega = big.teichmuller(big.generator)
    lam_hat = big.teichmuller(descent.lambda_residues([params.lam_index])[0])
    traces = zip(range(params.q**k - 1),
                 big.trace_sequence(big.one(), big.pow(omega, params.d)),
                 big.trace_sequence(lam_hat, big.pow(omega, params.e)))
    acc = [[0] * (J + 1) for _ in range(c)]
    for j, tr_d, tr_e in traces:
        t = tr_d + tr_e
        bucket = acc[j % c]
        bucket[0] += 1
        ff = 1
        for jj in range(1, J + 1):
            ff = ff * (t - jj + 1) % pM
            bucket[jj] += ff
    rows = descent.weigh(np.array(acc, dtype=object).T).tolist()
    coeffs = [descent.base.elem(row) * pow(math.factorial(jj) % pM, -1, pM)
              for jj, row in enumerate(rows)]
    return TadicSum(k=k, J=J, coeffs=coeffs)


# ---------------------------------------------------------------------------
# the L-polynomial and its polygon


FUNCTIONAL_EQUATION = "functional-equation"
FUNCTIONAL_EQUATION_CONJUGATE = "functional-equation-conjugate"
FULL_ENUMERATION = "full-enumeration"


@dataclass(frozen=True)
class Route:
    """How the classical polygon of one (d, c) is computed.

    ``deg`` is the degree of the L-function whose coefficients are
    computed, and S_1..S_k_max are the sums enumerated for it.
    """

    name: str
    deg: int
    k_max: int

    def field_size(self, p: int, a: int) -> int:
        """The largest field the route enumerates, F_{q^k_max}."""
        return p**(a * self.k_max)


def classical_route(d: int, c: int) -> Route:
    """The route to the classical polygon for degree d and character order c.

    For p not dividing d the L-function is pure of weight 1, so its roots
    pair as alpha <-> q/conj(alpha).  With deg its degree and w = v(l_deg),
    which is HP(d) since the Newton and Hodge polygons share end points,
    that reads v(l_{deg-i}) = w - i + v(l'_i), with l' the coefficients of
    the complex-conjugate L-function.  So S_1..S_h, h = floor(deg/2), give
    l_0..l_h and the reflection gives the rest; S_{h+1} gives l_{h+1} both
    ways, as a certificate (``classical_l_function``).

    * c = 1: the A^1 L-function, of degree d - 1, whose sums are S_k + 1;
      the classical L-function is (1 - s) times it.  Its coefficients lie
      in Q(zeta_p), whose one prime above p conjugation fixes, so l' has
      the valuations of l.
    * c = 2: the same with deg = d, the character being real.
    * c >= 3: deg = d, and l' comes from the conjugate sums.
    """
    deg = d - 1 if c == 1 else d
    name = FUNCTIONAL_EQUATION_CONJUGATE if c >= 3 else FUNCTIONAL_EQUATION
    return Route(name, deg, deg // 2 + 1)


def route_sums_by_lambda(params: Params, lam_indices: list[int],
                         M: int | None = None, budget: int = DEFAULT_BUDGET,
                         route: Route | None = None):
    """The sums each coefficient's route needs, one pass per k for all.

    ``route`` is ``classical_route`` by default; ``l_polynomial`` passes
    the full route, Route(FULL_ENUMERATION, d, d).  ``params.lam_index``
    plays no part: the sums are those of the binomials whose coefficient
    indices are ``lam_indices``.  Before any pass, ``check_budget`` gates
    every field up to F_{q^k_max}, and then p must exceed k_max.

    Returns ``{lam: (sums, conj_sums)}``: S_1..S_k_max, and on the
    conjugate route the complex conjugates S'_1..S'_h, otherwise None.
    """
    route = route or classical_route(params.d, params.c)
    check_budget(params, route.k_max, budget)
    _require_p_above(params, route.k_max)
    conj = route.name == FUNCTIONAL_EQUATION_CONJUGATE
    by_k = [classical_sums_multi(params, k, lam_indices, M, budget,
                                 conjugate=conj and k < route.k_max)
            for k in range(1, route.k_max + 1)]
    return {li: ([s[li].value for s in by_k],
                 [s[li].conj_value for s in by_k[:-1]] if conj else None)
            for li in lam_indices}


@dataclass
class LFunctionData:
    """Coefficients of an L-polynomial and their valuations.

    From ``l_polynomial``, ``sums`` are S_1..S_d and ``coeffs`` l_0..l_d.
    From a functional-equation route they are the computed low half of
    the route's L-function, S_1..S_{h+1} and l_0..l_{h+1}, while
    ``valuations`` covers l_0..l_deg, past l_h by reflection.  For c = 1
    that L-function is the A^1 one, of degree d - 1.
    """

    params: Params
    M: int
    sums: list[RamifiedElem]
    coeffs: list[RamifiedElem]
    valuations: list[Fraction | None]  # pi-units; None when below precision
    route: str = FULL_ENUMERATION

    def newton_points(self) -> list[tuple[int, Fraction | None]]:
        scale = self.params.a * (self.params.p - 1)
        pts = [(n, None if v is None else v / scale)
               for n, v in enumerate(self.valuations)]
        if len(pts) == self.params.d:  # the A^1 L-function: times 1 - s
            pts = [(0, Fraction(0))] + [(n + 1, v) for n, v in pts]
        return pts


def _require_p_above(params: Params, n: int) -> None:
    if params.p <= n:
        raise SmallPrimeError(n)


def _newton_coeffs(sums: list[RamifiedElem]) -> list[RamifiedElem]:
    """l_0..l_n of exp(sum_k S_k s^k / k) from S_1..S_n by Newton's
    identities: n l_n is the sum of S_k l_(n-k) over k, one ``group_dot``
    with 1/n folded into its reduction."""
    base = sums[0].ctx
    coeffs = [base.ram_one()]
    for n in range(1, len(sums) + 1):
        coeffs.append(base.group_dot(zip(sums, reversed(coeffs)), pow(n, -1, base.pM)))
    return coeffs


def l_polynomial(params: Params, M: int | None = None,
                 budget: int = DEFAULT_BUDGET,
                 _sums: list[RamifiedElem] | None = None) -> LFunctionData:
    """Coefficients of exp(sum_k S_k s^k / k) up to degree d."""
    M = M or default_precision(params)
    _require_p_above(params, params.d)
    if _sums is None:
        full = Route(FULL_ENUMERATION, params.d, params.d)
        _sums = route_sums_by_lambda(params, [params.lam_index], M, budget,
                                     full)[params.lam_index][0]
    coeffs = _newton_coeffs(_sums)
    return LFunctionData(params=params, M=M, sums=_sums, coeffs=coeffs,
                         valuations=[c.valuation() for c in coeffs])


def reflect_valuations(low: list[Fraction | None], conj: list[Fraction | None],
                       deg: int, top: Fraction, step: int,
                       cap: Fraction) -> list[Fraction | None]:
    """Valuations of l_0..l_deg: ``low`` gives l_0..l_h, and past l_h
    v(l_{deg-i}) = top - i * step + v(l'_i), with l'_i from ``conj``.

    All in pi-units, None for a coefficient that vanishes mod p^M.  A
    reflected value is None too when l'_i is, or when it reaches ``cap``:
    since top - i * step >= 0, precision M could not certify the
    coefficient on the full route either.
    """
    out = list(low)
    for n in range(len(low), deg + 1):
        v = conj[deg - n]
        mirrored = None if v is None else top - (deg - n) * step + v
        out.append(mirrored if mirrored is not None and mirrored < cap else None)
    return out


def classical_l_function(params: Params, M: int | None = None,
                         budget: int = DEFAULT_BUDGET,
                         _sums=None, hodge: Polygon | None = None) -> LFunctionData:
    """The classical L-function's valuations by its ``classical_route``.

    ``_sums`` is one coefficient's entry of ``route_sums_by_lambda``, and
    ``hodge`` the Hodge polygon on at least [0, d], whose end point the
    reflection starts from; both are computed when absent.  l_{h+1} is
    both computed and reflected; the two valuations, each capped at the
    precision, must agree, or ``FunctionalEquationError`` is raised.
    """
    M = M or default_precision(params)
    route = classical_route(params.d, params.c)
    if _sums is None:
        _sums = route_sums_by_lambda(params, [params.lam_index], M,
                                     budget)[params.lam_index]
    sums, conj_sums = _sums
    p, h = params.p, route.k_max - 1
    if params.c == 1:  # the A^1 sums gain x = 0, where psi(0) = 1
        sums = [s + 1 for s in sums]
    coeffs = _newton_coeffs(sums)
    low = [c.valuation() for c in coeffs]
    conj = low if conj_sums is None else [c.valuation() for c in _newton_coeffs(conj_sums)]
    step = params.a * (p - 1)
    if hodge is None:
        hodge = hodge_polygon(params, params.d)
    top = hodge.value(params.d) * step
    vals = reflect_valuations(low[:h + 1], conj, route.deg, top, step,
                              Fraction(M * (p - 1)))
    if vals[h + 1] != low[h + 1]:
        raise FunctionalEquationError(
            f"l_{h + 1} has valuation {low[h + 1]} computed and {vals[h + 1]} "
            f"reflected (pi-units, None past precision M={M})")
    return LFunctionData(params=params, M=M, sums=sums, coeffs=coeffs,
                         valuations=vals, route=route.name)


def newton_polygon_classical(params: Params, M: int | None = None,
                             budget: int = DEFAULT_BUDGET,
                             data: LFunctionData | None = None) -> Polygon:
    """Newton polygon of the L-polynomial on [0, d], in q-adic units.

    Without ``data`` it comes by ``classical_l_function``;
    ``data=l_polynomial(params)`` gives it from every sum S_1..S_d.
    """
    if data is None:
        data = classical_l_function(params, M, budget)
    M = data.M
    if data.valuations[-1] is None:
        raise PrecisionError(
            f"degree-{len(data.valuations) - 1} coefficient vanishes mod p^{M}; "
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
