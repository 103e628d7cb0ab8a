"""Twisted exponential sums, the L-polynomial, and its Newton polygon.

The classical sum over F_{q^k} is reduced to integer bookkeeping: the
additive character value depends only on the finite-field trace of f(x),
the multiplicative character value only on the discrete log mod c, so one
streaming pass over generator powers produces a (p x c) count matrix and
the sum is assembled from p + c Teichmuller data afterwards.  The pass
reads one trace table (``TraceTable``): with g the generator and N = q^k - 1,
T[i] = Tr(g^i) is a linear recurring sequence, and g^(N/(p-1)) lies in
F_p^*, so the first N/(p-1) traces and their F_p-multiples give them all.
The binomial's coefficient of index l is theta^l, theta = g^(s_1) the
image of the base generator under one embedding of F_q in F_{q^k}.  For
x = g^j, Tr(x^d) and Tr(theta^l x^e) are the strided slices T[dj mod N]
and T[(l s_1 + ej) mod N]; blocks of them are added as big integers, slot
by slot, and their values counted per class of j mod c.  Tr(theta^l x^e)
is F_p-linear in theta^l, whose coordinates over the index basis 1, theta,
..., theta^(a-1) are those of y^l mod f, f the minimal polynomial of
theta; so many coefficients can share one joint histogram of Tr(x^d) and
the Tr(theta^i x^e), folded by those coordinates (``trace_count_matrix``).

The twist is chi(Norm x), whose values are c-th roots of unity in Z_q,
so every sum is assembled in the base ring Z_q[zeta_p] directly
(``SubfieldDescent``): the embedding that gives theta and s_1 also fixes
the character values.
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
value, not its residue, so it cannot bin traces mod p.  It reads one
Teichmuller trace table instead (``TeichmullerTable``), indexed like the
classical one: with omega the Teichmuller lift of g, T[u] = Tr(omega^u)
mod p^M, and z = omega^L, L = N/(p-1), lies in Z_p, so the first L traces
and their Z_p-multiples give them all.  The lift of theta^l is
omega^(l s_1), so the two traces of x = g^j are again the strided slices
T[dj mod N] and T[(l s_1 + ej) mod N].  The pass reads them only for the
coset representatives u < L: x = g^(u + sL) has trace
z^(ds) T[du] + z^(es) T[l s_1 + eu], so per class of u mod c it sums the
mixed moments of the two traces, and the sum over s < p - 1 of the
z-powers has a closed form.  That gives the power sums of the traces per
class of j mod c, and Stirling numbers of the first kind turn those into
the falling factorials the T-adic character needs.  The direct sum thus
uses only the residue field, Teichmuller lifts and the base-ring
assembly, never the Dwork operator it is checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .padic import (
    PrecisionError,
    RamifiedElem,
    ZqContext,
    ZqElem,
    basis_traces,
    make_context,
    mult_charpoly,
    pack,
    poly_eval_mod,
    poly_mod,
    poly_mul_mod,
    poly_pow_mod,
    poly_trim,
    unpack,
    x_walk,
)
from .polygon import Params, Polygon, hodge_order, lower_convex_hull

#: Default cap on field size for a single exponential sum.
DEFAULT_BUDGET = 2 * 10**7

#: generator powers streamed and binned at a time
_BLOCK = 1 << 16

#: coset representatives a T-adic pass holds at a time.  Its entries are
#: integers mod p^M, tens of bytes each where the classical pass holds one,
#: and up to J powers of a class's B_u are held beside them:
#: `dwork --p 43 --d 5 --e 2 --trace-k 4 --J 42` peaks at 37 MB in
#: blocks of 2^11, and at 374 MB in one block of all L = 81,400 of F_{43^4}
_TADIC_BLOCK = 1 << 11

#: a trace table keeps whole cosets of F_p^* up to about this many bytes
_TABLE_BYTES = 1 << 22

#: bytes are counted by one ``bytes.count`` pass per value up to this p,
#: and by a ``Counter`` past it
_COUNT_PASSES = 56


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


def min_poly(ctx: ZqContext) -> tuple[int, ...]:
    """The minimal polynomial over F_p of the generator g of ctx's residue
    field, monic and little-endian: det(x - M_g), det(1 - M_g s) reversed,
    for M_g multiplication by g, of full degree since g generates the
    field."""
    return tuple(mult_charpoly(ctx.generator, ctx.modulus, ctx.p)[::-1])


@lru_cache(maxsize=None)  # p < 128 and f < p: at most 1,720 tables
def _byte_map(p: int, f: int) -> bytes:
    """The ``bytes.translate`` table of x -> f x mod p on bytes x < 2p."""
    return bytes(f * x % p for x in range(2 * p)) + bytes(256 - 2 * p)


@lru_cache(maxsize=4096)
def _plane_map(p: int, f: int, j: int) -> bytes:
    """The ``bytes.translate`` table of x -> byte j of f x mod p."""
    return bytes(f * x % p >> 8 * j & 255 for x in range(256))


def coset_runs(start: int, step: int, count: int, N: int, span: int):
    """The walk (start + step i) mod N, i < count, cut into runs that stay
    inside one block of ``span`` indices, block G covering [G span,
    min((G + 1) span, N)): yields (G, o, n), n indices from G span + o,
    ``step`` apart."""
    pos = start % N
    while count:
        G, o = divmod(pos, span)
        n = min(count, (min(span, N - G * span) - 1 - o) // step + 1)
        yield G, o, n
        pos = (pos + n * step) % N
        count -= n


class TraceTable:
    """The traces T[i] = Tr(g^i) of F_{p^m}, g its generator, i < N = p^m - 1.

    gamma = g^L, L = N/(p-1), is the norm of g and generates F_p^*, so
    T[vL + u] = gamma^v T[u]: T[0..L) and the p - 1 scalings give every
    trace.  T is a linear recurring sequence whose characteristic
    polynomial is the minimal polynomial f of g (Lidl and Niederreiter,
    Finite Fields, ch. 8).  Its first m terms are the power sums of f's
    roots, the conjugates of g.  With x^n = sum_i b_i x^i mod f, T[u + n] =
    Tr(g^n g^u) = sum_i b_i T[u + i], so n terms give n - m + 1 more as one
    sum of m scaled slices: the table doubles from its first m terms.  It
    keeps r whole cosets, rL entries with r as large as ``_TABLE_BYTES``
    allows (r = p - 1 keeps all N), and entry G rL + o is gamma^(rG) T[o].

    Entries sit in slots wide enough for the sum of two: one byte while
    p < 128, where ``bytes.translate`` scales and reduces them, else two,
    four or eight bytes, scaled and reduced one integer at a time.  Two
    streams add as big integers, slot by slot, with no carry.
    """

    def __init__(self, ctx: ZqContext):
        p, m = ctx.p, ctx.deg
        self.p, self.N = p, p**m - 1
        self.L = L = self.N // (p - 1)
        self.code = _slot_code(2 * p - 2)
        self.narrow = self.code == "B"  # p < 128
        f = min_poly(ctx)
        self.gamma = (-1)**m * f[0] % p  # the norm, (-1)^m f(0)
        b = poly_mod((0,) * m + (1,), f, p)  # x^n mod f for n entries
        # x^-1 = -(f(x) - f(0)) / (x f(0)), and x^-(m-1) steps n to 2n - m + 1
        x_inv = poly_trim(tuple(-c * pow(f[0], -1, p) % p for c in f[1:]))
        back = poly_pow_mod(x_inv, m - 1, f, p)
        self.r = r = min(p - 1, max(1, _TABLE_BYTES // (L * array(self.code).itemsize)))
        self.span = r * L
        self.table = array(self.code, [0]) * (r * L)
        self.table[:m] = array(self.code, basis_traces(f, p))
        n = m
        while n < L:
            more = min(n - m + 1, L - n)
            self._fill(n, more, [(i, bi) for i, bi in enumerate(b) if bi])
            n += more
            b = poly_mul_mod(poly_mul_mod(b, b, f, p), back, f, p)
        # then whole cosets, doubling too: coset k + v is gamma^k times coset v
        cosets = 1
        while cosets < r:
            more = min(cosets, r - cosets)
            self._fill(cosets * L, more * L, [(0, pow(self.gamma, cosets, p))])
            cosets += more
        if self.narrow:
            self.table = self.table.tobytes()

    def _fill(self, dst: int, count: int, terms) -> None:
        """Table entries dst + k, k < count, as the sums of coef times
        entry src + k over the (src, coef) in ``terms``, a block at a time."""
        for lo in range(0, count, _BLOCK):
            hi = min(count, lo + _BLOCK)
            acc = None
            for src, coef in terms:
                term = self.scale(self.cut(src + lo, src + hi), coef)
                acc = term if acc is None else self.reduce(self.plus(acc, term))
            self.table[dst + lo:dst + hi] = array(self.code, acc)

    def view(self, data: bytes):
        """The slots of ``data`` as a sequence of integers."""
        return data if self.narrow else memoryview(data).cast(self.code)

    def cut(self, start: int, stop: int, step: int = 1) -> bytes:
        """Table entries start, start + step, ... before stop, as slots."""
        part = self.table[start:stop:step]
        return part if isinstance(part, bytes) else part.tobytes()

    def scale(self, data: bytes, f: int) -> bytes:
        """Each slot times f, mod p.  A wide slot x is sum_k x_k 256^k by
        bytes, so x f is the sum over k of the slots x_k (256^k f mod p),
        each made by one ``bytes.translate`` per output byte."""
        p = self.p
        if f == 1:
            return data
        if self.narrow:
            return data.translate(_byte_map(p, f))
        w = array(self.code).itemsize
        acc = None
        for k in range(w):
            plane, term = data[k::w], bytearray(len(data))
            for j in range(w):
                term[j::w] = plane.translate(_plane_map(p, f * 256**k % p, j))
            acc = bytes(term) if acc is None else self.reduce(self.plus(acc, term))
        return acc

    @staticmethod
    def plus(x: bytes, y: bytes) -> bytes:
        """The slot-wise sum of two streams of residues, each slot below 2p."""
        return (int.from_bytes(x, "little") + int.from_bytes(y, "little")).to_bytes(len(x), "little")

    def reduce(self, data: bytes) -> bytes:
        """Each slot, below 2p, mod p.  A wide slot of b bits subtracts p
        where y + 2^(b-1) - p sets its top bit, which never carries out as
        p <= 2^(b-1)."""
        p = self.p
        if self.narrow:
            return data.translate(_byte_map(p, 1))
        w = array(self.code).itemsize
        ones = int.from_bytes(b"\x01".ljust(w, b"\0") * (len(data) // w), "little")
        y = int.from_bytes(data, "little")
        high = (y + ((1 << 8 * w - 1) - p) * ones) >> 8 * w - 1 & ones
        return (y - high * p).to_bytes(len(data), "little")

    def stream(self, start: int, step: int, count: int) -> bytes:
        """T[(start + step i) mod N] for i < count: strided slices of the
        table, one per group of r cosets crossed (``coset_runs``), group G
        scaled by gamma^(rG)."""
        return b"".join(self.scale(self.cut(o, o + (n - 1) * step + 1, step),
                                   pow(self.gamma, self.r * G, self.p))
                        for G, o, n in coset_runs(start, step, count, self.N, self.span))

    def bin(self, sums: bytes, j0: int, out: list[list[int]]) -> None:
        """out[t][j mod c] += the slots of ``sums``, those of x = g^j for j
        from j0, that are t mod p; c is len(out[0])."""
        p, c = self.p, len(out[0])
        by_count = self.narrow and p <= _COUNT_PASSES
        view = self.view(self.reduce(sums))
        for mm in range(c):
            part = view[(mm - j0) % c::c]
            if by_count:
                left = len(part)
                for t in range(p - 1):
                    n = part.count(t)
                    out[t][mm] += n
                    left -= n
                out[p - 1][mm] += left
            else:
                for t, n in Counter(part).items():
                    out[t][mm] += n

    def bin_keys(self, streams: list[bytes], j0: int, hists: list[Counter]) -> None:
        """hists[j mod c] counts the keys sum_i a_i p^(n-1-i) of the slots
        a_0..a_(n-1) of the n ``streams`` at x = g^j, for j from j0.  The
        keys are made slot by slot in big integers, in slots widened to
        hold p^n."""
        p, c = self.p, len(hists)
        code = _slot_code(p ** len(streams) - 1)
        keys = 0
        for stream in streams:
            wide = _widen(stream, self.code, code)
            keys = keys * p + int.from_bytes(wide, "little")
        view = memoryview(keys.to_bytes(len(wide), "little")).cast(code)
        for mm, hist in enumerate(hists):
            hist.update(view[(mm - j0) % c::c])


def _slot_code(top: int) -> str:
    """The narrowest unsigned ``array`` type code whose slots hold ``top``."""
    return next(code for code in "BHIQ" if top >> 8 * array(code).itemsize == 0)


def _widen(data: bytes, code: str, wide: str) -> bytes:
    """The slots of ``data`` of type ``code`` as slots of type ``wide``."""
    w_in, w_out = array(code).itemsize, array(wide).itemsize
    out = bytearray(len(data) // w_in * w_out)
    for k in range(w_in):  # little-endian: byte k of each slot stays byte k
        out[k::w_out] = data[k::w_in]
    return bytes(out)


def joint_pays(p: int, c: int, n_lam: int, r: int, total: int, narrow: bool) -> bool:
    """Whether ``n_lam`` coefficients over a basis of r elements are
    counted faster from the joint histogram than one by one.

    A cost model in nanoseconds, measured on a 2-vCPU x86 host with
    CPython 3.11.  One by one, each coefficient costs min(p, 50) + 20 per
    field element and 500 per count call (p c of them) with byte slots,
    and 150 per element with wider ones.  The joint histogram costs
    80 + 10 r per element, 300 per cell (p^(r+1) c of them) and a fold of
    1000 p^r per coefficient and class.
    """
    one_by_one = (total * (min(p, 50) + 20) + 500 * p * c) if narrow else 150 * total
    return n_lam * one_by_one > (total * (80 + 10 * r) + 300 * p**(r + 1) * c
                                 + 1000 * n_lam * c * p**r)


def _fold(hists: list[Counter], coords, counts, p: int) -> None:
    """counts[l][t][mm] += the cells of class mm with a + sum_i coords[l][i]
    b_i = t, for cells (a, b_1..b_r) keyed a p^r + sum_i b_i p^(r-i).

    Each row (b_1..b_r) of a class, its counts over a, is packed into one
    integer, p slots wide enough for the class's total.  Turning it by
    sum_i coords[l][i] b_i slots moves the count of each cell to the slot
    of its trace, so the sum of the turned rows holds the class's counts.
    """
    r = len(coords[0])
    for mm, hist in enumerate(hists):
        nbytes = -(-sum(hist.values()).bit_length() // 8) or 1
        bits, top = 8 * nbytes, 8 * nbytes * p
        mask = (1 << top) - 1
        rows = [pack([hist.get(a * p**r + b, 0) for a in range(p)], nbytes)
                for b in range(p**r)]
        for li, lam in enumerate(coords):
            turns = [0]
            for f in lam:
                turns = [(t + f * b) % p for t in turns for b in range(p)]
            acc = 0
            for row, turn in zip(rows, turns):
                if row:
                    shift = turn * bits
                    acc += (row << shift & mask) | row >> (top - shift)
            for t, n in enumerate(unpack(acc, nbytes, p)):
                counts[li][t][mm] += n


def trace_count_matrix(p: int, m: int, ctx: ZqContext, lam_indices: list[int],
                       log_theta: int, theta_poly: tuple[int, ...],
                       d_exp: int, e_exp: int, c: int,
                       block: int = _BLOCK) -> list[list[list[int]]]:
    """Counts N[l][t][j mod c] over x = g^j of Tr(x^d + theta^l * x^e) = t.

    ``ctx`` is the context of F_{p^m}, g its generator, N = p^m - 1, and
    theta = g^(log_theta) has the minimal polynomial f = ``theta_poly``
    over F_p, of degree a; the coefficients are theta^l for the indices l
    in ``lam_indices``.  The traces of x^d and theta^l x^e are T[dj mod N]
    and T[(l log_theta + ej) mod N], two strided streams of one
    ``TraceTable``.  Per block of j, each coefficient's stream is added to
    that of x^d and its sums are counted per class of j mod c.

    Tr(theta^l x^e) is F_p-linear in theta^l, whose coordinates over 1,
    theta, ..., theta^(a-1) are those of y^l mod f.  So the pass may
    instead bin the joint histogram of Tr x^d and the Tr(theta^i x^e) for
    i < r = min(a, max l + 1), and fold it by each coefficient's
    coordinates, column l of the walk 1, y, y^2, ... mod f (``x_walk``)
    cut to r; ``joint_pays`` decides.
    """
    table = TraceTable(ctx)
    total = table.N
    counts = [[[0] * c for _ in range(p)] for _ in lam_indices]
    a, top = len(theta_poly) - 1, max(lam_indices, default=0) + 1
    r = min(a, top)
    joint = len(lam_indices) > 1 and joint_pays(p, c, len(lam_indices), r, total, table.narrow)
    hists = [Counter() for _ in range(c)] if joint else None
    width = min(block, total)
    for j0 in range(0, total, width):
        nb = min(width, total - j0)
        traces_d = table.stream(d_exp * j0, d_exp, nb)
        if joint:
            table.bin_keys([traces_d] + [table.stream(i * log_theta + e_exp * j0, e_exp, nb)
                                         for i in range(r)], j0, hists)
            continue
        for li, out in zip(lam_indices, counts):
            table.bin(table.plus(traces_d, table.stream(li * log_theta + e_exp * j0, e_exp, nb)),
                      j0, out)
    if joint:
        cols = x_walk((1,), theta_poly[:a], p, top)
        _fold(hists, [cols[li][:r] for li in lam_indices], counts, p)
    return counts


# ---------------------------------------------------------------------------
# the base ring: one embedding and the norm character


class SubfieldDescent:
    """Sums over F_{q^k} assembled in the base ring Z_q[zeta_p].

    The twist chi(Norm x) takes c-th roots of unity, which lie in Z_q, so
    each sum is assembled over the base ring from its (p, c) counts.  One
    embedding iota of F_q in F_{q^k} serves both sides.  It sends the base
    generator g to theta = h^t, h = g_big^((q^k-1)/(q-1)), for the least t
    that makes h^t a root of g's minimal polynomial f (``theta_poly``),
    found by one walk over F_q^* (at k = 1 iota is the identity and
    t = 1).  So coefficient index l is theta^l = g_big^(l s_1) with
    s_1 = t (q^k-1)/(q-1) (``log_theta``), a log shift of the trace table,
    and theta^l has the coordinates of y^l mod f over 1, theta, ...,
    theta^(a-1).  With ell = t^-1 mod c, the index where
    iota(g)^((q-1)/c * ell) = g_big^((q^k-1)/c), class mm of x = g_big^j
    (j = mm mod c) weighs V_mm = Teich(g^(-u * ell * mm)).  Any embedding
    gives the same sums, as a Frobenius power only permutes the field
    elements.
    """

    def __init__(self, params: Params, big: ZqContext):
        p, a, c = params.p, params.a, params.c
        q, Qk1 = p**a, p**big.deg - 1
        self.big = big
        self.base = base = make_context(p, a, big.M)
        self.theta_poly = f = min_poly(base)
        t = 1  # k = 1: the fields and their generators agree
        if big.deg > a:
            h = poly_pow_mod(big.generator, Qk1 // (q - 1), big.modulus, p)
            if a == 1:  # h and g lie in F_p, and the walk is one of integers
                t = next(t for t in range(p - 1) if pow(h[0], t, p) == base.generator[0])
            else:
                t, z = 0, (1,)
                while poly_eval_mod(f, z, big.modulus, p):
                    z = poly_mul_mod(z, h, big.modulus, p)
                    t += 1
        self.log_theta = t * (Qk1 // (q - 1)) % Qk1
        ell = pow(t, -1, c)
        w = base.teichmuller(poly_pow_mod(base.generator, -params.u * ell % (q - 1),
                                          base.modulus, p))
        self.V = [base.pow(w, mm) for mm in range(c)]

    def weigh(self, counts) -> list[tuple[int, ...]]:
        """Row i of ``counts``, n rows of c counts, weighted by the
        character: sum_mm counts[i][mm] * V_mm, as n X-coefficient tuples
        mod p^M."""
        pM = self.base.pM
        columns = list(zip(*(v.coeffs for v in self.V)))
        return [tuple(sum(map(operator.mul, row, col)) % pM for col in columns)
                for row in counts]

    def descend_ram(self, counts, conjugate: bool = False) -> RamifiedElem:
        """sum_r zeta_p^r * acc_r with acc_r the r-th row of ``weigh``, over
        1, zeta_p, ..., zeta_p^(p-2): zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2))
        takes count row p - 1 off the others before they are weighed.  With
        ``conjugate`` it is the sum of the conjugate characters: count
        (r, mm) weighs zeta_p^-r V_-mm, an index permutation of the counts.
        """
        if conjugate:
            p, c = len(counts), len(counts[0])
            counts = [[counts[-r % p][-mm % c] for mm in range(c)] for r in range(p)]
        last = counts[-1]
        return RamifiedElem(self.base, self.weigh([[x - y for x, y in zip(row, last)]
                                                   for row in counts[:-1]]))


# ---------------------------------------------------------------------------
# exponential sums


class ClassicalSum:
    """One classical twisted sum over F_{q^k}: its (p, c) counts, p rows of
    c counts, and its value in the base ring Z_q[zeta_p], with the value's
    complex conjugate when it was asked for."""

    __slots__ = ("k", "counts", "value", "conj_value")

    def __init__(self, k: int, counts: list[list[int]], value: RamifiedElem,
                 conj_value: RamifiedElem | None = None):
        self.k, self.counts, self.value, self.conj_value = k, counts, value, conj_value


def classical_sums_multi(params: Params, k: int, lam_indices: list[int],
                         M: int | None = None, budget: int = DEFAULT_BUDGET,
                         conjugate: bool = False) -> dict[int, ClassicalSum]:
    """Classical sums over F_{q^k} for several binomial coefficients at once.

    With ``conjugate`` each sum also gets its complex conjugate, the sum of
    the conjugate characters chi^-1 and psi^-1, from the same counts.
    """
    check_budget(params, k, budget)
    big, descent = _field(params, k, M)
    counts = trace_count_matrix(params.p, big.deg, big, lam_indices, descent.log_theta,
                                descent.theta_poly, params.d, params.e, params.c)
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


def _field(params: Params, k: int, M: int | None) -> tuple[ZqContext, SubfieldDescent]:
    """What every sum over F_{q^k} starts from, once its budget gate has
    passed: the context of F_{q^k} at precision M, and its base-ring
    descent."""
    big = make_context(params.p, params.a * k, M or default_precision(params))
    return big, _descent_for(params, big)


class TadicSum:
    """Truncated T-adic sum: coefficients of T^0..T^J over the base ring."""

    __slots__ = ("k", "J", "coeffs")

    def __init__(self, k: int, J: int, coeffs: list[ZqElem]):
        self.k, self.J, self.coeffs = k, J, coeffs


def check_trace_inputs(params: Params, k_max: int, J: int, budget: int) -> None:
    """The one T-adic refusal: T-adic sums over F_q .. F_{q^k_max} past
    ``budget`` (``check_budget``), or, for k_max > 0, a truncation order J
    outside [0, p)."""
    check_budget(params, k_max, budget)
    if k_max > 0 and not 0 <= J < params.p:
        raise ValueError(f"T-adic truncation order J={J} must lie in [0, p)")


class TeichmullerTable:
    """The traces T[u] = Tr(omega^u) mod p^M, omega the Teichmuller lift
    of the generator g of F_{p^m}, for u < N = p^m - 1.

    omega^L, L = N/(p-1), is the lift of the norm g^L, which lies in F_p,
    so it is an integer z of Z_p and T[vL + u] = z^v T[u]: the head
    T[0..L), the first L terms of ``ZqContext.trace_sequence``, gives every
    trace.  This is ``TraceTable``'s coset rule with p^M in place of p.
    The head is an ``array('Q')`` of L integers, 8 bytes each, whenever
    p^M <= 2^64, and a list past that.
    """

    def __init__(self, big: ZqContext):
        self.pM = big.pM
        self.N = big.p**big.deg - 1
        self.L = self.N // (big.p - 1)
        omega = big.teichmuller(big.generator)
        head = itertools.islice(big.trace_sequence(big.one(), omega), self.L)
        self.head = array("Q", head) if self.pM <= 1 << 64 else list(head)
        self.z = big.pow(omega, self.L).coeffs[0]

    def stream(self, start: int, step: int, count: int) -> list[int]:
        """T[(start + step i) mod N] for i < count: strided slices of the
        head, one per coset crossed (``coset_runs``), coset v scaled by
        z^v."""
        pM, out = self.pM, []
        for v, u, n in coset_runs(start, step, count, self.N, self.L):
            part = self.head[u:u + (n - 1) * step + 1:step]
            if v:
                part = map(pM.__rmod__, map(pow(self.z, v, pM).__mul__, part))
            out.extend(part)
        return out


def stirling_rows(J: int) -> list[list[int]]:
    """Rows jj <= J of the signed Stirling numbers of the first kind:
    t(t-1)...(t-jj+1) = sum_i rows[jj][i] t^i, an identity over Z."""
    rows = [[1]]
    for n in range(J):
        prev = rows[-1] + [0]
        rows.append([(prev[i - 1] if i else 0) - n * prev[i] for i in range(n + 2)])
    return rows


def _lazy_powers(part: list[int], top: int, pM: int):
    """Yields part^0 .. part^top entrywise, for entries below p^M.  A power
    is reduced mod p^M only when its bit length would pass
    bits_per_digit^2, bits_per_digit digits of a Python int: past that,
    each product with ``part`` costs more than the reduction pass it
    saves."""
    yield [1] * len(part)
    step, lazy_bits = pM.bit_length(), sys.int_info.bits_per_digit**2
    power, bits = part, step  # bits bounds the power's bit length
    for i in range(1, top + 1):
        yield power
        if i < top:
            power = list(map(operator.mul, power, part))
            bits += step
            if bits > lazy_bits:
                power, bits = list(map(pM.__rmod__, power)), step


def exp_sum_Tadic(params: Params, k: int, J: int, M: int | None = None,
                  budget: int = DEFAULT_BUDGET, block: int = _TADIC_BLOCK) -> TadicSum:
    """Coefficient-wise twisted T-adic sum, truncated at T^J.

    With omega the Teichmuller lift of the generator g of F_{q^k} and
    lamhat that of the coefficient, x = g^j contributes the falling-factorial
    expansion of (1+T)^t, t = Tr(omega^(dj)) + Tr(lamhat * omega^(ej)), to
    the bucket j mod c.  lamhat = omega^(l s_1), so both traces are streams
    of one ``TeichmullerTable``, and the falling factorials come from the
    power sums of t once per class (``stirling_rows``).

    Only the coset representatives u < L = (q^k - 1)/(p - 1) are read.
    Write j = u + sL, s < p - 1: omega^L is an integer z of Z_p, so
    t = z^(ds) A_u + z^(es) B_u with A_u = T[du], B_u = T[l s_1 + eu], and
    j's class is (u + sL) mod c.  Per class r of u mod c the pass sums the
    mixed moments P_r[i1, i2] of A_u^i1 B_u^i2, and the sum over s of
    z^(ms) over the s with r + sL = mm (mod c) has a closed form: those s
    are one class s_0 mod c' = c/gcd(L, c), and c' divides p - 1 since c
    divides N = L(p - 1).  The z^(ms) are (p-1)/c'-th roots of unity
    times z^(m s_0), so the sum is (p-1)/c' z^(m s_0) when (p-1)/c'
    divides m, and 0 otherwise (z^n - 1 is a unit unless p - 1 divides
    n).  Hence t^i over class mm is
    (p-1)/c' sum_r sum_(i1+i2=i) C(i, i1) P_r[i1, i2] z^(m s_0), over the
    r with gcd(L, c) | mm - r and the (i1, i2) with (p-1)/c' | m,
    m = d i1 + e i2: only those moments are summed.  Everything is exact
    mod p^M, so the coefficients are those of the walk over F_{q^k}^*.
    """
    check_trace_inputs(params, k, J, budget)
    big, descent = _field(params, k, M)
    table = TeichmullerTable(big)
    p, d, e, c = params.p, params.d, params.e, params.c
    pM, L = big.pM, table.L
    g = math.gcd(L, c)
    c1, period = c // g, (p - 1) * g // c  # c' and (p-1)/c', the s of one class
    pairs = [(i1, i - i1) for i in range(J + 1) for i1 in range(i + 1)
             if (d * i1 + e * (i - i1)) % period == 0]
    top_a, top_b = max(i1 for i1, _ in pairs), max(i2 for _, i2 in pairs)
    by_a = [[i2 for j1, i2 in pairs if j1 == i1] for i1 in range(top_a + 1)]
    lam_log = params.lam_index * descent.log_theta
    moments = [dict.fromkeys(pairs, 0) for _ in range(c)]  # moments[r]: the P_r
    for u0 in range(0, L, block):
        nb = min(block, L - u0)
        A = table.stream(d * u0, d, nb)
        B = table.stream(lam_log + e * u0, e, nb)
        for r, mom in enumerate(moments):
            b_pows = list(_lazy_powers(B[(r - u0) % c::c], top_b, pM))
            for i1, a_pow in enumerate(_lazy_powers(A[(r - u0) % c::c], top_a, pM)):
                for i2 in by_a[i1]:
                    mom[i1, i2] += sum(map(operator.mul, a_pow, b_pows[i2]))
    sums = [[0] * (J + 1) for _ in range(c)]  # sums[mm][i]: t^i over class mm
    inv = pow(L // g, -1, c1)
    for r, mom in enumerate(moments):
        for mm in range(r % g, c, g):
            zs = pow(table.z, (mm - r) // g * inv % c1, pM)  # z^(s_0)
            acc = sums[mm]
            for (i1, i2), P in mom.items():
                acc[i1 + i2] += math.comb(i1 + i2, i1) * P % pM * pow(zs, d * i1 + e * i2, pM)
    stirling = stirling_rows(J)
    sums = [[period * s % pM for s in acc] for acc in sums]
    rows = descent.weigh([[sum(map(operator.mul, row, acc)) for acc in sums] for row in stirling])
    coeffs = [descent.base.elem(row) * pow(math.factorial(jj) % pM, -1, pM)
              for jj, row in enumerate(rows)]
    return TadicSum(k=k, J=J, coeffs=coeffs)


# ---------------------------------------------------------------------------
# the L-polynomial and its polygon


FUNCTIONAL_EQUATION = "functional-equation"
FUNCTIONAL_EQUATION_CONJUGATE = "functional-equation-conjugate"
FULL_ENUMERATION = "full-enumeration"


class Route:
    """How the classical polygon of one (d, c) is computed.

    ``deg`` is the degree of the L-function whose coefficients are
    computed, and S_1..S_k_max are the sums enumerated for it.  Two routes
    are equal when all three fields are.
    """

    __slots__ = ("name", "deg", "k_max")

    def __init__(self, name: str, deg: int, k_max: int):
        self.name, self.deg, self.k_max = name, deg, k_max

    def __eq__(self, other):
        if not isinstance(other, Route):
            return NotImplemented
        return (self.name, self.deg, self.k_max) == (other.name, other.deg, other.k_max)

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


class LFunctionData:
    """Coefficients of an L-polynomial and their valuations.

    From ``l_polynomial``, ``sums`` are S_1..S_d and ``coeffs`` l_0..l_d.
    From a functional-equation route they are the computed low half of
    the route's L-function, S_1..S_{h+1} and l_0..l_{h+1}, while
    ``valuations`` covers l_0..l_deg, past l_h by reflection, in pi-units,
    None where a coefficient is below the precision.  For c = 1 that
    L-function is the A^1 one, of degree d - 1.
    """

    __slots__ = ("params", "M", "sums", "coeffs", "valuations", "route")

    def __init__(self, params: Params, M: int, sums: list[RamifiedElem],
                 coeffs: list[RamifiedElem], valuations: list[int | None],
                 route: str = FULL_ENUMERATION):
        self.params, self.M, self.sums, self.coeffs = params, M, sums, coeffs
        self.valuations, self.route = valuations, route

    def newton_points(self) -> list[int | None]:
        """The classical L-function's valuations in pi-units, the input of
        ``lower_convex_hull`` at the scale a(p - 1)."""
        if len(self.valuations) == self.params.d:  # the A^1 L-function: times 1 - s
            return [0] + self.valuations
        return self.valuations


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


def reflect_valuations(low: list[int | None], conj: list[int | None],
                       deg: int, top: int, step: int, cap: int) -> list[int | None]:
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
                         budget: int = DEFAULT_BUDGET, _sums=None) -> LFunctionData:
    """The classical L-function's valuations by its ``classical_route``.

    ``_sums`` is one coefficient's entry of ``route_sums_by_lambda``,
    computed when absent.  The reflection starts from the Hodge end point
    HP(d), of order ``hodge_order`` in pi-units.  l_{h+1} is both computed
    and reflected; the two valuations, each capped at the precision, must
    agree, or ``FunctionalEquationError`` is raised.
    """
    M = M or default_precision(params)
    route = classical_route(params.d, params.c)
    step = params.a * (params.p - 1)
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
    vals = reflect_valuations(low[:h + 1], conj, route.deg, hodge_order(params, params.d),
                              step, M * (p - 1))
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
    needed = max(v for v in data.valuations if v is not None)
    if M * (params.p - 1) <= needed:
        raise PrecisionError(f"precision M={M} cannot certify valuations up to {needed}")
    return lower_convex_hull(data.newton_points(), params.a * (params.p - 1))


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
