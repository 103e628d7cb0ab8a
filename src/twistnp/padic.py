"""Truncated p-adic towers: unramified Z_q mod p^M and Z_q[zeta_p].

A context fixes the prime, the degree, the working precision M, a
deterministic defining polynomial (the smallest-encoded monic irreducible
over F_p) and a deterministic multiplicative generator of the residue
field.  Elements are coefficient vectors over the power basis, reduced mod
p^M.  The single ramified layer adjoins zeta_p, whose pi_1 = zeta_p - 1
has v_p(pi_1) = 1/(p-1).  Its elements are kept over 1, zeta_p, ...,
zeta_p^(p-2) (``RamifiedElem``): Z_q[zeta_p] is the image of the group
ring Z_q[x]/(x^p - 1), so a character sum is its weighted counts and a
product is a cyclic convolution (``ZqContext.group_dot``); the
pi_1-valuation is read off the binomial change of basis, row by row.

The polynomial helpers (``poly_*``) serve both the residue fields and
the contexts: every product is ``poly_mul`` over Z reduced by the one
remainder ``poly_mod``, mod p or mod p^M; every "multiply by X and fold
the top coefficient back" walk is ``x_walk``; and the traces of the
power basis are the power sums of the modulus's roots
(``basis_traces``).  One helper, ``mult_charpoly``, gives
det(1 - M_beta s) for multiplication by beta, from
``core_arith.berkowitz``: the traces Tr(gamma * beta^j) recur with it
(``ZqContext.trace_sequence``), and reversed mod p it is the minimal
polynomial of a residue-field generator.  Both sums of products,
``ZqContext.group_dot`` in Z_q[zeta_p] and the T-adic series product
``dwork._dot``, pack residues into big integers in one layout: ``pack``,
``unpack`` and the width ``slot_bytes``.  ``group_dot`` reduces its
unpacked slots by ``poly_mod``; ``dwork._dot`` reduces inside the packed
integer, by ``dwork._reducer``.

All ring operations are exact mod p^M: divisions only ever happen by
p-adic units, so precision never degrades silently.  Valuations are
certified: an element that vanishes mod p^M has valuation None rather
than a number, and a valuation is an integer in pi_1-units.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from functools import lru_cache

from .core_arith import charpoly_mod, is_prime, mod_dot, power_sums, prime_factors

# ---------------------------------------------------------------------------
# polynomial helpers (coefficients little-endian, mod p or mod p^M)


def poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def poly_mul(a, b) -> list[int]:
    """Product of a and b over Z, not reduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def poly_mod(a, f, m) -> tuple[int, ...]:
    """The deg f coefficients of a modulo the monic f, each mod m; not trimmed.

    This is the one remainder: mod p in the residue fields, mod p^M in Z_q.
    """
    n = len(f) - 1
    if len(a) <= n:
        return tuple([c % m for c in a]) + (0,) * (n - len(a))
    a = list(a)
    low = f[:n]
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % m
        if c:  # f is monic; a[i] is not read again
            for j, fj in enumerate(low, i - n):
                a[j] -= c * fj
    return tuple([c % m for c in a[:n]])


def poly_mul_mod(a, b, modulus, p):
    """Product of a and b modulo (modulus, p); trimmed."""
    return poly_trim(poly_mod(poly_mul(a, b), modulus, p))


def poly_pow_mod(a, k, modulus, p):
    """a^k modulo (modulus, p) for k >= 0, by repeated squaring; trimmed."""
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    if len(modulus) == 2:  # degree 1: a is the integer a(-modulus[0])
        return poly_trim((pow(poly_mod(a, modulus, p)[0], k, p),))
    result = (1,)
    base = poly_trim(poly_mod(a, modulus, p))
    while k:
        if k & 1:
            result = poly_mul_mod(result, base, modulus, p)
        base = poly_mul_mod(base, base, modulus, p)
        k >>= 1
    return result


def poly_eval_mod(coeffs, z, modulus, p):
    """f(z) modulo (modulus, p) for the F_p[X] polynomial f with
    little-endian ``coeffs``, by Horner's rule; trimmed."""
    acc: tuple = ()
    for c in reversed(coeffs):
        acc = poly_mul_mod(acc, z, modulus, p) or (0,)
        acc = ((acc[0] + c) % p,) + acc[1:]
    return poly_trim(acc)


def x_walk(v, low, mod, count) -> list[tuple[int, ...]]:
    """v, X v, ..., X^(count-1) v modulo the monic X^n + low(X), n = len(low),
    with coefficients mod ``mod``.

    ``v`` has at most n coefficients.  Each step shifts up by one and folds
    the top coefficient t back as -t * low.
    """
    n = len(low)
    col = [c % mod for c in v] + [0] * (n - len(v))
    out = [tuple(col)]
    for _ in range(count - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [(x - top * c) % mod for x, c in zip(col, low)]
        out.append(tuple(col))
    return out


def mult_charpoly(v, modulus, mod) -> list[int]:
    """c_0..c_n with det(1 - M_v s) = sum_i c_i s^i mod ``mod``, for M_v
    the matrix of multiplication by v modulo the monic ``modulus`` of
    degree n: column t is X^t v (``x_walk``), and Berkowitz's recurrence
    (``core_arith.charpoly_mod``) gives the determinant."""
    n = len(modulus) - 1
    cols = x_walk(v, modulus[:n], mod, n)
    return charpoly_mod([list(row) for row in zip(*cols)], mod)


def basis_traces(modulus, mod) -> list[int]:
    """Tr(X^v) for v = 0..n-1 in Z[X]/(modulus), ``modulus`` monic of degree
    n, mod ``mod``: the power sums of its roots, by ``power_sums`` on the
    reversed modulus, det(1 - M_X s)."""
    n = len(modulus) - 1
    sums = power_sums(modulus[::-1][:n], mod_dot(mod))
    return [n % mod] + [t % mod for t in sums[1:]]


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], -1, p)
        a, b = b, poly_trim(poly_mod(a, tuple(c * inv % p for c in b), p))
    return a


def is_irreducible(poly, p):
    """Rabin test for a monic polynomial over F_p."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    x = (0, 1)
    t = x
    frob = [x]
    for _ in range(deg):
        t = poly_pow_mod(t, p, poly, p)
        frob.append(t)
    if frob[deg] != x:  # x^(p^deg) = x; x is reduced, as deg >= 2
        return False
    for r in prime_factors(deg):
        diff = list(frob[deg // r])
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = poly_gcd(poly_trim(tuple(diff)), poly, p)
        if len(g) > 1:
            return False
    return True


def _codes(p: int, deg: int):
    """Little-endian coefficient tuples of length deg by increasing base-p
    code sum_i c_i p^i, from the zero tuple on."""
    return (t[::-1] for t in itertools.product(range(p), repeat=deg))


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, deg: int) -> tuple[int, ...]:
    """Monic irreducible of given degree with smallest base-p encoding.

    Degree 1 returns plain X, code 0.
    """
    for lower in _codes(p, deg):
        if is_irreducible(lower + (1,), p):
            return lower + (1,)
    raise AssertionError("no irreducible polynomial found")


@lru_cache(maxsize=None)
def find_generator(p: int, deg: int) -> tuple[int, ...]:
    """Smallest-encoded generator of the multiplicative group of F_{p^deg}.

    Code 0 is no unit, and for deg >= 2 no constant generates either (its
    order divides p - 1), so the search starts past the p constant codes.
    """
    modulus = smallest_irreducible(p, deg)
    order = p**deg - 1
    primes = prime_factors(order)
    for elem in itertools.islice(_codes(p, deg), p if deg > 1 else 1, None):
        z = poly_trim(elem)
        if all(poly_pow_mod(z, order // r, modulus, p) != (1,) for r in primes):
            return z
    raise AssertionError("no generator found")


# ---------------------------------------------------------------------------
# packed sums of products (Kronecker substitution)

#: headroom bits of a packed slot for the pairs one sum of products adds:
#: fewer than 2^PAIR_BITS pairs per call are certified not to overflow
PAIR_BITS = 32


def slot_bytes(pM: int, products: int) -> int:
    """Bytes of a slot to which each of fewer than 2^PAIR_BITS pairs adds at
    most ``products`` products of residues mod p^M: 2 bitlen(p^M - 1) +
    bitlen(products) + PAIR_BITS bits, rounded up."""
    return -(-(2 * (pM - 1).bit_length() + products.bit_length() + PAIR_BITS) // 8)


def checked_pairs(pairs) -> list:
    """The pairs of a sum of products, as a list; raises ``OverflowError``
    when the slot headroom cannot hold that many."""
    pairs = list(pairs)
    if len(pairs) >> PAIR_BITS:
        raise OverflowError(f"{len(pairs)} pairs overflow the {PAIR_BITS} headroom bits of a slot")
    return pairs


def pack(values, nbytes: int) -> int:
    """The non-negative ``values`` as one integer, value s in slot s of ``nbytes`` bytes."""
    return int.from_bytes(b"".join([x.to_bytes(nbytes, "little") for x in values]), "little")


def unpack(value: int, nbytes: int, count: int) -> list[int]:
    """The ``count`` slots of ``nbytes`` bytes of a packed integer."""
    buf = value.to_bytes(nbytes * count, "little")
    return [int.from_bytes(buf[s:s + nbytes], "little") for s in range(0, nbytes * count, nbytes)]


def vp_min(values, p: int) -> int | None:
    """min v_p over the nonzero ``values``; None when every one is 0."""
    best = None
    for c in values:
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            if v == 0:
                return 0
            if best is None or v < best:
                best = v
    return best


# ---------------------------------------------------------------------------
# unramified contexts


class PrecisionError(ArithmeticError):
    """Raised when a certified valuation cannot be produced at precision M."""


class ZqContext:
    """Arithmetic context for Z_q mod p^M with q = p^deg."""

    def __init__(self, p: int, deg: int, M: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if deg < 1 or M < 1:
            raise ValueError("deg and M must be >= 1")
        self.p = p
        self.deg = deg
        self.M = M
        self.pM = p**M
        self.modulus = smallest_irreducible(p, deg)
        self.generator = find_generator(p, deg)
        self._trace_table = basis_traces(self.modulus, self.pM)
        self._ram_bytes = slot_bytes(self.pM, (p - 1) * deg)

    # -- element constructors

    def elem(self, coeffs) -> "ZqElem":
        coeffs = tuple(int(c) % self.pM for c in coeffs)
        if len(coeffs) < self.deg:
            coeffs = coeffs + (0,) * (self.deg - len(coeffs))
        assert len(coeffs) == self.deg
        return ZqElem(self, coeffs)

    def zero(self) -> "ZqElem":
        return self.elem(())

    def one(self) -> "ZqElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "ZqElem":
        return self.elem((n,))

    def mul(self, a: "ZqElem", b: "ZqElem") -> "ZqElem":
        if self.deg == 1:
            return ZqElem(self, ((a.coeffs[0] * b.coeffs[0]) % self.pM,))
        return ZqElem(self, poly_mod(poly_mul(a.coeffs, b.coeffs), self.modulus, self.pM))

    def pow(self, a: "ZqElem", k: int) -> "ZqElem":
        """a^k for k >= 0: ``poly_pow_mod`` taken mod p^M."""
        return self.elem(poly_pow_mod(a.coeffs, k, self.modulus, self.pM))

    def teichmuller(self, residue) -> "ZqElem":
        """The Teichmuller lift of a residue-field element, given by its
        coefficients (read mod p): the root of z^(q-1) = 1 over a nonzero
        residue, q = p^deg; zero maps to zero.

        Newton's step z -> z - z (z^(q-1) - 1) / (q - 1) doubles the
        correct p-adic digits, q - 1 being a unit, so the lift takes
        ceil(log2 M) steps.
        """
        z = self.elem(tuple(c % self.p for c in residue))
        if z.is_zero():
            return z
        q = self.p**self.deg
        inv = pow(q - 1, -1, self.pM)
        digits = 1
        while digits < self.M:
            z = z - self.mul(z, self.pow(z, q - 1) - 1) * inv
            digits *= 2
        return z

    def trace_zp(self, a: "ZqElem") -> int:
        """Absolute trace to Z_p, as an integer mod p^M."""
        return sum(c * t for c, t in zip(a.coeffs, self._trace_table)) % self.pM

    def trace_sequence(self, gamma: "ZqElem", beta: "ZqElem"):
        """Tr(gamma * beta^j) for j = 0, 1, 2, ..., as an endless iterator.

        With n = deg, beta is a root of det(x - M_beta) for M_beta the
        matrix of multiplication by beta (Cayley-Hamilton), so with
        det(1 - M_beta s) = sum_i c_i s^i the traces recur as
        u_{j+n} = -(c_1 u_{j+n-1} + ... + c_n u_j) (Lidl and Niederreiter,
        Finite Fields, ch. 8).  The first n terms cost n products in Z_q,
        each later one n integer products, and only the last n are kept.
        """
        n, pM = self.deg, self.pM
        charpoly = mult_charpoly(beta.coeffs, self.modulus, pM)
        recur = [-c % pM for c in reversed(charpoly[1:])]  # c_n first: it meets u_j
        window = deque(maxlen=n)
        x = gamma
        for _ in range(n):
            window.append(self.trace_zp(x))
            yield window[-1]
            x = self.mul(x, beta)
        while True:
            window.append(sum(map(operator.mul, recur, window)) % pM)
            yield window[-1]

    # -- ramified layer: Z_q[zeta_p], the image of the group ring Z_q[C_p]

    def group_dot(self, pairs, scale: int = 1) -> "RamifiedElem":
        """``scale`` times the sum of x * y over pairs in Z_q[zeta_p].

        Each pair is one product of packed integers (``RamifiedElem.packed``),
        a product in the group ring Z_q[x]/(x^p - 1) by Kronecker
        substitution (Harvey, J. Symbolic Comput. 2009).  Once per call,
        x^p = 1 folds the sum's rows p.. onto rows 0.. by one shift and add,
        zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)) takes row p - 1
        off the others, and each slot is scaled and reduced in X and mod
        p^M.  After the fold a slot holds, per pair, the products of at most
        p - 1 coordinate pairs, deg products each, which the slot width
        covers.
        """
        p, deg, pM = self.p, self.deg, self.pM
        nbytes, span = self._ram_bytes, 2 * deg - 1
        total = sum(x.packed() * y.packed() for x, y in checked_pairs(pairs))
        cut = 8 * nbytes * span * p
        slots = unpack((total & ((1 << cut) - 1)) + (total >> cut), nbytes, span * p)
        top = slots[-span:]
        if deg == 1:
            t = top[0]
            coords = [((s - t) * scale % pM,) for s in slots[:-1]]
        else:
            coords = [poly_mod([(s - t) * scale for s, t in zip(slots[i:i + span], top)],
                               self.modulus, pM)
                      for i in range(0, span * (p - 1), span)]
        return RamifiedElem(self, coords)

    def ram_zero(self) -> "RamifiedElem":
        return RamifiedElem(self, ((0,) * self.deg,) * (self.p - 1))

    def ram_one(self) -> "RamifiedElem":
        return self.ram_zero() + 1

    def __repr__(self):
        return f"ZqContext(p={self.p}, deg={self.deg}, M={self.M})"


class ZqElem:
    """Element of Z_q mod p^M over the power basis of its context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: ZqContext, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def __add__(self, other):
        other = self._coerce(other)
        pM = self.ctx.pM
        return ZqElem(self.ctx, tuple((a + b) % pM for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        pM = self.ctx.pM
        return ZqElem(self.ctx, tuple((a - b) % pM for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            pM = self.ctx.pM
            return ZqElem(self.ctx, tuple((other * c) % pM for c in self.coeffs))
        return self.ctx.mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return self.ctx.pow(self, k)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return isinstance(other, ZqElem) and self.coeffs == other.coeffs

    def _coerce(self, other) -> "ZqElem":
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if other.ctx is not self.ctx:
            raise ValueError("mixed contexts")
        return other

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"Zq{self.coeffs}"


class RamifiedElem:
    """Element of Z_q[zeta_p] over 1, zeta_p, ..., zeta_p^(p-2): coordinate
    r is the X-coefficient tuple, reduced mod p^M, of a Z_q element."""

    __slots__ = ("ctx", "coords", "_packed")

    def __init__(self, ctx: ZqContext, coords):
        coords = tuple(coords)
        assert len(coords) == ctx.p - 1
        self.ctx = ctx
        self.coords = coords
        self._packed = None

    def packed(self) -> int:
        """The element as one integer for ``ZqContext.group_dot``, packed
        once: zeta_p^r X^v sits in slot r (2 deg - 1) + v, so the
        X-products of two coordinates never overlap."""
        if self._packed is None:
            pad = (0,) * (self.ctx.deg - 1)
            self._packed = pack([c for z in self.coords for c in z + pad], self.ctx._ram_bytes)
        return self._packed

    def __add__(self, other):
        """The sum with an element, or with an int, which moves coordinate 0 only."""
        pM = self.ctx.pM
        if isinstance(other, int):
            (c, *rest), *tail = self.coords
            return RamifiedElem(self.ctx, (((c + other) % pM, *rest), *tail))
        return RamifiedElem(self.ctx, (tuple((x + y) % pM for x, y in zip(a, b))
                                       for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        pM = self.ctx.pM
        return RamifiedElem(self.ctx, (tuple(-x % pM for x in z) for z in self.coords))

    def __mul__(self, other):
        """The one-pair ``group_dot``."""
        return self.ctx.group_dot([(self, other)])

    def is_zero(self) -> bool:
        return not any(map(any, self.coords))

    def __eq__(self, other):
        return isinstance(other, RamifiedElem) and self.coords == other.coords

    def valuation(self) -> int | None:
        """Certified valuation in pi_1-units (p has p - 1 of them); None
        when the element vanishes mod p^M.

        With pi_1 = zeta_p - 1, sum_r a_r zeta_p^r is sum_j b_j pi_1^j with
        b_j = sum_r C(r, j) a_r, the Taylor coefficients at x = 1 of
        sum_r a_r x^r; no power past pi_1^(p-2) occurs.  Distinct j carry
        distinct residues mod p - 1, so v = min_j (j + (p - 1) v_p(b_j)).
        The change of basis is unitriangular over Z, so min_j v_p(b_j) is
        k = min_r v_p(a_r), and as j < p - 1 the minimum is (p - 1) k + j0
        for the first j0 with v_p(b_j0) = k.  The rows (b_j / p^k) mod p
        come one at a time, each from the last by one synthetic division
        by x - 1 (suffix sums), and stop at the first that is not zero.
        """
        p = self.ctx.p
        k = vp_min(itertools.chain.from_iterable(self.coords), p)
        if k is None:
            return None
        pk = p**k
        # per X-coordinate, (a_r / p^k) mod p from r = p - 2 down to 0, so
        # that running sums are suffix sums
        rows = [[c // pk % p for c in reversed(col)] for col in zip(*self.coords)]
        for j in range(p - 1):
            rows = [list(itertools.accumulate(row)) for row in rows]
            if any([row.pop() % p for row in rows]):  # b_j; the rest is the quotient
                return (p - 1) * k + j
        raise AssertionError("the change of basis is invertible")

    def __repr__(self):
        return f"Ram{self.coords}"


@lru_cache(maxsize=None)
def make_context(p: int, deg: int, M: int) -> ZqContext:
    """Deterministic context; repeated calls return the same object."""
    return ZqContext(p, deg, M)
