"""Tests for the truncated p-adic tower."""

from __future__ import annotations

import copy
import itertools
import random

import pytest

from oracles import (
    PiElem,
    companion_trace_table,
    eval_int_poly,
    exp_coeffs,
    from_pi,
    frobenius,
    frobenius_matrix,
    inverse,
    lift_root,
    pi_one,
    pi_xpow_table,
    pi_zero,
    ram_dot,
    teichmuller_iterated,
    ram_from_zq,
    to_pi,
    zeta_basis,
    zeta_p_power,
)
from twistnp.core_arith import charpoly_mod
from twistnp.lfunction import _newton_coeffs
from twistnp.padic import (
    RamifiedElem,
    basis_traces,
    find_generator,
    is_irreducible,
    make_context,
    poly_eval_mod,
    poly_mod,
    poly_mul,
    poly_mul_mod,
    poly_pow_mod,
    poly_trim,
    smallest_irreducible,
    x_walk,
)


def _schoolbook_mul(x: PiElem, y: PiElem) -> PiElem:
    """The product over the pi_1-basis as a (p-1)^2 double loop of
    ``ZqContext.mul``, then each pi_1^(p-1+t) folded back by
    ``pi_xpow_table``."""
    ctx = x.ctx
    n = ctx.p - 1
    prod = [ctx.zero()] * (2 * n - 1)
    for i, a in enumerate(x.comps):
        if a.is_zero():
            continue
        for j, b in enumerate(y.comps):
            if not b.is_zero():
                prod[i + j] = prod[i + j] + ctx.mul(a, b)
    table = pi_xpow_table(ctx)
    out = list(prod[:n])
    for t in range(n - 1):
        c = prod[n + t]
        if c.is_zero():
            continue
        row = table[t]
        for i in range(n):
            if row[i]:
                out[i] = out[i] + c * row[i]
    return PiElem(ctx, tuple(out))


def test_smallest_irreducible_examples():
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # X^2 + X + 1
    assert smallest_irreducible(5, 1) == (0, 1)  # plain X
    # X^2 + 1 is irreducible over F_7 (since -1 is not a square mod 7)
    assert smallest_irreducible(7, 2) == (1, 0, 1)


def test_context_reproducibility():
    c1 = make_context(3, 4, 6)
    c2 = make_context(3, 4, 6)
    assert c1 is c2
    c3 = make_context.__wrapped__(3, 4, 6)
    assert c3.modulus == c1.modulus and c3.generator == c1.generator


def test_generator_has_full_order():
    import sympy

    for (p, deg) in [(2, 3), (3, 2), (5, 2), (11, 2)]:
        ctx = make_context(p, deg, 4)
        order = p**deg - 1
        g = ctx.generator
        for r in sympy.primefactors(order):
            assert poly_pow_mod(g, order // r, ctx.modulus, p) != (1,)
        assert poly_pow_mod(g, order, ctx.modulus, p) == (1,)


def test_zq_ring_axioms_random():
    ctx = make_context(5, 3, 6)
    rng = random.Random(17)
    for _ in range(40):
        a = ctx.elem(tuple(rng.randrange(ctx.pM) for _ in range(3)))
        b = ctx.elem(tuple(rng.randrange(ctx.pM) for _ in range(3)))
        c = ctx.elem(tuple(rng.randrange(ctx.pM) for _ in range(3)))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_zq_inverse_roundtrip():
    ctx = make_context(7, 2, 8)
    rng = random.Random(23)
    for _ in range(25):
        a = ctx.elem((rng.randrange(ctx.pM), rng.randrange(ctx.pM)))
        if tuple(c % 7 for c in a.coeffs) == (0, 0):
            continue
        inv = inverse(ctx, a)
        assert ctx.mul(a, inv) == 1
    # every unit residue class, q - 2 = 0 at q = 2 included, and a non-unit
    for (p, deg) in [(2, 1), (2, 3), (3, 1), (5, 2)]:
        ctx = make_context(p, deg, 6)
        for code in range(1, p**deg):
            a = ctx.elem([(code // p**i) % p + p * i for i in range(deg)])
            assert ctx.mul(a, inverse(ctx, a)) == 1
        with pytest.raises(ZeroDivisionError):
            inverse(ctx, ctx.from_int(p))


def test_negative_powers_are_refused():
    ctx = make_context(5, 2, 4)
    with pytest.raises(ValueError, match="negative exponent"):
        ctx.pow(ctx.one(), -1)
    with pytest.raises(ValueError, match="negative exponent"):
        ctx.from_int(2) ** -3


def test_teichmuller_basics():
    ctx = make_context(5, 1, 3)
    assert ctx.teichmuller((1,)) == ctx.one()
    t2 = ctx.teichmuller((2,))
    assert t2.coeffs == (57,)  # Hensel root of X^4 = 1 lifting 2 mod 5
    assert ctx.pow(t2, 4) == 1
    assert ctx.teichmuller((0,)).is_zero()


def test_teichmuller_defining_property_extension():
    ctx = make_context(3, 2, 5)
    qq = 9
    for code in range(1, qq):
        res = (code % 3, code // 3)
        t = ctx.teichmuller(res)
        assert ctx.pow(t, qq - 1) == 1
        assert tuple(c % 3 for c in t.coeffs) == res


@pytest.mark.parametrize("p", [2, 3, 5, 11, 43])
def test_teichmuller_newton_lift_matches_the_iteration(p):
    # the Newton lift against M + 1 q-th powers, on the zero residue, the
    # generator and a seeded residue, at every deg 1..4 and M 1..20
    rng = random.Random(p)
    for deg in range(1, 5):
        q = p**deg
        for M in range(1, 21):
            ctx = make_context(p, deg, M)
            for res in ((0,) * deg, ctx.generator, tuple(rng.randrange(p) for _ in range(deg))):
                t = ctx.teichmuller(res)
                assert t == teichmuller_iterated(ctx, res), (deg, M, res)
                assert ctx.pow(t, q) == t


def test_frobenius_on_teichmuller():
    ctx = make_context(5, 2, 5)
    g = ctx.generator
    t = ctx.teichmuller(g)
    frob = frobenius(ctx, t)
    # sigma(omega(x)) = omega(x^p) = omega(x)^p
    assert frob == ctx.pow(t, 5)
    gp = poly_pow_mod(g, 5, ctx.modulus, 5)
    assert frob == ctx.teichmuller(gp)


def test_frobenius_is_additive_and_multiplicative():
    ctx = make_context(3, 3, 5)
    rng = random.Random(5)
    for _ in range(15):
        a = ctx.elem(tuple(rng.randrange(ctx.pM) for _ in range(3)))
        b = ctx.elem(tuple(rng.randrange(ctx.pM) for _ in range(3)))
        assert frobenius(ctx, a + b) == frobenius(ctx, a) + frobenius(ctx, b)
        assert frobenius(ctx, a * b) == frobenius(ctx, a) * frobenius(ctx, b)


def test_trace_linear_and_matches_conjugate_sum():
    ctx = make_context(5, 3, 6)
    rng = random.Random(9)
    for _ in range(10):
        a = ctx.elem(tuple(rng.randrange(ctx.pM) for _ in range(3)))
        conj_sum = a
        z = a
        for _ in range(2):
            z = frobenius(ctx, z)
            conj_sum = conj_sum + z
        assert conj_sum.coeffs[1:] == (0,) * 2
        assert ctx.trace_zp(a) == conj_sum.coeffs[0]


def test_precision_monotonicity():
    lo = make_context.__wrapped__(7, 2, 4)
    hi = make_context.__wrapped__(7, 2, 9)
    assert lo.modulus == hi.modulus
    t_lo = lo.teichmuller((3, 5))
    t_hi = hi.teichmuller((3, 5))
    assert tuple(c % lo.pM for c in t_hi.coeffs) == t_lo.coeffs
    a_lo = lo.elem((11, 23))
    b_lo = lo.elem((40, 2))
    a_hi = hi.elem((11, 23))
    b_hi = hi.elem((40, 2))
    prod_hi = hi.mul(a_hi, b_hi)
    assert tuple(c % lo.pM for c in prod_hi.coeffs) == lo.mul(a_lo, b_lo).coeffs


def test_valuation_basics():
    # in pi_1-units: p = 5 has valuation p - 1 = 4, pi_1 has 1
    ctx = make_context(5, 1, 6)
    p_elem = from_pi(ram_from_zq(ctx, ctx.from_int(5)))
    assert p_elem.valuation() == 4 and type(p_elem.valuation()) is int
    pi = from_pi(PiElem(ctx, (ctx.zero(), ctx.one(), ctx.zero(), ctx.zero())))
    assert pi.valuation() == 1
    assert ctx.ram_zero().valuation() is None
    # p^5 * pi_1^3 is the smallest nonzero power of pi_1 below precision 6
    assert from_pi(PiElem(ctx, (ctx.zero(),) * 3 + (ctx.from_int(5**5),))).valuation() == 23


def test_valuation_multiplicative_on_certified_pairs():
    ctx = make_context(5, 2, 8)
    rng = random.Random(31)
    for _ in range(25):
        comps_a = [ctx.from_int(rng.randrange(0, 30)) for _ in range(4)]
        comps_b = [ctx.from_int(rng.randrange(0, 30)) for _ in range(4)]
        a = from_pi(PiElem(ctx, comps_a))
        b = from_pi(PiElem(ctx, comps_b))
        if a.is_zero() or b.is_zero():
            continue
        va, vb, vab = a.valuation(), b.valuation(), (a * b).valuation()
        assert None not in (va, vb, vab)
        assert vab == va + vb


def test_zeta_p_power():
    ctx = make_context(7, 1, 5)
    assert zeta_p_power(ctx, 0) == pi_one(ctx) == to_pi(ctx.ram_one())
    assert zeta_p_power(ctx, 7) == pi_one(ctx)
    assert zeta_p_power(ctx, -1) == zeta_p_power(ctx, 6)
    total = pi_zero(ctx)
    for n in range(7):
        total = total + zeta_p_power(ctx, n)
    assert total.is_zero()


def test_zeta_p_power_is_multiplicative():
    # over the pi_1-basis, and in the group ring
    ctx = make_context(5, 1, 6)
    for m in range(5):
        for n in range(5):
            want = zeta_p_power(ctx, m + n)
            assert zeta_p_power(ctx, m) * zeta_p_power(ctx, n) == want
            assert from_pi(zeta_p_power(ctx, m)) * from_pi(zeta_p_power(ctx, n)) == from_pi(want)


def test_ramified_mul_matches_integer_model():
    # compare against exact arithmetic in Z[zeta_5] via polynomial reduction,
    # for the product over the pi_1-basis and the group-ring one
    ctx = make_context(5, 1, 8)
    a = PiElem(ctx, tuple(ctx.from_int(c) for c in (3, 0, 2, 1)))
    b = PiElem(ctx, tuple(ctx.from_int(c) for c in (1, 4, 0, 6)))
    import sympy

    x = sympy.symbols("x")
    phi = sympy.expand(((1 + x) ** 5 - 1) / x)
    pa = 3 + 2 * x**2 + x**3
    pb = 1 + 4 * x + 6 * x**3
    rem = sympy.rem(sympy.expand(pa * pb), phi, x)
    expected = [int(rem.coeff(x, k)) % ctx.pM for k in range(4)]
    assert [c.coeffs[0] for c in (a * b).comps] == expected
    assert [c.coeffs[0] for c in to_pi(from_pi(a) * from_pi(b)).comps] == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7, 29, 43])
@pytest.mark.parametrize("deg", [1, 2, 3, 5])
def test_packed_product_against_schoolbook(p, deg):
    # the product over the pi_1-basis, the oracle of the group ring's;
    # p = 2 has no pi-row to fold
    rng = random.Random(p * 100 + deg)
    for M in (1, rng.randrange(2, 20), 20):
        ctx = make_context(p, deg, M)
        n, top = p - 1, ctx.pM - 1

        def elem(draw):
            return PiElem(ctx, [ctx.elem([draw() for _ in range(deg)]) for _ in range(n)])

        # all coefficients p^M - 1: the most carries a slot can take
        full = elem(lambda: top)
        pairs = [(full, full)]
        pairs += [(elem(lambda: rng.randrange(ctx.pM)), elem(lambda: rng.randrange(ctx.pM)))
                  for _ in range(3)]
        sparse = [ctx.zero()] * n
        sparse[n - 1] = ctx.elem([top] * deg)
        pairs.append((PiElem(ctx, sparse), full))
        pairs.append((pi_zero(ctx), full))
        for x, y in pairs:
            got = x * y
            assert got == _schoolbook_mul(x, y), (p, deg, M)
            assert all(type(c) is int and 0 <= c < ctx.pM
                       for z in got.comps for c in z.coeffs)
        # sums of products: no pair, one pair, all-maximal pairs, a mix
        for group in ([], pairs[1:2], [(full, full)] * 7, pairs + [(full, full)] * 3):
            want = pi_zero(ctx)
            for x, y in group:
                want = want + _schoolbook_mul(x, y)
            assert ram_dot(ctx, group) == want, (p, deg, M, len(group))
            assert ram_dot(ctx, iter(group)) == want


def _random_ram(ctx, rng, draw=None):
    """A random element over zeta_p^0..zeta_p^(p-2), coordinates by ``draw``."""
    draw = draw or (lambda: rng.randrange(ctx.pM))
    return RamifiedElem(ctx, [tuple(draw() for _ in range(ctx.deg))
                              for _ in range(ctx.p - 1)])


@pytest.mark.parametrize("p", [2, 3, 5, 11, 29])
@pytest.mark.parametrize("deg", [1, 2, 3])
def test_group_dot_against_ram_dot(p, deg):
    # the group-ring sum of products, through the full change of basis,
    # against the sum over the pi_1-basis, scaled or not
    rng = random.Random(p * 10 + deg)
    for M in (1, rng.randrange(2, 12)):
        ctx = make_context(p, deg, M)
        top = ctx.pM - 1
        full = _random_ram(ctx, rng, lambda: top)
        one_slot = RamifiedElem(ctx, [(0,) * deg] * (p - 2) + [(top,) * deg])
        pairs = [(full, full), (one_slot, full), (ctx.ram_zero(), full), (ctx.ram_one(), full)]
        pairs += [(_random_ram(ctx, rng), _random_ram(ctx, rng)) for _ in range(4)]
        for group in ([], pairs[:1], pairs[2:4], pairs, pairs + [(full, full)] * 5):
            want = ram_dot(ctx, [(to_pi(x), to_pi(y)) for x, y in group])
            got = ctx.group_dot(group)
            assert to_pi(got) == want, (p, deg, M, len(group))
            assert from_pi(want) == got
            assert all(type(c) is int and 0 <= c < ctx.pM for z in got.coords for c in z)
            assert ctx.group_dot(iter(group), 1 + p) == from_pi(want.scale(1 + p))
        if M > 1:
            sums = [_random_ram(ctx, rng) for _ in range(min(3, p - 1))]
            assert [to_pi(c) for c in _newton_coeffs(sums)] == exp_coeffs([to_pi(s) for s in sums])


@pytest.mark.parametrize("p, deg, M", [(2, 1, 6), (3, 2, 5), (5, 1, 7), (7, 3, 4),
                                       (11, 1, 9), (29, 2, 6), (43, 1, 3)])
def test_early_exit_valuation_against_full_change_of_basis(p, deg, M):
    # units, random elements, p^k Z_q[zeta_p] for every k up to M and
    # elements that vanish mod p^M; each element also times pi_1^j
    rng = random.Random(p * 1000 + deg * 10 + M)
    ctx = make_context(p, deg, M)
    elems = [ctx.ram_zero(), ctx.ram_one()] + [_random_ram(ctx, rng) for _ in range(4)]
    for k in range(1, M + 1):
        small = _random_ram(ctx, rng, lambda: rng.randrange(p ** (M - k)) * p**k % ctx.pM)
        elems.append(small)
    pis = [from_pi(PiElem(ctx, [ctx.one() if i == j else ctx.zero() for i in range(p - 1)]))
           for j in range(p - 1)]
    elems += [x * pis[rng.randrange(p - 1)] for x in list(elems)]
    assert any(x.is_zero() for x in elems) and ctx.ram_zero().valuation() is None
    for x in elems:
        want = to_pi(x).valuation()
        assert x.valuation() == want, (p, deg, M, x)
        assert (want is None) == x.is_zero()


def test_poly_mod_and_products():
    p = 7
    rng = random.Random(3)
    modulus = smallest_irreducible(p, 3)
    n = len(modulus) - 1
    for m in (p, p**3):
        for _ in range(30):
            # coefficients over Z, as an unreduced product has them
            a = tuple(rng.randrange(-m * m, m * m) for _ in range(rng.randrange(0, 7)))
            b = tuple(rng.randrange(-m * m, m * m) for _ in range(rng.randrange(0, 5)))
            r = poly_mod(a, modulus, m)
            assert len(r) == n and all(0 <= c < m for c in r)
            # a + q * modulus has a's remainder, for a random q over Z
            q = [rng.randrange(-m, m) for _ in range(rng.randrange(1, 5))]
            shifted = [x + y for x, y in
                       itertools.zip_longest(a, poly_mul(q, modulus), fillvalue=0)]
            assert poly_mod(shifted, modulus, m) == r
            if len(a) <= n:  # deg a < deg modulus: a itself mod m, padded
                assert r == tuple(c % m for c in a) + (0,) * (n - len(a))
            assert poly_mul_mod(a, b, modulus, m) == poly_trim(
                poly_mod(poly_mul(a, b), modulus, m))


def test_poly_pow_mod_refuses_a_negative_exponent():
    modulus = smallest_irreducible(7, 3)
    with pytest.raises(ValueError, match="negative exponent -1"):
        poly_pow_mod((0, 1), -1, modulus, 7)


def _square_and_multiply(a, k, modulus, m):
    result, base = (1,), poly_trim(poly_mod(a, modulus, m))
    while k:
        if k & 1:
            result = poly_mul_mod(result, base, modulus, m)
        base = poly_mul_mod(base, base, modulus, m)
        k >>= 1
    return result


@pytest.mark.parametrize("p", [2, 7, 43])
def test_poly_pow_mod_at_degree_1_is_square_and_multiply(p):
    # a degree-1 modulus makes a one integer: one pow, trimmed as before,
    # mod p and mod p^M, k = 0 giving (1,) and a = 0 giving ()
    rng = random.Random(p)
    for m in (p, p**9):
        for modulus in [smallest_irreducible(p, 1), (rng.randrange(m), 1)]:
            cases = [((), 0), ((), 3), ((m,), 0), ((m,), 5), ((0, 1), 0), ((p,), 9)]
            cases += [(tuple(rng.randrange(-m * m, m * m) for _ in range(rng.randrange(0, 5))),
                       rng.randrange(0, 3 * p)) for _ in range(40)]
            for a, k in cases:
                assert poly_pow_mod(a, k, modulus, m) == _square_and_multiply(a, k, modulus, m), \
                    (a, k, modulus, m)
    ctx = make_context(p, 1, 9)
    g = ctx.elem(ctx.generator)
    for k in (0, 1, p - 1, p**9 + 3):
        assert ctx.pow(g, k).coeffs == ctx.elem(_square_and_multiply(
            g.coeffs, k, ctx.modulus, ctx.pM)).coeffs


def test_eval_int_poly_and_lift_root():
    ctx = make_context(7, 2, 9)
    rng = random.Random(11)
    coeffs = [rng.randrange(-50, 50) for _ in range(5)]
    z = ctx.elem((rng.randrange(ctx.pM), rng.randrange(ctx.pM)))
    val, deriv = eval_int_poly(ctx, coeffs, z)
    assert val == sum((ctx.pow(z, i) * c for i, c in enumerate(coeffs)), ctx.zero())
    assert deriv == sum((ctx.pow(z, i - 1) * (i * c) for i, c in enumerate(coeffs) if i),
                        ctx.zero())
    # the Frobenius image of X is the lifted root of the modulus near X^p
    root = lift_root(ctx, ctx.modulus, ctx.pow(ctx.elem((0, 1)), 7))
    assert eval_int_poly(ctx, ctx.modulus, root)[0].is_zero()
    assert root.coeffs == frobenius_matrix(ctx)[1]


@pytest.mark.parametrize("p", [2, 5, 11])
def test_frobenius_is_the_identity_on_zp(p):
    ctx = make_context(p, 1, 7)
    assert frobenius_matrix(ctx) == [(1,)]
    for n in (0, 1, p, 12345):
        assert frobenius(ctx, ctx.from_int(n)) == ctx.from_int(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_trace_table_against_companion_matrix_powers(p):
    rng = random.Random(p)
    for deg in range(1, 7):
        for M in sorted({1, 2, rng.randrange(3, 12), 12}):
            ctx = make_context(p, deg, M)
            assert ctx._trace_table == companion_trace_table(ctx), (p, deg, M)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_trace_table_sees_the_t1_term(p):
    # the smallest moduli have a_{n-1} = 0, so t_1 = 0 and the j = 1 term of
    # the Newton identities never shows; a modulus with a_{n-1} != 0 makes
    # it reach t_2 from degree 3 on
    for deg in (3, 4, 5):
        ctx = copy.copy(make_context(p, deg, 6))
        ctx.modulus = next(low + (1,) for low in itertools.product(range(p), repeat=deg)
                           if low[0] and low[-1] and is_irreducible(low + (1,), p))
        table = basis_traces(ctx.modulus, ctx.pM)
        assert table[1] % p  # t_1 = -a_{n-1}
        assert table == companion_trace_table(ctx), (p, deg, ctx.modulus)


def test_codes_give_the_smallest_encodings():
    # the modulus and the generator are the first of their kind in base-p
    # code order sum_i c_i p^i of the little-endian coefficients
    for (p, deg) in [(2, 2), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        by_code = [tuple((n // p**i) % p for i in range(deg)) for n in range(p**deg)]
        mod = smallest_irreducible(p, deg)
        assert mod == next(t + (1,) for t in by_code if _irreducible(t + (1,), p))
        assert find_generator(p, deg) == next(
            poly_trim(t) for t in by_code[1:] if _order(poly_trim(t), mod, p) == p**deg - 1)


def test_poly_eval_mod_against_power_sum():
    p = 5
    ctx = make_context(p, 3, 1)  # arithmetic mod p
    rng = random.Random(4)
    for _ in range(20):
        f = [rng.randrange(p) for _ in range(rng.randrange(0, 6))]
        z = poly_trim(tuple(rng.randrange(p) for _ in range(3)))
        want = sum((ctx.elem(poly_pow_mod(z, i, ctx.modulus, p)) * c for i, c in enumerate(f)),
                   ctx.zero())
        assert ctx.elem(poly_eval_mod(f, z, ctx.modulus, p)) == want
        assert poly_trim(want.coeffs) == poly_eval_mod(f, z, ctx.modulus, p)


def _irreducible(poly, p):
    """No monic factor of degree 1..deg/2, by trial division."""
    deg = len(poly) - 1
    for k in range(1, deg // 2 + 1):
        for n in range(p**k):
            f = tuple((n // p**i) % p for i in range(k)) + (1,)
            if not any(poly_mod(poly, f, p)):
                return False
    return True


def _order(z, modulus, p):
    k, w = 1, z
    while w != (1,):
        w, k = poly_mul_mod(w, z, modulus, p), k + 1
    return k


def test_zeta_basis_columns_are_zeta_powers():
    for (p, deg, M) in [(3, 1, 4), (5, 1, 6), (7, 2, 5), (29, 1, 12), (101, 1, 5)]:
        ctx = make_context(p, deg, M)
        basis = zeta_basis(ctx)
        assert basis.shape == (p - 1, p)
        for r in range(p):
            comps = zeta_p_power(ctx, r).comps
            assert [z.coeffs[0] for z in comps] == basis[:, r].tolist()
            assert all(not any(z.coeffs[1:]) for z in comps)


_TRACE_CONTEXTS = [(2, 1, 5), (3, 3, 4), (5, 2, 6), (11, 4, 14), (7, 5, 3), (43, 2, 13)]


@pytest.mark.parametrize("p, deg, M", _TRACE_CONTEXTS)
def test_charpoly_of_X_is_the_modulus(p, deg, M):
    ctx = make_context(p, deg, M)
    cols = x_walk((1,), ctx.modulus[:deg], ctx.pM, deg + 1)[1:]  # column t: X^(t+1)
    assert charpoly_mod([list(row) for row in zip(*cols)], ctx.pM)[::-1] == list(ctx.modulus)


@pytest.mark.parametrize("p, deg, M", _TRACE_CONTEXTS)
def test_trace_sequence_is_the_trace_of_the_powers(p, deg, M):
    ctx = make_context(p, deg, M)
    rng = random.Random(p * 100 + deg)

    def rand():
        return ctx.elem([rng.randrange(ctx.pM) for _ in range(deg)])

    omega = ctx.teichmuller(ctx.generator)
    # units, a Teichmuller lift, zero and a non-unit among gamma and beta
    pairs = [(ctx.one(), omega), (rand(), ctx.pow(omega, 3)), (rand(), rand()),
             (rand(), ctx.zero()), (ctx.zero(), rand()), (rand(), rand() * p)]
    for gamma, beta in pairs:
        want, x = [], gamma
        for _ in range(3 * deg + 2):
            want.append(ctx.trace_zp(x))
            x = ctx.mul(x, beta)
        assert list(itertools.islice(ctx.trace_sequence(gamma, beta), 3 * deg + 2)) == want
