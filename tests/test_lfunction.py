"""Tests for twisted exponential sums and the classical Newton polygon."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy

from oracles import (
    PiElem,
    congruent_mod_pi,
    exp_sum_classical,
    exp_sum_Tadic_walk,
    FULL_ENUMERATION,
    find_generator_every_code,
    fraction_hull,
    frobenius,
    full_sums_by_lambda,
    joint_histogram_fits,
    l_polynomial_full,
    lambda_residues,
    lift_root,
    mult_matrix,
    pi_xpow_table,
    pi_zero,
    power_block,
    ram_from_zq,
    to_pi,
    trace_count_matrix_numpy,
    zeta_p_power,
)
from twistnp.lfunction import (
    FUNCTIONAL_EQUATION,
    FUNCTIONAL_EQUATION_CONJUGATE,
    BudgetExceededError,
    LFunctionData,
    Route,
    SmallPrimeError,
    TeichmullerTable,
    TraceTable,
    _TADIC_BLOCK,
    _descent_for,
    classical_route,
    classical_sums_multi,
    coset_runs,
    default_precision,
    exp_sum_Tadic,
    l_polynomial,
    min_poly,
    newton_polygon_classical,
    reflect_valuations,
    route_sums_by_lambda,
    stirling_rows,
    trace_count_matrix,
)
from twistnp.padic import (
    basis_traces,
    find_generator,
    is_irreducible,
    make_context,
    mult_charpoly,
    poly_eval_mod,
    poly_mul_mod,
    poly_pow_mod,
    x_walk,
)
from twistnp.polygon import (
    Params,
    Polygon,
    hodge_order,
    hodge_polygon,
    lies_above,
    lower_bound_polygon,
    lower_convex_hull,
)

F = Fraction


def _ff_trace(y, modulus, p, m) -> int:
    """Tr(y) = y + y^p + ... + y^(p^(m-1)), an element of F_p."""
    acc = (0,) * m
    for i in range(m):
        conj = _pad(poly_pow_mod(y, p**i, modulus, p), m)
        acc = tuple((u + v) % p for u, v in zip(acc, conj))
    assert not any(acc[1:]), "trace is not in F_p"
    return acc[0]


def _pad(t, m):
    return tuple(t) + (0,) * (m - len(t))


def _brute_force_counts(p, m, modulus, g, lam_vec, d_exp, e_exp, c):
    """Reference enumeration with plain polynomial arithmetic."""
    counts = np.zeros((p, c), dtype=np.int64)
    z = (1,)
    for j in range(p**m - 1):
        zd = poly_pow_mod(z, d_exp, modulus, p)
        ze = poly_pow_mod(z, e_exp, modulus, p)
        fz = poly_mul_mod(lam_vec, ze, modulus, p)
        fz = tuple((a + b) % p for a, b in zip(_pad(zd, m), _pad(fz, m)))
        counts[_ff_trace(fz, modulus, p, m), j % c] += 1
        z = poly_mul_mod(z, g, modulus, p)
    return counts


def _per_lambda_counts(p, m, modulus, g, lam_vecs, d_exp, e_exp, c, block=1 << 14):
    """The earlier kernel: one bincount of each coefficient's trace per block,
    from the full product mat_e @ P_e.  The trace row comes from
    ``_ff_trace``, independently of ``ZqContext``."""
    total = p**m - 1
    width = min(block, total)
    tr = np.array([_ff_trace((0,) * v + (1,), modulus, p, m) for v in range(m)],
                  dtype=np.int64)
    h_d = poly_pow_mod(g, d_exp, modulus, p)
    h_e = poly_pow_mod(g, e_exp, modulus, p)
    P_d = power_block(h_d, modulus, p, m, width)
    P_e = power_block(h_e, modulus, p, m, width)
    lam_rows = [(tr @ mult_matrix(vec, modulus, p, m)) % p for vec in lam_vecs]
    counts = np.zeros((len(lam_vecs), p * c), dtype=np.int64)
    base_d, base_e = (1,), (1,)
    step_d = poly_pow_mod(h_d, width, modulus, p)
    step_e = poly_pow_mod(h_e, width, modulus, p)
    j0 = 0
    while j0 < total:
        nb = min(width, total - j0)
        mat_d = mult_matrix(base_d, modulus, p, m)
        mat_e = mult_matrix(base_e, modulus, p, m)
        alpha = ((tr @ mat_d) @ P_d[:, :nb]) % p
        Ye = (mat_e @ P_e[:, :nb]) % p
        jmod = (j0 + np.arange(nb, dtype=np.int64)) % c
        for li, lam_row in enumerate(lam_rows):
            t_vals = (alpha + lam_row @ Ye) % p
            counts[li] += np.bincount(t_vals * c + jmod, minlength=p * c)
        base_d = poly_mul_mod(base_d, step_d, modulus, p)
        base_e = poly_mul_mod(base_e, step_e, modulus, p)
        j0 += nb
    return counts.reshape(len(lam_vecs), p, c)


@pytest.mark.parametrize("p,m,c", [(5, 2, 1), (7, 2, 2), (11, 1, 1), (3, 4, 2)])
def test_trace_count_matrix_against_brute_force(p, m, c):
    ctx = make_context(p, m, 2)
    g = ctx.generator
    lam = g  # an arbitrary nonzero element, g^1: index 1 over theta = g
    got = np.array(trace_count_matrix(p, m, ctx, [1], 1, min_poly(ctx),
                                      3 if p != 3 else 4, 1, c))
    want = _brute_force_counts(p, m, ctx.modulus, g, lam, 3 if p != 3 else 4, 1, c)
    assert got.shape == (1, p, c)
    assert (got[0] == want).all()
    assert got.sum() == p**m - 1


@pytest.mark.parametrize("p,m", [(43, 5), (11, 6), (3, 8), (13, 1), (2, 5)])
def test_mult_matrix_against_poly_mul_mod(p, m):
    import random

    rng = random.Random(p * m)
    modulus = make_context(p, m, 2).modulus
    for _ in range(10):
        z = tuple(rng.randrange(p) for _ in range(m))
        y = tuple(rng.randrange(p) for _ in range(m))
        got = (mult_matrix(z, modulus, p, m) @ np.array(y, dtype=np.int64)) % p
        assert tuple(got) == _pad(poly_mul_mod(z, y, modulus, p), m)
    # the walk under it, mod p and mod p^M: step t is X^t v by long division
    for M in (1, 3, 12):
        mod = p**M
        v = tuple(rng.randrange(mod) for _ in range(m))
        walk = x_walk(v, modulus[:m], mod, 2 * m + 1)
        assert len(walk) == 2 * m + 1
        for t, col in enumerate(walk):
            assert col == _pad(poly_mul_mod((0,) * t + (1,), v, modulus, mod), m), (M, t)


# (p, a, d, e, c, mu, lambda indices or None for all, k_max, block).  With
# every lambda at a = 1 the kernel bins the joint histogram once the field
# is large enough (``joint_pays``); block 97 is smaller than every field
# past k = 1 and divides none of them.  The index subsets at a = 2 give
# the joint pass the basis 1, theta (r = 2), and each coefficient's
# coordinates are column l of the walk 1, y, y^2, ... mod f, up to l = 100.
ORACLE_GRID = [
    (11, 1, 3, 2, 1, 1, None, 3, 1 << 14),
    (11, 1, 3, 2, 1, 1, None, 3, 97),
    (13, 1, 4, 3, 2, 1, None, 4, 1 << 14),
    (13, 1, 4, 3, 2, 1, None, 4, 97),
    (29, 1, 4, 1, 1, 1, None, 4, 1 << 14),
    (11, 2, 3, 2, 3, 1, None, 3, 1 << 14),
    (11, 2, 3, 2, 3, 1, [0, 3, 5], 2, 97),
    (11, 2, 3, 2, 3, 1, [1, 2], 2, 1 << 14),
    (11, 2, 3, 2, 3, 1, [7, 100], 2, 97),
    (3, 3, 4, 1, 2, 1, None, 3, 97),  # a = 3: F_27 in F_{3^9}
    (43, 1, 5, 2, 1, 1, [7], 3, 1 << 14),  # the strict instance
    (43, 1, 5, 2, 1, 1, [7], 3, 97),
]


def _indices_id(lams) -> str:
    """The id suffix of a grid case's index subset of more than one index."""
    return "_idx" + "-".join(map(str, lams)) if lams and len(lams) > 1 else ""


@pytest.mark.parametrize("case", ORACLE_GRID,
                         ids=lambda t: "p{}_a{}_d{}_e{}_c{}_block{}".format(*t[:5], t[8])
                         + _indices_id(t[6]))
def test_trace_count_matrix_against_per_lambda_oracle(monkeypatch, case):
    import twistnp.lfunction as lfunction

    p, a, d, e, c, mu, lams, k_max, block = case
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
    lams = list(range(pr.q - 1)) if lams is None else lams
    real = lfunction.joint_pays
    for k in range(1, k_max + 1):
        big = make_context(p, a * k, pr.a * pr.d + 8)
        descent = _descent_for(pr, big)
        lam_vecs = lambda_residues(descent, lams)
        want = _per_lambda_counts(p, a * k, big.modulus, big.generator,
                                  lam_vecs, d, e, c, block=block)
        # the cost model's choice, then each way of counting forced while
        # the forced one-by-one pass stays small
        rules = [real, lambda *args: True]
        if len(lams) * (p**(a * k) - 1) <= 1 << 21:
            rules.append(lambda *args: False)
        for rule in rules:
            monkeypatch.setattr(lfunction, "joint_pays", rule)
            got = np.array(trace_count_matrix(p, a * k, big, lams, descent.log_theta,
                                              descent.theta_poly, d, e, c, block=block))
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (case, k, rule)


# (p, m, d, e, c, a, block, indices): one coefficient, then the
# ``indices`` (None for every element of F_{p^a}^*) over theta' =
# g^(N/(p^a-1)) in F_{p^m}, against the numpy kernel.  Block 97 is smaller
# than N and divides none of these N.
NUMPY_GRID = [
    (43, 1, 5, 2, 1, 1, None, None),  # the strict instance, k = 1..3
    (43, 2, 5, 2, 1, 1, None, None),
    (43, 3, 5, 2, 1, 1, None, None),
    (43, 3, 5, 2, 1, 1, 97, None),
    (11, 2, 3, 2, 3, 2, None, None),  # q = 121, c = 3, k = 1, 2
    (11, 4, 3, 2, 3, 2, None, None),
    (11, 4, 3, 2, 3, 2, 97, None),
    (2, 1, 3, 1, 1, 1, None, None),  # F_2^* has order 1: gamma = 1, N = 1
    (2, 2, 3, 1, 1, 1, None, None),  # N = 3 divides d: x^d is 1 on the field
    (2, 6, 3, 1, 1, 1, 97, None),
    (3, 1, 4, 1, 2, 1, None, None),  # F_3^* has order 2
    (3, 4, 4, 1, 2, 1, 97, None),
    (7, 1, 3, 2, 6, 1, None, None),  # m = 1, c = 6
    (7, 2, 4, 1, 6, 1, 97, None),  # gcd(d, N) = 4
    (13, 3, 4, 3, 4, 1, None, None),  # c = 4
    (13, 3, 4, 3, 4, 1, 97, None),
    (127, 2, 3, 2, 2, 1, None, None),  # the last one-byte slots
    (131, 2, 3, 2, 3, 1, None, None),  # the first two-byte slots
    (131, 1, 3, 2, 1, 1, None, None),
    (257, 2, 4, 1, 1, 1, None, None),  # residues past one byte
    (11, 4, 3, 2, 3, 2, 97, [0, 3, 5]),  # index subsets at a = 2
    (11, 4, 3, 2, 3, 2, None, [1, 2]),
    (11, 2, 3, 2, 3, 2, 97, [7, 100]),
    (7, 3, 3, 2, 2, 3, 97, None),  # a = 3: every element of F_343^*
]


@pytest.mark.parametrize("case", NUMPY_GRID,
                         ids=lambda t: "p{}_m{}_d{}_e{}_c{}_a{}_block{}".format(*t[:7])
                         + _indices_id(t[7]))
def test_trace_count_matrix_against_numpy_kernel(monkeypatch, case):
    import twistnp.lfunction as lfunction

    p, m, d, e, c, a, block, lams = case
    ctx = make_context(p, m, 2)
    total, sub = p**m - 1, p**a - 1
    block = block or 1 << 16
    real = lfunction.joint_pays
    # index 5 over theta = g, then the indices over theta' = g^(N/(p^a-1)),
    # whose minimal polynomial is the monic one of degree a it is a root of
    s_sub = total // sub
    theta = poly_pow_mod(ctx.generator, s_sub, ctx.modulus, p)
    f_sub = next(low + (1,) for low in itertools.product(range(p), repeat=a)
                 if not poly_eval_mod(low + (1,), theta, ctx.modulus, p))
    cases = [([5 % total], 1, min_poly(ctx)),
             (list(range(sub)) if lams is None else lams, s_sub, f_sub)]
    for indices, log_theta, f in cases:
        vecs = [poly_pow_mod(ctx.generator, li * log_theta % total, ctx.modulus, p)
                for li in indices]
        want = trace_count_matrix_numpy(p, m, ctx, vecs, d, e, c)
        # the cost model's choice, then each way of counting forced
        for rule in (real, lambda *args: False, lambda *args: True):
            monkeypatch.setattr(lfunction, "joint_pays", rule)
            got = trace_count_matrix(p, m, ctx, indices, log_theta, f, d, e, c, block=block)
            assert np.array_equal(np.array(got), want), (case, len(indices), rule)


@pytest.mark.parametrize("p", [2, 3, 43, 131])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_min_poly_is_the_generators_minimal_polynomial(p, m):
    ctx = make_context(p, m, 3)
    f = min_poly(ctx)
    assert len(f) == m + 1 and f[-1] == 1
    assert not poly_eval_mod(f, ctx.generator, ctx.modulus, p)
    assert is_irreducible(f, p)
    # trace_sequence streams Tr(beta^j), beta any lift of g, by the recurrence
    # of det(1 - M_beta s) mod p^M: mod p that is f reversed, the traces'
    # first m terms are the power sums of f's roots, and all recur by f
    beta = ctx.elem(ctx.generator)
    charpoly = mult_charpoly(beta.coeffs, ctx.modulus, ctx.pM)
    assert [x % p for x in reversed(charpoly)] == list(f)
    u = list(itertools.islice(ctx.trace_sequence(ctx.one(), beta), 3 * m + 2))
    assert [x % p for x in u[:m]] == basis_traces(f, p)  # the trace table's seed
    for j in range(2 * m + 2):
        assert sum(fi * u[j + i] for i, fi in enumerate(f)) % p == 0, j


# (p, m, table bytes): a table of every coset, of one coset (r = 1), and of
# r cosets with r not dividing p - 1, so the last group is partial
TABLE_GRID = [(2, 5, 1 << 22), (3, 3, 1), (5, 1, 1 << 22), (29, 2, 100), (29, 2, 1),
              (7, 3, 1 << 22), (131, 2, 1), (131, 2, 1000), (257, 1, 1 << 22)]


@pytest.mark.parametrize("p, m, table_bytes", TABLE_GRID)
def test_trace_table_streams_are_the_traces(monkeypatch, p, m, table_bytes):
    import twistnp.lfunction as lfunction

    monkeypatch.setattr(lfunction, "_TABLE_BYTES", table_bytes)
    ctx = make_context(p, m, 2)
    table = TraceTable(ctx)
    total = p**m - 1
    assert table.span % table.L == 0 and table.span <= total
    if (p, table_bytes) == (29, 100):
        assert (p - 1) % table.r and table.r > 1
    tr, traces, y = basis_traces(ctx.modulus, p), [], (1,)
    for _ in range(total):
        traces.append(sum(a * b for a, b in zip(y, tr)) % p)
        y = poly_mul_mod(y, ctx.generator, ctx.modulus, p)
    count = 2 * total + 3
    for start, step in [(0, 1), (5, 3), (total - 1, 2), (7, total), (3, 2 * total + 1),
                        (total // 2, table.L)]:
        got = list(table.view(table.stream(start, step, count)))
        assert got == [traces[(start + step * i) % total] for i in range(count)], (start, step)


@pytest.mark.parametrize("N, span", [(28, 4), (28, 12), (28, 28), (1, 1), (840, 100)])
def test_coset_runs_cover_the_walk_block_by_block(N, span):
    # both tables' walk: every run lies in one block [G span, min((G+1) span, N)),
    # a last block shorter than span included, and the runs spell the walk
    for start, step, count in [(0, 1, 3 * N), (5, 3, 2 * N + 1), (N - 1, 2, N),
                               (7, N, 4), (3, 2 * N + 1, N), (N // 2, span, 2 * N)]:
        got = []
        for G, o, n in coset_runs(start, step, count, N, span):
            assert n >= 1 and G * span + o + (n - 1) * step < min((G + 1) * span, N)
            got += [G * span + o + step * i for i in range(n)]
        assert got == [(start + step * i) % N for i in range(count)], (start, step)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 43])
@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_generator_search_skips_only_constants(p, deg):
    # for deg >= 2 a constant's order divides p - 1, so skipping the p
    # constant codes cannot skip the smallest generator
    assert find_generator(p, deg) == find_generator_every_code(p, deg)


def test_generator_search_skips_constants_at_large_p():
    assert find_generator(1009, 2) == find_generator_every_code(1009, 2)


def _assemble_by_zeta_powers(big, counts, V):
    """The assembly over the pi_1-basis: each trace value's character sum
    scales zeta_p^r, built by ``zeta_p_power``."""
    p, c = counts.shape
    out = pi_zero(big)
    for r in range(p):
        acc = big.zero()
        for mm in range(c):
            n = int(counts[r, mm])
            if n:
                acc = acc + V[mm] * n
        if not acc.is_zero():
            out = out + zeta_p_power(big, r).scale(acc)
    return out


# (p, a, d, e, c, mu, lambda indices or None for all, k_max)
ASSEMBLY_GRID = [
    (11, 1, 3, 2, 1, 1, None, 3),
    (13, 1, 4, 3, 2, 1, None, 4),
    (11, 2, 3, 2, 3, 1, None, 3),  # q = 121
    (43, 1, 5, 2, 1, 1, [7], 3),  # the strict instance
]


@pytest.mark.parametrize("case", ASSEMBLY_GRID,
                         ids=lambda t: "p{}_a{}_d{}_e{}_c{}".format(*t[:5]))
def test_assembly_against_zeta_power_oracle(case):
    p, a, d, e, c, mu, lams, k_max = case
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
    lams = list(range(pr.q - 1)) if lams is None else lams
    for k in range(1, k_max + 1):
        sums = classical_sums_multi(pr, k, lams, conjugate=True)
        descent = _descent_for(pr, make_context(p, a * k, default_precision(pr)))
        neg_r, neg_mm = -np.arange(p) % p, -np.arange(c) % c
        for li in lams:
            counts = np.array(sums[li].counts)
            want = _assemble_by_zeta_powers(descent.base, counts, descent.V)
            assert to_pi(sums[li].value) == want, (case, k, li)
            want = _assemble_by_zeta_powers(descent.base, counts[neg_r][:, neg_mm],
                                            descent.V)
            assert to_pi(sums[li].conj_value) == want, (case, k, li)


def _big_character_values(pr, big):
    """chi(Norm x) in Z_{q^k} on the class j = mm mod c of x = g_big^j:
    V_mm = Teich(g_big^(-u (q^k - 1)/(q - 1) mm))."""
    Qk1 = pr.p**big.deg - 1
    s = -pr.u * (Qk1 // (pr.q - 1)) % Qk1
    return [big.teichmuller(poly_pow_mod(big.generator, s * mm % Qk1, big.modulus, pr.p))
            for mm in range(pr.c)]


def _embedding(pr, big):
    """The embedding Z_q -> Z_{q^k} the enumeration uses, as a map of
    elements.

    Its residue map sends g to g_img, the image of coefficient index 1;
    the base variable X = g^t of F_q goes to g_img^t (to 0 for a = 1),
    which ``lift_root`` lifts to a root Z of the base modulus.
    """
    p = pr.p
    base = make_context(p, pr.a, big.M)
    x_res = ()
    if pr.a > 1:
        g_img = lambda_residues(_descent_for(pr, big), [1])[0]
        t = next(t for t in range(pr.q - 1)
                 if poly_pow_mod(base.generator, t, base.modulus, p) == (0, 1))
        x_res = poly_pow_mod(g_img, t, big.modulus, p)
    Z = lift_root(big, base.modulus, big.elem(x_res))

    def embed(y):
        out, z_pow = big.zero(), big.one()
        for coef in y.coeffs:
            out = out + z_pow * coef
            z_pow = big.mul(z_pow, Z)
        return out

    return embed


def _fixed_by_sigma_a(big, elems, a):
    out = list(elems)
    for _ in range(a):
        out = [frobenius(big, x) for x in out]
    return out == list(elems)


# (p, a, d, e, c, mu, ks)
EMBEDDING_GRID = [
    (11, 1, 3, 2, 1, 1, (1, 2, 3)),
    (7, 1, 3, 1, 2, 1, (3,)),
    (11, 2, 3, 2, 3, 1, (1, 2)),
    (3, 2, 2, 1, 8, 5, (1, 2, 3)),
    (7, 3, 5, 2, 9, 2, (1,)),
    (43, 1, 5, 2, 1, 1, (2,)),  # the strict instance
    (11, 1, 3, 2, 5, 2, (2, 3)),  # c = 5: a unit t with t^2 != 1 mod c shows ell = t^-1
]


@pytest.mark.parametrize("case", EMBEDDING_GRID,
                         ids=lambda t: "p{}_a{}_d{}_e{}_c{}_mu{}".format(*t[:6]))
def test_base_ring_sums_are_the_big_ring_sums_embedded(case):
    # S_k assembled in Z_{q^k}[pi_1] with chi(Norm x) there is fixed by
    # sigma^a, and it is the image of the base-ring sum; so are the conjugates
    p, a, d, e, c, mu, ks = case
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
    lams = sorted({0, 1, (pr.q - 1) // 2, pr.q - 2})
    neg_r = -np.arange(p) % p
    for k in ks:
        big = make_context(p, a * k, default_precision(pr))
        embed = _embedding(pr, big)
        V = _big_character_values(pr, big)
        V_conj = [V[-mm % c] for mm in range(c)]
        sums = classical_sums_multi(pr, k, lams, conjugate=True)
        for li in lams:
            s = sums[li]
            counts = np.array(s.counts)
            for counts, V_big, got in ((counts, V, s.value),
                                       (counts[neg_r], V_conj, s.conj_value)):
                want = _assemble_by_zeta_powers(big, counts, V_big).comps
                assert _fixed_by_sigma_a(big, want, a), (case, k, li)
                assert tuple(embed(y) for y in to_pi(got).comps) == want, (case, k, li)


def _big_ring_tadic(pr, J, big):
    """T^0..T^J of the T-adic sum in Z_{q^k}: each x in F_{q^k}^* adds
    binom(t, jj) chi(Norm x) with t = Tr(x^d + lambda x^e) of the lifts."""
    pM = big.pM
    g = big.teichmuller(big.generator)
    lam = big.teichmuller(lambda_residues(_descent_for(pr, big), [pr.lam_index])[0])
    acc = [[0] * (J + 1) for _ in range(pr.c)]
    x = big.one()
    for j in range(pr.p**big.deg - 1):
        t = big.trace_zp(big.pow(x, pr.d) + lam * big.pow(x, pr.e))
        falling = 1
        for jj in range(J + 1):
            acc[j % pr.c][jj] += falling * pow(math.factorial(jj), -1, pM)
            falling = falling * (t - jj) % pM
        x = big.mul(x, g)
    V = _big_character_values(pr, big)
    return [sum((V[mm] * (acc[mm][jj] % pM) for mm in range(pr.c)), big.zero())
            for jj in range(J + 1)]


@pytest.mark.parametrize("p,a,d,e,c,mu,lam,J",
                         [(11, 2, 3, 2, 3, 1, 57, 4), (5, 2, 3, 1, 4, 1, 5, 4)])
def test_tadic_base_ring_sums_are_the_big_ring_sums_embedded(p, a, d, e, c, mu, lam, J):
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    big = make_context(p, 2 * a, default_precision(pr))
    want = _big_ring_tadic(pr, J, big)
    assert _fixed_by_sigma_a(big, want, a)
    embed = _embedding(pr, big)
    assert [embed(y) for y in exp_sum_Tadic(pr, 2, J).coeffs] == want


@pytest.mark.parametrize("p,a,d,e,c,mu,k,J", [
    (43, 1, 5, 2, 1, 1, 2, 5),  # the strict instance
    (43, 1, 5, 2, 1, 1, 1, 5),
    (11, 2, 3, 2, 3, 2, 1, 4),  # a > 1 and c >= 3
    (11, 2, 3, 2, 3, 1, 2, 4),  # q = 121, c = 3 does not divide p - 1
    (13, 1, 3, 1, 1, 1, 3, 5),
    (3, 1, 2, 1, 1, 1, 3, 2),  # recurrence order ak = 3 >= p
    (5, 2, 3, 1, 4, 1, 2, 4),  # ak = 4 >= p, c = 4
    (2, 2, 3, 1, 3, 1, 2, 1),  # q = 4, c = 3: p = 2, one coset, L = q^k - 1
    (3, 1, 2, 1, 2, 1, 3, 2),  # p = 3, c = 2
    (7, 1, 3, 2, 3, 1, 2, 5),  # c' = c/gcd(L, c) = 3 does not divide L = 8
    (5, 1, 3, 2, 4, 3, 3, 4),  # c' = 4, L = 31 = 3 mod 4
])
def test_tadic_sum_equals_the_walk(p, a, d, e, c, mu, k, J):
    # the sum over u < L = (q^k - 1)/(p - 1), folded over s < p - 1, is the
    # walk over all of F_{q^k}^*, at M = 1 and the default M, in whole
    # blocks and in blocks of 7, which divides none of the L here
    q = p**a
    for lam in sorted({0, 1, q // 3, q - 2}):
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
        for M in (1, None):
            want = exp_sum_Tadic_walk(pr, k, J, M).coeffs
            for block in (_TADIC_BLOCK, 7):
                assert exp_sum_Tadic(pr, k, J, M, block=block).coeffs == want, (lam, M, block)


@pytest.mark.parametrize("p,a,d,e,c,k,block", [(11, 2, 3, 2, 3, 1, 7), (5, 2, 3, 1, 4, 2, 10)])
def test_tadic_sum_in_small_blocks_equals_the_walk(p, a, d, e, c, k, block):
    # blocks of the coset representatives u < L (L = 12 and 156) start at
    # u0 not 0 mod c, and their strided streams cross the cosets of the
    # table's head; the walk is the oracle
    for lam in (1, p**a // 3):
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=1, lam_index=lam)
        assert exp_sum_Tadic(pr, k, 4, block=block).coeffs == \
            exp_sum_Tadic_walk(pr, k, 4).coeffs, lam


@pytest.mark.parametrize("p,a,d,e,c,k", [(11, 2, 3, 2, 3, 2), (43, 1, 5, 2, 1, 2),
                                         (2, 2, 3, 1, 3, 2)])
def test_tadic_sum_streams_two_traces_per_coset_representative(monkeypatch, p, a, d, e, c, k):
    # 2L traces, A_u and B_u for u < L, not two for each of the q^k - 1
    # elements
    streamed = []
    real_stream = TeichmullerTable.stream

    def counted(self, start, step, count):
        streamed.append(count)
        return real_stream(self, start, step, count)

    monkeypatch.setattr(TeichmullerTable, "stream", counted)
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=1, lam_index=1)
    for block in (_TADIC_BLOCK, 7):
        streamed.clear()
        exp_sum_Tadic(pr, k, min(4, p - 1), block=block)
        L = (p**(a * k) - 1) // (p - 1)
        assert sum(streamed) == 2 * L, block


@pytest.mark.parametrize("p,a,d,e,c,k,lazy", [
    (7, 1, 3, 2, 3, 2, True),  # every power stays unreduced
    (43, 1, 5, 2, 1, 1, False),  # the powers pass the digit bound and are reduced
])
def test_tadic_sum_at_J_p_minus_1_equals_the_walk(p, a, d, e, c, k, lazy):
    # J = p - 1, the largest J: the lazily reduced powers against the walk,
    # which reduces every falling factorial
    J = p - 1
    for lam in (0, 1, p**a - 2):
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=1, lam_index=lam)
        pM = p**default_precision(pr)
        assert (J * (2 * pM).bit_length() <= sys.int_info.bits_per_digit**2) == lazy
        assert exp_sum_Tadic(pr, k, J).coeffs == exp_sum_Tadic_walk(pr, k, J).coeffs, lam


@pytest.mark.parametrize("p,d,e,c,k,J", [(2, 3, 1, 1, 6, 1), (3, 4, 1, 2, 3, 2)])
def test_teichmuller_head_is_fixed_width_below_2_64(monkeypatch, p, d, e, c, k, J):
    # p^M <= 2^64 here, so the head is an array('Q'); the sums are those
    # of a list head, and of the walk
    pr = Params(p=p, a=1, d=d, e=e, c=c, mu=1, lam_index=p - 2)
    big = make_context(p, k, default_precision(pr))
    assert big.pM <= 1 << 64
    head = TeichmullerTable(big).head
    assert head.typecode == "Q" and len(head) == (p**k - 1) // (p - 1)
    want = exp_sum_Tadic(pr, k, J).coeffs
    assert want == exp_sum_Tadic_walk(pr, k, J).coeffs
    real_init = TeichmullerTable.__init__

    def list_head(self, ctx):
        real_init(self, ctx)
        self.head = list(self.head)

    monkeypatch.setattr(TeichmullerTable, "__init__", list_head)
    assert isinstance(TeichmullerTable(big).head, list)
    assert exp_sum_Tadic(pr, k, J).coeffs == want
    # past 2^64 the head is a list
    assert isinstance(TeichmullerTable(make_context(p, k, 65)).head, list)


def test_stirling_rows_give_the_falling_factorials():
    rng = random.Random(25)
    rows = stirling_rows(10)
    for t in [0, 1, 9, -3] + [rng.randrange(-10**9, 10**9) for _ in range(20)]:
        falling = 1
        for j, row in enumerate(rows):
            assert sum(s * t**i for i, s in enumerate(row)) == falling, (t, j)
            falling *= t - j


def test_tadic_sum_gates_the_budget_once(monkeypatch):
    import twistnp.lfunction as lfunction

    calls = []
    real = lfunction.check_budget

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lfunction, "check_budget", counted)
    pr = Params(p=7, a=1, d=3, e=2, c=3, mu=1, lam_index=2)
    for k in (1, 2, 3):
        calls.clear()
        exp_sum_Tadic(pr, k, 2)
        assert len(calls) == 1, k
    # the budget is refused before J, with the smallest field past it named
    with pytest.raises(BudgetExceededError, match="needs 49 elements"):
        exp_sum_Tadic(pr, 3, 7, budget=10)
    with pytest.raises(ValueError, match="J=7 must lie"):
        exp_sum_Tadic(pr, 3, 7)


def test_joint_histogram_rule():
    # lambda-grid sizes: one coefficient row (r = 1) for p = 29, c = 2
    assert not joint_histogram_fits(29, 1, 2, 28, 840)  # k = 2: 1682 bins > 1624, 840
    assert joint_histogram_fits(29, 1, 2, 28, 16384)  # k >= 3: a block holds them
    # one lambda at large p: the joint bins would outgrow the block
    assert not joint_histogram_fits(1009, 1, 1, 1, 16384)
    # q = 121, all 120 lambdas (r = 2): 3993 bins against 3960 outputs
    assert not joint_histogram_fits(11, 2, 3, 120, 120)
    assert joint_histogram_fits(11, 2, 3, 120, 14640)
    # the bound is inclusive: exactly one block's worth of bins
    assert joint_histogram_fits(127, 1, 1, 1, 127**2)
    assert not joint_histogram_fits(127, 1, 1, 1, 127**2 - 1)


@pytest.mark.parametrize("p, a, k", [(11, 1, 1), (11, 1, 3), (11, 2, 2), (5, 2, 1),
                                    (7, 3, 1)])
def test_lambda_residues_are_powers_of_the_embedded_generator(p, a, k):
    pr = Params(p=p, a=a, d=3, e=2, c=1, mu=1)
    big = make_context(p, a * k, pr.a * pr.d + 8)
    base = make_context(p, a, 2)
    descent = _descent_for(pr, big)

    def in_big(i):
        return _pad(poly_pow_mod(g_img, i, big.modulus, p), a * k)

    def in_base(i):
        return _pad(poly_pow_mod(base.generator, i, base.modulus, p), a)

    g_img = lambda_residues(descent, [1])[0]
    lams = [7, 0, pr.q - 2, 3, 7, pr.q + 4, 1]  # unsorted, repeated, past q - 1
    assert [_pad(r, a * k) for r in lambda_residues(descent, lams)] == \
        [in_big(li) for li in lams]
    # g^i -> g_img^i is a field embedding: it has order q - 1 and is
    # additive, g^i + g^j = g^l going to g_img^i + g_img^j = g_img^l
    assert in_big(pr.q - 1) == in_big(0)
    dlog = {in_base(i): i for i in range(pr.q - 1)}
    for i, j in [(0, 1), (1, 1), (2, 5), (3, pr.q // 2)]:
        total = tuple((x + y) % p for x, y in zip(in_base(i), in_base(j)))
        image = tuple((x + y) % p for x, y in zip(in_big(i), in_big(j)))
        assert image == (in_big(dlog[total]) if any(total) else (0,) * (a * k)), (i, j)


@pytest.mark.parametrize("p, a", [(11, 1), (467, 2)])
def test_descent_at_k_1_scans_for_no_root(monkeypatch, p, a):
    # at k = 1 the base modulus is the big one, so X is a root: only the
    # base generator's image is evaluated
    import twistnp.lfunction as lfunction

    calls = []
    real = lfunction.poly_eval_mod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lfunction, "poly_eval_mod", counted)
    pr = Params(p=p, a=a, d=3, e=2, c=1, mu=1)
    descent = lfunction.SubfieldDescent(pr, make_context(p, a, 3))
    assert len(calls) <= 1
    assert lambda_residues(descent, [1]) == [make_context(p, a, 3).generator]


def test_character_orthogonality():
    # sum over x of chi(Norm x): q^k - 1 for u = 0, else 0
    for (p, a, c, mu) in [(11, 1, 1, 1), (11, 1, 2, 1), (13, 1, 3, 2), (11, 2, 3, 1)]:
        pr = Params(p=p, a=a, d=3, e=2, c=c, mu=mu)
        for k in (1, 2):
            s = exp_sum_classical(pr, k)
            descent = _descent_for(pr, make_context(p, a * k, default_precision(pr)))
            total = descent.base.zero()
            for mm in range(c):
                total = total + descent.V[mm] * int(np.array(s.counts)[:, mm].sum())
            if pr.u == 0:
                assert total == descent.base.from_int(pr.q**k - 1)
            else:
                assert total.is_zero()


def test_exp_sum_budget():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    with pytest.raises(BudgetExceededError):
        exp_sum_classical(pr, 3, budget=100)


def test_tadic_sum_degree_zero_and_one():
    # (1+T)^t at T = 0 gives character orthogonality; T^1 coefficient is
    # the trace-weighted character sum
    pr = Params(p=7, a=1, d=3, e=2, c=1, mu=1, lam_index=2)
    ts = exp_sum_Tadic(pr, 1, 3)
    base = make_context(7, 1, pr.a * pr.d + 8)
    assert ts.coeffs[0] == base.from_int(6)
    s1 = exp_sum_classical(pr, 1)
    # classical sum mod pi^2 equals c_0 + c_1 * pi
    lhs = to_pi(s1.value)
    rhs = ram_from_zq(base, ts.coeffs[0])
    pi_term = [base.zero()] * 6
    pi_term[1] = ts.coeffs[1]
    rhs = rhs + PiElem(base, tuple(pi_term))
    assert congruent_mod_pi(lhs, rhs, 2)


@pytest.mark.parametrize(
    "p,a,d,e,c,mu,lam,k,J",
    [
        (7, 1, 3, 2, 1, 1, 2, 1, 5),
        (7, 1, 3, 2, 2, 1, 1, 2, 4),
        (11, 1, 3, 2, 1, 1, 3, 1, 6),
        (11, 2, 3, 2, 3, 1, 5, 1, 5),
    ],
)
def test_tadic_specializes_to_classical(p, a, d, e, c, mu, lam, k, J):
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    ts = exp_sum_Tadic(pr, k, J)
    cs = exp_sum_classical(pr, k)
    base = cs.value.ctx
    acc = pi_zero(base)
    for jj in range(J, -1, -1):
        comps = list(acc.comps)
        # multiply by pi and add c_jj: Horner in pi
        if jj < J:
            shifted = [base.zero()] + comps[:-1]
            top = comps[-1]
            acc = PiElem(base, shifted)
            if not top.is_zero():
                table = pi_xpow_table(base)[0]
                corr = PiElem(base, tuple(base.from_int(t) * top for t in table))
                acc = acc + corr
        comps = list(acc.comps)
        comps[0] = comps[0] + ts.coeffs[jj]
        acc = PiElem(base, comps)
    assert congruent_mod_pi(to_pi(cs.value), acc, J + 1)


def test_l_polynomial_low_coefficients():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    data = l_polynomial_full(pr)
    base = data.coeffs[0].ctx
    assert data.coeffs[0] == base.ram_one()
    assert data.coeffs[1] == data.sums[0]
    two_l2 = data.coeffs[2] + data.coeffs[2]
    assert two_l2 == data.sums[0] * data.sums[0] + data.sums[1]


def test_newton_polygon_p_equiv_1_is_hodge():
    pr = Params(p=7, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    np_poly = newton_polygon_classical(l_polynomial(pr))
    assert np_poly.slopes() == [F(0), F(1, 3), F(2, 3)]
    assert np_poly.values == hodge_polygon(pr, 3).values


def test_newton_polygon_p11_anchor_all_lambda():
    # e = d-1 and p > c(d^2-d+1) force equality with the bound
    pr0 = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    P = lower_bound_polygon(pr0, 3)
    assert P.slopes() == [F(0), F(2, 5), F(3, 5)]
    sums = route_sums_by_lambda(pr0, list(range(10)))
    for lam in range(10):
        pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=lam)
        np_poly = newton_polygon_classical(l_polynomial(pr, _sums=sums[lam]))
        assert np_poly.values == P.values, f"lambda index {lam}"
        assert sum(np_poly.slopes()) == 1


def test_extend_newton_polygon():
    from twistnp.lfunction import extend_newton_polygon
    from twistnp.polygon import Polygon

    base = Polygon((F(0), F(0), F(2, 5), F(1)))
    ext = extend_newton_polygon(base, 9)
    assert ext.values[:4] == base.values
    for n in range(6):
        assert ext.slope(n + 3) == ext.slope(n) + 1
    assert ext.is_convex()


def test_newton_polygon_degree_and_endpoint():
    for (p, a, d, e, c, mu, lam) in [(11, 1, 3, 2, 1, 1, 2), (13, 1, 4, 3, 1, 1, 1),
                                     (11, 1, 3, 2, 2, 1, 4)]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
        data = l_polynomial_full(pr)
        assert data.valuations[d] is not None
        np_poly = newton_polygon_classical(data)
        P = lower_bound_polygon(pr, d)
        H = hodge_polygon(pr, d)
        assert np_poly.value(d) == P.value(d) == H.value(d)
        assert lies_above(np_poly, P)


# ---------------------------------------------------------------------------
# the functional-equation routes against the full enumeration


def test_classical_route_table():
    assert classical_route(5, 1) == Route(FUNCTIONAL_EQUATION, 4, 3)
    assert classical_route(2, 1) == Route(FUNCTIONAL_EQUATION, 1, 1)
    assert classical_route(4, 2) == Route(FUNCTIONAL_EQUATION, 4, 3)
    assert classical_route(3, 3) == Route(FUNCTIONAL_EQUATION_CONJUGATE, 3, 2)
    assert classical_route(5, 4) == Route(FUNCTIONAL_EQUATION_CONJUGATE, 5, 3)
    assert classical_route(4, 3) == Route(FUNCTIONAL_EQUATION_CONJUGATE, 4, 3)
    assert classical_route(5, 1).field_size(43, 1) == 43**3
    assert classical_route(3, 3).field_size(11, 2) == 11**4


def _oracle_grid():
    """(p, a, d, e, c, mu) with p^(ad) <= 3e6 and p > d: d 2..6, every
    coprime e, c in {1, 2, 3}, primes below 40, q = 121 among them; and
    c = 4 with even d.  c >= 3 takes every mu."""
    out = []
    for d in range(2, 7):
        for e in [e for e in range(1, d) if math.gcd(d, e) == 1]:
            for c in (1, 2, 3, 4):
                if c == 4 and d % 2:
                    continue
                for p in map(int, sympy.primerange(d + 1, 40)):
                    if c % p == 0:
                        continue
                    a = 1 if c == 1 else int(sympy.n_order(p, c))
                    if p**(a * d) > 3 * 10**6:
                        continue
                    for mu in range(1, max(c, 2)):
                        if math.gcd(mu, c) == 1:
                            out.append((p, a, d, e, c, mu))
    return out


def test_half_route_matches_full_enumeration():
    grid = _oracle_grid()
    assert (11, 2, 3, 2, 3, 1) in grid and (11, 2, 3, 2, 3, 2) in grid
    # even d with c >= 3 reflects through the conjugate sums too
    assert (13, 1, 4, 1, 3, 2) in grid and (7, 2, 2, 1, 4, 3) in grid
    assert {c for *_, c, _ in grid} == {1, 2, 3, 4}
    for (p, a, d, e, c, mu) in grid:
        base = Params(p=p, a=a, d=d, e=e, c=c, mu=mu)
        lams = sorted({1, (base.q - 1) // 2})
        full = full_sums_by_lambda(base, lams)
        half = route_sums_by_lambda(base, lams)
        for lam in lams:
            pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
            want = newton_polygon_classical(l_polynomial_full(pr, sums=full[lam]))
            data = l_polynomial(pr, _sums=half[lam])
            assert data.route != FULL_ENUMERATION
            got = newton_polygon_classical(data)
            assert got.values == want.values, pr.key()


def test_conjugate_sums_are_the_conjugate_tuple_sums():
    # for odd d, x -> -x turns the complex conjugate of the sum of
    # (mu, lambda) into chi(-1)^k times that of (c - mu, (-1)^(e+1) lambda)
    for (p, a, d, e, c, mu, lam) in [(11, 2, 3, 2, 3, 1, 5), (13, 1, 5, 2, 4, 1, 3),
                                     (7, 1, 3, 1, 3, 2, 4)]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
        lam_conj = (lam + (pr.q - 1) // 2 * (e % 2 == 0)) % (pr.q - 1)
        conj_pr = Params(p=p, a=a, d=d, e=e, c=c, mu=c - mu)
        for k in (1, 2):
            got = classical_sums_multi(pr, k, [lam], conjugate=True)[lam].conj_value
            want = classical_sums_multi(conj_pr, k, [lam_conj])[lam_conj].value
            assert got in (want, -want), (pr.key(), k)


def test_reflection_certificate_holds_and_types_agree():
    pr = Params(p=43, a=1, d=5, e=2, c=1, mu=1, lam_index=7)
    data = l_polynomial(pr)
    assert isinstance(data, LFunctionData) and data.route == FUNCTIONAL_EQUATION
    # the A^1 L-function: degree 4, l_0..l_3 computed, l_3 also reflected;
    # the factor 1 - s adds the point (0, 0)
    assert len(data.valuations) == 5 and data.newton_points() == [0] + data.valuations
    assert newton_polygon_classical(data).slopes() == [
        F(0), F(3, 14), F(1, 2), F(1, 2), F(11, 14)]


def test_inexact_low_coefficient_reflects_to_an_omitted_point():
    # deg 4, h = 2: l'_1 vanishes mod p^M, so l_3 = l_(4-1) is omitted, as a
    # coefficient that vanishes mod p^M is on the full route
    cap = 100
    low = [0, 3, 12]
    conj = [0, None, 12]
    vals = reflect_valuations(low, conj, 4, 40, 10, cap)
    assert vals == [0, 3, 12, None, 40]
    assert all(type(v) is int for v in vals if v is not None)
    # a reflection that reaches the cap is omitted as well
    assert reflect_valuations(low, [0, 95, 12], 4, 40, 10, cap)[3] is None
    data = LFunctionData(Params(p=11, a=1, d=4, e=1, c=2, mu=1), 10, vals, FUNCTIONAL_EQUATION)
    pts = data.newton_points()
    assert pts == vals and pts[3] is None
    # the omitted point is the hull of the points that remain
    assert lower_convex_hull(pts, 10).values == fraction_hull(
        [(n, F(v, 10)) for n, v in enumerate(pts) if v is not None]).values
    assert lower_convex_hull(pts, 10).value(3) == F(13, 5)
    # the A^1 L-function of degree d - 1 gains the point (0, 0) of 1 - s
    a1 = LFunctionData(Params(p=11, a=1, d=5, e=1, c=1, mu=1), 10, vals, FUNCTIONAL_EQUATION)
    assert a1.newton_points() == [0] + vals


def _reflection_top_grid():
    """(p, a, d, c) with p prime to d and c | p^a - 1, a in {b, 2b}, b the
    order of p mod c: p = 2 with odd d, and odd p."""
    for p in (2, 3, 5, 7, 11, 13):
        for c in (1, 2, 3, 4):
            if c % p == 0:
                continue
            b = next(k for k in range(1, c + 1) if (p**k - 1) % c == 0)
            for a in (b, 2 * b):
                for d in range(2, 10):
                    if d % p:
                        yield p, a, d, c


def test_reflection_top_is_an_integer():
    # HP(d) a(p - 1) = a(p - 1)(d - 1)/2 + (a/b) * digit sum: b | a, and
    # (p - 1)(d - 1) is even whenever p does not divide d
    seen = set()
    for p, a, d, c in _reflection_top_grid():
        for mu in (m for m in range(1, c + 1) if math.gcd(m, c) == 1):
            pr = Params(p=p, a=a, d=d, e=1, c=c, mu=mu)
            H = hodge_polygon(pr, 2 * d)
            top = H.value(d) * a * (p - 1)
            assert top.denominator == 1, pr.key()
            for n in (d, 2 * d):
                assert hodge_order(pr, n) == H.value(n) * a * (p - 1), (pr.key(), n)
            seen.add((p == 2, c, a > pr.b))
    assert {(True, 1, True), (False, 4, True), (False, 3, True)} <= seen
    # the reflection starts from that top: l_deg has valuation HP(d) a(p - 1)
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    assert l_polynomial(pr).valuations[-1] == hodge_order(pr, 3) == 10


def test_half_route_reach_below_d():
    # p = 5 <= d = 7: the half route divides only by n <= 4, the full
    # route of the oracle by n <= 7
    pr = Params(p=5, a=1, d=7, e=2, c=1, mu=1, lam_index=1)
    with pytest.raises(SmallPrimeError) as info:
        l_polynomial_full(pr)
    assert isinstance(info.value, ValueError) and info.value.threshold == 7
    np_poly = newton_polygon_classical(l_polynomial(pr))
    H = hodge_polygon(pr, 7)
    assert lies_above(np_poly, H) and np_poly.value(7) == H.value(7)
    with pytest.raises(SmallPrimeError, match="need p > 4") as info:
        l_polynomial(Params(p=3, a=1, d=7, e=2, c=1, mu=1))
    assert info.value.threshold == 4
