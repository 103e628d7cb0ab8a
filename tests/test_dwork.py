"""Tests for the truncated Dwork operator and the T-adic polygon."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    compare_aggregate_bound,
    dict_dot,
    direct_traces_full,
    entry_valuation_bound,
    min_phi,
    np_T_by_P,
    pi_of_T_coeffs,
    pi_series_to_T,
    psi_a_matrix_padded,
    series_of,
    shift,
    sizes_by_P,
    with_terms,
)
from twistnp.core_arith import INFINITY, artin_hasse_coeffs, berkowitz
from twistnp.dwork import (
    DworkConsistencyError,
    PiSeries,
    PsiMatrix,
    _dot,
    _ProductCoeffs,
    TruncationError,
    auto_sizes,
    char_series,
    direct_traces,
    ef_gamma_coeffs,
    np_T,
    power_traces,
    psi_a_matrix,
    substitute_T,
    trace_consistency,
)
from twistnp.lfunction import newton_polygon_classical
from twistnp.padic import make_context
from twistnp.polygon import Params, hodge_polygon, lies_above, lower_bound_polygon

F = Fraction


# ---------------------------------------------------------------------------
# oracles for the characteristic series: repeated matrix products with the
# Newton identities (they divide by k, so they need p > n_max), and the
# exhaustive sum of principal minors


def _mat_mul(A, B):
    n = len(A)
    zero = A[0][0].zero()
    return [[sum((A[i][t] * B[t][j] for t in range(n)), zero) for j in range(n)]
            for i in range(n)]


def _product_traces(mat, n_max):
    """Tr(A^k) for k = 1..n_max, one matrix product per k."""
    zero = mat.entries[0][0].zero()
    traces, power = [None], mat.entries
    for k in range(1, n_max + 1):
        if k > 1:
            power = _mat_mul(power, mat.entries)
        traces.append(sum((power[w][w] for w in range(mat.N)), zero))
    return traces


def _newton_series(mat, traces):
    """det(1 - A s) to s^n from the traces t_1..t_n, dividing by k <= n."""
    zero = mat.entries[0][0].zero()
    coeffs = [zero.constant(1)]
    for k in range(1, len(traces)):
        acc = sum((traces[j] * coeffs[k - j] for j in range(1, k + 1)), zero)
        coeffs.append(acc * -pow(k, -1, mat.ctx.pM))
    return coeffs


def _det(m):
    """Permutation expansion, pruned where a partial product vanishes."""
    k = len(m)
    zero = m[0][0].zero()

    def expand(i, used, term, sign):
        if i == k:
            return term * sign
        total = zero
        for t in range(k):
            if t in used:
                continue
            prod = term * m[i][t]
            if not prod.is_zero():
                flips = sum(1 for u in used if u > t)  # inversions t adds
                total = total + expand(i + 1, used | {t}, prod, sign * (-1) ** flips)
        return total

    return expand(0, frozenset(), zero.constant(1), 1)


def _minor_series(mat, k_max):
    zero = mat.entries[0][0].zero()
    coeffs = [zero.constant(1)]
    for k in range(1, k_max + 1):
        acc = zero
        for subset in itertools.combinations(range(mat.N), k):
            acc = acc + _det([[mat.entries[w][i] for i in subset] for w in subset])
        coeffs.append(acc * (-1) ** k)
    return coeffs


def _gamma_ctx(p=11, a=1):
    return make_context(p, a, 10)


def test_gamma_low_coefficients():
    ctx = _gamma_ctx()
    lam_hat = ctx.teichmuller((3,))
    gam = ef_gamma_coeffs(ctx, 3, 2, lam_hat, 12, 8)
    # the operator's order; exponent k is pi^k
    assert all(g.order == 8 for g in gam)
    assert gam[0].terms == {0: ctx.one()}
    # gamma_d starts with pi * lambda_1 = pi
    assert min(gam[3].terms) == 1 and gam[3].terms[1] == ctx.one()
    # gamma_e starts with pi * lamhat
    assert min(gam[2].terms) == 1 and gam[2].terms[1] == lam_hat
    # non-representable index has empty series
    assert gam[1].terms == {} or min(gam[1].terms) > 0


def test_gamma_order_matches_phi():
    ctx = _gamma_ctx()
    lam_hat = ctx.teichmuller((5,))
    O = 9
    for (d, e) in [(3, 2), (3, 1), (5, 2)]:
        gam = ef_gamma_coeffs(ctx, d, e, lam_hat, 3 * d + 5, O)
        for n, g in enumerate(gam):
            phi = min_phi(n, d, e)
            if phi is INFINITY or phi >= O:
                assert g.is_zero()
            elif phi < ctx.p:  # leading factorials are units there
                assert g.t_valuation() == phi


def test_pi_series_arithmetic():
    ctx = _gamma_ctx()
    a = series_of(ctx, 6, {0: ctx.one(), 2: ctx.from_int(3)})  # 1 + 3 pi^2
    b = series_of(ctx, 6, {1: ctx.from_int(2)})  # 2 * pi
    assert (a * b).terms == {1: ctx.from_int(2), 3: ctx.from_int(6)}
    assert (a * b * b).terms == {2: ctx.from_int(4), 4: ctx.from_int(12)}
    assert (b * b * b * b * b * b).is_zero()  # pi^6 falls past the order
    assert (a + a).terms == {0: ctx.from_int(2), 2: ctx.from_int(6)}
    assert (a - a).is_zero() and (a - a).order == 6
    assert (a - b - b).terms == {0: ctx.one(), 1: ctx.from_int(-4), 2: ctx.from_int(3)}
    assert (a * 5).terms == (5 * a).terms == {0: ctx.from_int(5), 2: ctx.from_int(15)}
    assert (a * ctx.pM).is_zero() and (a * -1).terms == {0: ctx.from_int(-1), 2: ctx.from_int(-3)}
    # the A-form oracle's shift
    assert shift(a, 1).terms == {1: ctx.one(), 3: ctx.from_int(3)}
    assert shift(a, 4).terms == {4: ctx.one()}  # pi^6 falls past the order
    with pytest.raises(ValueError):
        shift(b, -2)
    assert a.t_valuation() == 0 and b.t_valuation() == 1
    assert type(b.t_valuation()) is int and a.zero().t_valuation() is None
    # series of another order, even one holding the same exponents, never mix
    for other in (series_of(ctx, 7, a.terms), series_of(ctx, 5, a.terms)):
        assert other != a
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError, match="orders"):
                op(a, other)
            with pytest.raises(ValueError, match="orders"):
                op(other, a)


def test_pi_series_equality():
    # np_T's trace check compares series with != : equal terms and order
    # make equal series, one term or the order apart makes them differ
    ctx = _gamma_ctx()
    terms = {0: ctx.one(), 2: ctx.from_int(3)}
    a, b = series_of(ctx, 6, terms), series_of(ctx, 6, dict(terms))
    assert a is not b and a == b and not a != b
    assert a != series_of(ctx, 6, {0: ctx.one(), 2: ctx.from_int(4)})
    assert a != series_of(ctx, 6, {0: ctx.one()})
    assert a != series_of(ctx, 7, terms)
    assert PiSeries(ctx, 6) == a.zero() != a
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("p, deg, M", [(7, 1, 11), (2, 2, 9), (11, 2, 6), (5, 3, 9), (3, 4, 8)])
def test_dot_matches_the_dict_oracle(p, deg, M):
    # the packed product against the term-pair walk over the dicts
    rng = random.Random(100 * p + deg)
    ctx = make_context(p, deg, M)
    order = 24
    cap, top = order, ctx.pM - 1
    zero = PiSeries(ctx, order)

    def series(exps, draw):
        return series_of(ctx, order, {n: ctx.elem([draw() for _ in range(deg)]) for n in exps})

    def rand():
        return rng.randrange(ctx.pM)

    pool = [zero, series(range(cap), lambda: top), series([0], rand),
            series([cap - 1], rand), series(range(cap // 2, cap), rand)]
    pool += [series(rng.sample(range(cap), rng.randrange(1, cap)), rand) for _ in range(6)]
    for _ in range(40):
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(6))]
        got = _dot(pairs, zero)
        assert got == dict_dot(pairs, zero)
        assert got.order == order
        assert all(not c.is_zero() and all(0 <= x < ctx.pM for x in c.coeffs)
                   for c in got.terms.values())
        assert [n for n, _ in got.packed] == sorted(got.terms)
        # a lower cap gives the full product restricted to it
        low_cap = rng.randrange(cap + 1)
        assert _dot(pairs, zero, low_cap) == \
            with_terms(got, {n: c for n, c in got.terms.items() if n < low_cap})
    # term pairs on both sides of the cap
    x, y = pool[1], series(range(0, cap, 5), rand)
    assert {na + nb < cap for na in x.terms for nb in y.terms} == {True, False}
    assert _dot([(x, y)], zero) == dict_dot([(x, y)], zero)
    # sums that vanish mod p^M, though not over the integers, leave no term
    assert _dot([(x, y), (x * -1, y)], zero).terms == {}
    low = with_terms(x, {n: c for n, c in x.terms.items() if n < cap // 2})
    half = _dot([(x, y), (low * -1, y)], zero)
    assert half == dict_dot([(x, y), (low * -1, y)], zero)
    assert min(half.terms) == cap // 2
    # empty series and no pairs
    assert _dot([], zero).terms == {} and _dot([(zero, x), (y, zero)], zero).terms == {}
    # the order is the default cap, and a cap above it raises
    assert _dot([(x, y)], zero, cap) == _dot([(x, y)], zero)
    with pytest.raises(ValueError, match="above the order"):
        _dot([(x, y)], zero, cap + 1)
    # another order raises, on either side of a pair
    for other in (series_of(ctx, order + 1, y.terms), PiSeries(ctx, order // 3).constant(1)):
        with pytest.raises(ValueError, match="orders"):
            _dot([(x, other)], zero)
        with pytest.raises(ValueError, match="orders"):
            _dot([(x, y), (other, x)], zero)


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_dot_headroom_is_certified(monkeypatch, deg):
    # with 2 headroom bits, 3 pairs of all-maximal coefficients fill the
    # slots as far as the width allows and stay exact; a 4th pair raises,
    # in the series product and in the group-ring one
    import twistnp.padic as padic

    monkeypatch.setattr(padic, "PAIR_BITS", 2)
    ctx = padic.ZqContext(5, deg, 7)  # a fresh context: its widths are computed now
    order = 18
    zero = PiSeries(ctx, order)
    full = series_of(ctx, order, {n: ctx.elem([ctx.pM - 1] * deg) for n in range(order)})
    assert _dot([(full, full)] * 3, zero) == dict_dot([(full, full)] * 3, zero)
    with pytest.raises(OverflowError, match="headroom"):
        _dot([(full, full)] * 4, zero)
    top = padic.RamifiedElem(ctx, [(ctx.pM - 1,) * deg] * (ctx.p - 1))
    square = top * top
    assert ctx.group_dot([(top, top)] * 3) == square + square + square
    with pytest.raises(OverflowError, match="headroom"):
        ctx.group_dot([(top, top)] * 4)


def test_psi_matrix_single_factor_case():
    # a = 1: entry (w, i) of the integral form is gamma_{p*w - i + u}, of
    # order O and exact to pi^O
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    N, O = 6, 12
    mat = psi_a_matrix(pr, N, O)
    ctx = mat.ctx
    lam_hat = ctx.teichmuller(
        __import__("twistnp.padic", fromlist=["poly_pow_mod"]).poly_pow_mod(
            ctx.generator, 1, ctx.modulus, 11))
    gam = ef_gamma_coeffs(ctx, 3, 2, lam_hat, 11 * N, O)
    for w in range(N):
        for i in range(N):
            midx = 11 * w - i
            if midx < 0:
                assert mat.entries[w][i].is_zero()
            else:
                assert mat.entries[w][i] == gam[midx]


def _pairwise_entries(params, N, order, ctx):
    """Entries F_{q*w - i + u} of the integral form as {exponent:
    coefficient} dicts of Z_q elements: each product of (gamma, rest)
    reduced and added on its own, with no packing."""
    p, a, q, u = params.p, params.a, params.q, params.u
    prod = _ProductCoeffs(params, ctx, order)
    gammas = [[g.terms for g in row] for row in prod.gammas]

    def add(x, y):
        out = dict(x)
        for t, c in y.items():
            out[t] = out[t] + c if t in out else c
        return {t: c for t, c in out.items() if not c.is_zero()}

    def mul(x, y):
        out = {}
        for s, b in x.items():
            for t, c in y.items():
                if s + t < order:
                    out = add(out, {s + t: b * c})
        return out

    @functools.lru_cache(maxsize=None)
    def level(j, m):
        pj = p**j
        if j == a - 1:
            n = m // pj
            return gammas[j][n] if m % pj == 0 and n <= prod.gamma_max else {}
        total = {}
        for n in range(min(m // pj, prod.gamma_max) + 1):
            total = add(total, mul(gammas[j][n], level(j + 1, m - n * pj)))
        return total

    return [[level(0, q * w - i + u) if q * w - i + u >= 0 else {} for i in range(N)]
            for w in range(N)]


@pytest.mark.parametrize("tup", [(11, 2, 3, 2, 3, 1, 1),  # q = 121, two factors
                                 (43, 1, 5, 2, 1, 1, 1),  # the strict instance
                                 (17, 1, 7, 6, 2, 1, 1)],
                         ids=lambda x: str(x).replace(" ", ""))
def test_psi_matrix_matches_pairwise_accumulation(tup):
    p, a, d, e, c, mu, lam = tup
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    N, O = auto_sizes(pr, d)
    mat = psi_a_matrix(pr, N, O)
    want = _pairwise_entries(pr, N, O, mat.ctx)
    for w in range(N):
        for i in range(N):
            got = mat.entries[w][i]
            assert got.order == O
            assert got.terms == want[w][i], (w, i)


@pytest.mark.parametrize("tup", [(11, 2, 3, 2, 3, 1, 1),  # q = 121, two factors
                                 (43, 1, 5, 2, 1, 1, 1),  # the strict instance
                                 (17, 1, 7, 6, 2, 1, 1)],
                         ids=lambda x: str(x).replace(" ", ""))
def test_integral_form_keeps_the_series_and_traces(tup):
    # B = Delta A Delta^-1 against A itself, carried at the padded order in
    # units of pi^(1/d): c_0..c_{n_top} and Tr(A^k) agree as whole series
    # below pi^O, B's exponent k standing for A's d*k
    p, a, d, e, c, mu, lam = tup
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    N, O = auto_sizes(pr, d)
    B, A = psi_a_matrix(pr, N, O), psi_a_matrix_padded(pr, N, O)
    assert A.entries[0][0].order > d * O
    # A's entries do carry fractional powers of pi
    assert any(n % d for row in A.entries for x in row for n in x.terms)

    def below(series):
        return {n: c for n, c in series.terms.items() if n < d * O}

    def scaled(series):
        return {d * n: c for n, c in series.terms.items()}

    got, want = char_series(B, d), char_series(A, d)
    got_tr, want_tr = power_traces(got)[1:], power_traces(want)[1:]
    # the cycles of a minor or a trace close, so A's carry only multiples of d
    assert all(n % d == 0 for x in want + want_tr for n in x.terms)
    assert [scaled(x) for x in got] == [below(x) for x in want]
    assert any(x.terms != below(x) for x in want)  # the padding is not empty
    assert [scaled(x) for x in got_tr] == [below(x) for x in want_tr]


@pytest.mark.parametrize("tup", [(2, 1, 3, 1, 1), (2, 2, 3, 1, 3), (3, 1, 4, 1, 1),
                                 (3, 2, 4, 1, 4), (11, 1, 3, 2, 1), (11, 2, 3, 2, 3)],
                         ids=lambda x: str(x).replace(" ", ""))
def test_direct_traces_match_the_full_square(tup):
    # A^2 cut below what Tr(A^3) and Tr(A^4) read, against the whole A^2
    p, a, d, e, c = tup
    mat = psi_a_matrix(Params(p=p, a=a, d=d, e=e, c=c, mu=1, lam_index=min(1, p**a - 2)), 6, 8)
    assert any(x.is_zero() for row in mat.entries for x in row)
    for k_max in (3, 4, 6):
        assert direct_traces(mat, k_max) == direct_traces_full(mat, k_max), k_max


def test_direct_traces_skip_a_square_entry_read_by_no_trace():
    # row 2 of A is zero, so A2[i][2] meets only zeros in Tr(A^3) and
    # Tr(A^4) though it is not zero itself; a high entry cuts its partner
    rng = random.Random(4)
    ctx = make_context(5, 2, 6)
    order, N = 24, 5
    cap = order

    def series(lo):
        return series_of(ctx, order, {n: ctx.elem([rng.randrange(1, ctx.pM), 1])
                                      for n in range(lo, cap) if rng.random() < 0.4})

    A = [[PiSeries(ctx, order) if w == 2 else series(rng.choice([0, 3, cap - 2]))
          for i in range(N)] for w in range(N)]
    mat = PsiMatrix(params=None, ctx=ctx, N=N, O=order, entries=A)
    assert not _dot([(A[0][t], A[t][2]) for t in range(N)], A[2][2]).is_zero()
    for k_max in (3, 4, 6):
        assert direct_traces(mat, k_max) == direct_traces_full(mat, k_max), k_max


def test_psi_matrix_entry_orders_nonnegative():
    for (p, a, d, e, c, mu, lam) in [(11, 1, 3, 2, 1, 1, 2), (11, 2, 3, 2, 3, 1, 7)]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
        N, O = auto_sizes(pr, 3)
        mat = psi_a_matrix(pr, N, O)
        for w in range(N):
            for i in range(N):
                v = mat.entries[w][i].t_valuation()
                if v is not None:
                    assert v >= 0
                    assert v >= F(p - 1, d) * w - F(i, d)


def test_char_series_low_coefficients_and_minors_agreement():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    mat = psi_a_matrix(pr, 6, 12)
    coeffs = char_series(mat, 3)
    assert coeffs[0].terms == {0: mat.ctx.one()}
    assert coeffs[1] == _product_traces(mat, 1)[1] * -1
    assert coeffs == _minor_series(mat, 3)
    assert coeffs == _newton_series(mat, _product_traces(mat, 3))


@functools.lru_cache(maxsize=None)
def _np_T(tup, n_max):
    p, a, d, e, c, mu, lam = tup
    return np_T(Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam), n_max)


# (p, a, d, e, c, mu, lambda), n_max, largest minor order checked.  The first
# five have p > n_max; the last three lie past the reach of the Newton
# identities, and at N = 32 the (7,1,3,2) minors of order 4 would take minutes.
ORACLE_GRID = [
    ((11, 1, 3, 2, 1, 1, 1), 3, 3),
    ((11, 1, 3, 2, 1, 1, 1), 6, 4),
    ((13, 1, 3, 1, 1, 1, 2), 3, 3),
    ((11, 2, 3, 2, 3, 1, 3), 3, 3),  # q = 121
    ((43, 1, 5, 2, 1, 1, 1), 5, 4),  # the strict instance
    ((3, 1, 4, 1, 1, 1, 1), 4, 4),
    ((5, 1, 6, 1, 1, 1, 1), 6, 4),
    ((7, 1, 3, 2, 1, 1, 1), 8, 3),
]


@pytest.mark.parametrize("tup, n_max, k_minors", ORACLE_GRID,
                         ids=lambda x: str(x).replace(" ", ""))
def test_char_series_matches_oracles(tup, n_max, k_minors):
    res = _np_T(tup, n_max)
    mat, coeffs = res.matrix, res.coeffs
    assert len(coeffs) == n_max + 1
    # the same recurrence with the dict product, coefficient by coefficient
    zero, views = mat.entries[0][0].zero(), {}
    assert coeffs == berkowitz(mat.entries, n_max, lambda pairs: dict_dot(pairs, zero, views),
                               zero.constant(1), zero)
    assert coeffs[:k_minors + 1] == _minor_series(mat, k_minors)
    if tup[0] > n_max:
        traces = _product_traces(mat, n_max)
        assert coeffs == _newton_series(mat, traces)
        # the traces read off the series are the repeated-product traces
        assert mat.traces[1:] == traces[1:]
        assert [mat.trace_power(k) for k in range(1, n_max + 1)] == mat.traces[1:]


@pytest.mark.parametrize("tup, n_max", [((3, 1, 4, 1, 1, 1, 1), 4),
                                        ((5, 1, 6, 1, 1, 1, 1), 6),
                                        ((7, 1, 3, 2, 1, 1, 1), 8)])
def test_np_T_past_p_lies_above_hodge(tup, n_max):
    # n_max >= p: the series never divides, so these are computable
    res = _np_T(tup, n_max)
    p, a, d, e, c, mu, lam = tup
    H = hodge_polygon(Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam), n_max)
    assert lies_above(res.polygon, H)
    assert res.polygon.value(d) == H.value(d)


# (p, a, d, e, c, mu, lambda), n_max: the strict instance, the exceptional
# (17,7,6,2), a = 2 at c = 3 and a = 3 at c = 9, p = 3 and p = 5, and
# n_max off a multiple of d
SIZING_GRID = [
    ((43, 1, 5, 2, 1, 1, 1), 5),
    ((17, 1, 7, 6, 2, 1, 1), 7),
    ((7, 1, 3, 2, 1, 1, 1), 8),
    ((11, 2, 3, 2, 3, 1, 57), 3),
    ((7, 3, 3, 2, 9, 1, 1), 3),
    ((3, 1, 4, 1, 1, 1, 1), 4),
    ((5, 2, 3, 1, 4, 1, 1), 3),
    ((11, 1, 4, 3, 2, 1, 1), 2),
]


@pytest.mark.parametrize("tup, n_max", SIZING_GRID, ids=lambda x: str(x).replace(" ", ""))
def test_chord_sizing_keeps_the_polygon_of_the_P_sizing(tup, n_max):
    # sized by the Hodge chord below n_top, NP_T is the hull read off the
    # operator sized by P(n_top), and there c_{n_top} has the Hodge order
    p, a, d, e, c, mu, lam = tup
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    want, top, (N_P, O_P) = np_T_by_P(pr, n_max)
    n_top = -(-n_max // d) * d
    assert top == hodge_polygon(pr, n_top).value(n_top) * a * (p - 1)
    res = _np_T(tup, n_max)
    assert res.polygon == want
    assert (res.matrix.N, res.matrix.O) == auto_sizes(pr, n_max)
    assert res.matrix.N <= N_P and res.matrix.O <= O_P


def test_chord_sizes_against_the_P_sizes():
    q121 = Params(p=11, a=2, d=3, e=2, c=3, mu=1, lam_index=57)
    assert (auto_sizes(q121, 3), sizes_by_P(q121, 3)) == ((9, 26), (12, 36))
    p7 = Params(p=7, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    assert (auto_sizes(p7, 8), sizes_by_P(p7, 8)) == ((33, 64), (40, 78))


def test_np_T_checks_the_top_point(monkeypatch):
    # the top point (3, HP(3)) is 10 in pi-units; at O = 40 c_3 is read
    import twistnp.dwork as dwork

    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    real = dwork.hodge_order

    def moved_top(by):
        def hodge(params, n):
            return real(params, n) + (by if n == 3 else 0)
        return hodge

    assert np_T(pr, 3, O=40).coeffs[3].t_valuation() == 10
    monkeypatch.setattr(dwork, "hodge_order", moved_top(1))
    with pytest.raises(DworkConsistencyError, match="c_3 has order 10 mod pi\\^40"):
        np_T(pr, 3, O=40)
    # a top point of 6 sizes O at 10, which leaves c_3 unread, yet 6 < 10
    monkeypatch.setattr(dwork, "hodge_order", moved_top(-4))
    with pytest.raises(DworkConsistencyError, match="c_3 has order None mod pi\\^10"):
        np_T(pr, 3)


def test_trace_power_extends_the_series():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    mat = psi_a_matrix(pr, 6, 12)
    assert mat.trace_power(4) == _product_traces(mat, 4)[4]
    assert len(mat.traces) == 5
    # the traces do not depend on sizes whose tail rows clear the order:
    # the polygon's (5, 14) operator and the least (6, 8) one agree below
    # pi^8
    pr = Params(p=13, a=1, d=3, e=2, c=1, mu=1, lam_index=0)
    big, small = psi_a_matrix(pr, 5, 14), psi_a_matrix(pr, 6, 8)
    for k in range(1, 5):
        assert {n: c for n, c in big.trace_power(k).terms.items() if n < 8} == \
            small.trace_power(k).terms, k


def test_truncation_certificate():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    with pytest.raises(TruncationError, match="tail rows reach below order 16 for N=2; "
                                              "suggest N=6, O=16"):
        np_T(pr, 3, N=2, O=16)
    with pytest.raises(TruncationError, match="working order 3 below required 13; "
                                              "suggest N=5, O=13"):
        np_T(pr, 3, N=8, O=3)
    N, O = auto_sizes(pr, 3)
    res = np_T(pr, 3, N, O)
    assert (res.matrix.N, res.matrix.O) == (N, O)
    # the trace check refuses a hand-built operator on the same condition:
    # (p-1)*N = 30 < d*O = 33, so row 3's terms reach below pi^11
    with pytest.raises(TruncationError, match="tail rows reach below order 11 for N=3"):
        trace_consistency(psi_a_matrix(pr, 3, 11), 1, 4)


@pytest.mark.parametrize("tup", [(11, 1, 4, 3, 2, 1, 1), (5, 1, 3, 1, 2, 1, 1)],
                         ids=lambda x: str(x).replace(" ", ""))
def test_np_T_below_d_restricts_the_polygon_to_2d(tup):
    # the polygon on [0, n] may turn at vertices past n, up to the next
    # multiple of d, where NP_T meets the Hodge polygon
    p, a, d, e, c, mu, lam = tup
    pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    whole = np_T(pr, 2 * d).polygon
    for n in range(1, d):
        assert np_T(pr, n).polygon == whole.restrict(n), n


def test_np_T_p11_anchor_and_stability():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    res = np_T(pr, 3)
    assert res.polygon.slopes() == [F(0), F(2, 5), F(3, 5)]
    P = lower_bound_polygon(pr, 3)
    assert res.polygon.values == P.values
    # growing N (by ten, and doubling) must reproduce the same certified data
    for bigger in (res.matrix.N + 10, 2 * res.matrix.N):
        res2 = np_T(pr, 3, N=bigger, O=res.matrix.O)
        assert res2.polygon.values == res.polygon.values
        for c1, c2 in zip(res.coeffs, res2.coeffs):
            assert {k: v for k, v in c1.terms.items() if k < res.matrix.O} == \
                {k: v for k, v in c2.terms.items() if k < res.matrix.O}


def test_np_T_matches_classical_route():
    for (p, a, d, e, c, mu, lam) in [(11, 1, 3, 2, 1, 1, 1), (13, 1, 3, 1, 1, 1, 2)]:
        pr = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
        res = np_T(pr, d)
        np_classical = newton_polygon_classical(pr)
        assert lies_above(np_classical, res.polygon)
        P = lower_bound_polygon(pr, d)
        assert lies_above(res.polygon, P)


def test_aggregate_bound_on_char_series():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=3)
    res = np_T(pr, 3)
    assert compare_aggregate_bound(pr, res.coeffs)


def test_entry_valuation_bound():
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    assert entry_valuation_bound(pr, 0, 0, 1) == 0
    assert entry_valuation_bound(pr, 0, 1, 1) is INFINITY  # -1 not representable
    pr2 = Params(p=11, a=2, d=3, e=2, c=3, mu=1)
    for (i, j, k) in [(0, 0, 1), (1, 2, 2), (2, 1, 1), (3, 0, 2)]:
        v = entry_valuation_bound(pr2, i, j, k)
        assert v is INFINITY or v >= F(-(pr2.d - 1), pr2.d)


def test_entry_bound_below_observed_orders():
    # one-step bound transposed to the power-q matrix: check on a = 1 where
    # the single-step and power-q operators coincide; the integral form's
    # entry (w, i) is A's times pi^((w-i)/d), so its bound moves by that
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=2)
    mat = psi_a_matrix(pr, 6, 12)
    for w in range(6):
        for i in range(6):
            v = mat.entries[w][i].t_valuation()
            bound = entry_valuation_bound(pr, w, i, 1)
            if bound is INFINITY:
                assert v is None or v >= mat.O
            elif v is not None:
                assert v >= bound + F(w - i, pr.d)


def test_pi_of_T_reversion():
    for p in (5, 11):
        order = 8
        r = pi_of_T_coeffs(p, order)
        lam = artin_hasse_coeffs(p, order)
        # compose E(pi(T)) - 1 and check it equals T through T^order
        comp = [F(0)] * (order + 1)
        power = [F(1)] + [F(0)] * order
        for n in range(1, order + 1):
            new = [F(0)] * (order + 1)
            for i, a in enumerate(power):
                if a:
                    for jdx, b in enumerate(r[: order + 1]):
                        if i + jdx <= order and b:
                            new[i + jdx] += a * b
            power = new
            for idx in range(order + 1):
                comp[idx] += lam[n] * power[idx]
        assert comp[0] == 0 and comp[1] == 1
        assert all(comp[j] == 0 for j in range(2, order + 1))


def test_pi_series_to_T_roundtrip():
    ctx = make_context(5, 1, 8)
    # series pi^2 as a T-series: pi = T - T^2/2 + ... squared
    s = series_of(ctx, 8, {2: ctx.one()})
    coeffs = pi_series_to_T(s, 5)
    r = pi_of_T_coeffs(5, 5)
    want2 = r[1] * r[1]
    assert coeffs[2] == ctx.from_int(want2.numerator)
    assert coeffs[0].is_zero() and coeffs[1].is_zero()


@pytest.mark.parametrize("p", [5, 11])
def test_substitute_T_inverts_the_reversion(p):
    # the T-expansion of pi^i from the reversion oracle, at T = E(pi) - 1,
    # is pi^i again
    order = 8
    ctx = make_context(p, 1, 10)
    for i in range(order + 1):
        t_coeffs = pi_series_to_T(series_of(ctx, order + 1, {i: ctx.one()}), order)
        got = substitute_T(t_coeffs, order)
        assert [c.coeffs[0] for c in got] == [int(n == i) for n in range(order + 1)], i


def test_trace_consistency_p11(monkeypatch):
    import twistnp.dwork as dwork

    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    mats = [np_T(pr, 3).matrix, psi_a_matrix(pr, 4, 8), psi_a_matrix(pr, 4, 6)]
    assert (mats[0].N, mats[0].O) == (5, 13)

    def no_operator(*args, **kwargs):
        raise AssertionError("the check built an operator")

    monkeypatch.setattr(dwork, "psi_a_matrix", no_operator)
    # the check reads the traces below pi^7 of the operator it is given:
    # the polygon's, or the least one whose order clears J + 1; an order
    # of J + 1 or less caps the order checked
    for mat, checked in zip(mats, (6, 6, 5)):
        reports = trace_consistency(mat, k_max=3, J=6)
        for rep in reports:
            assert rep.ok and rep.checked_order == checked


def test_trace_consistency_reads_the_params_of_its_operator():
    # at (11,3,2) the traces of lambda indices 1 and 2 differ below the
    # checked order, so each operator passes only against its own sums
    ops = [np_T(Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=lam), 3).matrix
           for lam in (1, 2)]
    low = [{n: c for n, c in mat.trace_power(1).terms.items() if n <= 6} for mat in ops]
    assert low[0] != low[1]
    for mat in ops:
        assert [r.ok for r in trace_consistency(mat, k_max=1, J=6)] == [True]


def test_trace_consistency_twisted_b2():
    pr = Params(p=11, a=2, d=3, e=2, c=3, mu=1, lam_index=11)
    reports = trace_consistency(np_T(pr, 3).matrix, k_max=1, J=4)
    assert all(r.ok for r in reports)


def test_trace_consistency_reports_a_mismatch(monkeypatch):
    import twistnp.dwork as dwork

    real = dwork.exp_sum_Tadic

    def off_by_one(*args, **kwargs):
        s = real(*args, **kwargs)
        if len(s.coeffs) > 1:
            s.coeffs[1] = s.coeffs[1] + 1
        return s

    monkeypatch.setattr(dwork, "exp_sum_Tadic", off_by_one)
    pr = Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1)
    mat = np_T(pr, 3).matrix
    # the T^1 coefficient is off, so the check fails from order 1 on; the
    # change of variable is triangular, so order 0 still agrees
    for J, ok in ((0, True), (1, False), (4, False)):
        reports = trace_consistency(mat, k_max=2, J=J)
        assert [(r.ok, r.checked_order) for r in reports] == [(ok, J), (ok, J)]


def test_non_unit_case_tadic_polygon():
    # d=5, e=2, p=43: the integral constant vanishes, so the triple
    # equality must fail.  Here the T-adic polygon still attains the
    # bound; the classical polygon is the route that escapes (checked in
    # the acceptance grid), which the one-sided sandwich permits.
    from twistnp.hasse import hasse_certificate

    pr = Params(p=43, a=1, d=5, e=2, c=1, mu=1, lam_index=1)
    cert = hasse_certificate(pr)
    assert cert.H == 0 and cert.p_divides_H and cert.h_valuation == 1
    res = np_T(pr, 5)
    P = lower_bound_polygon(pr, 5)
    assert res.polygon.values == P.values
    reports = trace_consistency(res.matrix, k_max=2, J=5)
    assert all(r.ok for r in reports)
