"""Tests for the assignment-problem layer, with exhaustive oracles."""

from __future__ import annotations

import itertools
import math
import random

from oracles import (
    R_value,
    bfC_exhaustive,
    compute_bfC,
    exhaustive_C,
    max_matching,
    perm_sign,
    r_value,
)
from twistnp.combinatorics import (
    CombInstance,
    C_value_reduced,
    compute_C,
    cost_matrix,
    optimal_perm_sets,
    tight_edges,
)


def test_cost_examples():
    inst = CombInstance(p=5, d=3, e=2, t=0)
    assert cost_matrix(inst, 1)[1][1] == 2
    inst11 = CombInstance(p=11, d=3, e=2, t=0)
    assert cost_matrix(inst11, 2)[2][1] == 0
    # j congruent to t at i = 0 gives cost 0
    inst_t = CombInstance(p=7, d=4, e=3, t=5)
    assert cost_matrix(inst_t, 1)[0][5 % 4] == 0


def test_compute_C_examples():
    inst = CombInstance(p=5, d=3, e=2, t=0)
    assert compute_C(inst, -1) == 0
    assert compute_C(inst, 1) == 2
    assert optimal_perm_sets(inst, 1)[1] == frozenset({(0, 1), (1, 0)})
    inst11 = CombInstance(p=11, d=3, e=2, t=0)
    assert compute_C(inst11, 2) == 0
    assert (0, 2, 1) in optimal_perm_sets(inst11, 2)[1]


def test_compute_C_frozen_p11_low_indices():
    # frozen from exhaustive enumeration; these feed the p=11 polygon anchor
    inst = CombInstance(p=11, d=3, e=2, t=0)
    assert [compute_C(inst, n) for n in (-1, 0, 1, 2)] == [0, 0, 2, 0]


def test_compute_bfC_examples():
    inst = CombInstance(p=11, d=3, e=2, t=0)
    assert [R_value(inst, i, 0) for i in range(3)] == [0, 1, 2]
    assert [r_value(inst, i, 0) for i in range(3)] == [0, 1, 2]
    assert compute_bfC(inst, 2, 0) == 2
    assert compute_bfC(inst, -1, 0) == 0
    # single index, condition fails
    inst2 = CombInstance(p=5, d=3, e=2, t=0)
    assert R_value(inst2, 0, 0) + r_value(inst2, 0, 0) < 3
    assert compute_bfC(inst2, 0, 0) == 0


def test_xy_decomposition_examples():
    inst = CombInstance(p=5, d=3, e=2, t=0)
    x, y = inst.decompose(1, 0)
    assert (x, y) == (1, 1)
    assert inst.decompose(0, 0) == inst.decompose(0, 0)
    assert inst.decompose(0, 0) == (0, 0)
    # p = 1 mod d with d | t: along the diagonal y = 0
    inst13 = CombInstance(p=13, d=3, e=2, t=6)
    for i in range(4):
        x, y = inst13.decompose(i, i)
        assert y == 0
        assert x == (12 * i + 6) // 3


def test_xy_decomposition_defining_identity():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.choice([2, 3, 4, 5, 7, 12])
        e = rng.choice([e for e in range(1, d) if __import__("math").gcd(d, e) == 1])
        inst = CombInstance(p=rng.choice([2, 3, 5, 11, 97]), d=d, e=e,
                            t=rng.randint(-50, 50))
        i, j = rng.randint(0, 10), rng.randint(0, 10)
        x, y = inst.decompose(i, j)
        assert inst.d * x + inst.e * y == inst.p * i - j + inst.t
        assert 0 <= y < inst.d


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    for tau in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if tau[i] > tau[j])
        assert perm_sign(tau) == (-1) ** inv


def test_solver_matches_exhaustive():
    rng = random.Random(1)
    for _ in range(40):
        d = rng.choice([3, 4, 5])
        e = rng.choice([e for e in range(1, d) if __import__("math").gcd(d, e) == 1])
        inst = CombInstance(p=rng.choice([7, 11, 13, 29]), d=d, e=e,
                            t=rng.randint(-5, 25))
        for n in range(-1, 7):
            assert compute_C(inst, n) == exhaustive_C(inst, n)[0]


def test_matching_against_exhaustive():
    inst = CombInstance(p=13, d=5, e=3, t=4)
    for n in range(-1, 6):
        for alpha in range(5):
            assert compute_bfC(inst, n, alpha) == bfC_exhaustive(inst, n, alpha)


def test_optimal_perm_sets_at_ten_indices():
    # n + 1 = 10: past any exhaustive enumeration, every member is optimal
    for inst in (CombInstance(p=11, d=3, e=2, t=0), CombInstance(p=23, d=11, e=10, t=2)):
        best = compute_C(inst, 9)
        mat = cost_matrix(inst, 9)
        circle, bullet = optimal_perm_sets(inst, 9)
        assert bullet and circle <= bullet
        for tau in bullet:
            assert sorted(tau) == list(range(10))
            assert sum(mat[i][tau[i]] for i in range(10)) == best
    inst = CombInstance(p=11, d=3, e=2, t=0)
    assert compute_C(inst, 9) == compute_C(inst, 9 - 3)


def test_prop21_identity_and_periodicity_spot():
    for (p, d, e, t) in [(11, 3, 2, 0), (13, 3, 1, 5), (29, 4, 3, 7), (11, 5, 2, 3)]:
        inst = CombInstance(p=p, d=d, e=e, t=t)
        for n in range(-1, 2 * d + 1):
            C = compute_C(inst, n)
            for alpha in range(d):
                total = sum(R_value(inst, i, alpha) + r_value(inst, i, alpha)
                            for i in range(n + 1))
                assert C == total - d * compute_bfC(inst, n, alpha)
            assert compute_C(inst, n + d) == C
            assert C_value_reduced(inst, n) == C
            for alpha in range(d):
                assert compute_bfC(inst, n + d, alpha) == d - 1 + compute_bfC(inst, n, alpha)
        # C_{t, d*m - 1} = 0
        for m in range(3):
            assert C_value_reduced(inst, d * m - 1) == 0


def test_optimal_perm_sets_examples():
    # p = 1 mod d and t = 0 mod d: identity is the unique optimum
    inst = CombInstance(p=13, d=3, e=2, t=6)
    circle, bullet = optimal_perm_sets(inst, 1)
    assert bullet == frozenset({(0, 1)})
    assert circle == bullet
    # singleton case at n = 0 with representable target
    inst0 = CombInstance(p=11, d=3, e=2, t=0)
    circle, bullet = optimal_perm_sets(inst0, 0)
    assert circle == bullet == frozenset({(0,)})
    # both permutations optimal
    inst5 = CombInstance(p=5, d=3, e=2, t=0)
    _, bullet = optimal_perm_sets(inst5, 1)
    assert bullet == frozenset({(0, 1), (1, 0)})


def test_tight_edges_support_exactly_the_optimal_set():
    rng = random.Random(5)
    cases = [(CombInstance(p=43, d=5, e=2, t=t), n) for t in range(5) for n in range(4)]
    for _ in range(40):
        d = rng.choice([3, 4, 5, 6, 7])
        e = rng.choice([e for e in range(1, d) if math.gcd(d, e) == 1])
        inst = CombInstance(p=rng.choice([7, 11, 13, 17]), d=d, e=e, t=rng.randint(0, 20))
        cases.append((inst, rng.randint(0, d - 2)))
    for inst, n in cases:
        best, optimal = exhaustive_C(inst, n)
        edges = tight_edges(inst, n)
        # tight edges may exceed the union of the optimal permutations'
        # edges; the permutations they support may not
        assert {(i, tau[i]) for tau in optimal for i in range(n + 1)} <= edges
        supported = frozenset(tau for tau in itertools.permutations(range(n + 1))
                              if all((i, tau[i]) in edges for i in range(n + 1)))
        assert supported == optimal
        assert optimal_perm_sets(inst, n)[1] == optimal
        assert compute_C(inst, n) == best


def test_bullet_equals_count_maximizers_for_two_alphas():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.choice([3, 4, 5])
        e = rng.choice([e for e in range(1, d) if __import__("math").gcd(d, e) == 1])
        inst = CombInstance(p=rng.choice([7, 11, 13]), d=d, e=e, t=rng.randint(0, 12))
        n = rng.randint(0, 4)
        _, bullet = optimal_perm_sets(inst, n)
        for alpha in (0, 1):
            target = compute_bfC(inst, n, alpha)
            R = [R_value(inst, i, alpha) for i in range(n + 1)]
            r = [r_value(inst, j, alpha) for j in range(n + 1)]
            maximizers = frozenset(
                tau for tau in itertools.permutations(range(n + 1))
                if sum(1 for i in range(n + 1) if R[i] + r[tau[i]] >= d) == target
            )
            assert bullet == maximizers


def _dominant_first_element(a: list[int], b: list[int]) -> bool:
    return a[0] >= b[0] and all(bi > a[0] or bi <= b[0] for bi in b[1:])


def _match_count(a, b, indices) -> int:
    best = 0
    idx = list(indices)
    for tau in itertools.permutations(idx):
        best = max(best, sum(1 for pos, i in enumerate(idx) if a[i] >= b[tau[pos]]))
    return best


def test_matching_drops_dominant_element_property():
    rng = random.Random(11)
    found = 0
    while found < 60:
        m = rng.randint(1, 4)
        a = [rng.randint(0, 6) for _ in range(m + 1)]
        b = [rng.randint(0, 6) for _ in range(m + 1)]
        if not _dominant_first_element(a, b):
            continue
        found += 1
        full = _match_count(a, b, range(m + 1))
        reduced = _match_count(a, b, range(1, m + 1))
        assert full == 1 + reduced


def test_matching_of_tiled_sequences_property():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 3)
        dd = rng.randint(1, 3)
        base_a = [rng.randint(0, 5) for _ in range(m)]
        base_b = [rng.randint(0, 5) for _ in range(m)]
        a = base_a * dd
        b = base_b * dd
        tiled = _match_count(a, b, range(m * dd))
        single = _match_count(base_a, base_b, range(m))
        assert tiled == dd * single


def test_max_matching_basic():
    # complete bipartite 3x3 restricted to a diagonal
    assert max_matching([[0], [1], [2]], 3) == 3
    assert max_matching([[0], [0], [0]], 3) == 1
    assert max_matching([[], [], []], 3) == 0
