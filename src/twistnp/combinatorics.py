"""Assignment-problem layer: optimal permutation sums over residue costs.

The central quantity is the minimum of sum_i rbar(inv(e)*(p*i - tau(i) + t))
over permutations tau of {0..n}, where rbar is the minimal non-negative
residue mod d.  Small instances are enumerated exhaustively; larger values
go through an exact linear-sum-assignment solver, which also finds the
edges (i, j) that lie on some optimal permutation.  The companion maximum
(number of index pairs whose residue columns overflow d) is a maximum
cardinality bipartite matching.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core_arith import min_residue, mod_inverse

#: Largest n+1 for which minimizer sets are enumerated ((n+1)! permutations),
#: as ``v_exponent`` and the test oracles do; the Hasse certificate does not.
ENUMERATION_CAP = 9

#: Largest n+1 for which plain value queries stay exhaustive by default.
_AUTO_EXHAUSTIVE = 6


class CapExceededError(ValueError):
    """Raised when a minimizer-set request exceeds the enumeration cap."""


@dataclass(frozen=True)
class CombInstance:
    """Parameters (p, d, e, t) of one assignment instance.

    ``p`` is usually prime but only enters through its residue classes, so
    any positive integer is accepted (the Hasse-constant path substitutes a
    residue for p).
    """

    p: int
    d: int
    e: int
    t: int
    e_inv: int = field(init=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if not (self.d > self.e >= 1):
            raise ValueError(f"need d > e >= 1, got d={self.d}, e={self.e}")
        if math.gcd(self.d, self.e) != 1:
            raise ValueError(f"need gcd(d, e) = 1, got {self.d}, {self.e}")
        object.__setattr__(self, "e_inv", mod_inverse(self.e, self.d))


@dataclass(frozen=True)
class OptimumResult:
    """Optimal value C_{t,n} together with the attaining permutations.

    ``minimizers`` is None when only the value was requested or the cap was
    exceeded; it is a frozenset of image tuples otherwise.
    """

    n: int
    value: int
    minimizers: frozenset[tuple[int, ...]] | None = None


@dataclass(frozen=True)
class XYDecomposition:
    x: int
    y: int


def cost(inst: CombInstance, i: int, j: int) -> int:
    """Cost entry rbar(inv(e) * (p*i - j + t)) in [0, d)."""
    return min_residue(inst.e_inv * (inst.p * i - j + inst.t), inst.d)


def cost_matrix(inst: CombInstance, n: int) -> list[list[int]]:
    return [[cost(inst, i, j) for j in range(n + 1)] for i in range(n + 1)]


def R_value(inst: CombInstance, i: int, alpha: int) -> int:
    return min_residue(inst.e_inv * (inst.p * i + alpha), inst.d)


def r_value(inst: CombInstance, i: int, alpha: int) -> int:
    return min_residue(inst.e_inv * (inst.t - alpha - i), inst.d)


def xy_decomposition(inst: CombInstance, i: int, j: int) -> XYDecomposition:
    """Unique (x, y) with d*x + e*y = p*i - j + t and 0 <= y < d.

    x may be negative; it is non-negative exactly when the target lies in
    the monoid generated by d and e.
    """
    k = inst.p * i - j + inst.t
    y = min_residue(inst.e_inv * k, inst.d)
    num = k - inst.e * y
    assert num % inst.d == 0
    return XYDecomposition(x=num // inst.d, y=y)


def perm_sign(tau: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(tau)
    for start in range(len(tau)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = tau[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _exhaustive_C(inst: CombInstance, n: int, want_minimizers: bool) -> OptimumResult:
    best = None
    argmin: set[tuple[int, ...]] = set()
    mat = cost_matrix(inst, n)
    for tau in itertools.permutations(range(n + 1)):
        s = sum(mat[i][tau[i]] for i in range(n + 1))
        if best is None or s < best:
            best = s
            argmin = {tau}
        elif s == best and want_minimizers:
            argmin.add(tau)
    return OptimumResult(n=n, value=best,
                         minimizers=frozenset(argmin) if want_minimizers else None)


def _lsa_value(mat: np.ndarray) -> int:
    rows, cols = linear_sum_assignment(mat)
    return int(mat[rows, cols].sum())


def _solver_C(inst: CombInstance, n: int) -> int:
    return _lsa_value(np.array(cost_matrix(inst, n), dtype=np.int64))


def compute_C(inst: CombInstance, n: int, want_minimizers: bool = False) -> OptimumResult:
    """Exact minimum of the permutation cost sum over {0..n}.

    n = -1 returns 0 by convention.  Minimizer sets are only available up
    to the enumeration cap; the value alone has no size limit.  No
    periodicity shortcut is applied here so that the period identity can be
    tested against two independent computations.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    if n == -1:
        return OptimumResult(n=-1, value=0,
                             minimizers=frozenset({()}) if want_minimizers else None)
    if want_minimizers:
        if n + 1 > ENUMERATION_CAP:
            raise CapExceededError(
                f"minimizer sets need (n+1)! enumeration; n+1={n + 1} exceeds cap "
                f"{ENUMERATION_CAP} (value alone is still available)")
        return _exhaustive_C(inst, n, True)
    if n + 1 <= _AUTO_EXHAUSTIVE:
        return _exhaustive_C(inst, n, False)
    return OptimumResult(n=n, value=_solver_C(inst, n), minimizers=None)


def C_value_reduced(inst: CombInstance, n: int) -> int:
    """C_{t,n} via the period-d identity C_{t,n+d} = C_{t,n}.

    Reduces n into [-1, d-2] first, so arbitrarily large indices stay cheap.
    The identity itself is validated without this shortcut in the test
    suite.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    m = (n + 1) % inst.d - 1
    return compute_C(inst, m).value


def _max_matching(adj: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size by augmenting paths."""
    match_right = [-1] * n_right

    def try_augment(i: int, visited: list[bool]) -> bool:
        for j in adj[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_right[j] == -1 or try_augment(match_right[j], visited):
                match_right[j] = i
                return True
        return False

    size = 0
    for i in range(len(adj)):
        if try_augment(i, [False] * n_right):
            size += 1
    return size


def compute_bfC(inst: CombInstance, n: int, alpha: int) -> int:
    """Maximal number of i in {0..n} with R_i + r_{tau(i)} >= d over tau.

    Solved as a maximum-cardinality bipartite matching on the pairs that
    satisfy the inequality.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    if n == -1:
        return 0
    R = [R_value(inst, i, alpha) for i in range(n + 1)]
    r = [r_value(inst, j, alpha) for j in range(n + 1)]
    adj = [[j for j in range(n + 1) if R[i] + r[j] >= inst.d] for i in range(n + 1)]
    return _max_matching(adj, n + 1)


def bfC_exhaustive(inst: CombInstance, n: int, alpha: int) -> int:
    """Brute-force version of compute_bfC, for oracle tests."""
    if n == -1:
        return 0
    R = [R_value(inst, i, alpha) for i in range(n + 1)]
    r = [r_value(inst, j, alpha) for j in range(n + 1)]
    return max(
        sum(1 for i in range(n + 1) if R[i] + r[tau[i]] >= inst.d)
        for tau in itertools.permutations(range(n + 1))
    )


def representable(inst: CombInstance, i: int, j: int) -> bool:
    """Whether p*i - j + t lies in the monoid dN + eN."""
    return xy_decomposition(inst, i, j).x >= 0


def optimal_edges(inst: CombInstance, n: int) -> frozenset[tuple[int, int]]:
    """Edges (i, j) used by some optimal permutation of {0..n}: those where
    cost_ij plus the optimum of the minor without row i and column j is the
    full optimum."""
    if n == 0:
        return frozenset({(0, 0)})
    mat = np.array(cost_matrix(inst, n), dtype=np.int64)
    best = _lsa_value(mat)
    return frozenset(
        (i, j) for i in range(n + 1) for j in range(n + 1)
        if mat[i, j] + _lsa_value(np.delete(np.delete(mat, i, 0), j, 1)) == best
    )


def optimal_perm_sets(
    inst: CombInstance, n: int
) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]:
    """(S_circle, S_bullet) for the instance at index n.

    S_bullet is the set of permutations attaining the optimum; by the
    residue identity cost = sum(R) + sum(r) - d * (overflow count), these
    are exactly the overflow-count maximizers for every alpha.  S_circle
    additionally requires every p*i - tau(i) + t to be representable.
    """
    res = compute_C(inst, n, want_minimizers=True)
    bullet = res.minimizers
    circle = frozenset(
        tau for tau in bullet
        if all(representable(inst, i, tau[i]) for i in range(n + 1))
    )
    return circle, bullet
