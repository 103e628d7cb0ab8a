"""Assignment-problem layer: optimal permutation sums over residue costs.

The central quantity is the minimum of sum_i y_i over permutations tau of
{0..n}, where p*i - tau(i) + t = d*x_i + e*y_i with 0 <= y_i < d, that is
y_i = rbar(inv(e)*(p*i - tau(i) + t)) for rbar the minimal non-negative
residue mod d.  One Hungarian solve gives that optimum together with an
optimal dual (u, v); the edges with cost_ij = u_i + v_j ("tight" edges)
carry exactly the optimal permutations, which is all the Hasse layer needs.
"""

from __future__ import annotations

import math

from .core_arith import check_exponents, decompose


class CombInstance:
    """Parameters (p, d, e, t) of one assignment instance.

    ``p`` is usually prime but only enters through its residue classes, so
    any positive integer is accepted (the Hasse-constant path substitutes a
    residue for p).
    """

    __slots__ = ("p", "d", "e", "t")

    def __init__(self, p: int, d: int, e: int, t: int):
        if p < 1:
            raise ValueError(f"p must be positive, got {p}")
        check_exponents(d, e)
        self.p, self.d, self.e, self.t = p, d, e, t

    def decompose(self, i: int, j: int) -> tuple[int, int]:
        """``core_arith.decompose`` of the target p*i - j + t."""
        return decompose(self.p * i - j + self.t, self.d, self.e)


def cost_matrix(inst: CombInstance, n: int) -> list[list[int]]:
    """Costs y in [0, d) of the targets p*i - j + t = d*x + e*y, i, j <= n."""
    return [[inst.decompose(i, j)[1] for j in range(n + 1)] for i in range(n + 1)]


def _dual(mat: list[list[int]]) -> tuple[list[int], list[int]]:
    """An optimal dual (u, v) of the assignment problem on a square matrix.

    Kuhn's Hungarian method (Naval Res. Logist. Q. 2, 1955), O(m^3) for m
    rows, in the shortest-augmenting-path form: rows join one at a time,
    ``row_of`` holds the current matching by column, and the extra column
    m stands for the row being added.  On return u_i + v_j <= mat[i][j]
    everywhere, with equality on an optimal assignment, so sum(u) + sum(v)
    is the optimum.
    """
    m = len(mat)
    u = [0] * m
    v = [0] * (m + 1)
    row_of = [-1] * (m + 1)
    for i in range(m):
        row_of[m] = i
        j0 = m
        slack = [math.inf] * (m + 1)
        way = [m] * (m + 1)
        used = [False] * (m + 1)
        while row_of[j0] != -1:
            used[j0] = True
            i0 = row_of[j0]
            delta, j1 = math.inf, m
            for j in range(m):
                if not used[j]:
                    cur = mat[i0][j] - u[i0] - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0 != m:  # augment along the path back to the new row
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    return u, v[:m]


def compute_C(inst: CombInstance, n: int) -> int:
    """Exact minimum of the permutation cost sum over {0..n}.

    n = -1 returns 0 by convention.  No periodicity shortcut is applied
    here so that the period identity can be tested against two
    independent computations.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    u, v = _dual(cost_matrix(inst, n))
    return sum(u) + sum(v)


def tight_edges(inst: CombInstance, n: int) -> frozenset[tuple[int, int]]:
    """Edges (i, j) of {0..n} with cost_ij = u_i + v_j for an optimal dual.

    By complementary slackness every optimal permutation uses only these
    edges, and every permutation made of them costs sum(u) + sum(v), the
    optimum: the optimal permutations are exactly the perfect matchings
    of the tight edges (which may include edges on no optimal permutation).
    """
    mat = cost_matrix(inst, n)
    u, v = _dual(mat)
    return frozenset((i, j) for i in range(n + 1) for j in range(n + 1)
                     if mat[i][j] == u[i] + v[j])


def C_value_reduced(inst: CombInstance, n: int) -> int:
    """C_{t,n} via the period-d identity C_{t,n+d} = C_{t,n}.

    Reduces n into [-1, d-2] first, so arbitrarily large indices stay cheap.
    The identity itself is validated without this shortcut in the test
    suite.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    m = (n + 1) % inst.d - 1
    return compute_C(inst, m)


def representable(inst: CombInstance, i: int, j: int) -> bool:
    """Whether p*i - j + t lies in the monoid dN + eN."""
    return inst.decompose(i, j)[0] >= 0


def optimal_perm_sets(
    inst: CombInstance, n: int
) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]:
    """(S_circle, S_bullet) for the instance at index n.

    S_bullet is the set of permutations attaining the optimum, enumerated
    depth first as the perfect matchings of ``tight_edges``; by the residue
    identity cost = sum(R) + sum(r) - d * (overflow count), these are
    exactly the overflow-count maximizers for every alpha.  S_circle
    additionally requires every p*i - tau(i) + t to be representable.
    """
    adj = [[] for _ in range(n + 1)]
    for i, j in sorted(tight_edges(inst, n)):
        adj[i].append(j)
    bullet = []
    tau: list[int] = []
    used = [False] * (n + 1)

    def extend(i: int) -> None:
        if i == n + 1:
            bullet.append(tuple(tau))
            return
        for j in adj[i]:
            if not used[j]:
                used[j] = True
                tau.append(j)
                extend(i + 1)
                tau.pop()
                used[j] = False

    extend(0)
    circle = frozenset(
        tau for tau in bullet
        if all(representable(inst, i, tau[i]) for i in range(n + 1))
    )
    return circle, frozenset(bullet)
