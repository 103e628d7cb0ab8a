"""Exhaustive oracles for the assignment layer: (n+1)! enumerations that
the Hungarian solve, its tight edges and the matching count are checked
against."""

from __future__ import annotations

import itertools

from twistnp.combinatorics import CombInstance, R_value, cost_matrix, r_value


def exhaustive_C(inst: CombInstance, n: int) -> tuple[int, frozenset[tuple[int, ...]]]:
    """The optimum over permutations of {0..n} and the permutations attaining it."""
    mat = cost_matrix(inst, n)
    totals = {tau: sum(mat[i][tau[i]] for i in range(n + 1))
              for tau in itertools.permutations(range(n + 1))}
    best = min(totals.values())
    return best, frozenset(tau for tau, s in totals.items() if s == best)


def bfC_exhaustive(inst: CombInstance, n: int, alpha: int) -> int:
    """Brute-force version of compute_bfC."""
    if n == -1:
        return 0
    R = [R_value(inst, i, alpha) for i in range(n + 1)]
    r = [r_value(inst, j, alpha) for j in range(n + 1)]
    return max(
        sum(1 for i in range(n + 1) if R[i] + r[tau[i]] >= inst.d)
        for tau in itertools.permutations(range(n + 1))
    )
