"""The four benchmark workloads, built from a seed.

A workload is a list of operations, each one ``twistnp`` command line run
through ``cli.main`` with ``--jobs 1``.  One repetition ("round") runs the
whole list in one fresh interpreter.  The seed picks lambda indices, and
primes inside a fixed residue class, so it never changes how much work a
round does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("strict-enum", "lambda-grid", "tadic-route", "hasse-highd")

# A tadic-route round lasts about 5 s, so a run takes the median of at least
# three of them; the other workloads' rounds last about 20 s each.
MIN_ROUNDS = {"tadic-route": 3}

# 43^5 = 147008443 field elements must fit the enumeration budget.
STRICT_BUDGET = 200_000_000

# hasse-highd: for each (d, c), primes are drawn from one residue class
# mod c*d inside [PRIME_LO, PRIME_HI).  Every prime in that window lies
# above c*(d^2-d+1), so the e = d-1 tuples are forced-equality cases.
HASSE_CLASSES = {(9, 1): 2, (9, 2): 5, (10, 1): 3, (10, 2): 3}
HASSE_SMALL_E = {9: 2, 10: 3}
PRIME_LO, PRIME_HI = 190, 400

# Valid input that the program refuses today: the certificate needs
# minimizer sets for n+1 = 10 > ENUMERATION_CAP and exits 2.
KNOWN_FAULT = ["--jobs", "1", "hasse", "--p", "23", "--d", "11", "--e", "10"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    out: str | None = None  # JSONL path of a verify operation
    known_fault: bool = False


def _primes_in_class(r: int, m: int) -> list[int]:
    out = []
    for n in range(PRIME_LO, PRIME_HI):
        if n % m == r and all(n % f for f in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def build(name: str, seed: int, out_dir: str) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    jobs = ("--jobs", "1")
    if name == "strict-enum":
        lam = rng.randrange(42)
        out = f"{out_dir}/strict.jsonl"
        return [Op("strict", jobs + ("--budget", str(STRICT_BUDGET), "--out", out,
                                     "verify", "--d", "5", "--e", "2", "--c", "1",
                                     "--primes", "43", "--lam-policy", f"fixed:{lam}"),
                   out=out)]
    if name == "lambda-grid":
        # Every lambda of every tuple, so the seed has nothing to pick here.
        out = f"{out_dir}/grid.jsonl"
        return [Op("grid", jobs + ("--out", out, "verify", "--d", "3,4", "--e", "all",
                                   "--c", "1,2", "--prime-count", "2",
                                   "--lam-policy", "all"), out=out)]
    if name == "tadic-route":
        lam = rng.randrange(120)
        tup = ("--d", "3", "--e", "2", "--c", "3")
        out = f"{out_dir}/tadic.jsonl"
        return [
            Op("dwork", jobs + ("dwork", "--p", "11", "--a", "2") + tup
               + ("--lam", str(lam), "--trace-k", "2", "--J", "4", "--sandwich")),
            Op("classical", jobs + ("--out", out, "verify") + tup
               + ("--mu", "1", "--primes", "11", "--lam-policy", f"fixed:{lam}"), out=out),
        ]
    if name == "hasse-highd":
        ops = []
        for (d, c), r in HASSE_CLASSES.items():
            primes = sorted(rng.sample(_primes_in_class(r, c * d), 2))
            for e in (HASSE_SMALL_E[d], d - 1):
                for p in primes:
                    ops.append(Op(f"hasse-p{p}-d{d}-e{e}-c{c}",
                                  jobs + ("hasse", "--p", str(p), "--d", str(d),
                                          "--e", str(e), "--c", str(c))))
        ops.append(Op("hasse-p23-d11-e10-c1", tuple(KNOWN_FAULT), known_fault=True))
        return ops
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
