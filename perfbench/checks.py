"""Output checkers of the benchmark, and their self-test.

The checks test properties the method must have and agreement between the
program's independent routes, never copies of an earlier output:

* every operation exits 0 (the known fault of hasse-highd may exit 2), each
  record has status ``ok`` and no violations;
* the Newton polygon lies on or above the Hodge polygon, which is computed
  here from its closed form, and meets it at n = d;
* per workload: the strict instance has p | H and NP strictly above P;
  lambda-grid has both verdicts, one verdict per tuple, every lambda once,
  and equality where e = d-1 forces it; the T-adic route passes its trace
  check, sits in the sandwich and equals the classical polygon when the
  Hasse product is a unit; the Hasse certificates are consistent, H only
  depends on p mod cd, and p does not divide H in the forced case.

``self_test`` feeds the checkers corrupted copies of a round's real outputs
and returns the corruptions that went unnoticed.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from fractions import Fraction


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _values(slopes: list[str]) -> list[Fraction]:
    vals = [Fraction(0)]
    for s in slopes:
        vals.append(vals[-1] + _frac(s))
    return vals


def hodge_values(p: int, a: int, d: int, c: int, mu: int) -> list[Fraction]:
    """HP(n) = n(n-1)/(2d) + n * s_p(u) / (a d (p-1)) for n = 0..d,
    with u = (p^a - 1) mu / c and s_p the base-p digit sum over a digits."""
    q = p**a
    u = (q - 1) // c * mu % (q - 1)
    digit_sum = 0
    for _ in range(a):
        digit_sum += u % p
        u //= p
    shift = Fraction(digit_sum, a * d * (p - 1))
    return [Fraction(n * (n - 1), 2 * d) + n * shift for n in range(d + 1)]


def _check_above_hodge(where: str, np_vals, p, a, d, c, mu) -> list[str]:
    hp = hodge_values(p, a, d, c, mu)
    if len(np_vals) != d + 1:
        return [f"{where}: polygon has {len(np_vals) - 1} slopes, expected d={d}"]
    out = []
    if any(x < h for x, h in zip(np_vals, hp)):
        out.append(f"{where}: Newton polygon dips below the Hodge polygon")
    if np_vals[d] != hp[d]:
        out.append(f"{where}: Newton and Hodge polygons differ at n=d")
    return out


def _forced(rec) -> bool:
    d, c = rec["d"], rec["c"]
    return rec["e"] == d - 1 and rec["p"] > c * (d * d - d + 1)


def check_record(rec: dict) -> list[str]:
    """Checks every verify record must pass."""
    key = rec.get("key", "?")
    if rec.get("status") != "ok":
        return [f"{key}: status {rec.get('status')!r}"]
    out = []
    if rec.get("violations") != []:
        out.append(f"{key}: violations {rec.get('violations')}")
    p, a, d, e, c, mu = (rec[k] for k in ("p", "a", "d", "e", "c", "mu"))
    np_vals = _values(rec["np_slopes"])
    P_vals = _values(rec["P_slopes"])
    out += _check_above_hodge(key, np_vals, p, a, d, c, mu)
    if len(P_vals) != len(np_vals) or any(x < y for x, y in zip(np_vals, P_vals)):
        out.append(f"{key}: NP does not lie on or above P")
        return out
    equal = np_vals == P_vals
    if rec["equal"] != equal or rec["lies_above"] is not True:
        out.append(f"{key}: equal/lies_above flags disagree with the slopes")
    # the enumeration route and the Hasse certificate must agree
    if not (equal == rec["h_unit"] == (not rec["p_divides_H"])):
        out.append(f"{key}: polygon equality, h_unit and p | H disagree")
    if rec["H_mod_p"] != int(rec["H"]) % p or rec["p_divides_H"] != (rec["H_mod_p"] == 0):
        out.append(f"{key}: H, H mod p and p_divides_H disagree")
    if _forced(rec) and not equal:
        out.append(f"{key}: e = d-1 with p > c(d^2-d+1) must give equality")
    if not rec.get("timings", {}).get("total_s", 0) > 0:
        out.append(f"{key}: no positive timings.total_s")
    return out


def _check_verify_op(op) -> list[str]:
    recs = op["records"] or []
    out = []
    summary = (op["doc"] or {}).get("summary", {})
    if summary.get("total") != len(recs) or summary.get("violations") != 0 \
            or summary.get("errors") != 0 or summary.get("skipped_budget") != 0:
        out.append(f"{op['label']}: summary {summary} does not match {len(recs)} clean records")
    for rec in recs:
        out += check_record(rec)
    return out


def _check_strict(ops) -> list[str]:
    (op,) = ops
    recs = op["records"]
    if len(recs) != 1:
        return [f"strict: {len(recs)} records, expected 1"]
    rec = recs[0]
    out = []
    if (rec["p"], rec["a"], rec["d"], rec["e"], rec["c"]) != (43, 1, 5, 2, 1):
        out.append("strict: record is not the (43, 5, 2, 1) instance")
    if not rec["p_divides_H"] or rec["h_unit"] is not False:
        out.append("strict: expected p | H and a non-unit Hasse product")
    if not any(x > y for x, y in zip(_values(rec["np_slopes"]), _values(rec["P_slopes"]))):
        out.append("strict: NP never rises strictly above P")
    return out


def _check_grid(ops) -> list[str]:
    (op,) = ops
    out = []
    by_tuple = defaultdict(list)
    for rec in op["records"]:
        if rec.get("status") == "ok":
            by_tuple[(rec["p"], rec["a"], rec["d"], rec["e"], rec["c"], rec["mu"])].append(rec)
    shapes = defaultdict(set)
    for (p, a, d, e, c, mu), recs in sorted(by_tuple.items()):
        shapes[(d, e, c)].add(p)
        if p <= (d - e) * (2 * d - 1):
            out.append(f"grid: p={p} is below the monotonicity bound for d={d}, e={e}")
        lams = sorted(r["lambda_index"] for r in recs)
        if lams != list(range(p**a - 1)):
            out.append(f"grid: tuple {(p, a, d, e, c, mu)} lacks some lambda or repeats one")
        if len({r["equal"] for r in recs}) != 1:
            out.append(f"grid: lambdas of {(p, a, d, e, c, mu)} get different verdicts")
    want = {(d, e, c) for d in (3, 4) for e in range(1, d) if math.gcd(d, e) == 1
            for c in (1, 2)}
    if set(shapes) != want or any(len(ps) != 2 for ps in shapes.values()):
        out.append("grid: records do not cover two primes of every (d, e, c)")
    verdicts = {r["equal"] for recs in by_tuple.values() for r in recs}
    if verdicts != {True, False}:
        out.append("grid: records do not show both directions of the criterion")
    return out


def _check_tadic(ops) -> list[str]:
    dw, classical = ops
    doc = dw["doc"]
    recs = classical["records"]
    if len(recs) != 1:
        return [f"tadic: {len(recs)} classical records, expected 1"]
    rec = recs[0]
    p, a, d, c, mu = rec["p"], rec["a"], rec["d"], rec["c"], rec["mu"]
    out = []
    if (p, a, d, rec["e"], c) != (11, 2, 3, 2, 3) or doc["params"] != rec["key"]:
        out.append("tadic: dwork and verify did not run the same tuple")
    if not doc["certificate"]["ok"] or doc["lies_above_lower_bound"] is not True:
        out.append("tadic: truncation certificate or lower bound failed")
    reports = doc["trace_consistency"]
    if [r["k"] for r in reports] != [1, 2] or not all(r["ok"] for r in reports):
        out.append("tadic: trace-formula reports missing or failing")
    if doc["sandwich"] != {"P_below_npT": True, "npT_below_classical": True}:
        out.append("tadic: sandwich inequality fails")
    npT = _values(doc["np_T_slopes"])
    out += _check_above_hodge("tadic np_T", npT, p, a, d, c, mu)
    np_vals = _values(rec["np_slopes"])
    P_vals = _values(rec["P_slopes"])
    if len(npT) != len(np_vals) or any(not (lo <= t <= hi)
                                       for lo, t, hi in zip(P_vals, npT, np_vals)):
        out.append("tadic: NP_T is not between P and the classical polygon")
    if rec["h_unit"] and npT != np_vals:
        out.append("tadic: unit Hasse product but NP_T differs from the classical polygon")
    return out


def _check_hasse(ops) -> list[str]:
    out = []
    H_of_class = defaultdict(set)
    for op in ops:
        doc = op["doc"]
        if doc is None:
            continue
        argv = op["argv"]
        p, d, e = (int(argv[argv.index(f) + 1]) for f in ("--p", "--d", "--e"))
        c = int(argv[argv.index("--c") + 1]) if "--c" in argv else 1
        label = op["label"]
        H = int(doc["H"])
        if not doc["verdicts_consistent"] or doc["h_unit"] == doc["p_divides_H"]:
            out.append(f"{label}: Hasse verdicts inconsistent")
        if doc["p_divides_H"] != (H % p == 0) or doc["pp"] != p % (c * d):
            out.append(f"{label}: H, p | H and pp disagree")
        vals = [h[3] for h in doc["h"]]
        if len(vals) != d - 1 or doc["h_unit"] != all(v == "0" for v in vals):
            out.append(f"{label}: h factors do not match the unit verdict")
        if e == d - 1 and p > c * (d * d - d + 1) and doc["p_divides_H"]:
            out.append(f"{label}: forced-equality case has p | H")
        H_of_class[(d, e, c, p % (c * d))].add(H)
    for cls, values in H_of_class.items():
        if len(values) != 1:
            out.append(f"hasse: H differs inside the residue class {cls}")
    return out


CHECKS = {
    "strict-enum": _check_strict,
    "lambda-grid": _check_grid,
    "tadic-route": _check_tadic,
    "hasse-highd": _check_hasse,
}


def check_round(workload: str, ops: list[dict]) -> list[str]:
    """Problems found in one round's outputs; empty when all is well."""
    out = []
    for op in ops:
        allowed = (0, 2) if op["known_fault"] else (0,)
        if op["rc"] not in allowed:
            out.append(f"{op['label']}: exit code {op['rc']}: {op['stderr'][-300:]}")
    if out:
        return out
    for op in ops:
        if op["records"] is not None:
            out += _check_verify_op(op)
    return out + CHECKS[workload](ops)


# ---------------------------------------------------------------------------
# self-test: each corruption must be caught


def _first_record(ops):
    return next(op for op in ops if op["records"])["records"][0]


def _c_exit_code(ops):
    ops[0]["rc"] = 1


def _c_status(ops):
    _first_record(ops)["status"] = "error:precision:corrupted"


def _c_violation(ops):
    _first_record(ops)["violations"] = ["corrupted"]


def _c_last_slope(ops):
    rec = _first_record(ops)
    x = _frac(rec["np_slopes"][-1]) + Fraction(1, 7)
    rec["np_slopes"][-1] = f"{x.numerator}/{x.denominator}"


def _c_equal_flag(ops):
    rec = _first_record(ops)
    rec["equal"] = not rec["equal"]


def _c_unit_flag(ops):
    rec = _first_record(ops)
    rec["h_unit"] = not rec["h_unit"]


def _c_strict_H(ops):
    rec = _first_record(ops)
    rec.update(H="1", H_mod_p=1, p_divides_H=False, h_unit=True)


def _c_grid_drop(ops):
    ops[0]["records"].pop()
    ops[0]["doc"]["summary"]["total"] -= 1


def _c_grid_verdict(ops):
    """One lambda of a p | H tuple claims equality, consistently."""
    rec = next(r for r in ops[0]["records"] if r["p_divides_H"])
    rec.update(np_slopes=list(rec["P_slopes"]), equal=True, h_unit=True,
               p_divides_H=False, H_mod_p=1, H=str(int(rec["H"]) + 1))


def _c_tadic_trace(ops):
    ops[0]["doc"]["trace_consistency"][-1]["ok"] = False


def _c_tadic_sandwich(ops):
    ops[0]["doc"]["sandwich"]["npT_below_classical"] = False


def _c_tadic_npT(ops):
    slopes = ops[0]["doc"]["np_T_slopes"]
    slopes[0], slopes[-1] = slopes[-1], slopes[0]


def _c_hasse_verdict(ops):
    ops[0]["doc"]["verdicts_consistent"] = False


def _c_hasse_H(ops):
    doc = ops[0]["doc"]
    doc["H"] = str(int(doc["H"]) + 1)


def _c_hasse_forced(ops):
    op = next(op for op in ops if op["argv"][op["argv"].index("--e") + 1] == "9")
    op["doc"].update(p_divides_H=True, h_unit=False)


_VERIFY_CORRUPTIONS = (_c_status, _c_violation, _c_last_slope, _c_equal_flag, _c_unit_flag)
CORRUPTIONS = {
    "strict-enum": (_c_exit_code,) + _VERIFY_CORRUPTIONS + (_c_strict_H,),
    "lambda-grid": (_c_exit_code,) + _VERIFY_CORRUPTIONS + (_c_grid_drop, _c_grid_verdict),
    "tadic-route": (_c_exit_code,) + _VERIFY_CORRUPTIONS
    + (_c_tadic_trace, _c_tadic_sandwich, _c_tadic_npT),
    "hasse-highd": (_c_exit_code, _c_hasse_verdict, _c_hasse_H, _c_hasse_forced),
}


def self_test(workload: str, ops: list[dict]) -> list[str]:
    """Names of the corruptions of these outputs that the checkers miss."""
    missed = []
    for corrupt in CORRUPTIONS[workload]:
        bad = copy.deepcopy(ops)
        try:
            corrupt(bad)
        except (LookupError, StopIteration):  # the outputs lack what it corrupts
            missed.append(f"{corrupt.__name__} (not applicable)")
            continue
        if not check_round(workload, bad):
            missed.append(corrupt.__name__)
    return missed
