"""Command-line surface: single-tuple commands plus grid sweeps.

Subcommands
-----------
polygon   assignment lower bound and Hodge bound, slopes included
hasse     Hasse-number certificate and the integral constant
lfunc     classical L-polynomial valuations and Newton polygon
dwork     T-adic polygon, truncation certificate, trace-formula check
verify    run a grid, append one record per tuple, enforce the theorems
sweep     like verify, but records only (no theorem gate)

Exit codes: 0 ok, 1 theorem violation, 2 bad input, 3 precision or
truncation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import sympy

from .dwork import TruncationError, np_T, trace_consistency
from .hasse import hasse_certificate
from .lfunction import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    l_polynomial,
    newton_polygon_classical,
)
from .padic import PrecisionError
from .polygon import Params, Polygon, hodge_polygon, lies_above, lower_bound_polygon
from .polygon import record_key

SCHEMA = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly_json(poly: Polygon, corners_only=False) -> dict:
    return poly.to_json_dict(corners_only=corners_only)


def _slopes_json(poly: Polygon) -> list[str]:
    return [_frac_str(s) for s in poly.slopes()]


def _emit(obj, args) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _params_from_args(args) -> Params:
    return Params(p=args.p, a=args.a, d=args.d, e=args.e, c=args.c,
                  mu=args.mu, lam_index=args.lam)


def _add_param_flags(sub):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", type=int, default=1)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--e", type=int, required=True)
    sub.add_argument("--c", type=int, default=1)
    sub.add_argument("--mu", type=int, default=1)
    sub.add_argument("--lam", type=int, default=1,
                     help="discrete log of the lower coefficient")


def cmd_polygon(args) -> int:
    params = _params_from_args(args)
    n_max = args.n_max or 2 * params.d
    P = lower_bound_polygon(params, n_max)
    H = hodge_polygon(params, n_max)
    if args.format == "csv":
        which = {"lower": P, "hodge": H}[args.which]
        sys.stdout.write("n,slope_num,slope_den\n")
        for n, s in enumerate(which.slopes()):
            sys.stdout.write(f"{n},{s.numerator},{s.denominator}\n")
        return EXIT_OK
    _emit({
        "schema": SCHEMA,
        "params": params.key(),
        "hodge": _poly_json(H),
        "hodge_slopes": _slopes_json(H),
        "lower_bound": _poly_json(P),
        "lower_bound_slopes": _slopes_json(P),
        "meets_hodge_on_d_multiples": all(
            P.value(params.d * m) == H.value(params.d * m)
            for m in range(n_max // params.d + 1)),
    }, args)
    return EXIT_OK


def cmd_hasse(args) -> int:
    params = _params_from_args(args)
    cert = hasse_certificate(params)
    out = {"schema": SCHEMA, "params": params.key()}
    out.update(cert.to_json_dict())
    out["verdicts_consistent"] = cert.verdicts_consistent()
    out["pp"] = cert.twist.pp
    _emit(out, args)
    return EXIT_OK


def cmd_lfunc(args) -> int:
    params = _params_from_args(args)
    data = l_polynomial(params, args.precision, args.budget)
    np_poly = newton_polygon_classical(params, data=data)
    out = {
        "schema": SCHEMA,
        "params": params.key(),
        "precision": data.M,
        "l_valuations_pi_units": [None if v is None else _frac_str(Fraction(v))
                                  for v in data.valuations],
        "newton_polygon": _poly_json(np_poly),
        "newton_slopes": _slopes_json(np_poly),
    }
    if args.n_max and args.n_max > params.d:
        from .lfunction import extend_newton_polygon

        out["extended_polygon"] = _poly_json(
            extend_newton_polygon(np_poly, args.n_max), corners_only=False)
    _emit(out, args)
    return EXIT_OK


def cmd_dwork(args) -> int:
    params = _params_from_args(args)
    n_max = args.n_max or params.d
    res = np_T(params, n_max, N=args.big_n, O=args.big_o, M=args.precision)
    reports = []
    if args.trace_k > 0:
        reports = trace_consistency(params, args.trace_k, args.J,
                                    N=res.verdict.N if args.big_n else None,
                                    M=args.precision)
    P = lower_bound_polygon(params, n_max)
    out = {
        "schema": SCHEMA,
        "params": params.key(),
        "certificate": {"N": res.verdict.N, "O": res.verdict.O, "ok": True},
        "np_T": _poly_json(res.polygon),
        "np_T_slopes": _slopes_json(res.polygon),
        "lies_above_lower_bound": lies_above(res.polygon, P).ok,
        "trace_consistency": [
            {"k": r.k, "checked_order": r.checked_order, "ok": r.ok}
            for r in reports
        ],
    }
    if args.sandwich:
        np_classical = newton_polygon_classical(params, args.precision, args.budget)
        out["sandwich"] = {
            "P_below_npT": lies_above(res.polygon, P).ok,
            "npT_below_classical": lies_above(np_classical,
                                              res.polygon.restrict(params.d)).ok,
        }
    _emit(out, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid sweeps


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def grid_tuples(args):
    """All valid parameter tuples of the requested grid, in sorted order."""
    tuples = []
    for d in _parse_int_list(args.d):
        if args.e == "all":
            e_list = [e for e in range(1, d) if math.gcd(d, e) == 1]
        elif args.e == "max":
            e_list = [d - 1]
        else:
            e_list = [e for e in _parse_int_list(args.e) if 0 < e < d and math.gcd(d, e) == 1]
        for e in e_list:
            for c in _parse_int_list(args.c):
                mus = [m for m in range(1, c + 1) if math.gcd(m, c) == 1] \
                    if args.mu == "all" else _parse_int_list(args.mu)
                for mu in mus:
                    if math.gcd(mu, c) != 1:
                        continue
                    primes = _grid_primes(args, d, e, c)
                    for p in primes:
                        if d % p == 0:
                            continue
                        b = 1 if c == 1 else sympy.n_order(p, c)
                        a = b * args.a_multiple
                        q = p**a
                        if (q - 1) % c != 0:
                            continue
                        lam_list = _lambda_indices(args, q)
                        for lam in lam_list:
                            tuples.append((p, a, d, e, c, mu, lam))
    return tuples


def _grid_primes(args, d, e, c) -> list[int]:
    if args.primes:
        return _parse_int_list(args.primes)
    bound = (d - e) * (2 * d - 1)
    if not args.allow_small_p:
        lo = max(args.prime_min, bound + 1, c + 1)
    else:
        lo = max(args.prime_min, 2)
    out = []
    p = sympy.nextprime(lo - 1)
    while len(out) < args.prime_count:
        if math.gcd(p, c * d) == 1 and d % p != 0:
            out.append(p)
        p = sympy.nextprime(p)
    return out


def _lambda_indices(args, q) -> list[int]:
    policy = args.lam_policy
    if policy == "all":
        return list(range(q - 1))
    if policy.startswith("first:"):
        k = int(policy.split(":")[1])
        return list(range(min(k, q - 1)))
    if policy.startswith("fixed:"):
        return [int(policy.split(":")[1]) % (q - 1)]
    raise ValueError(f"bad lambda policy {policy!r}")


def sweep_record(tup, n_max=None, precision=None, budget=DEFAULT_BUDGET,
                 with_dwork=False, trace_k=0) -> dict:
    """Compute the full record for one parameter tuple."""
    p, a, d, e, c, mu, lam = tup
    t0 = time.monotonic()
    params = Params(p=p, a=a, d=d, e=e, c=c, mu=mu, lam_index=lam)
    key = params.key()
    rec = {
        "schema": SCHEMA, "key": key,
        "p": p, "a": a, "d": d, "e": e, "c": c, "mu": mu,
        "lambda_index": lam, "b": params.b, "u": params.u,
        "status": "ok",
    }
    field_size = p**(a * d)
    if field_size > budget:
        rec["status"] = "skipped:budget"
        rec["needed_budget"] = field_size
        return rec
    n_top = n_max or d
    try:
        P = lower_bound_polygon(params, 3 * d)
        H = hodge_polygon(params, 3 * d)
        cert = hasse_certificate(params)
        data = l_polynomial(params, precision, budget)
        np_poly = newton_polygon_classical(params, data=data)
    except (PrecisionError, TruncationError) as exc:
        rec["status"] = f"error:precision:{exc}"
        return rec
    except BudgetExceededError as exc:
        rec["status"] = "skipped:budget"
        rec["needed_budget"] = exc.needed
        return rec
    rec.update({
        "precision": data.M,
        "H": str(cert.H),
        "H_mod_p": cert.H % p,
        "p_divides_H": cert.p_divides_H,
        "h_unit": cert.h_unit,
        "h_valuation": "inf" if cert.h_valuation == math.inf else str(cert.h_valuation),
        "np_slopes": _slopes_json(np_poly),
        "P_slopes": _slopes_json(P.restrict(n_top)),
        "hodge_slopes": _slopes_json(H.restrict(n_top)),
        "equal": np_poly.values == P.restrict(d).values,
        "lies_above": lies_above(np_poly, P).ok,
    })
    violations = []
    if params.monotone_bound_ok():
        if not rec["lies_above"]:
            violations.append("NP does not lie above the lower bound")
        if rec["equal"] != rec["h_unit"]:
            violations.append("polygon equality disagrees with unit verdict")
        if rec["h_unit"] == rec["p_divides_H"]:
            violations.append("unit verdict disagrees with divisibility of H")
        if not P.is_convex():
            violations.append("lower-bound polygon not convex")
    if e == d - 1 and p > c * (d * d - d + 1) and not rec["equal"]:
        violations.append("forced-equality case failed")
    diff_bound = Fraction((d - e) * (d - 1) ** 2, d * (p - 1))
    if max(P.value(n) - H.value(n) for n in range(3 * d + 1)) > diff_bound:
        violations.append("gap to the Hodge bound exceeds its limit")
    if with_dwork:
        try:
            res = np_T(params, d, M=precision)
            rec["np_T_slopes"] = _slopes_json(res.polygon)
            rec["routes_agree"] = res.polygon.values == np_poly.values
            sandwich = (lies_above(res.polygon, P.restrict(d)).ok
                        and lies_above(np_poly, res.polygon).ok)
            rec["sandwich"] = sandwich
            if not sandwich:
                violations.append("T-adic polygon escapes the sandwich")
            if trace_k > 0:
                reports = trace_consistency(params, trace_k, min(6, p - 2),
                                            M=precision)
                rec["trace_consistency"] = all(r.ok for r in reports)
                if not rec["trace_consistency"]:
                    violations.append("trace formula mismatch")
        except (TruncationError, PrecisionError) as exc:
            rec["status"] = f"error:precision:{exc}"
            return rec
    rec["violations"] = violations
    rec["timings"] = {"total_s": round(time.monotonic() - t0, 3)}
    return rec


def _record_worker(payload):
    tup, kwargs = payload
    try:
        return sweep_record(tup, **kwargs)
    except Exception as exc:  # record, never kill the sweep
        return {"schema": SCHEMA, "key": record_key(tup),
                "status": f"error:{type(exc).__name__}:{exc}"}


def _load_existing(path: str) -> set[str]:
    """Existing record keys; quarantines undecodable lines."""
    if not os.path.exists(path):
        return set()
    keys = set()
    good_lines = []
    bad_lines = []
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    for line in content.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            keys.add(rec["key"])
            good_lines.append(line)
        except (json.JSONDecodeError, KeyError):
            bad_lines.append(line)
    if bad_lines:
        with open(path + ".quarantine", "a", encoding="utf-8") as fh:
            for line in bad_lines:
                fh.write(line + "\n")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in good_lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    return keys


def run_grid(args, enforce: bool) -> int:
    tuples = grid_tuples(args)
    kwargs = dict(n_max=args.n_max, precision=args.precision,
                  budget=args.budget, with_dwork=args.dwork,
                  trace_k=args.trace_k)
    existing = _load_existing(args.out) if args.out else set()
    todo = [tup for tup in tuples if record_key(tup) not in existing]
    records = []
    payloads = [(tup, kwargs) for tup in todo]
    if args.jobs > 1 and len(payloads) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            records = list(ex.map(_record_worker, payloads))
    else:
        records = [_record_worker(pl) for pl in payloads]
    out_fh = open(args.out, "a", encoding="utf-8") if args.out else None
    violations = 0
    summary = {"total": len(tuples), "skipped_existing": len(tuples) - len(todo),
               "equal": 0, "strict_above": 0, "p_divides_H": 0,
               "violations": 0, "skipped_budget": 0, "errors": 0}
    for rec in records:
        if out_fh:
            out_fh.write(json.dumps(rec, sort_keys=True) + "\n")
            out_fh.flush()
            if args.fsync:
                os.fsync(out_fh.fileno())
        status = rec.get("status", "ok")
        if status.startswith("skipped"):
            summary["skipped_budget"] += 1
            continue
        if status.startswith("error"):
            summary["errors"] += 1
            if enforce:
                violations += 1
                sys.stderr.write(json.dumps(rec, sort_keys=True) + "\n")
            continue
        if rec.get("equal"):
            summary["equal"] += 1
        elif rec.get("lies_above"):
            summary["strict_above"] += 1
        if rec.get("p_divides_H"):
            summary["p_divides_H"] += 1
        if rec.get("violations"):
            violations += len(rec["violations"])
            sys.stderr.write(json.dumps(rec, sort_keys=True) + "\n")
    if out_fh:
        out_fh.close()
    summary["violations"] = violations
    if summary["p_divides_H"] == 0:
        summary["note"] = ("no divisible Hasse constant in this grid; "
                           "equality held wherever the theorems demanded it")
    _emit({"schema": SCHEMA, "summary": summary}, args)
    if enforce and violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    return run_grid(args, enforce=True)


def cmd_sweep(args) -> int:
    return run_grid(args, enforce=False)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twistnp",
                                 description="Newton polygons of twisted "
                                             "binomial L-functions, exactly.")
    ap.add_argument("--precision", type=int, default=None,
                    help="p-adic working precision M (default a*d + 8)")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="largest field size enumerated per sum")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", type=str, default=None,
                    help="JSONL output path for sweeps")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polygon", help="lower-bound and Hodge polygons")
    _add_param_flags(sp)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--which", choices=["lower", "hodge"], default="lower",
                    help="which slope table to emit as CSV")
    sp.set_defaults(func=cmd_polygon)

    sh = sub.add_parser("hasse", help="Hasse certificate and constant")
    _add_param_flags(sh)
    sh.set_defaults(func=cmd_hasse)

    sl = sub.add_parser("lfunc", help="classical L-polynomial and polygon")
    _add_param_flags(sl)
    sl.add_argument("--n-max", type=int, default=None,
                    help="extend the polygon past degree d by the slope rule")
    sl.set_defaults(func=cmd_lfunc)

    sd = sub.add_parser("dwork", help="T-adic route")
    _add_param_flags(sd)
    sd.add_argument("--n-max", type=int, default=None)
    sd.add_argument("--N", dest="big_n", type=int, default=None)
    sd.add_argument("--O", dest="big_o", type=int, default=None)
    sd.add_argument("--trace-k", type=int, default=0)
    sd.add_argument("--J", type=int, default=5)
    sd.add_argument("--sandwich", action="store_true")
    sd.set_defaults(func=cmd_dwork)

    for name, fn in [("verify", cmd_verify), ("sweep", cmd_sweep)]:
        sv = sub.add_parser(name, help=f"{name} a parameter grid")
        sv.add_argument("--d", type=str, required=True)
        sv.add_argument("--e", type=str, default="all")
        sv.add_argument("--c", type=str, default="1")
        sv.add_argument("--mu", type=str, default="all")
        sv.add_argument("--primes", type=str, default=None,
                        help="explicit comma-separated primes")
        sv.add_argument("--prime-min", type=int, default=2)
        sv.add_argument("--prime-count", type=int, default=3)
        sv.add_argument("--allow-small-p", action="store_true")
        sv.add_argument("--a-multiple", type=int, default=1,
                        help="a = (order of p mod c) times this")
        sv.add_argument("--lam-policy", type=str, default="first:1",
                        help="all | first:K | fixed:IDX")
        sv.add_argument("--n-max", type=int, default=None)
        sv.add_argument("--dwork", action="store_true")
        sv.add_argument("--trace-k", type=int, default=0)
        sv.add_argument("--fsync", action="store_true")
        sv.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except (TruncationError, PrecisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
