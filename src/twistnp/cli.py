"""Command-line surface: single-tuple commands plus grid sweeps.

Subcommands
-----------
polygon   assignment lower bound and Hodge bound, slopes included
hasse     Hasse-number certificate and the integral constant
lfunc     classical L-polynomial valuations and Newton polygon, by the
          ``classical_route`` that verify and sweep take
dwork     T-adic polygon, truncation certificate, trace-formula check
verify    run a grid, append one record per tuple, enforce the theorems;
          the classical polygon comes by its ``classical_route``
sweep     like verify, but records only (no theorem gate)

Exit codes: 0 ok, 1 theorem violation (a failed cross-check included),
2 bad input, 3 precision or truncation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from .core_arith import is_prime, multiplicative_order
from .dwork import DworkConsistencyError, default_trace_order, np_T, trace_consistency
from .hasse import _digits, hasse_certificate
from .lfunction import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FunctionalEquationError,
    SmallPrimeError,
    check_trace_inputs,
    classical_route,
    extend_newton_polygon,
    l_polynomial,
    newton_polygon_classical,
    route_sums_by_lambda,
)
from .padic import PrecisionError
from .polygon import Params, Polygon, hodge_polygon, lies_above, lower_bound_polygon
from .polygon import monotone_bound

SCHEMA = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _slopes_json(poly: Polygon) -> list[str]:
    return [_frac_str(s) for s in poly.slopes()]


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _mu_mod_c(mu: int, c: int) -> int:
    """mu read mod c, as 1..c: mu and mu + c give one character, so one
    key.  A c below 1 leaves mu as it is, for ``Params`` to refuse c."""
    return (mu - 1) % c + 1 if c >= 1 else mu


def _params_from_args(args) -> Params:
    lam = args.lam
    if lam is None:  # the generator g by default; at q = 2, g = g^0
        lam = 0 if (args.p, args.a) == (2, 1) else 1
    return Params(p=args.p, a=args.a, d=args.d, e=args.e, c=args.c,
                  mu=_mu_mod_c(args.mu, args.c), lam_index=lam)


def _add_param_flags(sub):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", type=int, default=1)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--e", type=int, required=True)
    sub.add_argument("--c", type=int, default=1)
    sub.add_argument("--mu", type=int, default=1)
    sub.add_argument("--lam", type=int, default=None,
                     help="discrete log of the lower coefficient "
                          "(default 1 mod q - 1)")


def cmd_polygon(args) -> int:
    params = _params_from_args(args)
    n_max = args.n_max or 2 * params.d
    P = lower_bound_polygon(params, n_max)
    H = hodge_polygon(params, n_max)
    if args.format == "csv":
        which = {"lower": P, "hodge": H}[args.which or "lower"]
        sys.stdout.write("n,slope_num,slope_den\n")
        for n, s in enumerate(which.slopes()):
            sys.stdout.write(f"{n},{s.numerator},{s.denominator}\n")
        return EXIT_OK
    _emit({
        "schema": SCHEMA,
        "params": params.key(),
        "hodge": H.to_json_dict(),
        "hodge_slopes": _slopes_json(H),
        "lower_bound": P.to_json_dict(),
        "lower_bound_slopes": _slopes_json(P),
        "meets_hodge_on_d_multiples": all(
            P.value(params.d * m) == H.value(params.d * m)
            for m in range(n_max // params.d + 1)),
    })
    return EXIT_OK


def cmd_hasse(args) -> int:
    params = _params_from_args(args)
    cert = hasse_certificate(params)
    out = {"schema": SCHEMA, "params": params.key()}
    out.update(cert.to_json_dict())
    out["verdicts_consistent"] = cert.verdicts_consistent()
    out["pp"] = cert.pp
    _emit(out)
    return EXIT_OK


def cmd_lfunc(args) -> int:
    params = _params_from_args(args)
    data = l_polynomial(params, args.precision, args.budget)
    np_poly = newton_polygon_classical(data)
    out = {
        "schema": SCHEMA,
        "params": params.key(),
        "precision": data.M,
        "l_valuations_pi_units": [None if v is None else _frac_str(Fraction(v))
                                  for v in data.newton_points()],
        "newton_polygon": np_poly.to_json_dict(),
        "newton_slopes": _slopes_json(np_poly),
    }
    if args.n_max:
        ext = extend_newton_polygon(np_poly, args.n_max)
        out["extended_polygon"] = ext.to_json_dict()
    _emit(out)
    return EXIT_OK


def sandwich(params: Params, P: Polygon, np_T: Polygon,
             np_classical: Polygon | None = None) -> dict:
    """The halves of P <= NP_T <= NP, each on the range both share.  Below
    the threshold p > (d-e)(2d-1) P is no bound, and P <= NP_T is None;
    without the classical polygon NP_T <= NP is None."""
    return {"P_below_npT": lies_above(np_T, P) if params.monotone_bound_ok() else None,
            "npT_below_classical": (None if np_classical is None
                                    else lies_above(np_classical, np_T))}


def cmd_dwork(args) -> int:
    params = _params_from_args(args)
    n_max = args.n_max or params.d
    J = default_trace_order(params) if args.J is None else args.J
    check_trace_inputs(params, args.trace_k, J, args.budget)
    # before the operator: a classical route past the budget, or at p <= h + 1, exits 2
    np_classical = (newton_polygon_classical(l_polynomial(params, args.precision, args.budget))
                    if args.sandwich else None)
    res = np_T(params, n_max, N=args.big_n, O=args.big_o, M=args.precision)
    reports = []
    if args.trace_k > 0:
        reports = trace_consistency(res.matrix, args.trace_k, J, args.budget)
    halves = sandwich(params, lower_bound_polygon(params, n_max), res.polygon, np_classical)
    out = {
        "schema": SCHEMA,
        "params": params.key(),
        "certificate": {"N": res.matrix.N, "O": res.matrix.O, "ok": True},
        "np_T": res.polygon.to_json_dict(),
        "np_T_slopes": _slopes_json(res.polygon),
        "lies_above_lower_bound": halves["P_below_npT"],
        "trace_consistency": [
            {"k": r.k, "checked_order": r.checked_order, "ok": r.ok}
            for r in reports
        ],
    }
    if args.sandwich:
        out["sandwich"] = halves
    _emit(out)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# grid sweeps


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def grid_tuples(args) -> list[Params]:
    """The points of the requested grid, in the order the flags list them,
    each validated as a ``Params``: a point no binomial has raises
    ``ValueError``.

    An explicit mu is read mod c (``_mu_mod_c``), as the single-tuple
    commands read it; a point that comes twice is kept once, where it first
    comes."""
    # flags no tuple can come from are refused, not read as an empty grid
    if args.a_multiple < 1:  # a = 0 would make q = 1
        raise ValueError(f"--a-multiple must be >= 1, got {args.a_multiple}")
    for c in _parse_int_list(args.c):
        if c < 1:
            raise ValueError(f"--c entries must be >= 1, got {c}")
    for d in _parse_int_list(args.d):
        if d < 2:  # x^d + lambda x^e needs d > e >= 1
            raise ValueError(f"--d entries must be >= 2, got {d}")
    for p in _parse_int_list(args.primes or ""):
        if not is_prime(p):
            raise ValueError(f"--primes entries must be prime, got {p}")
    lambda_indices = _lambda_policy(args.lam_policy)
    points = []
    for d in _parse_int_list(args.d):
        if args.e == "all":
            e_list = [e for e in range(1, d) if math.gcd(d, e) == 1]
        elif args.e == "max":
            e_list = [d - 1]
        else:
            e_list = [e for e in _parse_int_list(args.e) if 0 < e < d and math.gcd(d, e) == 1]
        for e in e_list:
            for c in _parse_int_list(args.c):
                mus = range(1, c + 1) if args.mu == "all" \
                    else [_mu_mod_c(mu, c) for mu in _parse_int_list(args.mu)]
                for mu in mus:
                    if math.gcd(mu, c) != 1:
                        continue
                    primes = _grid_primes(args, d, e, c)
                    for p in primes:
                        # a character of order c needs c | q - 1
                        if d % p == 0 or math.gcd(p, c) != 1:
                            continue
                        a = multiplicative_order(p, c) * args.a_multiple
                        q = p**a
                        for lam in lambda_indices(q):
                            points.append(Params(p=p, a=a, d=d, e=e, c=c, mu=mu,
                                                 lam_index=lam))
    return list(dict.fromkeys(points))


def _grid_primes(args, d, e, c) -> list[int]:
    if args.primes:
        return _parse_int_list(args.primes)
    bound = monotone_bound(d, e)
    if not args.allow_small_p:
        lo = max(args.prime_min, bound + 1, c + 1)
    else:
        lo = max(args.prime_min, 2)
    out = []
    p = lo
    while len(out) < args.prime_count:
        if is_prime(p) and math.gcd(p, c * d) == 1:
            out.append(p)
        p += 1
    return out


def _lambda_policy(policy: str):
    """The lambda indices of a field of size q, as a function of q; the
    policy is parsed, and refused, before any tuple."""
    if policy == "all":
        return lambda q: list(range(q - 1))
    if policy.startswith("first:"):
        k = int(policy[6:])
        if k < 1:
            raise ValueError(f"--lam-policy first:K needs K >= 1, got {policy}")
        return lambda q: list(range(min(k, q - 1)))
    if policy.startswith("fixed:"):
        index = int(policy[6:])
        return lambda q: [index % (q - 1)]
    raise ValueError(f"bad lambda policy {policy!r}")


def shared_pass(group: list[Params], precision=None, budget=DEFAULT_BUDGET, n_max=None):
    """The work the records of one (p, a, d, e, c, mu) group share.

    ``group`` is the group's points, which differ only in lambda; the
    pass reads its first, whose lambda plays no part.  Returns
    ``(result, error, per_record_s)``.  ``result`` holds each lambda's
    sums for its route (``route_sums_by_lambda``), from one enumeration
    pass per k, so a group the budget refuses does no other work; then the
    lower-bound and Hodge polygons to max(3d, n_max), and what of a record
    does not depend on lambda: the Hasse certificate's fields and both
    bounds' slopes, the violations found where p passes the monotone
    bound, and the Hodge-gap violation.  ``error`` is the exception
    computing them raised instead, which ``sweep_record`` raises again on
    each record, to refuse it.  The pass's time is split evenly over the
    group's records.
    """
    t0 = time.monotonic()
    params = group[0]
    p, d, e = params.p, params.d, params.e
    result = error = None
    try:
        lams = list(dict.fromkeys(pr.lam_index for pr in group))
        sums = route_sums_by_lambda(params, lams, precision, budget)
        n_poly, n_top = max(3 * d, n_max or 0), n_max or d
        P, H = lower_bound_polygon(params, n_poly), hodge_polygon(params, n_poly)
        cert = hasse_certificate(params)
        monotone_faults = []
        if params.monotone_bound_ok():
            if not cert.verdicts_consistent():
                monotone_faults.append("unit verdict disagrees with divisibility of H")
            if not P.is_convex():
                monotone_faults.append("lower-bound polygon not convex")
        diff_bound = Fraction((d - e) * (d - 1) ** 2, d * (p - 1))
        gap = max(P.value(n) - H.value(n) for n in range(3 * d + 1))
        fields = {"H": _digits(cert.H), "H_mod_p": cert.H % p, "p_divides_H": cert.p_divides_H,
                  "h_unit": cert.h_unit,
                  "h_valuation": "inf" if cert.h_valuation == math.inf else str(cert.h_valuation),
                  "P_slopes": _slopes_json(P.restrict(n_top)),
                  "hodge_slopes": _slopes_json(H.restrict(n_top))}
        result = (sums, P, fields, monotone_faults,
                  ["gap to the Hodge bound exceeds its limit"] if gap > diff_bound else [])
    except Exception as exc:  # each record is refused by it
        error = exc
    return result, error, (time.monotonic() - t0) / len(group)


def sweep_record(params: Params, shared, n_max=None, precision=None, budget=DEFAULT_BUDGET,
                 dwork=False, trace_k=0) -> dict:
    """Compute the full record of one grid point.

    ``shared`` is the ``shared_pass`` of the point's group, made with the
    same precision, budget and n_max.  Every refusal, raised by the shared
    pass or by the record's own work on either route, is decided in one
    ``except`` chain, on a record that keeps the point's fields, ``route``
    and ``enum_field``.  A trace check past the budget refuses nothing: it
    leaves ``trace_consistency`` null.
    """
    result, error, shared_s = shared
    p, d, e, lam = params.p, params.d, params.e, params.lam_index
    t0 = time.monotonic()
    route = classical_route(d, params.c)
    rec = {
        "schema": SCHEMA, "key": params.key(),
        "p": p, "a": params.a, "d": d, "e": e, "c": params.c, "mu": params.mu,
        "lambda_index": lam, "b": params.b, "u": params.u,
        "status": "ok", "route": route.name, "enum_field": route.field_size(p, params.a),
    }
    try:
        if error is not None:
            raise error
        sums, P, fields, monotone_faults, gap_faults = result
        data = l_polynomial(params, precision, budget, _sums=sums[lam])
        np_poly = newton_polygon_classical(data)
        rec.update(fields)
        rec.update({
            "precision": data.M,
            "np_slopes": _slopes_json(np_poly),
            "equal": np_poly.values == P.values[:d + 1],
            "lies_above": lies_above(np_poly, P),
        })
        violations = []
        if params.monotone_bound_ok():
            if not rec["lies_above"]:
                violations.append("NP does not lie above the lower bound")
            if rec["equal"] != rec["h_unit"]:
                violations.append("polygon equality disagrees with unit verdict")
            violations += monotone_faults
        if e == d - 1 and p > params.c * (d * d - d + 1) and not rec["equal"]:
            violations.append("forced-equality case failed")
        violations += gap_faults
        if dwork:
            res = np_T(params, d, M=precision)
            rec["np_T_slopes"] = _slopes_json(res.polygon)
            rec["routes_agree"] = res.polygon.values == np_poly.values
            rec["sandwich"] = False not in sandwich(params, P, res.polygon, np_poly).values()
            if not rec["sandwich"]:
                violations.append("T-adic polygon escapes the sandwich")
            if trace_k > 0:
                # the check enumerates F_q .. F_{q^trace_k} under the run's budget
                if params.q**trace_k > budget:
                    rec.update(trace_consistency=None, trace_needed_budget=params.q**trace_k)
                else:
                    reports = trace_consistency(res.matrix, trace_k,
                                                default_trace_order(params), budget)
                    rec["trace_consistency"] = all(r.ok for r in reports)
                    if not rec["trace_consistency"]:
                        violations.append("trace formula mismatch")
    except BudgetExceededError:
        rec["status"] = "skipped:budget"
        rec["needed_budget"] = rec["enum_field"]
        return rec
    except SmallPrimeError as exc:
        # an error record all the same, named by the ValueError it is:
        # resuming retries it and verify counts it
        rec["status"] = f"error:ValueError:{exc}"
        rec["needed_p_above"] = exc.threshold
        return rec
    except PrecisionError as exc:
        rec["status"] = f"error:precision:{exc}"
        return rec
    except Exception as exc:  # record, never kill the sweep
        rec["status"] = f"error:{type(exc).__name__}:{exc}"
        return rec
    rec["violations"] = violations
    # to the microsecond: a record of a small group takes well under 1 ms
    rec["timings"] = {"total_s": round(time.monotonic() - t0 + shared_s, 6),
                      "shared_s": round(shared_s, 6)}
    return rec


def _group_worker(payload):
    """Records of one (p, a, d, e, c, mu) group, from one shared pass.

    ``payload`` is the group's points and the run's ``settings``, the
    keyword arguments of ``sweep_record``, which each record carries.
    ``sweep_record`` refuses a record itself, so nothing here catches.
    """
    group, settings = payload
    shared = shared_pass(group, settings["precision"], settings["budget"], settings["n_max"])
    return [dict(sweep_record(params, shared, **settings), settings=settings)
            for params in group]


def _load_existing(path: str, settings: dict) -> set[str]:
    """Keys with a finished record made under ``settings``: ok or skipped,
    not only error records, and not records of other settings.

    Quarantines every line that is not a JSON object with a string key.
    """
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
        except json.JSONDecodeError:
            rec = None
        if not (isinstance(rec, dict) and isinstance(rec.get("key"), str)):
            bad_lines.append(line)
            continue
        good_lines.append(line)
        if (rec.get("settings") == settings
                and not str(rec.get("status", "ok")).startswith("error")):
            keys.add(rec["key"])
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
    """Compute the grid's missing records, group by group, appending each
    group's records as soon as it finishes.

    Every point is validated as a ``Params`` (``grid_tuples``) before the
    output file is opened.  Points that differ only in lambda form a group
    and share one enumeration pass per k (``shared_pass``).  A key counts
    as done only when it has a record other than an error made under this
    run's settings; otherwise it is computed again.
    """
    points = grid_tuples(args)
    settings = dict(n_max=args.n_max, precision=args.precision,
                    budget=args.budget, dwork=args.dwork, trace_k=args.trace_k)
    existing = _load_existing(args.out, settings) if args.out else set()
    todo = [pr for pr in points if pr.key() not in existing]
    groups: dict[tuple, list[Params]] = {}
    for pr in todo:
        groups.setdefault((pr.p, pr.a, pr.d, pr.e, pr.c, pr.mu), []).append(pr)
    payloads = [(group, settings) for group in groups.values()]
    violations = 0
    summary = {"total": len(points), "skipped_existing": len(points) - len(todo),
               "equal": 0, "strict_above": 0, "p_divides_H": 0,
               "violations": 0, "skipped_budget": 0, "errors": 0}
    with contextlib.ExitStack() as stack:
        out_fh = (stack.enter_context(open(args.out, "a", encoding="utf-8"))
                  if args.out else None)
        if args.jobs > 1 and len(payloads) > 1:
            import concurrent.futures as cf

            ex = stack.enter_context(
                cf.ProcessPoolExecutor(max_workers=args.jobs))
            groups = ex.map(_group_worker, payloads)
        else:
            groups = map(_group_worker, payloads)
        for records in groups:
            for rec in records:
                if out_fh:
                    out_fh.write(json.dumps(rec, sort_keys=True) + "\n")
                violations += _tally(rec, summary, enforce)
            if out_fh:
                out_fh.flush()
                if args.fsync:
                    os.fsync(out_fh.fileno())
    summary["violations"] = violations
    if summary["p_divides_H"] == 0:
        summary["note"] = ("no divisible Hasse constant in this grid; "
                           "equality held wherever the theorems demanded it")
    _emit({"schema": SCHEMA, "summary": summary})
    if enforce and violations:
        return EXIT_VIOLATION
    return EXIT_OK


def _tally(rec: dict, summary: dict, enforce: bool) -> int:
    """Count one record into the summary; returns its violations."""
    status = rec.get("status", "ok")
    if status.startswith("skipped"):
        summary["skipped_budget"] += 1
        return 0
    if status.startswith("error"):
        summary["errors"] += 1
        if enforce:
            sys.stderr.write(json.dumps(rec, sort_keys=True) + "\n")
            return 1
        return 0
    if rec.get("equal"):
        summary["equal"] += 1
    elif rec.get("lies_above"):
        summary["strict_above"] += 1
    if rec.get("p_divides_H"):
        summary["p_divides_H"] += 1
    if rec.get("violations"):
        sys.stderr.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(rec["violations"])
    return 0


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
    sp.add_argument("--which", choices=["lower", "hodge"], default=None,
                    help="which slope table to emit as CSV (default lower)")
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
    sd.add_argument("--J", type=int, default=None,
                    help="T-adic truncation order of the trace check "
                         "(default min(6, p - 1))")
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
        # a flag that would do nothing, or a size no run can use, is refused
        if args.format == "csv" and args.command != "polygon":
            raise ValueError(f"--format csv applies to polygon only, not {args.command}")
        if args.command == "polygon" and args.which is not None and args.format != "csv":
            raise ValueError("--which picks the CSV slope table, which needs --format csv")
        for flag, attr, least in (("--precision", "precision", 1), ("--budget", "budget", 1),
                                  ("--jobs", "jobs", 1), ("--n-max", "n_max", 1),
                                  ("--N", "big_n", 1), ("--O", "big_o", 1),
                                  ("--trace-k", "trace_k", 0), ("--prime-count", "prime_count", 1)):
            value = getattr(args, attr, None)
            if value is not None and value < least:
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        if args.command in ("verify", "sweep") and args.trace_k > 0 and not args.dwork:
            raise ValueError("--trace-k checks the T-adic route, which needs --dwork")
        if args.command == "dwork" and args.J is not None and args.trace_k == 0:
            raise ValueError("--J sets the trace check's order, which needs --trace-k above 0")
        if args.command == "lfunc" and args.n_max is not None and args.n_max <= args.d:
            raise ValueError(f"lfunc --n-max extends the polygon past degree d={args.d}, "
                             f"so it must exceed d, got {args.n_max}")
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except PrecisionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECISION
    except (DworkConsistencyError, FunctionalEquationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
