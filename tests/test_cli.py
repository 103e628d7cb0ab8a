"""CLI behaviour: determinism, exit codes, sweep persistence."""

from __future__ import annotations

import decimal
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import twistnp
from twistnp.cli import main
from twistnp.hasse import hasse_number
from twistnp.polygon import Params, hodge_polygon, lower_bound_polygon


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_polygon_json_deterministic(capsys):
    argv = ["polygon", "--p", "11", "--d", "3", "--e", "2", "--n-max", "6"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["lower_bound_slopes"][:3] == ["0/1", "2/5", "3/5"]
    assert data["meets_hodge_on_d_multiples"]


def test_polygon_csv(capsys):
    code, out = _run(capsys, ["--format", "csv", "polygon", "--p", "11",
                              "--d", "3", "--e", "2", "--n-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,slope_num,slope_den"
    assert lines[1:] == ["0,0,1", "1,2,5", "2,3,5"]


def test_polygon_csv_hodge_table(capsys):
    code, out = _run(capsys, ["--format", "csv", "polygon", "--p", "11",
                              "--d", "3", "--e", "2", "--n-max", "3", "--which", "hodge"])
    assert code == 0
    H = hodge_polygon(Params(p=11, a=1, d=3, e=2, c=1, mu=1), 3)
    assert out.strip().splitlines()[1:] == [f"{n},{s.numerator},{s.denominator}"
                                            for n, s in enumerate(H.slopes())]


def test_bad_flags_exit_2(capsys):
    assert main(["polygon", "--p", "11", "--d", "3"]) == 2  # missing e
    assert main(["polygon", "--p", "10", "--d", "3", "--e", "2"]) == 2  # p not prime
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ["--precision", "0", "lfunc", "--p", "11", "--d", "3", "--e", "2"],
    ["--precision", "-2", "lfunc", "--p", "11", "--d", "3", "--e", "2"],
    # 2^127 - 1 is prime, but past psi_13 primality is not decided
    ["polygon", "--p", str(2**127 - 1), "--d", "5", "--e", "2"],
    ["polygon", "--p", "11", "--d", "3", "--e", "2", "--n-max", "0"],
    ["dwork", "--p", "11", "--d", "3", "--e", "2", "--n-max", "-1"],
    ["lfunc", "--p", "11", "--d", "3", "--e", "2", "--n-max", "0"],
    ["verify", "--d", "3", "--e", "2", "--primes", "11", "--n-max", "0"],
    ["sweep", "--d", "3", "--e", "2", "--primes", "11", "--n-max", "-3"],
    # grid flags that no tuple can come from
    ["verify", "--d", "3", "--e", "2", "--primes", "9"],
    ["sweep", "--d", "3", "--e", "2", "--primes", "11,1"],
    ["verify", "--d", "3", "--e", "2", "--primes", "11", "--c", "0"],
    ["sweep", "--d", "3", "--e", "2", "--c", "1,-3"],
    ["verify", "--d", "3", "--e", "2", "--primes", "11", "--lam-policy", "first:0"],
    ["sweep", "--d", "3", "--e", "2", "--primes", "11", "--lam-policy", "first:-2"],
    # a policy that does not parse, also on a grid p | d leaves empty
    ["verify", "--d", "3", "--e", "2", "--primes", "3", "--lam-policy", "bogus"],
    ["verify", "--d", "3", "--e", "2", "--primes", "3", "--lam-policy", "fixed:x"],
    # flags that would do nothing, or sizes no operator has
    ["--format", "csv", "hasse", "--p", "43", "--d", "5", "--e", "2"],
    ["--format", "csv", "lfunc", "--p", "11", "--d", "3", "--e", "2"],
    ["--format", "csv", "dwork", "--p", "11", "--d", "3", "--e", "2"],
    ["--format", "csv", "sweep", "--d", "3", "--e", "2", "--primes", "11"],
    ["dwork", "--p", "11", "--d", "3", "--e", "2", "--N", "0"],
    ["dwork", "--p", "11", "--d", "3", "--e", "2", "--O", "0"],
    ["dwork", "--p", "11", "--d", "3", "--e", "2", "--trace-k", "-1"],
    ["verify", "--d", "3", "--e", "2", "--primes", "11", "--trace-k", "-2"],
    ["sweep", "--d", "3", "--e", "2", "--primes", "11", "--dwork", "--trace-k", "-1"],
    # a budget below one element would skip or refuse every sum
    ["--budget", "0", "verify", "--d", "3", "--e", "2", "--primes", "7"],
    ["--budget", "-5", "lfunc", "--p", "11", "--d", "3", "--e", "2"],
    # the budget reaches the direct T-adic sums: F_{11^3} has 1331 elements
    ["--budget", "1000", "dwork", "--p", "11", "--d", "3", "--e", "2", "--trace-k", "3"],
    # an empty prime list, no worker process
    ["verify", "--d", "3", "--e", "2", "--prime-count", "0"],
    ["sweep", "--d", "3", "--e", "2", "--prime-count", "-1"],
    ["--jobs", "0", "verify", "--d", "3", "--e", "2", "--primes", "11"],
    ["--jobs", "-2", "polygon", "--p", "11", "--d", "3", "--e", "2"],
    # a trace check without the T-adic route, a J without a trace check
    ["verify", "--d", "3", "--e", "2", "--primes", "11", "--trace-k", "2"],
    ["sweep", "--d", "3", "--e", "2", "--primes", "11", "--trace-k", "1"],
    ["dwork", "--p", "11", "--d", "3", "--e", "2", "--J", "4"],
    ["dwork", "--p", "11", "--d", "3", "--e", "2", "--J", "4", "--trace-k", "0"],
    # an lfunc extension that extends nothing, a CSV table choice without CSV
    ["lfunc", "--p", "11", "--d", "3", "--e", "2", "--n-max", "2"],
    ["lfunc", "--p", "11", "--d", "3", "--e", "2", "--n-max", "3"],
    ["polygon", "--p", "11", "--d", "3", "--e", "2", "--which", "hodge"],
    # exponents outside d > e >= 1, gcd(d, e) = 1
    ["hasse", "--p", "7", "--d", "4", "--e", "2"],
    ["polygon", "--p", "7", "--d", "3", "--e", "3"],
    # a c below 1 is refused as c, before mu is read mod c
    ["dwork", "--p", "7", "--d", "3", "--e", "2", "--c", "0", "--mu", "4"],
])
def test_refused_input_exits_2_with_one_error_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err == EXACT_ERROR_LINES.get(" ".join(argv), captured.err)


# refusals whose wording is pinned, by their argv
EXACT_ERROR_LINES = {
    "hasse --p 7 --d 4 --e 2": "error: need gcd(d, e) = 1, got 4, 2\n",
    "dwork --p 7 --d 3 --e 2 --c 0 --mu 4": "error: c must be >= 1, got 0\n",
    "polygon --p 7 --d 3 --e 3": "error: need d > e >= 1, got d=3, e=3\n",
}


def test_hasse_command(capsys):
    code, out = _run(capsys, ["hasse", "--p", "11", "--d", "3", "--e", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["h_unit"] is True and data["p_divides_H"] is False
    assert data["verdicts_consistent"]
    # same residue class, same H
    _, out17 = _run(capsys, ["hasse", "--p", "17", "--d", "3", "--e", "2"])
    assert json.loads(out17)["H"] == data["H"]


def test_hasse_prints_factors_past_the_int_str_limit(capsys):
    # the h numerators here run to about 8300 digits
    code, out = _run(capsys, ["hasse", "--p", "1009", "--d", "10", "--e", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["verdicts_consistent"]
    pr = Params(p=1009, a=1, d=10, e=3, c=1, mu=1)
    for n, k, frac, _ in data["h"]:
        num, den = (int(decimal.Decimal(x)) for x in frac.split("/"))
        assert Fraction(num, den) == hasse_number(pr, n, k)
    assert max(len(h[2]) for h in data["h"]) > 4300


def test_hasse_command_past_d_10(capsys):
    code, out = _run(capsys, ["hasse", "--p", "23", "--d", "11", "--e", "10"])
    assert code == 0
    data = json.loads(out)
    assert data["verdicts_consistent"] and len(data["h"]) == 10


def test_hasse_rejects_bad_extension(capsys):
    # c = 3 with p = 11 needs b = 2 | a; a = 1 violates it
    code = main(["hasse", "--p", "11", "--a", "1", "--d", "3", "--e", "2",
                 "--c", "3"])
    assert code == 2


def test_dwork_exit_3_on_tiny_matrix(capsys):
    code = main(["dwork", "--p", "11", "--d", "3", "--e", "2", "--N", "2"])
    assert code == 3


@pytest.mark.parametrize("argv, reason", [
    (["dwork", "--p", "11", "--d", "3", "--e", "2", "--N", "2"],
     "tail rows reach below order 13 for N=2; suggest N=5, O=13"),
    (["dwork", "--p", "11", "--d", "3", "--e", "2", "--O", "3"],
     "working order 3 below required 13; suggest N=5, O=13"),
    (["dwork", "--p", "7", "--d", "3", "--e", "2", "--O", "4", "--N", "9"],
     "working order 4 below required 10; suggest N=6, O=10"),
], ids=["N-alone", "O-alone", "O-and-N"])
def test_truncation_refusals_exit_3_with_one_error_line(capsys, argv, reason):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: truncation certificate failed: {reason}\n"


def test_dwork_order_alone_sizes_the_matrix_from_it(capsys):
    # N comes from the O given: the tail rows past N = 13 clear O = 40
    code, out = _run(capsys, ["dwork", "--p", "11", "--d", "3", "--e", "2", "--O", "40"])
    assert code == 0
    assert json.loads(out)["certificate"] == {"N": 13, "O": 40, "ok": True}


def test_dwork_rejects_negative_truncation_order(capsys):
    code = main(["dwork", "--p", "7", "--d", "3", "--e", "2", "--J", "-2",
                 "--trace-k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "J=-2" in err


def test_lfunc_command(capsys):
    code, out = _run(capsys, ["lfunc", "--p", "11", "--d", "3", "--e", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["newton_slopes"] == ["0/1", "2/5", "3/5"]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _extended_slopes(argv, capsys):
    code, out = _run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    values = [Fraction(v) for _, v in data["extended_polygon"]["vertices"]]
    return data, [b - a for a, b in zip(values, values[1:])]


@pytest.mark.parametrize("tup, n_max, want", [
    (["--p", "11", "--d", "3", "--e", "2"], 7, ["0", "2/5", "3/5", "1", "7/5", "8/5", "2"]),
    (["--p", "11", "--d", "4", "--e", "1", "--c", "2"], 9,
     ["1/5", "3/10", "7/10", "4/5", "6/5", "13/10", "17/10", "9/5", "11/5"]),
])
def test_lfunc_extends_the_polygon_by_the_slope_rule(capsys, tup, n_max, want):
    # the extension restricts to the Newton polygon on [0, d], and
    # slope(n + d) = slope(n) + 1; both lists are dwork's np_T_slopes at
    # the same n_max
    d = int(tup[3])
    data, slopes = _extended_slopes(["lfunc"] + tup + ["--n-max", str(n_max)], capsys)
    assert slopes == [Fraction(s) for s in want]
    assert data["newton_slopes"] == [_frac(s) for s in slopes[:d]]
    assert all(slopes[n + d] == slopes[n] + 1 for n in range(n_max - d))


def test_lfunc_extension_is_the_tadic_polygon(capsys):
    tup = ["--p", "11", "--d", "3", "--e", "2", "--n-max", "6"]
    _, slopes = _extended_slopes(["lfunc"] + tup, capsys)
    code, out = _run(capsys, ["dwork"] + tup)
    assert code == 0
    assert json.loads(out)["np_T_slopes"] == [_frac(s) for s in slopes]


def test_verify_small_grid_and_resume(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    # p = 2 is not above the half route's k_max = 2, so the recurrence
    # cannot divide by 2: its one tuple (q - 1 = 1) becomes an error record
    argv = ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
            "--primes", "11,2", "--lam-policy", "first:2"]
    code, out = _run(capsys, argv)
    assert code == 1  # verify counts error records as violations
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 3
    summary = json.loads(out)["summary"]
    assert summary["equal"] == 2 and summary["errors"] == 1
    errors = [json.loads(x) for x in lines if '"error:' in x]
    assert [r["key"] for r in errors] == ["p2_a1_d3_e2_c1_mu1_l0"]
    assert all(r["status"].startswith("error:ValueError:") for r in errors)
    # resume: the ok records stay, the error key is computed again and
    # fails again, so verify still exits 1
    code2, out2 = _run(capsys, argv)
    assert code2 == 1
    summary2 = json.loads(out2)["summary"]
    assert summary2["skipped_existing"] == 2 and summary2["errors"] == 1
    error_lines = [x for x in lines if '"error:' in x]
    assert out_file.read_text().strip().splitlines() == lines + error_lines


def _records(path):
    return [json.loads(x) for x in path.read_text().splitlines()]


def test_grid_e_max_takes_d_minus_one(tmp_path, capsys):
    out_file = tmp_path / "emax.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3,4", "--e", "max",
                            "--primes", "11"])
    assert code == 0
    assert [(r["d"], r["e"]) for r in _records(out_file)] == [(3, 2), (4, 3)]


def test_grid_skips_an_explicit_mu_sharing_a_factor_with_c(tmp_path, capsys):
    out_file = tmp_path / "mu.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
                            "--c", "4", "--mu", "1,2,3", "--primes", "13"])
    assert code == 0
    assert [r["mu"] for r in _records(out_file)] == [1, 3]


@pytest.mark.parametrize("flags", [
    ["--d", "3,3", "--e", "2", "--primes", "11"],
    ["--d", "3", "--e", "2", "--primes", "11,11"],
    ["--d", "3", "--e", "2", "--c", "1,1", "--primes", "11"],
    ["--d", "3", "--e", "2,2", "--primes", "11"],
])
def test_grid_computes_a_repeated_entry_once(tmp_path, capsys, flags):
    out_file = tmp_path / "repeat.jsonl"
    code, out = _run(capsys, ["--out", str(out_file), "verify"] + flags)
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 1
    assert [r["key"] for r in _records(out_file)] == ["p11_a1_d3_e2_c1_mu1_l0"]


def test_grid_reads_mu_mod_c(tmp_path, capsys):
    # mu, mu + c and mu - c give one character, so one key
    out_file = tmp_path / "mu_mod_c.jsonl"
    code, out = _run(capsys, ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
                              "--c", "3", "--mu=-1,2,5", "--primes", "7"])
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 1
    assert [(r["key"], r["u"]) for r in _records(out_file)] == [("p7_a1_d3_e2_c3_mu2_l0", 4)]
    out_file = tmp_path / "mu_per_c.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
                            "--c", "1,3", "--mu", "1,2", "--primes", "7"])
    assert code == 0
    assert [(r["c"], r["mu"]) for r in _records(out_file)] == [(1, 1), (3, 1), (3, 2)]


def test_single_tuple_commands_read_mu_mod_c_as_the_grid_does(tmp_path, capsys):
    # mu = 4 and mu = -2 are the character of mu = 1 mod 3: one key, the grid's
    out_file = tmp_path / "mu4.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
                            "--c", "3", "--mu", "4", "--primes", "7", "--lam-policy", "fixed:1"])
    assert code == 0
    assert [r["key"] for r in _records(out_file)] == ["p7_a1_d3_e2_c3_mu1_l1"]
    for mu in ("--mu=4", "--mu=-2"):
        code, out = _run(capsys, ["dwork", "--p", "7", "--d", "3", "--e", "2", "--c", "3", mu])
        assert code == 0
        assert json.loads(out)["params"] == "p7_a1_d3_e2_c3_mu1_l1", mu


def test_grid_small_primes_start_at_two(tmp_path, capsys):
    # without --primes, --allow-small-p takes the first primes prime to c*d
    out_file = tmp_path / "small.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "sweep", "--d", "3", "--e", "2",
                            "--allow-small-p"])
    assert code == 0
    assert [r["p"] for r in _records(out_file)] == [2, 5, 7]


def test_verify_records_a_classical_precision_error(tmp_path, capsys):
    out_file = tmp_path / "precision.jsonl"
    code, out = _run(capsys, ["--precision", "1", "--out", str(out_file), "verify",
                              "--d", "3", "--e", "2", "--primes", "11",
                              "--lam-policy", "first:2"])
    assert code == 1
    assert json.loads(out)["summary"]["errors"] == 2
    recs = _records(out_file)
    assert [r["lambda_index"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["status"].startswith("error:precision:")
        assert rec["status"].endswith("retry with M >= 4")
        assert rec["route"] == "functional-equation" and rec["enum_field"] == 11**2


def test_resume_passes_over_blank_lines(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    argv = ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
            "--primes", "11", "--lam-policy", "first:1"]
    assert _run(capsys, argv)[0] == 0
    with open(out_file, "a", encoding="utf-8") as fh:
        fh.write("\n   \n")
    written = out_file.read_text()
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["summary"]["skipped_existing"] == 1
    assert out_file.read_text() == written
    assert not (tmp_path / "sweep.jsonl.quarantine").exists()


def test_verify_skips_explicit_primes_sharing_a_factor_with_c(tmp_path, capsys):
    # no character of order 3 exists over a power of 3
    out_file = tmp_path / "sweep.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "4", "--e", "1",
                            "--c", "3", "--primes", "5,3"])
    assert code == 0
    records = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert records and {r["p"] for r in records} == {5}


def test_resume_recomputes_keys_made_under_other_settings(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    grid = ["verify", "--d", "3", "--e", "2", "--primes", "11",
            "--lam-policy", "first:2"]
    argv = ["--out", str(out_file)] + grid
    code, _ = _run(capsys, argv)
    assert code == 0
    first = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert [r["settings"] for r in first] == [
        {"n_max": None, "precision": None, "budget": 2 * 10**7,
         "dwork": False, "trace_k": 0}] * 2
    assert not any("np_T_slopes" in r for r in first)
    # the same settings: nothing to do
    code, out = _run(capsys, argv)
    assert code == 0 and json.loads(out)["summary"]["skipped_existing"] == 2
    # resumed with --dwork: both keys are computed again, with the T-adic route
    code, out = _run(capsys, argv + ["--dwork"])
    assert code == 0 and json.loads(out)["summary"]["skipped_existing"] == 0
    recs = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert len(recs) == 4
    assert all(r["settings"]["dwork"] and "np_T_slopes" in r for r in recs[2:])
    assert [r["key"] for r in recs[2:]] == [r["key"] for r in first]
    code, out = _run(capsys, argv + ["--dwork"])
    assert json.loads(out)["summary"]["skipped_existing"] == 2
    # another precision, and a record without settings, are not done either
    code, out = _run(capsys, ["--precision", "12"] + argv)
    assert code == 0 and json.loads(out)["summary"]["skipped_existing"] == 0
    bare = tmp_path / "bare.jsonl"
    for rec in first:
        del rec["settings"]
    bare.write_text("".join(json.dumps(r) + "\n" for r in first))
    code, out = _run(capsys, ["--out", str(bare)] + grid)
    assert code == 0 and json.loads(out)["summary"]["skipped_existing"] == 0


@pytest.mark.parametrize("grid", [
    ["--d", "3", "--e", "2", "--c", "3", "--mu", "1", "--primes", "11"],  # q = 121
    ["--d", "3", "--e", "2", "--primes", "29"],  # a = 1
])
def test_resume_of_a_non_contiguous_lambda_set_matches_a_fresh_run(tmp_path, capsys,
                                                                   monkeypatch, grid):
    import twistnp.lfunction as lfunction

    argv = ["verify"] + grid + ["--lam-policy", "all"]
    fresh, resumed = tmp_path / "fresh.jsonl", tmp_path / "resumed.jsonl"
    assert main(["--out", str(fresh)] + argv) == 0
    want = [json.loads(x) for x in fresh.read_text().splitlines()]
    resumed.write_text("".join(json.dumps(r) + "\n" for r in want if r["lambda_index"] % 2))
    capsys.readouterr()
    # the kernel's choice of pass for the even lambdas, which one group resumes
    choices = []
    real = lfunction.joint_pays

    def spy(p, c, n_lam, r, total, narrow):
        choices.append((n_lam, r, total, real(p, c, n_lam, r, total, narrow)))
        return choices[-1][-1]

    monkeypatch.setattr(lfunction, "joint_pays", spy)
    code, out = _run(capsys, ["--out", str(resumed)] + argv)
    assert code == 0
    assert json.loads(out)["summary"]["skipped_existing"] == len(want) // 2
    if "--c" in grid:  # q = 121: one by one over F_121, jointly over 1, theta in F_{11^4}
        assert choices == [(60, 2, 120, False), (60, 2, 14640, True)]

    def by_key(path):
        recs = [json.loads(x) for x in path.read_text().splitlines()]
        for rec in recs:
            rec.pop("timings", None)
        return {rec["key"]: rec for rec in recs}

    got, fresh_recs = by_key(resumed), by_key(fresh)
    assert len(got) == len(fresh_recs) == len(want)
    assert got == fresh_recs


def test_verify_writes_each_group_before_the_next(tmp_path, capsys, monkeypatch):
    import twistnp.cli as cli

    out_file = tmp_path / "sweep.jsonl"
    argv = ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
            "--primes", "11,13", "--lam-policy", "first:2"]
    real_pass = cli.shared_pass

    def killed_at_second_group(tups, *args, **kwargs):
        if tups[0].p == 13:
            raise KeyboardInterrupt
        return real_pass(tups, *args, **kwargs)

    monkeypatch.setattr(cli, "shared_pass", killed_at_second_group)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    keys = [json.loads(x)["key"] for x in out_file.read_text().splitlines()]
    assert keys == ["p11_a1_d3_e2_c1_mu1_l0", "p11_a1_d3_e2_c1_mu1_l1"]
    monkeypatch.setattr(cli, "shared_pass", real_pass)
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["summary"]["skipped_existing"] == 2
    assert len(out_file.read_text().splitlines()) == 4


def test_grouped_lambda_sweep_matches_single_lambda_runs(tmp_path, capsys):
    grid = ["verify", "--d", "3", "--e", "2", "--c", "1,2", "--primes", "11"]
    grouped = tmp_path / "grouped.jsonl"
    assert main(["--out", str(grouped)] + grid + ["--lam-policy", "all"]) == 0
    single = tmp_path / "single.jsonl"
    for lam in range(10):
        assert main(["--out", str(single)] + grid + ["--lam-policy", f"fixed:{lam}"]) == 0
    capsys.readouterr()

    def by_key(path):
        recs = [json.loads(x) for x in path.read_text().splitlines()]
        for rec in recs:
            assert rec["timings"]["total_s"] >= rec["timings"]["shared_s"] >= 0
            rec.pop("timings", None)
        return {rec["key"]: rec for rec in recs}

    got, want = by_key(grouped), by_key(single)
    assert len(got) == 20
    assert got == want


def test_one_operator_per_command(tmp_path, capsys, monkeypatch):
    import twistnp.dwork as dwork

    builds = []
    real_build = dwork.psi_a_matrix

    def counted(*args, **kwargs):
        builds.append(args[1:3])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(dwork, "psi_a_matrix", counted)
    code, out = _run(capsys, ["dwork", "--p", "11", "--d", "3", "--e", "2",
                              "--trace-k", "2", "--J", "4"])
    assert code == 0
    assert all(r["ok"] for r in json.loads(out)["trace_consistency"])
    assert len(builds) == 1
    # an order O given on the command line reaches the check as well
    for order in ("18", "20"):
        code, out = _run(capsys, ["dwork", "--p", "11", "--d", "3", "--e", "2",
                                  "--O", order, "--trace-k", "2", "--J", "4"])
        assert code == 0
        assert all(r["ok"] for r in json.loads(out)["trace_consistency"])
        assert builds[-1][1] == int(order)
    assert len(builds) == 3
    # the polygon's operator serves a check of k past n_top, and its
    # characteristic series is extended once, to s^5, for it
    del builds[:]
    runs = []
    real_series = dwork.char_series

    def counted_series(mat, n_max):
        runs.append(n_max)
        return real_series(mat, n_max)

    monkeypatch.setattr(dwork, "char_series", counted_series)
    code, out = _run(capsys, ["dwork", "--p", "11", "--d", "3", "--e", "2",
                              "--trace-k", "5"])
    assert code == 0
    assert builds == [(5, 13)] and runs == [3, 5]
    assert json.loads(out)["trace_consistency"] == [
        {"k": k, "checked_order": 6, "ok": True} for k in range(1, 6)]
    # a check of k up to n_top reads the traces np_T kept, past n_max too:
    # one run of the recurrence, to s^3
    del builds[:], runs[:]
    code, out = _run(capsys, ["dwork", "--p", "11", "--d", "3", "--e", "2",
                              "--n-max", "1", "--trace-k", "3"])
    assert code == 0
    assert builds == [(5, 13)] and runs == [3]
    assert json.loads(out)["trace_consistency"] == [
        {"k": k, "checked_order": 6, "ok": True} for k in (1, 2, 3)]
    del builds[:]
    code, out = _run(capsys, ["dwork", "--p", "7", "--d", "3", "--e", "2",
                              "--n-max", "8", "--trace-k", "2"])
    assert code == 0
    assert builds == [(33, 64)]
    assert json.loads(out)["trace_consistency"] == [
        {"k": k, "checked_order": 6, "ok": True} for k in (1, 2)]
    # one operator per sweep record, the check included
    del builds[:]
    out_file = tmp_path / "one.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "sweep", "--d", "3", "--e", "2",
                            "--primes", "13", "--lam-policy", "first:1",
                            "--dwork", "--trace-k", "4"])
    assert code == 0
    (rec,) = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert rec["status"] == "ok" and rec["trace_consistency"] is True
    assert builds == [(5, 14)]


def _off_by_one_tadic_sums(monkeypatch):
    import twistnp.dwork as dwork

    real = dwork.exp_sum_Tadic

    def off_by_one(*args, **kwargs):
        s = real(*args, **kwargs)
        s.coeffs[1] = s.coeffs[1] + 1
        return s

    monkeypatch.setattr(dwork, "exp_sum_Tadic", off_by_one)


def test_dwork_trace_mismatch_exits_1(capsys, monkeypatch):
    _off_by_one_tadic_sums(monkeypatch)
    code, out = _run(capsys, ["dwork", "--p", "11", "--d", "3", "--e", "2",
                              "--trace-k", "1"])
    assert code == 1
    assert json.loads(out)["trace_consistency"] == [
        {"k": 1, "checked_order": 6, "ok": False}]


def test_verify_records_a_trace_mismatch(tmp_path, capsys, monkeypatch):
    _off_by_one_tadic_sums(monkeypatch)
    out_file = tmp_path / "trace.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3",
                            "--e", "2", "--primes", "11", "--dwork",
                            "--trace-k", "1"])
    assert code == 1
    (rec,) = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert rec["status"] == "ok"
    assert rec["trace_consistency"] is False
    assert rec["violations"] == ["trace formula mismatch"]


def test_verify_keeps_a_record_whose_trace_check_exceeds_the_tadic_budget(tmp_path, capsys):
    # 61^3 = 226981 elements lie past a budget of 2*10^5, which the
    # classical route's F_{61^2} fits
    out_file = tmp_path / "trace_budget.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "--budget", "200000",
                            "verify", "--d", "3", "--e", "2",
                            "--c", "1", "--primes", "61", "--lam-policy", "first:1",
                            "--dwork", "--trace-k", "3"])
    assert code == 0
    (rec,) = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert rec["status"] == "ok" and rec["violations"] == []
    assert rec["trace_consistency"] is None
    assert rec["trace_needed_budget"] == 61**3
    # the classical, Hasse and T-adic parts of the record are kept
    assert rec["np_slopes"] == rec["np_T_slopes"] == ["0/1", "1/3", "2/3"]
    assert rec["H"] == "8" and rec["h_unit"] is True


def _refuse_series_work(monkeypatch):
    """A small operator of (11,3,2), built before dwork.psi_a_matrix and
    dwork.char_series are made to raise if called."""
    import twistnp.dwork as dwork

    mat = dwork.psi_a_matrix(Params(p=11, a=1, d=3, e=2, c=1, mu=1, lam_index=1), 3, 4)

    def no_operator(*args, **kwargs):
        raise AssertionError("the operator was built")

    def no_series(*args, **kwargs):
        raise AssertionError("the characteristic series was computed")

    monkeypatch.setattr(dwork, "psi_a_matrix", no_operator)
    monkeypatch.setattr(dwork, "char_series", no_series)
    return mat


def test_over_budget_trace_check_is_refused_before_any_work(capsys, monkeypatch):
    import twistnp.dwork as dwork
    from twistnp.lfunction import BudgetExceededError

    mat = _refuse_series_work(monkeypatch)
    code = main(["dwork", "--p", "11", "--a", "2", "--d", "3", "--e", "2", "--c", "3",
                 "--lam", "57", "--trace-k", "4", "--J", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: enumeration needs 214358881 elements, budget is 20000000\n"
    # the smallest field past the budget is named: F_{11^2} here
    with pytest.raises(BudgetExceededError, match="needs 121 elements"):
        dwork.trace_consistency(mat, 3, 4, budget=100)  # refused before any series work


def test_bad_J_is_refused_before_the_operator(capsys, monkeypatch):
    import twistnp.dwork as dwork

    mat = _refuse_series_work(monkeypatch)
    for J in ("7", "-1"):
        code = main(["dwork", "--p", "7", "--d", "3", "--e", "2", "--n-max", "8",
                     "--trace-k", "1", "--J", J])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: T-adic truncation order J={J} must lie in [0, p)\n"
    with pytest.raises(ValueError, match="J=11 must lie"):
        dwork.trace_consistency(mat, 1, 11)  # refused before any series work


def test_dwork_trace_check_runs_under_the_global_budget(capsys):
    # F_{61^3} lies past 2*10^5 elements; a larger --budget admits it
    code, out = _run(capsys, ["--budget", "100000000", "dwork", "--p", "61", "--d", "3",
                              "--e", "2", "--trace-k", "3"])
    assert code == 0
    reports = json.loads(out)["trace_consistency"]
    assert [r["k"] for r in reports] == [1, 2, 3] and all(r["ok"] for r in reports)


@pytest.mark.parametrize("argv", [
    ["polygon", "--p", "2", "--d", "3", "--e", "1"],
    ["hasse", "--p", "2", "--d", "3", "--e", "1"],
    ["dwork", "--p", "2", "--d", "3", "--e", "1"],
])
def test_default_coefficient_exists_at_q_2(capsys, argv):
    # F_2^* = {1}: the default coefficient index is 1 mod (q - 1) = 0
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["params"].endswith("_l0")


@pytest.mark.parametrize("p, J", [(2, 1), (3, 2), (5, 4), (7, 6)])
def test_dwork_default_truncation_order_fits_p(capsys, p, J):
    code, out = _run(capsys, ["dwork", "--p", str(p), "--d", "4" if p == 3 else "3",
                              "--e", "1", "--trace-k", "1"])
    assert code == 0
    assert json.loads(out)["trace_consistency"] == [{"k": 1, "checked_order": J, "ok": True}]


def test_consistency_errors_exit_1(capsys, monkeypatch):
    import twistnp.dwork as dwork

    real = dwork.char_series

    def corrupt_c2(mat, n_max):
        coeffs = real(mat, n_max)
        coeffs[2] = coeffs[2] + coeffs[2].constant(1)
        return coeffs

    monkeypatch.setattr(dwork, "char_series", corrupt_c2)
    code = main(["dwork", "--p", "11", "--d", "3", "--e", "2", "--trace-k", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: Tr(A^2) from A and from the")
    assert captured.err.count("\n") == 1


def test_dwork_past_p(capsys):
    # n_max = d = 4 >= p = 3: the characteristic series never divides
    code, out = _run(capsys, ["dwork", "--p", "3", "--d", "4", "--e", "1"])
    assert code == 0
    doc = json.loads(out)
    # p = 3 is below (d-e)(2d-1) = 21, where the assignment bound is no theorem
    assert doc["lies_above_lower_bound"] is None
    values = [Fraction(v) for _, v in doc["np_T"]["vertices"]]
    H = hodge_polygon(Params(p=3, a=1, d=4, e=1, c=1, mu=1), 4)
    assert all(v >= h for v, h in zip(values, H.values))
    assert values[4] == H.value(4)


def test_dwork_sandwich_below_the_monotonicity_bound(tmp_path, capsys):
    # the classical side reflects l_0..l_1 (p = 3 > h + 1 = 2); P is no bound
    code, out = _run(capsys, ["dwork", "--p", "3", "--d", "4", "--e", "1",
                              "--sandwich"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lies_above_lower_bound"] is None
    assert doc["sandwich"] == {"P_below_npT": None, "npT_below_classical": True}
    # nor in a grid record, where P's slopes are not even convex
    out_file = tmp_path / "small.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "4", "--e", "1",
                            "--c", "1", "--primes", "3", "--allow-small-p", "--dwork"])
    assert code == 0
    (rec,) = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert rec["P_slopes"] == ["0/1", "1/1", "1/2", "0/1"]
    assert rec["sandwich"] is True and rec["violations"] == []


def _perturb_top_sum(monkeypatch):
    """Add 1 to S_{h+1}, the sum only the certificate reads."""
    import twistnp.lfunction as lfunction

    real = lfunction.classical_sums_multi

    def perturbed(params, k, *args, **kwargs):
        sums = real(params, k, *args, **kwargs)
        if k == lfunction.classical_route(params.d, params.c).k_max:
            for s in sums.values():
                s.value = s.value + s.value.ctx.ram_one()
        return sums

    monkeypatch.setattr(lfunction, "classical_sums_multi", perturbed)


def test_reflection_mismatch_exits_1(capsys, monkeypatch):
    _perturb_top_sum(monkeypatch)
    code = main(["dwork", "--p", "11", "--d", "3", "--e", "2", "--sandwich"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: l_2 has valuation 0 computed")


def test_verify_records_a_reflection_mismatch(tmp_path, capsys, monkeypatch):
    _perturb_top_sum(monkeypatch)
    out_file = tmp_path / "reflect.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "5",
                            "--e", "2", "--c", "1,2", "--primes", "43"])
    assert code == 1
    recs = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert len(recs) == 2
    # the record keeps its point's fields, route and largest field
    for rec, c in zip(recs, (1, 2)):
        assert rec["status"].startswith("error:FunctionalEquationError:l_3 ")
        assert rec["key"] == f"p43_a1_d5_e2_c{c}_mu1_l0"
        assert (rec["p"], rec["a"], rec["d"], rec["e"], rec["c"], rec["mu"],
                rec["lambda_index"]) == (43, 1, 5, 2, c, 1, 0)
        assert rec["route"] == "functional-equation" and rec["enum_field"] == 43**3


def test_small_p_sweep_with_dwork(tmp_path, capsys):
    # p = 5 <= d = 7: full enumeration would refuse, the half route needs p > 4
    out_file = tmp_path / "small.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "sweep", "--allow-small-p",
                            "--dwork", "--d", "7", "--e", "2,3", "--c", "1",
                            "--primes", "5"])
    assert code == 0
    recs = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert [r["e"] for r in recs] == [2, 3]
    H = [Fraction(n * (n - 1), 14) for n in range(8)]
    for rec in recs:
        assert rec["status"] == "ok" and rec["enum_field"] == 5**4
        values = [Fraction(0)]
        for slope in rec["np_slopes"]:
            values.append(values[-1] + Fraction(slope))
        assert all(v >= h for v, h in zip(values, H)) and values[7] == H[7]
        assert rec["routes_agree"] and rec["np_T_slopes"] == rec["np_slopes"]


def test_verify_anchor_grid_all_lambdas(tmp_path, capsys):
    out_file = tmp_path / "anchor.jsonl"
    code, out = _run(capsys, ["--out", str(out_file), "verify", "--d", "3",
                              "--e", "2", "--primes", "11",
                              "--lam-policy", "all"])
    assert code == 0
    recs = [json.loads(x) for x in out_file.read_text().strip().splitlines()]
    assert len(recs) == 10
    assert all(r["equal"] and r["lies_above"] and not r["violations"]
               for r in recs)
    assert {r["np_slopes"][0] for r in recs} == {"0/1"}
    summary = json.loads(out)["summary"]
    assert summary["equal"] == 10 and summary["violations"] == 0


def test_verify_quarantines_partial_lines(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    argv = ["--out", str(out_file), "sweep", "--d", "3", "--e", "2",
            "--primes", "11", "--lam-policy", "first:1"]
    code, _ = _run(capsys, argv)
    assert code == 0
    good = out_file.read_text()
    with open(out_file, "a", encoding="utf-8") as fh:
        fh.write('{"key": "p13_truncat')  # simulated crash mid-write
    code2, _ = _run(capsys, argv)
    assert code2 == 0
    assert out_file.read_text() == good
    assert (tmp_path / "sweep.jsonl.quarantine").read_text().startswith('{"key"')


def test_verify_quarantines_lines_that_are_no_record(tmp_path, capsys):
    # lines that decode, but not to an object with a string key, are
    # quarantined like partial ones, not read as records
    out_file = tmp_path / "sweep.jsonl"
    argv = ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
            "--primes", "11", "--lam-policy", "first:1"]
    code, _ = _run(capsys, argv)
    assert code == 0
    good = out_file.read_text()
    junk = ["null", "[1, 2]", "7", '"key"', '{"key": 5}', '{"status": "ok"}']
    with open(out_file, "a", encoding="utf-8") as fh:
        fh.write("\n".join(junk) + "\n")
    code2, out2 = _run(capsys, argv)
    assert code2 == 0
    assert json.loads(out2)["summary"]["skipped_existing"] == 1
    assert out_file.read_text() == good
    assert (tmp_path / "sweep.jsonl.quarantine").read_text().splitlines() == junk


def test_verify_empty_grid(tmp_path, capsys):
    out_file = tmp_path / "empty.jsonl"
    code, out = _run(capsys, ["--out", str(out_file), "verify", "--d", "3",
                              "--e", "9", "--primes", "11"])
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 0
    assert not out_file.exists() or out_file.read_text() == ""


@pytest.mark.parametrize("grid", [
    ["--d", "1", "--e", "all", "--primes", "3"],
    ["--d", "0", "--e", "max", "--primes", "3"],
    ["--d", "3,1", "--e", "max", "--primes", "3,5"],
])
def test_grid_refuses_d_below_two(tmp_path, capsys, grid):
    # no binomial has d < 2: refused, not read as an empty grid or as
    # error records
    out_file = tmp_path / "none.jsonl"
    code = main(["--out", str(out_file), "verify"] + grid)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --d entries must be >= 2, got {grid[1][-1]}\n"
    assert not out_file.exists()


def test_grid_points_are_validated_before_the_output_opens(tmp_path, capsys, monkeypatch):
    import twistnp.cli as cli

    monkeypatch.setattr(cli, "_grid_primes", lambda *args: [11, 4])
    out_file = tmp_path / "none.jsonl"
    code = main(["--out", str(out_file), "sweep", "--d", "3", "--e", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: p must be prime, got 4\n"
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_grid_rejects_a_multiple_below_one(tmp_path, capsys, command):
    # a = 0 gives q = 1: no lambda, no tuple, and nothing was verified
    out_file = tmp_path / "none.jsonl"
    code = main(["--out", str(out_file), command, "--d", "3", "--e", "2",
                 "--primes", "11", "--a-multiple", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out_file.exists()


def test_sweep_budget_skip(tmp_path, capsys):
    out_file = tmp_path / "budget.jsonl"
    code, out = _run(capsys, ["--budget", "100", "--out", str(out_file),
                              "sweep", "--d", "3", "--e", "2", "--primes", "11"])
    assert code == 0
    rec = json.loads(out_file.read_text().strip())
    assert rec["status"] == "skipped:budget"
    # the functional-equation route enumerates F_p and F_{p^2} only
    assert rec["needed_budget"] == rec["enum_field"] == 11**2
    assert rec["route"] == "functional-equation"


def test_budget_gate_ranks_before_the_p_threshold(tmp_path, capsys):
    # p = 5 does not exceed the half route's k_max = 5 either, but the
    # enumeration of F_{5^5} is refused first
    out_file = tmp_path / "budget.jsonl"
    code, _ = _run(capsys, ["--budget", "100", "--out", str(out_file), "sweep", "--d", "9",
                            "--e", "2", "--primes", "5", "--allow-small-p"])
    assert code == 0
    rec = json.loads(out_file.read_text().strip())
    assert rec["status"] == "skipped:budget"
    assert rec["needed_budget"] == rec["enum_field"] == 5**5


def test_p_threshold_refusal_keeps_the_record_fields(tmp_path, capsys):
    # d = 9, c = 1: the half route's k_max is 5, which p = 5 does not exceed
    # though F_{5^5} fits the budget; the records keep the route and the
    # parameters, and count as errors, not as budget skips
    out_file = tmp_path / "small.jsonl"
    code, out = _run(capsys, ["--out", str(out_file), "sweep", "--d", "9", "--e", "2",
                              "--primes", "5", "--allow-small-p", "--lam-policy", "first:2"])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["errors"] == 2 and summary["skipped_budget"] == 0
    recs = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert [r["lambda_index"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["status"] == ("error:ValueError:need p > 5 so the exponential "
                                 "recurrence divides by units")
        assert rec["needed_p_above"] == 5
        assert rec["route"] == "functional-equation" and rec["enum_field"] == 5**5
        assert (rec["p"], rec["a"], rec["d"], rec["e"], rec["c"], rec["mu"]) == (5, 1, 9, 2, 1, 1)


def test_grid_records_take_the_hodge_polygon_of_their_group(tmp_path, capsys, monkeypatch):
    import twistnp.cli as cli
    import twistnp.polygon as polygon

    real, calls = polygon.hodge_polygon, []

    def counted(params, n_max):
        calls.append((params.c, params.mu, n_max))
        return real(params, n_max)

    for owner in (cli, polygon):
        monkeypatch.setattr(owner, "hodge_polygon", counted)
    out_file = tmp_path / "grid.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
                            "--c", "1,3", "--primes", "7", "--lam-policy", "first:3"])
    assert code == 0
    recs = [json.loads(x) for x in out_file.read_text().splitlines()]
    assert len(recs) == 9 and all(r["status"] == "ok" for r in recs)
    # one Hodge polygon per (p, a, d, e, c, mu) group, to 3d, and none per record
    assert calls == [(1, 1, 9), (3, 1, 9), (3, 2, 9)]


def test_over_budget_sandwich_is_refused_before_the_operator(capsys, monkeypatch):
    import twistnp.dwork as dwork

    def no_operator(*args, **kwargs):
        raise AssertionError("the operator was built")

    monkeypatch.setattr(dwork, "psi_a_matrix", no_operator)
    code = main(["--budget", "20", "dwork", "--p", "7", "--d", "3", "--e", "2",
                 "--n-max", "8", "--sandwich"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: enumeration needs 49 elements, budget is 20\n"


def test_over_budget_lfunc_is_refused_before_any_pass(capsys, monkeypatch):
    import twistnp.lfunction as lfunction

    def no_pass(*args, **kwargs):
        raise AssertionError("a field was enumerated")

    monkeypatch.setattr(lfunction, "trace_count_matrix", no_pass)
    code = main(["--budget", "1000", "lfunc", "--p", "43", "--d", "5", "--e", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # the half route needs F_43 .. F_{43^3}; F_43 fits, F_{43^2} is the one named
    assert captured.err == "error: enumeration needs 1849 elements, budget is 1000\n"


def test_lfunc_answers_below_d(capsys):
    # p = 5 <= d = 7: the half route divides by n <= 4 only, where the
    # identities from every sum S_1..S_7 would divide by 5
    code, out = _run(capsys, ["lfunc", "--p", "5", "--d", "7", "--e", "2"])
    assert code == 0
    assert json.loads(out)["newton_slopes"] == ["0/1", "3/8", "3/8", "1/2", "1/2",
                                                "5/8", "5/8"]


def test_grid_polygons_reach_n_max_past_3d(tmp_path, capsys):
    out_file = tmp_path / "nmax.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
                            "--primes", "11", "--n-max", "12"])
    assert code == 0
    rec = json.loads(out_file.read_text().strip())
    assert rec["status"] == "ok" and rec["violations"] == []
    # P and H are built past 3d = 9 to n_max
    params = Params(p=11, a=1, d=3, e=2, c=1, mu=1)
    for field, poly in (("P_slopes", lower_bound_polygon(params, 12)),
                        ("hodge_slopes", hodge_polygon(params, 12))):
        assert rec[field] == [f"{s.numerator}/{s.denominator}" for s in poly.slopes()]
        assert len(rec[field]) == 12


def test_records_name_their_route(tmp_path, capsys):
    out_file = tmp_path / "routes.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "sweep", "--d", "3,4",
                            "--e", "1", "--c", "1,3", "--mu", "1",
                            "--primes", "13"])
    assert code == 0
    recs = {(r["d"], r["c"]): r for r in map(json.loads, out_file.read_text().splitlines())}
    assert {k: (r["status"], r["route"], r["enum_field"]) for k, r in recs.items()} == {
        (3, 1): ("ok", "functional-equation", 13**2),
        (3, 3): ("ok", "functional-equation-conjugate", 13**2),
        (4, 1): ("ok", "functional-equation", 13**2),
        (4, 3): ("ok", "functional-equation-conjugate", 13**3),
    }


def test_parallel_jobs_match_serial(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["verify", "--d", "3", "--e", "2", "--primes", "11,13",
            "--lam-policy", "first:2"]
    assert main(["--out", str(serial)] + base) == 0
    capsys.readouterr()
    assert main(["--out", str(parallel), "--jobs", "2"] + base) == 0
    capsys.readouterr()

    def strip_timing(line):
        rec = json.loads(line)
        rec.pop("timings", None)
        return rec

    got = [strip_timing(x) for x in parallel.read_text().strip().splitlines()]
    want = [strip_timing(x) for x in serial.read_text().strip().splitlines()]
    assert got == want


def test_module_entrypoint_runs():
    # the subprocess imports twistnp from the same source tree as this test
    src = os.path.dirname(os.path.dirname(os.path.abspath(twistnp.__file__)))
    path = os.pathsep.join(x for x in (src, os.environ.get("PYTHONPATH")) if x)
    proc = subprocess.run(
        [sys.executable, "-m", "twistnp.cli", "polygon", "--p", "7",
         "--d", "3", "--e", "1", "--n-max", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps functions by name; a rename must fail here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(root, "perfbench"),
         os.path.join(root, "src")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(twistnp.__file__)))
    code = "import sys, twistnp.cli; print({'scipy', 'sympy'} & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"


def test_cli_import_leaves_numpy_out():
    # the runtime is the standard library alone; numpy serves the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(twistnp.__file__)))
    code = "import sys, twistnp.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_out():
    # start-up cost: the records are plain classes, so neither the
    # dataclasses machinery nor the inspect module it pulls in is loaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(twistnp.__file__)))
    code = ("import sys; bare = set(sys.modules); import twistnp.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "twistnp.cli" in added
    assert not {"dataclasses", "inspect"} & added


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("name, argv", [
    ("dwork_q121", ["dwork", "--p", "11", "--a", "2", "--d", "3", "--e", "2", "--c", "3",
                    "--lam", "57", "--trace-k", "2", "--J", "4", "--sandwich"]),
    ("verify_q121", ["verify", "--d", "3", "--e", "2", "--c", "3", "--mu", "1",
                     "--primes", "11", "--lam-policy", "fixed:57"]),
    ("verify_strict", ["verify", "--d", "5", "--e", "2", "--primes", "43",
                       "--lam-policy", "fixed:7"]),
    ("sweep_small", ["sweep", "--d", "3,4", "--c", "3,8", "--primes", "5,7",
                     "--lam-policy", "first:4"]),
    ("dwork_p13", ["dwork", "--p", "13", "--d", "3", "--e", "1", "--trace-k", "3"]),
    ("dwork_q25", ["dwork", "--p", "5", "--a", "2", "--d", "3", "--e", "1", "--c", "4",
                   "--trace-k", "2", "--J", "4", "--sandwich"]),
    ("sweep_dwork", ["sweep", "--d", "3", "--e", "all", "--c", "1,3", "--primes", "7,13",
                     "--lam-policy", "first:2", "--dwork", "--trace-k", "2"]),
    ("sweep_budget", ["sweep", "--d", "3,15", "--e", "2", "--c", "1,3", "--primes", "7,13",
                      "--lam-policy", "first:2", "--dwork", "--trace-k", "9"]),
    ("verify_half_route", ["verify", "--d", "3,4", "--e", "all", "--c", "1,2",
                           "--prime-count", "2", "--lam-policy", "first:3"]),
    ("lfunc_p7_c3", ["lfunc", "--p", "7", "--d", "3", "--e", "2", "--c", "3", "--lam", "2"]),
    ("lfunc_p13_c2", ["lfunc", "--p", "13", "--d", "4", "--e", "1", "--c", "2", "--lam", "3"]),
    ("hasse_p43", ["hasse", "--p", "43", "--d", "5", "--e", "2"]),
    ("hasse_p23_d11", ["hasse", "--p", "23", "--d", "11", "--e", "10"]),
    ("hasse_q961_c4", ["hasse", "--p", "31", "--a", "2", "--d", "3", "--e", "2", "--c", "4",
                       "--mu", "3"]),
    ("hasse_p227_c2", ["hasse", "--p", "227", "--d", "9", "--e", "8", "--c", "2"]),
    ("polygon_q961_c4", ["polygon", "--p", "31", "--a", "2", "--d", "3", "--e", "2",
                         "--c", "4", "--mu", "3", "--n-max", "9"]),
    ("dwork_q343_c9", ["dwork", "--p", "7", "--a", "3", "--d", "3", "--e", "2", "--c", "9",
                       "--trace-k", "1", "--J", "3"]),
    ("verify_q343_c9", ["verify", "--d", "3", "--e", "2", "--c", "9", "--mu", "1",
                        "--primes", "7", "--lam-policy", "first:3"]),
    ("dwork_p13_c4_k4", ["dwork", "--p", "13", "--d", "3", "--e", "1", "--c", "4",
                         "--n-max", "6", "--trace-k", "4"]),
    ("dwork_p7_c3_k4", ["dwork", "--p", "7", "--d", "3", "--e", "2", "--c", "3",
                        "--n-max", "4", "--trace-k", "4", "--J", "5"]),
    ("dwork_p43_k4", ["dwork", "--p", "43", "--d", "5", "--e", "2", "--trace-k", "4"]),
    ("lfunc_p43", ["lfunc", "--p", "43", "--d", "5", "--e", "2"]),
])
def test_outputs_match_golden_records(tmp_path, capsys, name, argv):
    # tests/golden holds each command's stdout and, for a grid, its JSONL
    # records without ``timings``, as written by the code before the change
    # each file guards (dwork_q121 to sweep_small: the base-ring sums;
    # dwork_p13 to sweep_dwork: the trace check in pi; verify_half_route
    # to lfunc_p13_c2: the Newton identities in the group ring; hasse_p43
    # to polygon_q961_c4: the one decomposition and twist-digit rule;
    # dwork_q343_c9 and verify_q343_c9: a deg-3 Z_q reduced by one
    # remainder routine; dwork_p13_c4_k4 and dwork_p7_c3_k4: a direct
    # Tr(A^4) and T-adic sums over several blocks at c >= 2; dwork_p43_k4:
    # the strict instance's T-adic sums over F_43 .. F_{43^4}, written by
    # the pass over every element of each field; lfunc_p43: every sum
    # S_1..S_5, at --budget 200000000); every command exited 0
    grid = argv[0] in ("verify", "sweep")
    out = tmp_path / "records.jsonl"
    code, stdout = _run(capsys, (["--out", str(out)] if grid else []) + argv)
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".stdout"), encoding="utf-8") as fh:
        assert stdout == fh.read()
    if grid:
        lines = []
        for line in out.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            rec.pop("timings", None)
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
        with open(os.path.join(GOLDEN, name + ".jsonl"), encoding="utf-8") as fh:
            assert "".join(lines) == fh.read()


@pytest.mark.parametrize("p", [5, 13])
def test_dwork_help_states_the_default_trace_order(capsys, p):
    from twistnp.dwork import default_trace_order

    code, out = _run(capsys, ["dwork", "--help"])
    assert code == 0
    text = " ".join(out.split())
    cap, shift = map(int, re.search(r"\(default min\((\d+), p - (\d+)\)\)", text).groups())
    assert min(cap, p - shift) == default_trace_order(Params(p=p, a=1, d=3, e=1, c=1, mu=1))


def _fsync_grid(tmp_path, capsys, monkeypatch, *flags):
    """The sweep of d = 3, e = 2, c in {1, 3} over the first two primes
    from 20, with the os.fsync calls counted."""
    calls = []
    real_fsync = os.fsync

    def counted(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    out_file = tmp_path / f"grid{len(flags)}.jsonl"
    code, _ = _run(capsys, ["--out", str(out_file), "sweep", "--d", "3", "--e", "2",
                            "--c", "1,3", "--prime-min", "20", "--prime-count", "2",
                            "--lam-policy", "first:2", *flags])
    assert code == 0
    return [json.loads(x) for x in out_file.read_text().splitlines()], calls


def test_sweep_fsync_syncs_once_per_group(tmp_path, capsys, monkeypatch):
    recs, calls = _fsync_grid(tmp_path, capsys, monkeypatch, "--fsync")
    groups = {tuple(rec[k] for k in ("p", "a", "d", "e", "c", "mu")) for rec in recs}
    assert len(groups) == len(calls) == 6
    assert _fsync_grid(tmp_path, capsys, monkeypatch)[1] == []


def test_sweep_prime_min_starts_the_primes(tmp_path, capsys, monkeypatch):
    recs, _ = _fsync_grid(tmp_path, capsys, monkeypatch)
    assert {rec["p"] for rec in recs} == {23, 29}
