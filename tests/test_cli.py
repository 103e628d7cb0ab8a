"""CLI behaviour: determinism, exit codes, sweep persistence."""

from __future__ import annotations

import decimal
import json
import subprocess
import sys
from fractions import Fraction

from twistnp.cli import main
from twistnp.hasse import hasse_number
from twistnp.polygon import Params


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


def test_bad_flags_exit_2(capsys):
    assert main(["polygon", "--p", "11", "--d", "3"]) == 2  # missing e
    assert main(["polygon", "--p", "10", "--d", "3", "--e", "2"]) == 2  # p not prime
    assert main(["nonsense"]) == 2


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


def test_lfunc_command(capsys):
    code, out = _run(capsys, ["lfunc", "--p", "11", "--d", "3", "--e", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["newton_slopes"] == ["0/1", "2/5", "3/5"]


def test_verify_small_grid_and_resume(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    # 15 is not prime: its tuples become error records under the same keys
    argv = ["--out", str(out_file), "verify", "--d", "3", "--e", "2",
            "--primes", "11,15", "--lam-policy", "first:2"]
    code, out = _run(capsys, argv)
    assert code == 1  # verify counts error records as violations
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 4
    summary = json.loads(out)["summary"]
    assert summary["equal"] == 2 and summary["errors"] == 2
    errors = [json.loads(x) for x in lines if '"error:' in x]
    assert [r["key"] for r in errors] == ["p15_a1_d3_e2_c1_mu1_l0",
                                          "p15_a1_d3_e2_c1_mu1_l1"]
    assert all(r["status"].startswith("error:ValueError:") for r in errors)
    # resume: nothing recomputed, file unchanged
    code2, out2 = _run(capsys, argv)
    assert code2 == 0
    assert json.loads(out2)["summary"]["skipped_existing"] == 4
    assert out_file.read_text().strip().splitlines() == lines


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


def test_verify_empty_grid(tmp_path, capsys):
    out_file = tmp_path / "empty.jsonl"
    code, out = _run(capsys, ["--out", str(out_file), "verify", "--d", "3",
                              "--e", "9", "--primes", "11"])
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 0
    assert not out_file.exists() or out_file.read_text() == ""


def test_sweep_budget_skip(tmp_path, capsys):
    out_file = tmp_path / "budget.jsonl"
    code, out = _run(capsys, ["--budget", "100", "--out", str(out_file),
                              "sweep", "--d", "3", "--e", "2", "--primes", "11"])
    assert code == 0
    rec = json.loads(out_file.read_text().strip())
    assert rec["status"] == "skipped:budget"
    assert rec["needed_budget"] == 11**3


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
    proc = subprocess.run(
        [sys.executable, "-m", "twistnp.cli", "polygon", "--p", "7",
         "--d", "3", "--e", "1", "--n-max", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1
