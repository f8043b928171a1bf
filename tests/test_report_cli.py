import csv
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import psirh
from psirh import champions, prime_engine, primorial, report
from psirh.cli import build_parser, main
from psirh.constants import CONSTANTS

SET_B = [2, 3, 4, 5, 6, 8, 10, 12, 18, 30]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtime(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("# runtime_s"))


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestScanCommand:
    def test_reports_set_b(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--criterion", "f", "--hi", "10000")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["n"]) for r in rows] == SET_B
        assert "# largest=30" in out

    def test_fail_on_exception(self, capsys):
        code, _, _ = run_cli(capsys, "--fail-on-exception",
                             "scan", "--criterion", "f", "--hi", "100")
        assert code == 1

    def test_clean_range_with_flag(self, capsys):
        code, _, _ = run_cli(capsys, "--fail-on-exception",
                             "scan", "--criterion", "f", "--lo", "31", "--hi", "1000")
        assert code == 0

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--criterion", "f", "--hi", "1")
        assert code == 2
        assert out == ""
        assert "hi" in err

    def test_resource_error_exit_3(self, capsys):
        # hi - 1 one past the ratio records' ceiling: 10^300 for f, 10^30 for g
        for criterion, hi in (("f", 10**300 + 2), ("g", 10**30 + 2)):
            code, _, err = run_cli(capsys, "scan", "--criterion", criterion,
                                   "--hi", str(hi))
            assert code == 3
            assert "ceiling" in err

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(capsys, "scan", "--criterion", "x", "--hi", "10")[0] == 2

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_negative_digits_usage_error(self, capsys, monkeypatch, fmt):
        # rejected before any work: the table is never computed
        monkeypatch.setattr(primorial, "table2", None)
        code, out, err = run_cli(capsys, "--format", fmt, "--digits", "-1",
                                 "table2", "--indices", "3,10")
        assert (code, out) == (2, "")
        assert "--digits: must be >= 0" in err

    def test_zero_digits_valid(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "md", "--digits", "0",
                               "table2", "--indices", "3,10")
        assert code == 0 and "| 3 | 5 | 0.22 | 0.2 | 2 | 1 |" in out

    def test_byte_reproducibility(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "scan", "--criterion", "g", "--hi", "6000")
            outs.append(strip_runtime(out))
        assert outs[0] == outs[1]


class TestFormats:
    def test_json_matches_csv_values(self, capsys):
        _, out_csv, _ = run_cli(capsys, "scan", "--criterion", "f", "--hi", "100")
        _, out_json, _ = run_cli(capsys, "--format", "json",
                                 "scan", "--criterion", "f", "--hi", "100")
        doc = json.loads(out_json)
        csv_rows = parse_csv(out_csv)
        assert len(doc["rows"]) == len(csv_rows)
        for jrow, crow in zip(doc["rows"], csv_rows):
            assert jrow["n"] == int(crow["n"])
            assert jrow["value"] == float(crow["value"])
            assert jrow["threshold"] == float(crow["threshold"])

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "table2",
                            "--indices", "3,10")
        doc = json.loads(out)
        assert doc["meta"]["command"] == "table2"
        reparsed = json.loads(json.dumps(doc))
        assert reparsed == doc

    def test_csv_footer_floats_in_shortest_form(self):
        limit = CONSTANTS.e_gamma_over_zeta2
        rep = report.RenderedReport(
            command="mertens", parameters={"indices": "10", "c": 0.6483},
            columns=["n", "ratio"], rows=[{"n": 10, "ratio": 0.279}],
            footer={"limit": limit, "runtime_s": 0.279})
        lines = rep.to_csv().splitlines()
        # rows keep 17 significant digits; every "# key=value" line, header
        # and footer, prints a float as JSON does
        assert "# c=0.6483" in lines
        assert lines[-3:] == ["10,0.27900000000000003",
                              "# limit=1.0827621932609246",
                              "# runtime_s=0.279"]
        doc = json.loads(rep.to_json())
        assert doc["meta"]["c"] == 0.6483 and doc["footer"]["runtime_s"] == 0.279

    def test_markdown_table(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "md", "table2", "--indices", "3,10")
        assert "| n |" in out
        assert any(set(l) <= {"|", "-"} for l in out.splitlines())

    def test_markdown_booleans_as_in_csv_and_json(self, capsys, tmp_path):
        # a row cell and a footer value, each printed true or false
        _, out, _ = run_cli(capsys, "--format", "md", "bounds", "--hi", "3000",
                            "--sigma-hi", "10000")
        assert "| loglogN_lower | 2263 | 3000 | true | 0.00157003 | 2347 |" \
            in out.splitlines()
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("1 2\n2 4\n3 6\n")
        _, out, _ = run_cli(capsys, "--format", "md", "oeis-check", "--bfile",
                            str(bfile), "--sequence", "A060735", "--count", "3")
        assert "| 1 | 2 | 2 | true |" in out.splitlines()
        assert out.splitlines()[-1].startswith(
            "compared=3 truncated=false first_mismatch= runtime_s=")


class TestTableCommands:
    @pytest.mark.parametrize("command, indices", [
        ("table1", primorial.TABLE1_DEFAULT_INDICES),
        ("table2", primorial.TABLE2_DEFAULT_INDICES)])
    def test_default_indices_are_the_constants(self, command, indices):
        args = build_parser().parse_args([command])
        assert args.indices == ",".join(map(str, indices))

    def test_table2_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--indices", "3,10,100")
        assert code == 0
        rows = parse_csv(out)
        printed = {int(r["n"]): r["f_value_printed"] for r in rows}
        assert printed[3] == "0.22"
        assert abs(float(rows[1]["f_value"]) + 1.67) < 0.01

    def test_table1_with_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "theta.cache")
        code, out, _ = run_cli(capsys, "table1", "--indices", "10,1000",
                               "--cache", cache)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["theta_ratio_printed"] == "0.779"
        # warm re-run from cache gives identical rows
        _, out2, _ = run_cli(capsys, "table1", "--indices", "10,1000",
                             "--cache", cache)
        assert strip_runtime(out2) == strip_runtime(out)

    def test_digits_sets_only_the_markdown_display(self, capsys):
        # index 7 is none of the paper's four, so its *_printed cells take
        # the default 6 decimals whatever --digits says
        _, default, _ = run_cli(capsys, "table1", "--indices", "7")
        _, nine, _ = run_cli(capsys, "--digits", "9", "table1", "--indices", "7")
        assert strip_runtime(nine) == strip_runtime(default)
        row = parse_csv(default)[0]
        assert row["theta_ratio_printed"] == "0.773127"
        _, md, _ = run_cli(capsys, "--format", "md", "--digits", "9",
                           "table1", "--indices", "7")
        assert f"| 0.773127 | 0.976036 | 0.866674 | " \
               f"{float(row['theta_ratio']):.9g} |" in md

    # past the one index ceiling, each with the count of primes its pass
    # would need
    @pytest.mark.parametrize("argv, n", [
        (("table1", "--indices", "10500000"), 10500001),
        (("table1", "--indices", "10,20000000"), 20000001),
        (("table2", "--indices", "10500001"), 10500001),
        (("table2", "--indices", "3,20000000"), 20000000),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_tables_past_the_ceiling_exit_3_before_the_pass(
            self, capsys, monkeypatch, argv, n):
        def no_pass(*args, **kwargs):
            raise AssertionError("the prime pass ran")
        monkeypatch.setattr(primorial, "full_scan", no_pass)
        assert run_cli(capsys, *argv) == (
            3, "", f"psirh: resource limit: n_max={n} exceeds configured "
                   f"index ceiling 10500000\n")

    def test_table1_ceiling_checked_before_the_cache(self, capsys, monkeypatch,
                                                     tmp_path):
        # a crafted cache already holding n and n + 1 past the ceiling
        cache = tmp_path / "theta.cache"
        prime_engine.cache_save({
            i: prime_engine.ThetaPoint(i, p, p - 1e4, 0.0) for i, p in
            ((10500000, 188943803), (10500001, 188943817))}, cache)

        def no_pass(*args, **kwargs):
            raise AssertionError("the prime pass ran")
        monkeypatch.setattr(primorial, "full_scan", no_pass)
        argv = ("table1", "--indices", "10500000", "--cache", str(cache))
        assert run_cli(capsys, *argv) == (
            3, "", "psirh: resource limit: n_max=10500001 exceeds configured "
                   "index ceiling 10500000\n")
        # the same cache serves the row once the ceiling admits it
        monkeypatch.setattr(prime_engine, "PRIME_INDEX_CEILING", 10500001)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and parse_csv(out)[0]["p_n"] == "188943803"


class TestOtherCommands:
    def test_champions(self, capsys):
        code, out, _ = run_cli(capsys, "champions", "--limit", "100")
        rows = parse_csv(out)
        assert [int(r["value"]) for r in rows] == [2, 4, 6, 12, 18, 24, 30, 60, 90]

    def test_superabundant(self, capsys):
        code, out, _ = run_cli(capsys, "superabundant", "--limit", "100")
        rows = parse_csv(out)
        assert [int(r["n"]) for r in rows] == [1, 2, 4, 6, 12, 24, 36, 48, 60]

    def test_props(self, capsys):
        code, out, _ = run_cli(capsys, "props", "--limit", "10000",
                               "--prop2-limit", "1000", "--identity-kmax", "6")
        assert code == 0
        rows = parse_csv(out)
        assert all(int(r["failures"]) == 0 for r in rows)

    def test_bounds_fail_on_exception(self, capsys):
        # c = 0.6482, as the paper prints it, fails at n = 12
        argv = ("bounds", "--hi", "3000", "--sigma-hi", "100", "--c", "0.6482")
        code, out, _ = run_cli(capsys, "--fail-on-exception", *argv)
        assert code == 1
        assert "sigma_upper,3,99,false,-1.4995490614737348e-05,12" in \
            out.splitlines()
        assert run_cli(capsys, *argv)[0] == 0

    def test_props_fail_on_exception(self, capsys, monkeypatch):
        # psi(12) one too large breaks the identity at N_2 = 6, l = 2
        psi = champions.dedekind_psi
        monkeypatch.setattr(champions, "dedekind_psi",
                            lambda n: psi(n) + (n == 12))
        code, out, _ = run_cli(capsys, "--fail-on-exception", "props",
                               "--limit", "10000", "--prop2-limit", "1000",
                               "--identity-kmax", "6")
        assert code == 1
        assert {r["proposition"]: r["failures"] for r in parse_csv(out)} == \
            {"prop1": "0", "prop2": "0", "psi_multiple_identity": "1"}

    def test_mertens(self, capsys):
        code, out, _ = run_cli(capsys, "mertens", "--indices", "10,100")
        rows = parse_csv(out)
        assert float(rows[0]["ratio"]) == pytest.approx(1.1513, abs=1e-4)

    def test_mertens_domain(self, capsys):
        code, out, err = run_cli(capsys, "mertens", "--indices", "10,1")
        assert (code, out) == (2, "")
        assert err == "psirh: domain error: mertens ratio defined for n >= 2\n"

    @pytest.mark.parametrize("indices, code, err", [
        ("1,10", 2, "domain error: mertens ratio defined for n >= 2"),
        ("10,-3", 2, "domain error: mertens ratio defined for n >= 2"),
        ("0", 2, "domain error: n_max must be >= 1"),
        ("11000000", 3, "resource limit: n_max=11000000 exceeds configured "
                        "index ceiling 10500000"),
        ("11000000,1", 3, "resource limit: n_max=11000000 exceeds configured "
                          "index ceiling 10500000"),
        ("10000000,1", 2, "domain error: mertens ratio defined for n >= 2"),
    ])
    def test_mertens_indices_checked_before_the_pass(
            self, capsys, monkeypatch, indices, code, err):
        def no_pass(*args, **kwargs):
            raise AssertionError("the prime pass ran")
        monkeypatch.setattr(primorial, "full_scan", no_pass)
        assert run_cli(capsys, "mertens", "--indices", indices) == \
            (code, "", f"psirh: {err}\n")

    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--hi", "3000",
                               "--sigma-hi", "1000")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["passed"] == "true" for r in rows)

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_bounds_c_must_be_finite(self, capsys, c):
        code, out, err = run_cli(capsys, "bounds", "--hi", "3000",
                                 "--sigma-hi", "1000", f"--c={c}")
        assert (code, out) == (2, "")
        assert err.startswith("psirh: domain error: c must be finite")

    def test_bounds_c_near_the_float_maximum(self, capsys):
        # c / log log n overflows to inf for small n: no warning, same row
        code, out, err = run_cli(capsys, "bounds", "--lo", "2263", "--hi",
                                 "2263", "--sigma-hi", "1000", "--c", "1.7e308")
        assert (code, err) == (0, "")
        assert "sigma_upper,3,999,true,8.7968957316259156e+307,999" in \
            out.splitlines()

    @pytest.mark.parametrize("argv, code, err", [
        (("--c", "nan"), 2, "domain error: c must be finite, got nan"),
        (("--sigma-hi", "100000001"), 3,
         "resource limit: hi=100000001 exceeds scan ceiling 100000000"),
    ])
    def test_bounds_sigma_args_checked_before_the_pass(
            self, capsys, monkeypatch, argv, code, err):
        def no_pass(*args, **kwargs):
            raise AssertionError("the prime pass ran")
        monkeypatch.setattr(primorial, "_pass", no_pass)
        assert run_cli(capsys, "bounds", "--hi", "10000001",
                       "--sigma-hi", "1000", *argv) == \
            (code, "", f"psirh: {err}\n")


class TestPrimeWalks:
    """Each primorial command walks the prime stream once, and none looks
    a prime up by index: the bounds read the primes below 20000 off the
    shared list before their pass."""

    @pytest.fixture
    def walks(self, monkeypatch):
        limits = []
        for mod in (prime_engine, primorial):
            def counted(limit, walk=mod.iter_prime_chunks):
                limits.append(limit)
                return walk(limit)

            def no_lookup(n):
                raise AssertionError(f"nth_prime({n}) called")
            monkeypatch.setattr(mod, "iter_prime_chunks", counted)
            monkeypatch.setattr(mod, "nth_prime", no_lookup)
        return limits

    @pytest.mark.parametrize("argv", [
        ("bounds", "--hi", "3000", "--sigma-hi", "1000"),
        ("bounds", "--lo", "5000", "--hi", "6000", "--sigma-hi", "1000"),
        ("table2",), ("mertens",)], ids=" ".join)
    def test_one_walk(self, capsys, walks, argv):
        assert run_cli(capsys, *argv)[0] == 0
        assert len(walks) == 1

    def test_table1_cold_walks_once_and_warm_never(self, capsys, walks,
                                                   tmp_path):
        argv = ("table1", "--indices", "10,1000", "--cache",
                str(tmp_path / "theta.cache"))
        assert run_cli(capsys, *argv)[0] == 0
        assert len(walks) == 1
        assert run_cli(capsys, *argv)[0] == 0
        assert len(walks) == 1


class TestRangeErrors:
    def test_bounds_below_20000_rejected_before_the_pass(self, capsys,
                                                         monkeypatch):
        def no_pass(*args):
            raise AssertionError("the pass started")
        monkeypatch.setattr(primorial, "_pass", no_pass)
        assert run_cli(capsys, "bounds", "--lo", "100", "--hi", "10500000") \
            == (2, "", "psirh: domain error: bound is only claimed for "
                       "p_n >= 20000; p_100 = 541\n")

    @pytest.mark.parametrize("argv", [
        ("bounds", "--hi", "100"),                # ends below the first index
        ("bounds", "--lo", "5", "--hi", "3000"),  # p_5 = 11 < 20000
        ("table1", "--indices", ""),
        ("table2", "--indices", ""),
        ("mertens", "--indices", ""),
        ("mertens", "--indices", "5,0"),
    ])
    def test_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "domain error" in err

    def test_prop2_limit_above_ceiling_exit_3(self, capsys):
        # both limits share the primorial ladder's ceiling, 10^300
        for argv in (("--limit", "1000", "--prop2-limit", str(10**300 + 1)),
                     ("--limit", str(10**300 + 1))):
            code, out, err = run_cli(capsys, "props", *argv)
            assert code == 3
            assert out == ""
            assert "ceiling" in err


class TestOeisCheck:
    def test_agreement(self, capsys, tmp_path):
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("1 2\n2 4\n3 6\n")
        code, out, _ = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                               "--sequence", "A060735", "--count", "3")
        assert code == 0
        assert "# first_mismatch=\n" in out
        rows = parse_csv(out)
        assert all(r["match"] == "true" for r in rows)

    def test_mismatch(self, capsys, tmp_path):
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("1 2\n2 4\n3 7\n")
        code, out, _ = run_cli(capsys, "--fail-on-exception", "oeis-check",
                               "--bfile", str(bfile),
                               "--sequence", "A060735", "--count", "3")
        assert code == 1
        assert "# first_mismatch=3" in out

    def test_superabundant_sequence(self, capsys, tmp_path):
        bfile = tmp_path / "b004394.txt"
        bfile.write_text("1 1\n2 2\n3 4\n4 6\n5 12\n")
        code, out, _ = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                               "--sequence", "A004394", "--count", "5")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["match"] == "true" for r in rows)

    def test_superabundant_terms_to_1e8(self, capsys, tmp_path):
        # OEIS A004394, every term up to 10^8: 11 more than the 31 below 10^6
        terms = [1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840,
                 1260, 1680, 2520, 5040, 10080, 15120, 25200, 27720, 55440,
                 110880, 166320, 277200, 332640, 554400, 665280, 720720,
                 1441440, 2162160, 3603600, 4324320, 7207200, 8648640,
                 10810800, 21621600, 36756720, 61261200, 73513440]
        bfile = tmp_path / "b004394.txt"
        bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate(terms, 1)))
        code, out, _ = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                               "--sequence", "A004394", "--count", "42")
        assert code == 0
        assert [int(r["expected"]) for r in parse_csv(out)] == terms
        assert "# compared=42\n# truncated=false\n# first_mismatch=\n" in out

    @pytest.mark.parametrize("data, err", [
        (b"1 1\n2 2\n3 \xff\n", "line 3: not UTF-8"),
        (b"# \xfe\n1 1\n", "line 1: not UTF-8")])
    def test_undecodable_bfile_is_an_input_error(self, capsys, tmp_path,
                                                 data, err):
        bfile = tmp_path / "b004394.txt"
        bfile.write_bytes(data)
        code, out, got = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                                 "--sequence", "A004394", "--count", "3")
        assert (code, out, got) == (2, "", f"psirh: input error: {err}\n")

    def test_truncation_reported(self, capsys, tmp_path):
        bfile = tmp_path / "b004394.txt"
        bfile.write_text("1 1\n2 2\n")
        code, out, _ = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                               "--sequence", "A004394", "--count", "99999")
        assert code == 0
        assert "# truncated=true" in out

    def test_malformed_bfile_exit_2(self, capsys, tmp_path):
        bfile = tmp_path / "bad.txt"
        bfile.write_text("1 2\nnot numbers\n")
        code, _, err = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                               "--sequence", "A060735", "--count", "2")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("value", ["1_2", "\u0661\u0662"])
    def test_malformed_integer_exit_2(self, capsys, tmp_path, value):
        # a(4) = 12, which int() would also read from either spelling
        bfile = tmp_path / "b060735.txt"
        bfile.write_text(f"1 2\n2 4\n3 6\n4 {value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                                 "--sequence", "A060735", "--count", "4")
        assert (code, out) == (2, "")
        assert err.startswith("psirh: input error: line 4: ")

    def test_non_consecutive_index_exit_2(self, capsys, tmp_path):
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("1 2\n3 6\n")
        code, out, err = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                                 "--sequence", "A060735", "--count", "2")
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_partial_bfile_pairs_by_index(self, capsys, tmp_path):
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("2 4\n3 6\n")
        code, out, _ = run_cli(capsys, "--fail-on-exception", "oeis-check",
                               "--bfile", str(bfile),
                               "--sequence", "A060735", "--count", "2")
        assert code == 0
        assert "# first_mismatch=\n" in out
        rows = parse_csv(out)
        assert [(r["index"], r["expected"]) for r in rows] == \
            [("2", "4"), ("3", "6")]

    def test_late_start_grows_the_sequence(self, capsys, tmp_path):
        # a(61) = 5615610 lies beyond the 37 terms below 10^5
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("61 5615610\n")
        code, out, _ = run_cli(capsys, "--fail-on-exception", "oeis-check",
                               "--bfile", str(bfile),
                               "--sequence", "A060735", "--count", "1")
        assert code == 0
        assert "# compared=1\n" in out
        assert "# truncated=false\n" in out

    def test_index_below_1_exit_2(self, capsys, tmp_path):
        bfile = tmp_path / "b060735.txt"
        bfile.write_text("0 1\n1 2\n")
        code, out, err = run_cli(capsys, "oeis-check", "--bfile", str(bfile),
                                 "--sequence", "A060735", "--count", "2")
        assert code == 2
        assert out == ""
        assert "domain error" in err

    def test_missing_bfile_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "oeis-check", "--bfile",
                             str(tmp_path / "nope.txt"),
                             "--sequence", "A060735", "--count", "2")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("table1", "--indices", "10", "--cache", "{dir}"),
    ("oeis-check", "--bfile", "{dir}", "--sequence", "A060735",
     "--count", "1"),
], ids=lambda argv: argv[0])
def test_unreadable_path_is_an_input_error(capsys, tmp_path, argv):
    # a directory where a file is expected: an input error, not a traceback
    code, out, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("psirh: input error: ")


def run_python(code, *flags):
    env = dict(os.environ, PYTHONPATH=str(Path(psirh.__file__).parents[1]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_thread_pool():
    # the prime stream imports concurrent.futures on first use, and
    # 30-digit decisions import decimal, so a command that needs neither
    # never pays for them at start-up; numpy is imported by the modules
    # that make arrays, on first use, and no module imports mpmath
    out = run_python("import sys, psirh.cli; "
                     "print('concurrent.futures' in sys.modules, "
                     "'decimal' in sys.modules, "
                     "'mpmath' in sys.modules, 'numpy' in sys.modules)")
    assert out == "False False False False\n"


def test_table2_loads_no_mpmath():
    out = run_python("import contextlib, io, sys\n"
                     "from psirh.cli import main\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    code = main(['table2'])\n"
                     "print(code, 'mpmath' in sys.modules)")
    assert out == "0 False\n"


def run_fresh(*argv, prelude=""):
    """psirh.cli.main(argv) in a fresh interpreter, after the statements of
    prelude: (exit code, stdout, stderr, the names of the modules it
    loaded)."""
    out = run_python(
        prelude +
        "import contextlib, io, sys\n"
        "from psirh.cli import main\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    code = main({list(argv)!r})\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue(), modules]))")
    code, stdout, stderr, modules = json.loads(out)
    return code, stdout, stderr, set(modules)


# the modules behind the range scans and record scans, none of which a
# primorial-table command uses
SCAN_MODULES = {"psirh.criteria", "psirh.arith", "psirh.champions"}
# the value records need no dataclasses, only the theta-cache trailer
# (table1 --cache) needs hashlib, and the printed table cells are rounded
# without decimal, which only a 30-digit decision loads (bounds' sigma
# margin, an escalated criterion value); no command loads mpmath
STDLIB_NOT_NEEDED = {"dataclasses", "hashlib", "decimal"}


class TestStartUp:
    def test_warm_table1_loads_no_numpy(self, tmp_path):
        cache = tmp_path / "theta.cache"
        code, cold, _, cold_modules = run_fresh("table1", "--cache", str(cache))
        written = cache.read_bytes()
        warm_code, warm, _, warm_modules = run_fresh("table1", "--cache",
                                                     str(cache))
        assert code == warm_code == 0
        assert "numpy" in cold_modules and "numpy" not in warm_modules
        assert "hashlib" in cold_modules and "hashlib" in warm_modules
        assert not (cold_modules | warm_modules) & {"dataclasses", "decimal",
                                                    "mpmath"}
        assert not cold_modules & SCAN_MODULES
        assert strip_runtime(warm) == strip_runtime(cold)
        assert cache.read_bytes() == written

    def test_clean_interpreter_loads_no_typing_or_decimal(self, tmp_path):
        # under -S no site hook imports typing first; annotations are
        # strings, so no psirh module needs it.  numpy is not importable
        # there either, so the cache is written by this process.
        cache = tmp_path / "theta.cache"
        psirh.table1([10, 1000], cache_path=cache)
        out = run_python(
            "import contextlib, io, sys\n"
            "import psirh.cli\n"
            "seen = [{'typing', 'decimal'} & set(sys.modules)]\n"
            "for argv in (['--help'], ['table1', '--indices', '10,1000',\n"
            f"             '--cache', {str(cache)!r}]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = psirh.cli.main(argv)\n"
            "    seen.append((code, {'typing', 'decimal'} & set(sys.modules)))\n"
            "print(seen, 'numpy' in sys.modules)", "-S")
        assert out == "[set(), (0, set()), (0, set())] False\n"

    def test_cli_import_loads_no_dataclasses_or_hashlib(self):
        out = run_python("import sys, psirh.cli; "
                         f"print(set(sys.modules) & {STDLIB_NOT_NEEDED!r})")
        assert out == "set()\n"

    # table2, mertens and --help are checked with the tests below
    @pytest.mark.parametrize("argv", [
        ["table1", "--indices", "10,1000"], ["bounds", "--hi", "3000"],
        ["scan", "--criterion", "g", "--hi", "1000"], ["superabundant"]],
        ids=" ".join)
    def test_commands_load_no_dataclasses_or_hashlib(self, argv):
        code, _, _, modules = run_fresh(*argv)
        assert code == 0
        assert "mpmath" not in modules
        # bounds decides the sigma margin at its witness in 30 digits
        assert modules & STDLIB_NOT_NEEDED == (
            {"decimal"} if argv[0] == "bounds" else set())

    def test_sigma_bound_runs_without_mpmath(self):
        # an import of mpmath would raise: None in sys.modules
        code, out, _, _ = run_fresh(
            "bounds", "--lo", "2263", "--hi", "2263", "--sigma-hi", "10000000",
            prelude="import sys; sys.modules['mpmath'] = None\n")
        assert code == 0
        row = next(r for r in parse_csv(out) if r["bound"] == "sigma_upper")
        assert row["witness"] == "12"

    # the commands the ratio records settle alone: no walk, no factoring and
    # no array, so no numpy
    @pytest.mark.parametrize("argv", [
        ["superabundant"], ["champions"],
        ["oeis-check", "--sequence", "A060735"],
        ["oeis-check", "--sequence", "A004394"],
        ["scan", "--criterion", "f", "--lo", "100", "--hi", str(10**300)],
        ["scan", "--criterion", "g", "--lo", "5583", "--hi", str(10**30)]],
        ids=["superabundant", "champions", "oeis-check-A060735",
             "oeis-check-A004394", "scan-f-past-47", "scan-g-past-5583"])
    def test_record_commands_load_no_numpy(self, argv, tmp_path):
        if argv[0] == "oeis-check":
            bfile = tmp_path / "b.txt"
            bfile.write_text({"A060735": "1 2\n2 4\n3 6\n",
                              "A004394": "1 1\n2 2\n3 4\n"}[argv[2]])
            argv = [*argv, "--count", "3", "--bfile", str(bfile)]
        code, out, _, modules = run_fresh(*argv)
        assert code == 0
        assert "numpy" not in modules
        if argv[0] == "scan":
            assert "# exceptions=0\n" in out
        elif argv[0] == "oeis-check":
            assert "# first_mismatch=\n" in out

    def test_records_run_with_numpy_unimportable(self):
        # an import of numpy would raise: None in sys.modules
        argv = ["superabundant", "--limit", "1000000"]
        code, out, _, _ = run_fresh(
            *argv, prelude="import sys; sys.modules['numpy'] = None\n")
        assert code == 0
        assert strip_runtime(out) == strip_runtime(run_fresh(*argv)[1])

    # a scan sieves its prefix in the stdlib and factors its candidates,
    # below 5583, and props' identity check factors 43-smooth l N_k: every
    # factorization ends at the primes below 256, tried in Python ints
    @pytest.mark.parametrize("argv", [
        ["scan", "--criterion", "f", "--hi", str(10**7)],
        ["scan", "--criterion", "g", "--hi", str(10**7)],
        ["props", "--limit", str(10**8), "--prop2-limit", str(10**6)]],
        ids=["scan-f", "scan-g", "props"])
    def test_scans_and_props_load_no_numpy(self, argv):
        code, out, err, modules = run_fresh(*argv)
        assert code == 0
        assert "numpy" not in modules
        # the same report with numpy unimportable (an import would raise)
        code2, out2, err2, _ = run_fresh(
            *argv, prelude="import sys; sys.modules['numpy'] = None\n")
        assert (code2, strip_runtime(out2), err2) == (0, strip_runtime(out),
                                                      err)

    def test_walks_and_factoring_load_numpy_at_first_use(self):
        # bounds, whose prime stream and sigma head make arrays; and a
        # query whose cofactor past the primes below 256 is composite,
        # 591,287 * 1,250,083, which the numpy blocks split
        code, _, _, modules = run_fresh("bounds", "--hi", "3000")
        assert code == 0 and "numpy" in modules
        out = run_python("import sys, psirh.criteria, psirh.champions\n"
                         "before = 'numpy' in sys.modules\n"
                         "cv = psirh.champions.dedekind_f(591_287 * 1_250_083)\n"
                         "print(before, 'numpy' in sys.modules, cv.value < 0)")
        assert out == "False True True\n"

    def test_constants_digest_is_sha256_of_constants(self):
        digest = hashlib.sha256(repr(CONSTANTS).encode()).hexdigest()[:12]
        assert report.constants_digest() == digest == "e93c3dc12841"

    @pytest.mark.parametrize("argv", [["table2"], ["mertens"]])
    def test_primorial_commands_load_no_scan_modules(self, argv):
        code, _, _, modules = run_fresh(*argv)
        assert code == 0
        assert not modules & SCAN_MODULES
        assert not modules & (STDLIB_NOT_NEEDED | {"mpmath"})

    @pytest.mark.parametrize("argv, expected", [
        (["--help"], 0), (["table1", "--bogus"], 2), ([], 2)])
    def test_help_and_usage_errors_load_no_numpy(self, argv, expected):
        code, _, _, modules = run_fresh(*argv)
        assert code == expected
        assert "numpy" not in modules
        assert not modules & (STDLIB_NOT_NEEDED | {"mpmath"})

    def test_bad_cache_rejected_without_numpy(self, tmp_path):
        # the cache hit is numpy-free, and so is every check on the file
        cache = tmp_path / "theta.cache"
        psirh.table1([10, 1000], cache_path=cache)
        data = cache.read_bytes()
        at = data.index(b"0x1.")
        for bad in (data[:len(data) // 2], data[:-1],
                    data[:at + 4] + b"7" + data[at + 5:]):
            cache.write_bytes(bad)
            code, out, err, modules = run_fresh(
                "table1", "--indices", "10,1000", "--cache", str(cache))
            assert (code, out) == (2, "")
            assert err.startswith("psirh: input error: line ")
            assert "numpy" not in modules
            assert cache.read_bytes() == bad

    def test_v2_cache_rebuilt(self, tmp_path):
        cache = tmp_path / "theta.cache"
        cache.write_text("psicache v2 stride=1\n"
                         "10 29 0x1.69724188e9583p+4 0x0.0p+0\n")
        code, out, _, _ = run_fresh("table1", "--indices", "10,1000",
                                    "--cache", str(cache))
        assert code == 0
        assert parse_csv(out)[0]["theta_ratio_printed"] == "0.779"
        assert cache.read_text().startswith("psicache v3\n")
        assert set(psirh.cache_load(cache)) == \
            {10, 11, 1000, 1001}


# every name psirh re-exported when its __init__ imported each submodule,
# less mertens_ratio, now only the PrimorialStats property, and ThetaCache,
# now a plain {index: ThetaPoint} dict, with Decision for BoundCheckResult
OLD_EXPORTS = {
    "arith": "dedekind_psi factorize is_squarefree num_divisors sigma",
    "champions": "generate_s_sequence generate_superabundant "
                 "psi_multiple_identity_check read_bfile verify_prop1 "
                 "verify_prop2",
    "criteria": "CONSTANTS Decision CriterionKind "
                "check_sigma_upper_bound dedekind_f robin_g scan_exceptions",
    "errors": "BFileParseError CacheParseError CacheVersionError DomainError "
              "ResourceLimitError",
    "prime_engine": "ThetaPoint cache_load cache_save nth_prime",
    "primorial": "check_primorial_bounds ftilde_ratio_deviation full_scan "
                 "k_ratio table1 table2",
}


class TestPackageExports:
    def test_names_resolve_to_submodule_objects(self):
        # in a fresh interpreter, so every name goes through the lazy lookup
        out = run_python(
            "import importlib, psirh\n"
            f"exports = {OLD_EXPORTS!r}\n"
            "for module, names in exports.items():\n"
            "    for name in names.split():\n"
            "        ns = {}\n"
            "        exec(f'from psirh import {name}', ns)\n"
            "        sub = importlib.import_module('psirh.' + module)\n"
            "        assert ns[name] is getattr(sub, name) is getattr(psirh, name), name\n"
            "print(sum(len(names.split()) for names in exports.values()))")
        assert out == "33\n"

    def test_bare_import(self):
        out = run_python(
            "import psirh\n"
            "mods = [psirh.arith, psirh.champions, psirh.cli, psirh.constants,"
            " psirh.criteria, psirh.errors, psirh.prime_engine,"
            " psirh.primorial, psirh.report]\n"
            "print(' '.join(m.__name__.split('.')[1] for m in mods))")
        assert out == ("arith champions cli constants criteria errors "
                       "prime_engine primorial report\n")

    def test_star_import_and_dir(self):
        names = {n for names in OLD_EXPORTS.values() for n in names.split()}
        ns = {}
        exec("from psirh import *", ns)
        assert names <= set(ns)
        assert names <= set(dir(psirh))
        assert {"arith", "criteria", "primorial"} <= set(dir(psirh))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            psirh.no_such_name
        with pytest.raises(ImportError):
            exec("from psirh import no_such_name", {})


def defined_functions(module):
    """Every function and method the module defines, unwrapped (lru_cache),
    with the getters of its properties."""
    found = []
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ != module.__name__:
            continue
        members = vars(obj).values() if isinstance(obj, type) else [obj]
        for member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            member = inspect.unwrap(member) if callable(member) else member
            if (inspect.isfunction(member)
                    and member.__module__ == module.__name__):
                found.append(member)
    return found


def test_every_annotation_resolves():
    """Annotations are strings (no module imports typing); each names only
    builtins, collections.abc and the package's own types, so
    typing.get_type_hints evaluates all of them."""
    import typing
    functions = [fn for info in pkgutil.iter_modules(psirh.__path__)
                 for fn in defined_functions(
                     importlib.import_module(f"psirh.{info.name}"))]
    unresolved = []
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append((fn.__module__, fn.__qualname__, str(exc)))
    assert unresolved == []
    names = {fn.__qualname__ for fn in functions}
    assert {"full_scan", "_pass", "check_primorial_bounds", "table1",
            "_simple_sieve", "_segment_primes", "iter_prime_chunks",
            "fmt_number", "RenderedReport.meta"} <= names
    assert len(set(functions)) > 90
