import csv
import io
import json

import pytest

from psirh.cli import main

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
        code, _, err = run_cli(capsys, "scan", "--criterion", "g",
                               "--hi", str(10**9))
        assert code == 3
        assert "ceiling" in err

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(capsys, "scan", "--criterion", "x", "--hi", "10")[0] == 2

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

    def test_markdown_table(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "md", "table2", "--indices", "3,10")
        assert "| n |" in out
        assert any(set(l) <= {"|", "-"} for l in out.splitlines())


class TestTableCommands:
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

    def test_mertens(self, capsys):
        code, out, _ = run_cli(capsys, "mertens", "--indices", "10,100")
        rows = parse_csv(out)
        assert float(rows[0]["ratio"]) == pytest.approx(1.1513, abs=1e-4)

    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--hi", "3000",
                               "--sigma-hi", "1000")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["passed"] == "true" for r in rows)


class TestRangeErrors:
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
        code, out, err = run_cli(capsys, "props", "--limit", "1000",
                                 "--prop2-limit", str(10**8 + 1))
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
