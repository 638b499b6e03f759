"""End-to-end tests of the command line interface."""

import argparse
import csv
import io
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from kuiper_hoe.cli import _emit, main, parse_dist_spec
from kuiper_hoe.montecarlo import SimConfig, simulate_type1
from kuiper_hoe.series import cdf_kn, utp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def decile_file(tmp_path):
    """Ten values sitting exactly on the standard-normal mid-deciles."""
    path = tmp_path / "deciles.txt"
    lines = ["# standard normal mid-deciles"]
    lines += [f"{NormalDist().inv_cdf((t - 0.5) / 10):.17g}" for t in range(1, 11)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestPair:
    def test_table1_cell(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--alpha", "0.01",
                               "--n", "10", "--k", "1")
        assert code == 0
        assert out.strip() == "(1.8401, 0.5819)"

    def test_direct_method_cell(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--alpha", "0.05", "--n", "10",
                               "--k", "5", "--method", "direct")
        assert code == 0
        assert out.strip() == "(1.6630, 0.5259)"

    def test_invalid_alpha_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--alpha", "1.5",
                               "--n", "10", "--k", "1")
        assert code == 2
        assert "alpha" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--alpha", "0.05", "--n", "10",
                               "--k", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == pytest.approx(1.6630, abs=1e-4)
        assert payload["v"] == payload["c"] / math.sqrt(10)

    @pytest.mark.parametrize("k", ["4", "5"])
    def test_capacity_whose_square_overflows(self, capsys, k):
        # n^2 = 1e400 lies beyond the float range; the k >= 4 tail shift
        # over n^2 is 0 there, not an OverflowError
        code, out, err = run_cli(capsys, "pair", "--alpha", "0.05",
                                 "--n", "1" + "0" * 200, "--k", k)
        assert (code, out, err) == (0, "(1.7473, 0.0000)\n", "")

    def test_nonconvergence_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--alpha", "0.0026", "--n", "5",
                                 "--k", "1", "--method", "direct")
        assert (code, out) == (3, "")
        assert err == ("error: no convergence after 200 updates: last iterate "
                       "1.8295751, last distance 0.0006072\n")


class TestQuantiles:
    def test_utq(self, capsys):
        code, out, _ = run_cli(capsys, "utq", "--alpha", "0.40",
                               "--n", "6", "--k", "3")
        assert code == 0
        assert out.strip() == "0.4751"

    def test_ltq_duality(self, capsys):
        _, out_ltq, _ = run_cli(capsys, "ltq", "--alpha", "0.95",
                                "--n", "10", "--k", "1")
        _, out_utq, _ = run_cli(capsys, "utq", "--alpha", "0.05",
                                "--n", "10", "--k", "1")
        assert out_ltq == out_utq
        assert out_utq.strip() == "0.5080"

    def test_invcdf(self, capsys):
        code, out, _ = run_cli(capsys, "invcdf", "--x", "0.95",
                               "--n", "10", "--k", "1")
        assert code == 0
        assert out.strip() == "0.5080"

    @pytest.mark.parametrize("argv,message", [
        (("ltq", "--alpha", "-3"), "alpha must be in [0, 1), got -3.0"),
        (("ltq", "--alpha", "1.0"), "alpha must be in [0, 1), got 1.0"),
        (("invcdf", "--x", "1"), "probability x must be in [0, 1), got 1.0"),
        (("invcdf", "--x", "-0.5"), "probability x must be in [0, 1), got -0.5")])
    def test_level_outside_unit_interval_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--n", "10", "--k", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestCdfCommand:
    def test_by_v(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--v", "0.5080",
                               "--n", "10", "--k", "1")
        assert code == 0
        assert "cdf  0.9500" in out

    def test_needs_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--n", "10", "--k", "1")
        assert code == 2
        assert err.endswith("error: one of the arguments --v --c is required\n")
        code, _, err = run_cli(capsys, "cdf", "--v", "0.5", "--c", "1.5",
                               "--n", "10")
        assert code == 2
        assert err.endswith("error: argument --c: not allowed with argument --v\n")

    @pytest.mark.parametrize("argv", [("--v", "0.5", "--n", "0"),
                                      ("--v", "0.5", "--n", "-3"),
                                      ("--c", "1.5", "--n", "0"),
                                      ("--c", "1.5", "--n", "-3"),
                                      ("--c", "1", "--n", "1" + "0" * 400)],
                             ids=["v-zero-n", "v-negative-n", "c-zero-n",
                                  "c-negative-n", "c-n-beyond-float"])
    def test_bad_capacity_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "cdf", *argv, "--k", "1")
        assert code == 2
        assert out == ""
        n = argv[-1]
        assert err == f"error: sample capacity n must be an integer >= 1, got {n}\n"


    @pytest.mark.parametrize("v, message", [
        ("1e308", "statistic argument v=1e+308 overflows c = v * sqrt(n) "
                  "at n=1000000"),
        ("nan", "statistic argument v must be positive and finite, got nan"),
        ("-0.5", "statistic argument v must be positive and finite, got -0.5"),
    ], ids=["overflowing-v", "nan-v", "negative-v"])
    def test_bad_v_is_named(self, capsys, v, message):
        code, out, err = run_cli(capsys, "cdf", "--v", v, "--n", "1000000",
                                 "--k", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_c_evaluates_cdf_and_utp_at_c(self, capsys):
        # c / sqrt(n) * sqrt(n) is not 1.7 in floats at n = 5
        code, out, _ = run_cli(capsys, "cdf", "--c", "1.7", "--n", "5",
                               "--k", "5", "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert row["c"] == 1.7
        assert row["cdf"] == float(cdf_kn(1.7, 5, 5))
        assert row["utp"] == float(utp(1.7, 5, 5))


    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_c_below_trust_floor_carries_the_warning(self, capsys, fmt):
        warning = ("c=0.5 is below the series trust floor 0.6; the asymptotic "
                   "expansion is unreliable there")
        code, out, _ = run_cli(capsys, "cdf", "--c", "0.5", "--n", "10",
                               "--k", "5", "--format", fmt)
        assert code == 0
        if fmt == "table":
            assert out.splitlines()[-1] == f"warning  {warning}"
        elif fmt == "csv":
            (row,) = csv.DictReader(io.StringIO(out))
            assert row["warning"] == warning
        else:
            assert json.loads(out)["warning"] == warning

    def test_huge_c_prints_the_constant_limit(self, capsys):
        # the polynomial overflows while its exponential underflows to 0;
        # the term adds nothing instead of making the value NaN
        code, out, _ = run_cli(capsys, "cdf", "--c", "1e60", "--n", "10",
                               "--k", "5")
        assert code == 0
        assert "cdf  0.9945" in out
        assert "utp  0.0055" in out


class TestTable:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--alpha", "0.40",
                               "--n", "6", "--k", "5")
        assert code == 0
        assert "(1.1581, 0.4728)" in out

    @pytest.mark.parametrize("argv, message", [
        (("--alpha", "0.10", "--n", ""), "--n needs at least one value"),
        (("--alpha", "0.10", "--n", "0,10"), "sample capacity n"),
        (("--alpha", "0.10", "--k", "7"), "expansion order k"),
        (("--alpha", "nan"), "alpha must be in (0, 1)"),
    ], ids=["empty-n", "zero-n", "k-7", "alpha-nan"])
    def test_malformed_input_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "table", *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("flag, text", [
        ("--n", "6,abc"), ("--k", "1,2.5"), ("--n", "6,,7"), ("--n", "6,"),
        ("--k", ",1")])
    def test_non_integer_list_names_the_flag(self, capsys, flag, text):
        # once exited 2 with "invalid literal for int() with base 10: 'abc'";
        # an empty item was dropped, so "6,,7" printed rows 6 and 7
        code, out, err = run_cli(capsys, "table", "--alpha", "0.05", flag, text)
        assert (code, out) == (2, "")
        assert err == (f"error: {flag} must be a comma list of integers, "
                       f"got {text!r}\n")

    @pytest.mark.parametrize("flag, text, item", [
        ("--k", "1,1", 1), ("--n", "10,10", 10), ("--n", "6,10,6", 6),
        ("--k", "1, 2,1", 1), ("--n", "10,010", 10)])
    def test_repeated_item_names_the_flag(self, capsys, flag, text, item):
        # once exited 0 and printed the repeated column or row twice
        code, out, err = run_cli(capsys, "table", "--alpha", "0.05", flag, text)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} repeats {item}: {text!r}\n"

    def test_csv_grid_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--alpha", "0.10",
                               "--n", "6,10", "--k", "1,5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        cell = {(int(r["n"]), int(r["k"])): (float(r["c"]), float(r["v"]))
                for r in rows}
        assert cell[10, 1][0] == pytest.approx(1.4877, abs=1e-4)
        assert cell[6, 5][1] == pytest.approx(0.6145, abs=1e-4)
        for (n, _), (c, v) in cell.items():
            assert v == c / math.sqrt(n)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_unreachable_cell(self, capsys, fmt):
        # order 2 cannot reach alpha = 0.001 at n = 10; order 1 can
        code, out, _ = run_cli(capsys, "table", "--alpha", "0.001", "--n", "10",
                               "--k", "1,2", "--format", fmt)
        assert code == 0
        if fmt == "table":
            assert out.splitlines()[-1].split() == ["10", "(2.1087,", "0.6668)", "x"]
        elif fmt == "csv":
            assert out.splitlines()[-1] == "0.001,10,2,,"
        else:
            reached, unreached = json.loads(out)["cells"]
            assert reached["c"] == pytest.approx(2.1087, abs=1e-4)
            assert unreached == {"n": 10, "k": 2, "c": None, "v": None}

    @pytest.mark.parametrize("extra, precision", [
        ((), 10), (("--precision", "0"), 0), (("--method", "direct"), 10)],
        ids=["newton", "precision-0", "direct"])
    def test_three_formats_render_one_set_of_cells(self, capsys, extra,
                                                   precision):
        argv = ("table", "--alpha", "0.001", "--n", "6,50,1000000",
                "--k", "1,2,5", *extra)
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["alpha", "n", "k", "c", "v"]
        payload = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        assert payload["alpha"] == 0.001
        keys = [(n, k) for n in (6, 50, 1000000) for k in (1, 2, 5)]
        assert [(cell["n"], cell["k"]) for cell in payload["cells"]] == keys
        for row, cell in zip(rows, payload["cells"], strict=True):
            # an empty csv cell is None in json; a float has one repr in both
            assert row == ["0.001", str(cell["n"]), str(cell["k"]),
                           *("" if cell[x] is None else repr(cell[x])
                             for x in "cv")]
        _, out, _ = run_cli(capsys, *argv, "--format", "table",
                            "--precision", str(precision))
        width = 2 * precision + 10
        lines = out.splitlines()
        assert lines[0] == "alpha = 0.001"
        assert lines[1].split() == ["n", "k=1", "k=2", "k=5"]
        shown = {(int(line[:9]), k): line[9 + i * width:9 + (i + 1) * width]
                 for line in lines[2:] for i, k in enumerate((1, 2, 5))}
        assert list(shown) == keys
        for cell in payload["cells"]:
            c, v = cell["c"], cell["v"]
            text = ("x" if c is None
                    else f"({c:.{precision}f}, {v:.{precision}f})")
            assert shown[cell["n"], cell["k"]] == f"{text:>{width}}"
        assert shown[6, 2].strip() == "x"  # order 2 cannot reach 0.001 at n = 6
        assert shown[1000000, 2].strip() != "x"

    def test_default_grid_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--alpha", "0.05",
                               "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11 * 5


class TestTestCommand:
    def test_decile_fixture_accepts(self, capsys, decile_file):
        code, out, _ = run_cli(capsys, "test", "--file", decile_file,
                               "--dist", "normal(0,1)", "--alpha", "0.05",
                               "--k", "5")
        assert code == 0
        assert "v_n         0.1000" in out
        assert "v_critical  0.5259" in out
        assert "decision    accept" in out

    def test_guard_level_rejects(self, capsys, decile_file):
        code, out, _ = run_cli(capsys, "test", "--file", decile_file,
                               "--dist", "normal(0,1)", "--alpha", "0.9999")
        assert code == 1
        assert "decision    reject" in out

    def test_bad_line_names_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\nnot-a-number\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "test", "--file", str(path),
                               "--dist", "uniform(0,3)")
        assert code == 2
        assert ":3:" in err

    @pytest.mark.parametrize("line", ["nan", "inf", "-inf"])
    def test_non_finite_sample_exits_2(self, capsys, tmp_path, line):
        path = tmp_path / "data.txt"
        path.write_text(f"0.1\n0.2\n{line}\n0.4\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "test", "--file", str(path),
                                 "--dist", "uniform(0,1)")
        assert (code, out) == (2, "")
        assert f"{path}:3: not a finite number" in err

    def test_non_finite_csv_sample_exits_2(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x\n0.1\nnan\n0.4\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "test", "--file", str(path),
                                 "--csv-column", "x", "--dist", "uniform(0,1)")
        assert (code, out) == (2, "")
        assert f"{path}:3: not a finite number: 'nan'" in err

    @pytest.mark.parametrize("spec", ["normal(inf,1)", "normal(0,inf)",
                                      "uniform(0,nan)", "uniform(-inf,1)"])
    def test_non_finite_dist_exits_2(self, capsys, decile_file, spec):
        code, out, err = run_cli(capsys, "test", "--file", decile_file,
                                 "--dist", spec)
        assert (code, out) == (2, "")
        assert "distribution parameters must be finite" in err

    @pytest.mark.parametrize("spec, message", [
        ("foo", "cannot parse distribution spec 'foo'; expected name(p1,p2) "
                "or table:PATH"),
        ("normal(a,1)", "cannot parse distribution spec 'normal(a,1)'; expected "
                        "name(p1,p2) or table:PATH"),
        ("normal(0,1,)", "cannot parse distribution spec 'normal(0,1,)'; "
                         "expected name(p1,p2) or table:PATH"),
        ("normal(0)", "normal distribution needs (mu, sigma) with sigma > 0"),
        ("normal(0,-1)", "normal distribution needs (mu, sigma) with sigma > 0"),
        ("uniform(1,0)", "uniform distribution needs (a, b) with a < b"),
    ])
    def test_bad_dist_spec_exits_2(self, capsys, decile_file, spec, message):
        code, out, err = run_cli(capsys, "test", "--file", decile_file,
                                 "--dist", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("0 0\n", "a CDF table needs at least two rows"),
        ("0 0\n0 0.5\n1 1\n", "x column must be strictly increasing"),
    ], ids=["one-row", "repeated-x"])
    def test_bad_cdf_table_shape_exits_2(self, capsys, tmp_path, decile_file,
                                         text, message):
        cdf_path = tmp_path / "cdf.txt"
        cdf_path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "test", "--file", decile_file,
                                 "--dist", f"table:{cdf_path}")
        assert (code, out, err) == (2, "", f"error: {cdf_path}: {message}\n")

    @pytest.mark.parametrize("row, message", [
        ("0.5 abc", "not a number: '0.5 abc'"),
        ("0.5 nan", "not a finite number: '0.5 nan'"),
        ("0.5", "expected two columns, got '0.5'"),
    ], ids=["non-numeric", "nan", "one-column"])
    def test_bad_cdf_table_cell_names_position(self, capsys, tmp_path,
                                               decile_file, row, message):
        cdf_path = tmp_path / "cdf.txt"
        cdf_path.write_text(f"# x F\n-5 0\n{row}\n5 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "test", "--file", decile_file,
                                 "--dist", f"table:{cdf_path}")
        assert (code, out) == (2, "")
        assert err == f"error: {cdf_path}:3: {message}\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "test", "--file", "/nonexistent.txt",
                               "--dist", "uniform(0,1)")
        assert code == 2

    def test_csv_column_by_name(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["id,value", "1,0.05", "2,0.15", "3,0.25", "4,0.35", "5,0.45",
                "6,0.55", "7,0.65", "8,0.75", "9,0.85", "10,0.95"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "test", "--file", str(path),
                               "--csv-column", "value",
                               "--dist", "uniform(0,1)", "--alpha", "0.05")
        assert code == 0
        assert "v_n         0.1000" in out

    def test_csv_column_by_index_skips_one_header_row(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,value\n1,0.1\n\n2,0.7\n3,0.4\n4,0.9\n5,0.3\n",
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "test", "--file", str(path),
                               "--csv-column", "1", "--dist", "uniform(0,1)")
        assert code == 0
        assert "n           5" in out
        assert "v_n         0.3000" in out

    @pytest.mark.parametrize("text, column, message", [
        ("", "1", "{path}: empty CSV file"),
        ("id,value\n1,0.1\n", "score",
         "{path}: no column named 'score' in header ['id', 'value']"),
        ("id,value\n1,0.1\n2\n", "1", "{path}:3: row has no column 1"),
        ("id,value\n1,0.1\n2,abc\n", "1", "{path}:3: not a number: 'abc'"),
        ("id,value\n1,abc\n", "value", "{path}:2: not a number: 'abc'"),
        ("id,value\n\n", "1", "{path}: no usable values in column '1'"),
        ("id,value\n", "value", "{path}: no usable values in column 'value'"),
        ("id,value\n1,0.1\n", "-1",
         "{path}: no column named '-1' in header ['id', 'value']"),
        ("id,value\n1,0.1\n", "-5",
         "{path}: no column named '-5' in header ['id', 'value']"),
    ], ids=["empty-file", "unknown-name", "short-row", "text-after-row-1",
            "text-under-a-name", "index-header-only", "name-header-only",
            "negative-index-1", "negative-index-5"])
    def test_csv_column_errors_exit_2(self, capsys, tmp_path, text, column,
                                      message):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "test", "--file", str(path),
                                 "--csv-column", column, "--dist", "uniform(0,1)")
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=path)}\n"

    def test_custom_cdf_table(self, capsys, tmp_path):
        cdf_path = tmp_path / "cdf.txt"
        cdf_path.write_text("0.0 0.0\n1.0 1.0\n", encoding="utf-8")
        data_path = tmp_path / "data.txt"
        data_path.write_text(
            "\n".join(f"{(t - 0.5) / 10}" for t in range(1, 11)) + "\n",
            encoding="utf-8")
        code, out, _ = run_cli(capsys, "test", "--file", str(data_path),
                               "--dist", f"table:{cdf_path}")
        assert code == 0
        assert "v_n         0.1000" in out

    @pytest.mark.parametrize("sample, csv_column, cdf_table", [
        ("utf-8-sig", None, None), ("utf-8-sig", "value", None),
        ("utf-8", None, "utf-8-sig")],
        ids=["text-sample", "csv-sample", "cdf-table"])
    def test_utf8_byte_order_mark_is_skipped(self, capsys, tmp_path, sample,
                                             csv_column, cdf_table):
        # a leading BOM once read as '\ufeff0.05' or the header '\ufeffvalue'
        data_path = tmp_path / "data.txt"
        header = [csv_column] if csv_column else []
        data_path.write_text(
            "\n".join(header + [f"{(t - 0.5) / 10}" for t in range(1, 11)]) + "\n",
            encoding=sample)
        dist = "uniform(0,1)"
        if cdf_table:
            cdf_path = tmp_path / "cdf.txt"
            cdf_path.write_text("0.0 0.0\n1.0 1.0\n", encoding=cdf_table)
            dist = f"table:{cdf_path}"
        argv = ["test", "--file", str(data_path), "--dist", dist]
        if csv_column:
            argv += ["--csv-column", csv_column]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "v_n         0.1000" in out

    def test_non_monotone_cdf_table_rejected(self, capsys, tmp_path):
        cdf_path = tmp_path / "cdf.txt"
        cdf_path.write_text("0.0 0.2\n0.5 0.1\n1.0 1.0\n", encoding="utf-8")
        data_path = tmp_path / "data.txt"
        data_path.write_text("0.5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "test", "--file", str(data_path),
                               "--dist", f"table:{cdf_path}")
        assert code == 2
        assert "nondecreasing" in err or "monotone" in err

    def test_dist_cdfs_give_per_point_values_on_arrays(self, tmp_path):
        # compute_vn calls the CDF once on the sorted sample; each element
        # must be what a call on that point alone gives
        cdf_path = tmp_path / "cdf.txt"
        cdf_path.write_text("-1.0 0.0\n0.0 0.3\n0.5 0.35\n2.0 1.0\n",
                            encoding="utf-8")
        x = np.concatenate([np.linspace(-3.0, 3.0, 601),
                            [-1.0, 0.0, -0.0, 0.5, 2.0]])
        for spec in ("normal(0.3,1.7)", "uniform(-1,2)", f"table:{cdf_path}"):
            cdf = parse_dist_spec(spec)
            got = cdf(x)
            assert got.shape == x.shape
            assert got.tolist() == [float(cdf(v)) for v in x.tolist()]

    def test_unknown_dist(self, capsys, decile_file):
        code, _, err = run_cli(capsys, "test", "--file", decile_file,
                               "--dist", "cauchy(0,1)")
        assert code == 2

    def test_scheme_flag_rejected(self, capsys, decile_file):
        # the test takes the exact statistic, whose law its quantiles describe
        code, out, err = run_cli(capsys, "test", "--file", decile_file,
                                 "--dist", "normal(0,1)", "--scheme", "scheme0")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --scheme scheme0\n")


class TestSimulateCommand:
    def test_repeat_invocations_identical(self, capsys):
        args = ("simulate", "--n", "10", "--k", "1,5", "--nrep", "100",
                "--seed", "7", "--format", "csv")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_round_trip_and_comparators(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "6", "--k", "1",
                               "--nrep", "150", "--seed", "42",
                               "--comparators", "ks,stephens",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["method"] for r in rows] == ["hoe_k1", "ks", "stephens"]
        for r in rows:
            p = float(r["p_type1"])
            assert 0.0 <= p <= 1.0
            assert p == int(round(p * 150)) / 150

    def test_seed_comes_from_the_flag_alone(self, capsys, monkeypatch):
        # KUIPER_SEED was once read when --seed was absent
        args = ("simulate", "--n", "10", "--nrep", "100")
        monkeypatch.delenv("KUIPER_SEED", raising=False)
        unset = run_cli(capsys, *args)
        assert unset[0] == 0 and "seed=0 " in unset[1]
        for value in ("4242", "abc"):
            monkeypatch.setenv("KUIPER_SEED", value)
            assert run_cli(capsys, *args) == unset

    @pytest.mark.parametrize("value", [",", "ks,,stephens", "ks,", ""])
    def test_empty_comparator_item_exits_2(self, capsys, value):
        # empty items were once dropped, so "," ran with no comparator
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--k", "1",
                                 "--nrep", "20", "--comparators", value)
        assert (code, out) == (2, "")
        assert err == ("error: unknown comparator ''; expected subset of "
                       "('ks', 'stephens')\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "1,1", "k_set repeats 1: (1, 1)"),
        ("--k", "5,1,5", "k_set repeats 5: (5, 1, 5)"),
        ("--comparators", "ks,ks",
         "comparators repeats 'ks': ('ks', 'ks')"),
    ])
    def test_repeated_item_exits_2(self, capsys, flag, value, message):
        # a repeat once ran each method once and exited 0
        args = {"--k": "1", "--comparators": "stephens", flag: value}
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--nrep",
                                 "20", *(x for kv in args.items() for x in kv))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_no_comparators_flag_runs_the_orders_alone(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "10", "--k", "1",
                               "--nrep", "20", "--format", "csv")
        assert code == 0
        assert [r["method"] for r in csv.DictReader(io.StringIO(out))] == ["hoe_k1"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ])
    def test_seed_and_workers_errors_name_the_field(self, capsys, flag, value,
                                                    message):
        # --seed -1 once exited 2 with numpy's "expected non-negative integer"
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--k", "1",
                                 "--nrep", "20", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_workers_flag_rejected(self, capsys):
        # --workers was once accepted and ignored: every block runs in one thread
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--workers", "2")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --workers 2\n")

    def test_non_integer_k_list_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--k", "1,x",
                                 "--nrep", "20")
        assert (code, out) == (2, "")
        assert err == "error: --k must be a comma list of integers, got '1,x'\n"

    def test_order_one_runs_at_n3(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "3", "--k", "1",
                               "--nrep", "200")
        assert code == 0
        assert "hoe_k1" in out

    def test_n1_stops_at_the_order_two_floor(self, capsys):
        # order 1 solves at n = 1; order 2 cannot reach alpha 0.05 there
        code, out, err = run_cli(capsys, "simulate", "--n", "1")
        assert (code, out) == (2, "")
        assert "order k=2 cannot reach alpha below 0.0555556 at n=1" in err
        assert "contraction basin" not in err

    def test_csv_round_trip(self, capsys):
        cfg = SimConfig(n=10, k_set=(1, 5), n_rep=300, seed=5,
                        comparators=("ks",))
        r = simulate_type1(cfg)
        code, out, _ = run_cli(capsys, "simulate", "--n", "10", "--k", "1,5",
                               "--nrep", "300", "--seed", "5",
                               "--comparators", "ks", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["method"] for row in rows] == ["hoe_k1", "hoe_k5", "ks"]
        for row in rows:
            method = row["method"]
            assert float(row["p_type1"]) == r.p_type1[method]
            assert float(row["ci_halfwidth"]) == r.ci_halfwidth[method]
            assert int(row["n_rep"]) == 300
            assert int(row["seed"]) == 5
            assert float(row["alpha"]) == cfg.alpha
        assert rows[0]["k"] == "1" and rows[1]["k"] == "5" and rows[2]["k"] == ""

    def test_json_round_trip(self, capsys):
        cfg = SimConfig(n=6, k_set=(2,), n_rep=200, seed=8,
                        comparators=("stephens",))
        r = simulate_type1(cfg)
        code, out, _ = run_cli(capsys, "simulate", "--n", "6", "--k", "2",
                               "--nrep", "200", "--seed", "8",
                               "--comparators", "stephens", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["seed"] == 8
        by_method = {entry["method"]: entry for entry in payload["results"]}
        assert by_method["hoe_k2"]["p_type1"] == r.p_type1["hoe_k2"]
        assert by_method["stephens"]["k"] is None
        assert "stephens" in payload["metadata"]

    def test_json_metadata_names_the_substreams(self, capsys):
        r = simulate_type1(SimConfig(n=6, k_set=(1,), n_rep=20, seed=8))
        code, out, _ = run_cli(capsys, "simulate", "--n", "6", "--k", "1",
                               "--nrep", "20", "--seed", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["substreams"] == (
            "SeedSequence(seed, spawn_key=(block,)), "
            "1024 replications per block")
        assert payload["metadata"] == r.metadata


def test_emit_csv_writes_floats_by_repr_and_none_as_an_empty_cell(capsys):
    _emit(argparse.Namespace(format="csv", precision=4),
          [{"a": 0.1 + 0.2, "b": None, "c": 3, "d": "x,y"}])
    assert capsys.readouterr().out == 'a,b,c,d\n0.30000000000000004,,3,"x,y"\n'


# The CSV headers the README lists as fixed contracts.
@pytest.mark.parametrize("argv, header", [
    (("pair", "--alpha", "0.05", "--n", "10"),
     "alpha,n,k,method,c,v,iterations,residual"),
    (("utq", "--alpha", "0.05", "--n", "10"), "alpha,n,k,v"),
    (("ltq", "--alpha", "0.95", "--n", "10"), "alpha,n,k,v"),
    (("invcdf", "--x", "0.95", "--n", "10"), "x,n,k,v"),
    (("table", "--alpha", "0.05", "--n", "10", "--k", "1"), "alpha,n,k,c,v"),
    (("simulate", "--n", "10", "--k", "1", "--nrep", "20"),
     "method,n,alpha,k,n_rep,p_type1,ci_halfwidth,seed"),
], ids=["pair", "utq", "ltq", "invcdf", "table", "simulate"])
def test_csv_header_contract(capsys, argv, header):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.split("\n", 1)[0] == header


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "pair", "--n", "10")[0] == 2

    def test_negative_precision_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--alpha", "0.05", "--n", "10",
                                 "--k", "5", "--precision", "-3")
        assert (code, out) == (2, "")
        assert "argument --precision: must be >= 0, got -3" in err
