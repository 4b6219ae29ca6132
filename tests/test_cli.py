"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import argparse
import json
import subprocess
import sys

import pytest

from stochorder import (
    estimators,
    make_joint,
    sample_joint,
    SeededStream,
    write_joint_json,
    write_sample_csv,
)
from stochorder.cli import _build_parser, main, render_json
from stochorder.estimators import QUANTITIES
from stochorder.scenarios import REPRODUCTIONS, CheckResult

EX1 = make_joint([(1000.0, 999.0, 0.6), (0.0, 999.0, 0.4)])


@pytest.fixture
def ex1_json(tmp_path):
    path = tmp_path / "ex1.json"
    write_joint_json(path, EX1)
    return str(path)


@pytest.fixture
def diagonal_json(tmp_path):
    path = tmp_path / "diag.json"
    write_joint_json(path, make_joint([(5.0, 5.0, 1.0)]))
    return str(path)


class TestCompare:
    def test_table_shows_conclusion_row(self, ex1_json, capsys):
        assert main(["compare", "--input", ex1_json]) == 0
        out = capsys.readouterr().out
        assert "stochastic precedence" in out
        assert "X" in out and "Y" in out

    def test_json_output(self, ex1_json, capsys):
        assert main(["compare", "--input", ex1_json, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sp"]["preferred"] == "X"
        assert doc["cp_kstar"]["preferred"] == "Y"
        assert doc["l1"]["below"] == 399.6

    def test_json_round_trips(self, ex1_json, capsys):
        main(["compare", "--input", ex1_json, "--format", "json"])
        first = capsys.readouterr().out
        assert render_json(json.loads(first)) + "\n" == first

    def test_ten_significant_digits(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        write_joint_json(path, make_joint([(1 / 3, 2 / 3, 0.5), (0.25, 0.1, 0.5)]))
        main(["compare", "--input", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        below = doc["l1"]["below"]
        assert below == float(f"{below:.10g}")

    def test_diagonal_all_equal(self, diagonal_json, capsys):
        main(["compare", "--input", diagonal_json, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert all(doc[k]["outcome"] == "equal" for k in ("sp", "mean", "cp_l1", "cp_kstar"))

    def test_negative_mass_exits_2_citing_atom(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [{"x": 1, "y": 2, "p": -0.1}]}')
        assert main(["compare", "--input", str(path)]) == 2
        assert "atom 0" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["compare", "--input", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_not_utf8_exits_2_naming_the_byte(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"atoms": [{"x": 1, "y": 2, "p": 1, "note": "\xff"}]}')
        assert main(["compare", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 at byte 45\n"

    @pytest.mark.parametrize("text", [
        '{"atoms": ' + "[" * 1000 + "]" * 1000 + "}",
        '{"atoms": [{"x": 1, "y": 2, "p": ' + "1" * 4400 + "}]}",
    ], ids=["1000-deep", "4400-digits"])
    def test_unparseable_json_exits_2_with_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["compare", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_extra_atom_key_from_a_pipe(self):
        # an extra key that holds x, y and p sends the file to the plain parse, which must
        # parse the text already read: a pipe cannot be read twice
        doc = '{"atoms": [{"x": 1000, "y": 999, "p": 0.6, "from": {"x": 0, "y": 0, "p": 0}}, {"x": 0, "y": 999, "p": 0.4}]}'
        proc = subprocess.run(
            [sys.executable, "-m", "stochorder", "compare", "--input", "/dev/stdin", "--format", "json"],
            input=doc, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["l1"]["below"] == 399.6


class TestEstimate:
    def test_sampled_example_gives_y_side_cp_l1(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_sample_csv(csv_path, sample_joint(EX1, 100_000, SeededStream(42)))
        assert main([
            "estimate", "--input", str(csv_path), "--format", "json",
            "--seed", "1", "--bootstrap", "200",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cp_l1"]["preferred"] == "Y"
        assert doc["n"] == 100_000
        low, high = doc["ci"]["l1_below"]["low"], doc["ci"]["l1_below"]["high"]
        assert low <= doc["l1"]["below"] <= high

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_sample_csv(csv_path, sample_joint(EX1, 2000, SeededStream(3)))
        args = ["estimate", "--input", str(csv_path), "--format", "json", "--seed", "11"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_table_format(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_sample_csv(csv_path, sample_joint(EX1, 2000, SeededStream(3)))
        args = ["estimate", "--input", str(csv_path), "--bootstrap", "50", "--seed", "4"]
        assert main([*args, "--format", "table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n=2000  level=0.95  bootstrap=50  seed=4"
        assert lines[1].split() == ["quantity", "point", "interval"]
        rows = lines[2 : 2 + len(QUANTITIES)]
        assert [row.split()[0] for row in rows] == list(QUANTITIES)
        assert all(row.endswith("]") and "[" in row for row in rows)
        assert lines[2 + len(QUANTITIES)] == ""
        assert lines[3 + len(QUANTITIES)].startswith("order")
        assert any(line.startswith("conditional K* precedence") for line in lines)

    def test_oversized_bootstrap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_BOOTSTRAP", 5)
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("x,y\n1,2\n2,1\n")
        assert main(["estimate", "--input", str(csv_path), "--bootstrap", "6"]) == 2
        assert "must be a positive integer up to 5, got 6" in capsys.readouterr().err

    def test_identical_pairs_degenerate(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("x,y\n2.0,2.0\n2.0,2.0\n")
        assert main(["estimate", "--input", str(csv_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cp_l1"]["outcome"] == "equal"
        assert doc["ci"]["l1_below"] == {"point": 0.0, "low": 0.0, "high": 0.0}

    def test_empty_file_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("")
        assert main(["estimate", "--input", str(csv_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_row_exits_2_with_row_number(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("x,y\n1,2\nbad,4\n")
        assert main(["estimate", "--input", str(csv_path)]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_not_utf8_exits_2_naming_the_byte(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_bytes(b"x,y\n1,2\n\xff,3\n")
        assert main(["estimate", "--input", str(csv_path)]) == 2
        assert capsys.readouterr().err == f"error: {csv_path}: not valid UTF-8 at byte 8\n"

    def test_quoted_csv_from_a_pipe(self):
        # the row loop reads the pipe's bytes again, after the C parse gave up on them
        proc = subprocess.run(
            [sys.executable, "-m", "stochorder", "estimate", "--input", "/dev/stdin"],
            input='x,y\r\n"1",2\r\n3,4\r\n', capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("n=2  ")

    def test_value_over_the_field_limit_exits_2_with_row_number(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("x,y\n1,2\n3,4\n" + "a" * 140_000 + ",5\n")
        assert main(["estimate", "--input", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv_path}: row 4: field larger than field limit (131072)\n"

    def test_single_row_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("x,y\n1,2\n")
        assert main(["estimate", "--input", str(csv_path)]) == 2

    def test_overflowing_pair_exits_2_naming_it(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("x,y\n1e308,-1e308\n0,1\n")
        assert main(["estimate", "--input", str(csv_path)]) == 2
        assert "pair 0: y - x overflows at (1e+308, -1e+308)" in capsys.readouterr().err


class TestSample:
    def test_example4_writes_rows_in_unit_square(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sample", "--eps", "0.5", "--n", "1000", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 1001
        for line in lines[1:]:
            x, y = map(float, line.split(","))
            assert 0.0 < x < 1.0 and 0.0 < y < 1.0

    def test_joint_source_frequencies(self, ex1_json, tmp_path):
        out = tmp_path / "s.csv"
        main(["sample", "--input", ex1_json, "--n", "20000", "--seed", "5", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        heads = sum(1 for x, _ in rows if float(x) == 1000.0)
        assert heads / len(rows) == pytest.approx(0.6, abs=0.02)

    def test_same_invocation_identical_files(self, ex1_json, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--input", ex1_json, "--n", "500", "--seed", "9", "--out", str(out1)])
        main(["sample", "--input", ex1_json, "--n", "500", "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_requires_exactly_one_source(self, ex1_json, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        assert main(["sample", "--n", "10", "--out", out]) == 2
        assert main(["sample", "--input", ex1_json, "--eps", "0.5", "--n", "10", "--out", out]) == 2

    def test_invalid_eps_exits_2(self, tmp_path, capsys):
        assert main(["sample", "--eps", "1.5", "--n", "10", "--out", str(tmp_path / "s.csv")]) == 2
        assert "eps" in capsys.readouterr().err

    def test_oversized_n_exits_2_before_drawing(self, ex1_json, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_SAMPLE_SIZE", 10)
        out = tmp_path / "s.csv"
        for source in (["--eps", "0.3"], ["--input", ex1_json]):
            assert main(["sample", *source, "--n", "11", "--out", str(out)]) == 2
            assert "sample size must be a positive integer up to 10, got 11" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, ex1_json, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "s.csv")
        assert main(["sample", "--input", ex1_json, "--n", "10", "--out", out]) == 2


class TestReproduce:
    def test_example1_passes_and_echoes_values(self, capsys):
        assert main(["reproduce", "example1"]) == 0
        out = capsys.readouterr().out
        assert "399.6" in out and "0.3996" in out
        assert "FAIL" not in out

    def test_example4_prints_oracle_and_reference(self, capsys):
        assert main(["reproduce", "example4", "--eps", "0.5", "--n", "50000"]) == 0
        out = capsys.readouterr().out
        assert "p_x_leq_y_reference_quadratic" in out
        assert "0.125" in out  # the quadratic reference value for eps = 0.5
        assert "note:" in out

    def test_dice(self, capsys):
        assert main(["reproduce", "dice"]) == 0
        assert "sp_cycle" in capsys.readouterr().out

    def test_all_passes_and_prints_preference_table(self, capsys):
        assert main(["reproduce", "all", "--n", "50000"]) == 0
        out = capsys.readouterr().out
        assert "example1" in out and "example2" in out
        assert "conditional K* precedence" in out

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        failing = [CheckResult("forced", 1, 2, passed=False), CheckResult("info", 1, 2, False, False)]
        monkeypatch.setitem(REPRODUCTIONS, "example1", lambda eps, n, seed: failing)
        assert main(["reproduce", "example1"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] example1.forced: expected 1, computed 2" in captured.out
        assert "[NOTE] example1.info" in captured.out
        assert captured.err == "1 check(s) failed\n"

    def test_choices_are_the_registry(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        which = next(a for a in sub.choices["reproduce"]._actions if a.dest == "which")
        assert list(which.choices) == ["all", *REPRODUCTIONS]

    @pytest.mark.parametrize("seed", range(10))
    def test_example4_passes_at_small_n(self, seed, capsys):
        # the Monte Carlo bound scales with --n, so a correct sampler passes
        assert main(["reproduce", "example4", "--n", "1000", "--seed", str(seed)]) == 0
        assert "FAIL" not in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    path = tmp_path / "ex1.json"
    write_joint_json(path, EX1)
    proc = subprocess.run(
        [sys.executable, "-m", "stochorder", "compare", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stochastic precedence" in proc.stdout
