"""JSON and CSV interchange formats."""

import json

import numpy as np
import pytest

from stochorder import (
    InputFormatError,
    PairedSample,
    ValidationError,
    make_joint,
    read_joint_json,
    read_sample_csv,
    write_joint_json,
    write_sample_csv,
)

EX1 = make_joint([(1000.0, 999.0, 0.6), (0.0, 999.0, 0.4)])


class TestJointJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "joint.json"
        write_joint_json(path, EX1)
        assert read_joint_json(path) == EX1

    def test_documented_shape(self, tmp_path):
        path = tmp_path / "joint.json"
        write_joint_json(path, EX1)
        doc = json.loads(path.read_text())
        assert doc == {
            "atoms": [
                {"x": 0.0, "y": 999.0, "p": 0.4},
                {"x": 1000.0, "y": 999.0, "p": 0.6},
            ]
        }

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            read_joint_json(path)

    def test_missing_atoms_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": []}')
        with pytest.raises(InputFormatError, match="atoms"):
            read_joint_json(path)

    def test_malformed_atom_names_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [{"x": 1, "y": 2, "p": 0.5}, {"x": 3, "y": 4}]}')
        with pytest.raises(InputFormatError, match="atom 1"):
            read_joint_json(path)

    def test_negative_mass_names_atom(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [{"x": 1, "y": 2, "p": -0.25}]}')
        with pytest.raises(ValidationError, match="atom 0"):
            read_joint_json(path)


class TestSampleCsv:
    def test_round_trip_is_exact(self, tmp_path):
        sample = PairedSample(np.array([0.1, -2.5, 1e-17]), np.array([3.25, 0.0, 7.0]))
        path = tmp_path / "s.csv"
        write_sample_csv(path, sample)
        loaded = read_sample_csv(path)
        assert np.array_equal(loaded.x, sample.x)
        assert np.array_equal(loaded.y, sample.y)

    def test_bytes_are_pinned(self, tmp_path):
        # CRLF rows and each float's shortest repr, as csv.writer wrote them
        sample = PairedSample(np.array([0.1, 1e-17, 2.0]), np.array([3.25, -0.0, -1.5e300]))
        path = tmp_path / "s.csv"
        write_sample_csv(path, sample)
        assert path.read_bytes() == b"x,y\r\n0.1,3.25\r\n1e-17,-0.0\r\n2.0,-1.5e+300\r\n"
        loaded = read_sample_csv(path)
        for got, want in ((loaded.x, sample.x), (loaded.y, sample.y)):
            assert got.tobytes() == want.tobytes()  # bit-exact, -0.0 included

    def test_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sample_csv(path, PairedSample(np.array([1.0]), np.array([2.0])))
        assert path.read_text().splitlines()[0] == "x,y"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(InputFormatError, match="empty"):
            read_sample_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n")
        with pytest.raises(InputFormatError, match="no data rows"):
            read_sample_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputFormatError, match="header"):
            read_sample_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\nfoo,3\n")
        with pytest.raises(InputFormatError, match="row 3"):
            read_sample_csv(path)

    def test_wrong_column_count_reports_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2,3\n")
        with pytest.raises(InputFormatError, match="row 2"):
            read_sample_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,inf\n")
        with pytest.raises(InputFormatError, match="row 2"):
            read_sample_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        assert read_sample_csv(path).n == 2
