"""JSON and CSV interchange formats."""

import hashlib
import json
import os
import pathlib
import socket
import subprocess
import sys
import tracemalloc
import urllib.request
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stochorder.io
from stochorder import (
    InputFormatError,
    PairedSample,
    StochOrderError,
    ValidationError,
    make_joint,
    read_joint_json,
    read_sample_csv,
    write_joint_json,
    write_sample_csv,
)
from stochorder.io import _joint_from_text, _read_sample_rows

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

    @pytest.mark.parametrize("head", [b"", b'{"atoms": [{"x": 1, "y": 2, "p": 1, "note": "', b" " * 20_000])
    def test_not_utf8_names_the_byte(self, tmp_path, head):
        path = tmp_path / "bad.json"
        path.write_bytes(head + b'\xff"}]}')
        with pytest.raises(InputFormatError, match=rf"bad\.json: not valid UTF-8 at byte {len(head)}$"):
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


def _written(x, y) -> bytes:
    """The bytes a sample CSV of these columns holds: the reference writer."""
    rows = "".join(f"{a!r},{b!r}\r\n" for a, b in zip(x.tolist(), y.tolist()))
    return ("x,y\r\n" + rows).encode("utf-8")


#: a few values drawn often, so that columns repeat values within a chunk
_POOL = st.sampled_from([0.0, -0.0, 1.0, 0.1, -2.5, 5e-324, 1e16, 1e-5, -1.5e300])
_COLUMN_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _POOL)


class TestWriter:
    """The sample CSV writer against the one-row-at-a-time reference."""

    @given(pairs=st.lists(st.tuples(_COLUMN_VALUE, _COLUMN_VALUE), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_the_reference(self, tmp_path, monkeypatch, pairs):
        monkeypatch.setattr(stochorder.io, "_CHUNK_ROWS", 7)  # most examples span chunks
        x, y = np.array(pairs, dtype=float).T
        path = tmp_path / "s.csv"
        write_sample_csv(path, PairedSample(x, y))
        assert path.read_bytes() == _written(x, y)

    def test_sample_straddling_a_chunk(self, tmp_path):
        n = stochorder.io._CHUNK_ROWS + 1
        x = np.arange(n, dtype=float) % 6 + 1.0
        x[-1] = 0.1  # the second chunk holds one row, with a value the first never saw
        y = np.linspace(-1.0, 1.0, n)
        path = tmp_path / "s.csv"
        write_sample_csv(path, PairedSample(x, y))
        assert path.read_bytes() == _written(x, y)
        loaded = read_sample_csv(path)
        assert loaded.x.tobytes() == x.tobytes() and loaded.y.tobytes() == y.tobytes()

    def test_signed_zeros_and_1e16_are_pinned(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sample_csv(path, PairedSample(np.array([-0.0, 0.0, 1e16, 0.0]), np.array([1e16, -0.0, 0.0, 1e16])))
        assert path.read_bytes() == b"x,y\r\n-0.0,1e+16\r\n0.0,-0.0\r\n1e+16,0.0\r\n0.0,1e+16\r\n"

    def test_signed_zeros_in_one_chunk(self, tmp_path):
        x = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
        y = np.array([-0.0, -0.0, 0.0, 2.0, 0.0])
        path = tmp_path / "s.csv"
        write_sample_csv(path, PairedSample(x, y))
        assert path.read_bytes() == b"x,y\r\n0.0,-0.0\r\n-0.0,-0.0\r\n0.0,0.0\r\n-0.0,2.0\r\n1.0,0.0\r\n"


def _rows(path):
    """``_read_sample_rows`` on the file at ``path``, opened as ``read_sample_csv`` opens it."""
    with open(path, newline="", encoding="utf-8") as fh:
        return _read_sample_rows(path, fh)


def _outcome(reader, path):
    """The bits a reader returns, or the type and message of what it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = reader(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return sample.x.tobytes(), sample.y.tobytes()


def _agree(path, text: str):
    """Both readers' outcome on ``text``, after checking that they are the same, with the C parse
    reading the file by name (which numpy reads in chunks) and through the handle (line by line)."""
    path.write_bytes(text.encode("utf-8"))
    rows = _outcome(_rows, path)
    for by_name in (0, 1 << 62):
        with mock.patch.object(stochorder.io, "_BY_NAME", by_name):
            assert _outcome(read_sample_csv, path) == rows
    return rows


SIXTY_DIGITS = "0." + "1234567890" * 5 + "1234567891"

#: file text, then the pairs it holds or a fragment of the message it raises
AGREEMENT_CASES = {
    "blank-lines": ("x,y\n1,2\n\n3,4\n\n", [(1, 2), (3, 4)]),
    "space-row": ("x,y\n1,2\n   \n3,4\n", "row 3: expected two columns"),
    "tab-row": ("x,y\n1,2\n\t\n", "row 3: expected two columns"),
    "vt-row": ("x,y\n1,2\n\x0b\n", "row 3: expected two columns"),
    "ff-row": ("x,y\n1,2\n\x0c\n", "row 3: expected two columns"),
    "space-only-file": ("x,y\n \n", "row 2: expected two columns"),
    "spaces-and-tabs": ("x,y\n 1 , 2 \n\t3\t,\t4\t\n", [(1, 2), (3, 4)]),
    "quoted": ('x,y\n"1","2"\n3,4\n', [(1, 2), (3, 4)]),
    "quoted-comma": ('x,y\n"1,5",2\n', "row 2: non-numeric value"),
    "underscore": ("x,y\n1_000,2\n", [(1000, 2)]),
    "arabic-indic": ("x,y\n\u0661\u0662,\u0663\n", [(12, 3)]),
    "nan": ("x,y\n1,2\nnan,3\n4,5\n", "row 3: non-finite value"),
    "inf": ("x,y\n1,2\n3,4\n5,inf\n", "row 4: non-finite value"),
    "Infinity": ("x,y\n1,2\n-Infinity,3\n", "row 3: non-finite value"),
    "1e400": ("x,y\n1,2\n3,1e400\n", "row 3: non-finite value"),
    "trailing-comma": ("x,y\n1,2,\n", "row 2: expected two columns"),
    "one-column": ("x,y\n1\n2\n", "row 2: expected two columns"),
    "three-columns": ("x,y\n1,2,3\n4,5,6\n", "row 2: expected two columns"),
    "hex-float": ("x,y\n1,2\n0x1p3,2\n", "row 3: non-numeric value"),
    "fortran-exponent": ("x,y\n1d3,2\n", "row 2: non-numeric value"),
    "hash": ("x,y\n1,2 # note\n", "row 2: non-numeric value"),
    "bom": ("\ufeffx,y\n1,2\n", "header must be exactly 'x,y'"),
    "padded-header": (" x , y \n1,2\n", [(1, 2)]),
    "quoted-header": ('"x","y"\n1,2\n', [(1, 2)]),
    "over-field-limit": ("x,y\n1,2\n" + "a" * 140_000 + ",3\n", "row 3: field larger than field limit (131072)"),
    "crlf": ("x,y\r\n1,2\r\n3,4\r\n", [(1, 2), (3, 4)]),
    "lf": ("x,y\n1,2\n3,4\n", [(1, 2), (3, 4)]),
    "lone-cr": ("x,y\r1,2\r3,4\r", [(1, 2), (3, 4)]),
    "no-final-newline": ("x,y\r\n1,2\r\n3,4", [(1, 2), (3, 4)]),
    "extreme-values": ("x,y\n-0.0,5e-324\n" + SIXTY_DIGITS + ",-1e-320\n",
                       [(-0.0, 5e-324), (float(SIXTY_DIGITS), -1e-320)]),
    "header-only": ("x,y\n", "no data rows"),
    "header-and-blank-lines": ("x,y\n\n\r\n\r\n", "no data rows"),
    "empty-file": ("", "empty file"),
}

#: rows of two-byte digits, shifted 0..4 bytes: one shift splits a digit across decoded chunks
_DIGIT_ROWS = {pad: (b"x,y\n" + b" " * pad + "\u0661,2\n".encode("utf-8") * 3000) for pad in range(5)}

#: bytes before the first that is not UTF-8, that byte, then the rest of the file
NOT_UTF8 = {
    "header": (b"x", b"\xff", b",y\n1,2\n"),
    "row": (b"x,y\n1,2\n", b"\xff", b",3\n"),
    "truncated-sequence": (b"x,y\n1,2\n3,", b"\xc3", b"(\n"),
    **{f"late-{pad}": (rows, b"\xe2\x82", b"\n") for pad, rows in _DIGIT_ROWS.items()},
}

_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
#: mostly numbers, padded or not; otherwise short text of number characters
_FIELD = st.one_of(
    _NUMBER,
    st.tuples(st.sampled_from([" ", "  "]), _NUMBER, st.sampled_from(["", " "])).map("".join),
    st.text(alphabet="0123456789+-.e_\" ", max_size=6),
)
_ROW = st.tuples(_FIELD, _FIELD).map(",".join)


#: the size from which a file is read by name, before any test patches it
BY_NAME = stochorder.io._BY_NAME

#: a sample with signed zeros, a subnormal, 1e16 and values from the float range's ends
ROUTE_SAMPLE = PairedSample(
    np.array([-0.0, 0.0, 1e16, 5e-324, 0.1, -1.5e300, 1.0 / 3.0, 2.5]),
    np.array([1e16, -0.0, 0.0, -1e-320, 1.7976931348623157e308, 7.0, -2.0 / 3.0, 0.0]),
)


@pytest.fixture
def no_network(monkeypatch):
    """Any attempt to resolve a host or open a URL fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a URL was opened")
    for module, name in ((urllib.request, "urlopen"), (socket, "getaddrinfo"), (socket, "create_connection")):
        monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """What each ``np.loadtxt`` call reads from, in order: a name (str) or a handle."""
    sources, loadtxt = [], np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


def _reads_the_sample(path, sample=ROUTE_SAMPLE) -> None:
    got = read_sample_csv(path)
    assert (got.x.tobytes(), got.y.tobytes()) == (sample.x.tobytes(), sample.y.tobytes())


class TestReadRoute:
    """numpy reads a file it opens by name in chunks, and a handle line by line: a seekable file of
    ``_BY_NAME`` bytes or more is read by its name, joined onto the working directory, and every
    route reads the same floats.  Here every file is large enough, unless a test says otherwise."""

    @pytest.fixture(autouse=True)
    def by_name_from_any_size(self, monkeypatch):
        monkeypatch.setattr(stochorder.io, "_BY_NAME", 0)

    def test_a_file_is_read_by_name_from_its_size_on(self, tmp_path, monkeypatch, loadtxt_sources):
        path = tmp_path / "s.csv"
        write_sample_csv(path, ROUTE_SAMPLE)
        monkeypatch.setattr(stochorder.io, "_BY_NAME", path.stat().st_size + 1)
        _reads_the_sample(path)
        monkeypatch.setattr(stochorder.io, "_BY_NAME", path.stat().st_size)
        _reads_the_sample(path)
        assert not isinstance(loadtxt_sources[0], str) and loadtxt_sources[1] == str(path)

    def test_a_plain_name(self, tmp_path, monkeypatch, loadtxt_sources):
        write_sample_csv(tmp_path / "s.csv", ROUTE_SAMPLE)
        monkeypatch.chdir(tmp_path)
        _reads_the_sample("s.csv")
        assert loadtxt_sources == [os.path.join(str(tmp_path), "s.csv")]

    @pytest.mark.parametrize("name", ["s.csv.gz", "s.csv.xz", "s.csv.bz2", "s.csv.lzma"])
    def test_a_name_numpy_would_decompress_is_read_by_handle(self, tmp_path, loadtxt_sources, name):
        write_sample_csv(tmp_path / name, ROUTE_SAMPLE)  # plain text, whatever the suffix says
        _reads_the_sample(tmp_path / name)
        assert len(loadtxt_sources) == 1 and not isinstance(loadtxt_sources[0], str)

    def test_a_url_shaped_name_is_a_local_path(self, tmp_path, monkeypatch, no_network, loadtxt_sources):
        (tmp_path / "http:" / "example.org").mkdir(parents=True)  # http://example.org/s.csv names this file
        write_sample_csv(tmp_path / "http:" / "example.org" / "s.csv", ROUTE_SAMPLE)
        monkeypatch.chdir(tmp_path)
        _reads_the_sample("http://example.org/s.csv")
        assert loadtxt_sources == [os.path.join(str(tmp_path), "http://example.org/s.csv")]

    def test_dotdot_after_a_symlink(self, tmp_path, monkeypatch, loadtxt_sources):
        # link/../s.csv is real/s.csv to the kernel, but s.csv once the name is normalised
        (tmp_path / "real" / "sub").mkdir(parents=True)
        write_sample_csv(tmp_path / "real" / "s.csv", ROUTE_SAMPLE)
        write_sample_csv(tmp_path / "s.csv", PairedSample(np.array([1.0]), np.array([2.0])))
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        monkeypatch.chdir(tmp_path)
        _reads_the_sample("link/../s.csv")
        assert loadtxt_sources == [os.path.join(str(tmp_path), "link/../s.csv")]

    @pytest.mark.parametrize("to_path", [pathlib.Path, lambda p: p.encode(), lambda p: _BytesPath(p.encode())])
    def test_a_path_like(self, tmp_path, loadtxt_sources, to_path):
        write_sample_csv(tmp_path / "s.csv", ROUTE_SAMPLE)
        _reads_the_sample(to_path(str(tmp_path / "s.csv")))
        assert loadtxt_sources == [str(tmp_path / "s.csv")]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("from_a_pipe", [False, True])
    def test_dev_stdin(self, tmp_path, from_a_pipe):
        # from a file, /dev/stdin is seekable and opens that file again by name; a pipe is read by handle
        repeat = -(-BY_NAME // 100)  # rows, past the size read by name in a fresh process
        sample = PairedSample(np.tile(ROUTE_SAMPLE.x, repeat), np.tile(ROUTE_SAMPLE.y, repeat))
        path = tmp_path / "s.csv"
        write_sample_csv(path, sample)
        assert path.stat().st_size >= BY_NAME
        code = ("import hashlib; from stochorder import read_sample_csv; s = read_sample_csv('/dev/stdin'); "
                "print(hashlib.sha256(s.x.tobytes() + s.y.tobytes()).hexdigest())")
        with open(path, "rb") as fh:
            stdin = {"input": fh.read()} if from_a_pipe else {"stdin": fh}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, **stdin)
        assert proc.stdout.decode().strip() == hashlib.sha256(sample.x.tobytes() + sample.y.tobytes()).hexdigest()


class _BytesPath:
    """An ``os.PathLike`` whose path is bytes."""

    def __init__(self, path: bytes):
        self.path = path

    def __fspath__(self) -> bytes:
        return self.path


class TestReadersAgree:
    """The C parse and the row loop give the same bits, or the same error."""

    @pytest.mark.parametrize("text, want", AGREEMENT_CASES.values(), ids=AGREEMENT_CASES.keys())
    def test_case(self, tmp_path, text, want):
        got = _agree(tmp_path / "s.csv", text)
        if isinstance(want, str):
            assert got[0] is InputFormatError and want in got[1]
        else:
            xs, ys = np.array(want, dtype=float).T
            assert got == (xs.tobytes(), ys.tobytes())

    def test_value_over_the_field_limit(self, tmp_path):
        # the one difference: a finite value too long for the csv module goes through the C parse
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\n0." + "0" * 140_000 + "1,3\n")
        assert read_sample_csv(path).x.tolist() == [1.0, 0.0]
        with pytest.raises(InputFormatError, match=r"s\.csv: row 3: field larger than field limit \(131072\)$"):
            _rows(path)

    @pytest.mark.parametrize("head, bad, rest", NOT_UTF8.values(), ids=NOT_UTF8.keys())
    def test_not_utf8_names_the_byte(self, tmp_path, head, bad, rest):
        path = tmp_path / "s.csv"
        path.write_bytes(head + bad + rest)
        for reader in (read_sample_csv, _rows):
            with pytest.raises(InputFormatError, match=rf"s\.csv: not valid UTF-8 at byte {len(head)}$"):
                reader(path)

    @given(
        rows=st.lists(st.one_of(_ROW, _ROW, st.lists(_FIELD, max_size=3).map(",".join)), max_size=5),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        last=st.sampled_from(["", "\n", "\r\n", "\r"]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property(self, tmp_path, rows, newline, last):
        _agree(tmp_path / "s.csv", newline.join(["x,y", *rows]) + last)


def _piped(data: bytes) -> int:
    """The read end of a pipe that holds ``data``, its write end closed."""
    read_end, write_end = os.pipe()
    os.write(write_end, data)  # at most about 16 KiB: within a pipe buffer, so no reader is needed yet
    os.close(write_end)
    return read_end


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestReadFromAPipe:
    """A pipe can be read once: each reader reads it through one handle."""

    @pytest.mark.parametrize("text, want", [
        ("x,y\r\n1,2\r\n3,4\r\n", [(1, 2), (3, 4)]),  # the C parse takes it
        ('x,y\r\n"1",2\r\n3,4\r\n', [(1, 2), (3, 4)]),  # the loop reads it again
        ("x,y\n1,2\nbad,4\n", "row 3: non-numeric value"),
        ("", "empty file"),
    ])
    def test_sample_csv(self, text, want):
        fd = _piped(text.encode())
        try:
            got = _outcome(read_sample_csv, f"/dev/fd/{fd}")
        finally:
            os.close(fd)
        if isinstance(want, str):
            assert got == (InputFormatError, f"/dev/fd/{fd}: {want}")
        else:
            xs, ys = np.array(want, dtype=float).T
            assert got == (xs.tobytes(), ys.tobytes())

    def test_sample_csv_not_utf8_names_the_byte(self):
        head, bad, rest = NOT_UTF8["late-3"]
        fd = _piped(head + bad + rest)
        try:
            with pytest.raises(InputFormatError, match=rf"not valid UTF-8 at byte {len(head)}$"):
                read_sample_csv(f"/dev/fd/{fd}")
        finally:
            os.close(fd)

    # an object inside an atom that also holds x, y and p sends the file to the plain parse
    @pytest.mark.parametrize("extra", ["", ', "note": "an extra key"', ', "from": {"x": 0, "y": 0, "p": 0}'])
    def test_joint_json(self, extra):
        fd = _piped(('{"atoms": [{"x": 1, "y": 2, "p": 0.5%s}, {"x": 3, "y": 4, "p": 0.5}]}' % extra).encode())
        try:
            assert read_joint_json(f"/dev/fd/{fd}") == make_joint([(1, 2, 0.5), (3, 4, 0.5)])
        finally:
            os.close(fd)


def _joint_outcome(reader, *args):
    """The bits of the joint a reader returns, or the type and message of what it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j = reader(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return j.x.tobytes(), j.y.tobytes(), j.p.tobytes()


def _joints_agree(path, text: str):
    """The outcome of ``read_joint_json`` on ``text``, after checking that the plain parse agrees."""
    path.write_text(text, encoding="utf-8")
    fast = _joint_outcome(read_joint_json, path)
    assert fast == _joint_outcome(_joint_from_text, path, text)
    return fast


def _atoms(*atoms: str) -> str:
    return '{"atoms": [' + ", ".join(atoms) + "]}"


_A, _B = '"x": 1, "y": 2, "p": 0.25', '"x": 3, "y": 4, "p": 0.75'
_AB = [(1, 2, 0.25), (3, 4, 0.75)]

#: joint JSON text, then the atoms it holds or a fragment of the message it raises
JOINT_CASES = {
    "canonical": (_atoms("{%s}" % _A, "{%s}" % _B), _AB),
    "permuted-keys": (_atoms('{"p": 0.25, "y": 2, "x": 1}', '{"y": 4, "p": 0.75, "x": 3}'), _AB),
    "atom-extra-key": (_atoms('{%s, "note": "a"}' % _A, "{%s}" % _B), _AB),
    "top-extra-key": ('{"meta": {"n": 2}, "atoms": [{%s}, {%s}]}' % (_A, _B), _AB),
    "xyp-nested-in-atom": (_atoms('{%s, "from": {"x": 9, "y": 9, "p": 9}}' % _A, "{%s}" % _B), _AB),
    "xyp-nested-partly": (_atoms('{%s, "from": {"x": 9, "y": "9", "p": 9}}' % _A, "{%s}" % _B), _AB),
    "xyp-at-top": ('{"x": 9, "y": 9, "p": 9, "atoms": [{%s}, {%s}]}' % (_A, _B), _AB),
    "atom-in-a-list": (_atoms("[{%s}]" % _A.replace("0.25", "1")), "atom 0: expected an object with x, y and p"),
    "duplicate-key": (_atoms('{"x": 7, %s}' % _A, "{%s}" % _B), _AB),
    "duplicate-atoms": ('{"atoms": [{"x": 7, "y": 7, "p": 1}], "atoms": [{%s}, {%s}]}' % (_A, _B), _AB),
    "string-number": (
        _atoms('{"x": "1", "y": 2, "p": 0.25}', "{%s}" % _B),
        "atom 0: expected an (x, y, p) triple, got ('1', 2, 0.25)",
    ),
    "true-mass": (_atoms('{"x": 1, "y": 2, "p": true}'), [(1, 2, 1)]),
    "null": (_atoms('{"x": null, "y": 2, "p": 1}'), "atom 0: expected an (x, y, p) triple"),
    "2**53+1": (_atoms('{"x": %d, "y": 2, "p": 1}' % (2**53 + 1)), [(2.0**53, 2, 1)]),
    "400-digit-int": (_atoms('{"x": 1%s, "y": 2, "p": 1}' % ("0" * 399)), "atom 0: expected an (x, y, p) triple"),
    "minus-zero": (_atoms('{"x": -0, "y": -0.0, "p": 1}'), [(0.0, -0.0, 1)]),
    "NaN": (_atoms('{"x": NaN, "y": 2, "p": 1}'), "atom 0: non-finite support value"),
    "Infinity": (_atoms('{"x": 1, "y": 2, "p": Infinity}'), "atom 0: invalid mass inf"),
    "empty-atoms": (_atoms(), "no atom carries positive mass"),
    "missing-key": (_atoms("{%s}" % _A, '{"x": 3, "y": 4}'), "atom 1: expected an object with x, y and p"),
    "non-object-atom": (_atoms("{%s}" % _A, "[3, 4, 0.75]"), "atom 1: expected an object with x, y and p"),
    "no-atoms-key": ('{"rows": []}', 'expected an object of the form {"atoms": [...]}'),
    "top-level-list": ("[{%s}]" % _A, 'expected an object of the form {"atoms": [...]}'),
}

_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(), st.sampled_from([2**53 + 1, 10**400]), st.text(max_size=2),
)
_JSON = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["x", "y", "p", "atoms", "note"]), inner, max_size=4),
    ),
    max_leaves=8,
)
_NUMBER_VALUE = st.one_of(st.integers(-3, 3), st.floats(-4, 4), st.sampled_from([-0.0, 2**53 + 1, True]))
_ODD_VALUE = st.one_of(_JSON, st.sampled_from([10**400, "1", None, float("nan")]))


@st.composite
def _joint_docs(draw):
    """Joint JSON documents, mostly well formed, each atom with one drawn fault in five."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    n = draw(st.integers(0, 4))
    atoms: list = [{"x": draw(_NUMBER_VALUE), "y": draw(_NUMBER_VALUE), "p": 1 / n} for _ in range(n)]
    for i, atom in enumerate(atoms):
        fault = draw(st.sampled_from(["value", "extra-key", "drop-key", "in-a-list", "nested-xyp"] + [None] * 20))
        key = draw(st.sampled_from("xyp"))
        if fault == "value":
            atom[key] = draw(_ODD_VALUE)
        elif fault == "extra-key":
            atom["note"] = draw(_JSON)
        elif fault == "drop-key":
            del atom[key]
        elif fault == "in-a-list":
            atoms[i] = [atom]
        elif fault == "nested-xyp":
            atom["from"] = {"x": draw(_NUMBER_VALUE), "y": draw(_ODD_VALUE), "p": 1}
    doc = {"atoms": atoms}
    if draw(st.integers(0, 4)) == 0:
        doc[draw(st.sampled_from(["x", "y", "p", "meta"]))] = draw(st.one_of(_NUMBER_VALUE, _JSON))
    return doc


class TestJointReadersAgree:
    """The parse into one float buffer and the plain parse give the same bits, or the same error."""

    @pytest.mark.parametrize("text, want", JOINT_CASES.values(), ids=JOINT_CASES.keys())
    def test_case(self, tmp_path, text, want):
        got = _joints_agree(tmp_path / "joint.json", text)
        if isinstance(want, str):
            assert issubclass(got[0], StochOrderError) and want in got[1]
        else:
            j = make_joint(want)
            assert got == (j.x.tobytes(), j.y.tobytes(), j.p.tobytes())

    @given(doc=_joint_docs(), sort_keys=st.booleans())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property(self, tmp_path, doc, sort_keys):
        _joints_agree(tmp_path / "joint.json", json.dumps(doc, sort_keys=sort_keys))

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # the parsed document never holds the atoms: each dict goes as soon as it is read
        rng = np.random.default_rng(0)
        n = 20_000
        x, y = np.round(rng.standard_normal((2, n)), 3)
        p = rng.random(n)
        atoms = [{"x": a, "y": b, "p": c} for a, b, c in zip(x.tolist(), y.tolist(), (p / p.sum()).tolist())]
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"atoms": atoms}), encoding="utf-8")
        del atoms
        tracemalloc.start()
        try:
            read_joint_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

    @pytest.mark.parametrize("depth", [1000, 100_000])
    def test_deep_nesting_is_an_input_error(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text('{"atoms": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(InputFormatError, match=r"deep\.json: "):
            read_joint_json(path)

    def test_integer_over_the_digit_limit_is_an_input_error(self, tmp_path):
        # where Python has no digit limit, the integer overflows a float and the atom is named
        path = tmp_path / "long.json"
        path.write_text(_atoms('{"x": 1, "y": 2, "p": %s}' % ("1" * 4400)))
        with pytest.raises(StochOrderError, match=r"long\.json: |atom 0: "):
            read_joint_json(path)
