"""File formats: joint JSON and paired-sample CSV.

Joint JSON: ``{"atoms": [{"x": <num>, "y": <num>, "p": <num>}, ...]}``.  The
text is read once and parsed with a hook that moves each object's x, y and
p into one float buffer as the object closes, so the parsed document never
holds the atoms.  A document the buffer cannot stand for exactly (another
shape, an atom that is not an object with x, y and p, a value that is not a
number in float range, x, y and p on any other object) is parsed again from
the same text and read atom by atom: the same floats, or the bad atom named.
Sample CSV: header ``x,y``, one pair per row, decimal point, UTF-8.  Rows end in
CRLF and each value is its float's shortest repr, formatted once per distinct
value in a chunk of rows, so a write then a read gives back the same floats bit
for bit.  numpy's C reader parses a file into one table, whose columns the sample
keeps as read-only views.  It reads a name in chunks, a handle by lines: a
seekable file of ``_BY_NAME`` bytes or more goes by its name, joined onto the
working directory unnormalised (it names the handle's file, and no URL), unless
it is ``_PACKED``.  A file it cannot take whole (a padded or quoted header or
field, ``1_000``, non-ASCII digits, a non-finite value, a row that is not two
columns, bytes that are not UTF-8) is read again, through the same handle (a
pipe's bytes are kept for it), by a ``csv`` loop, which accepts what ``float``
does or names the bad row or byte.  Only the loop caps a value at
``csv.field_size_limit()``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from array import array
from io import BytesIO, TextIOWrapper

import numpy as np

from .distributions import FiniteJointDistribution, PairedSample, make_joint
from .errors import InputFormatError

#: Rows per chunk of a sample CSV write, which bounds the writer's memory.
_CHUNK_ROWS = 1 << 16
#: Read by name from this size on (a first read that way costs 0.6 ms more), unless numpy would decompress it.
_BY_NAME, _PACKED = 1 << 18, (".gz", ".bz2", ".xz", ".lzma")

_ATOM = object()  #: what the joint JSON parse leaves in place of an atom it has read


def read_joint_json(path) -> FiniteJointDistribution:
    values = array("d")  # x, y and p of each atom in turn

    def atom(obj):  # called as each object closes: its dict and floats are freed on return
        try:  # fromlist adds all three values or, on a failed conversion, none
            values.fromlist([obj["x"], obj["y"], obj["p"]])
        except (KeyError, TypeError, OverflowError):
            return obj
        return _ATOM

    with open(path, encoding="utf-8") as fh:  # one handle, so that a pipe is read once
        try:
            text = fh.read()  # one decode: exc.start below is the file offset
            doc = json.loads(text, object_hook=atom)
        except json.JSONDecodeError as exc:  # a ValueError, like the next two, so it comes first
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
        except (RecursionError, ValueError) as exc:  # nested too deep, or an integer over the digit limit
            raise InputFormatError(f"{path}: {exc}") from exc
    atoms = doc.get("atoms") if isinstance(doc, dict) else None
    # every atom was read, in order, and no other object held x, y and p
    if not isinstance(atoms, list) or atoms.count(_ATOM) != len(atoms) or len(values) != 3 * len(atoms):
        return _joint_from_text(path, text)
    del text, doc, atoms
    return make_joint(np.frombuffer(values).reshape(-1, 3))


def _joint_from_text(path, text: str) -> FiniteJointDistribution:
    """``read_joint_json`` on any document that parsed: plain ``json.loads``,
    then the atoms one by one, so that a bad one is named."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("atoms"), list):
        raise InputFormatError(f'{path}: expected an object of the form {{"atoms": [...]}}')
    raw = []
    for i, entry in enumerate(doc["atoms"]):
        try:
            raw.append((entry["x"], entry["y"], entry["p"]))
        except (KeyError, TypeError):
            raise InputFormatError(f"{path}: atom {i}: expected an object with x, y and p") from None
    return make_joint(raw)


def write_joint_json(path, j: FiniteJointDistribution) -> None:
    columns = zip(j.x.tolist(), j.y.tolist(), j.p.tolist())
    doc = {"atoms": [{"x": x, "y": y, "p": p} for x, y, p in columns]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_sample_csv(path) -> PairedSample:
    table = None  # unless the C parse takes the file whole, the loop reads it or names the fault
    with open(path, newline="", encoding="utf-8") as fh:
        named = isinstance(path, (str, bytes, os.PathLike)) and not os.fsdecode(path).endswith(_PACKED)
        if not fh.seekable():  # a pipe: keep its bytes, so that the loop can read them again
            fh, named = TextIOWrapper(BytesIO(fh.buffer.read()), newline="", encoding="utf-8"), False
        named = named and os.fstat(fh.fileno()).st_size >= _BY_NAME
        try:  # a UnicodeDecodeError is a ValueError too
            if fh.readline().rstrip("\r\n") == "x,y":
                source = os.path.join(os.getcwd(), os.fsdecode(path)) if named else fh  # unnormalised
                with warnings.catch_warnings():  # no rows: the loop names that case
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(source, delimiter=",", comments=None, skiprows=int(named), ndmin=2,
                                       encoding="utf-8")
        except (ValueError, OSError):  # OSError: the name did not open, where the handle did
            pass
        if table is not None and len(table) and table.shape[1] == 2 and np.isfinite(table).all():
            return PairedSample._from_columns(table[:, 0], table[:, 1])  # views: no copy
        fh.seek(0)
        return _read_sample_rows(path, fh)


def _read_sample_rows(path, fh) -> PairedSample:
    """``read_sample_csv`` one row at a time, from ``fh``, the file at ``path``
    opened with ``newline=""``: the ``csv`` module splits the rows and
    ``float`` converts each value."""
    values: list[float] = []  # x and y of each row in turn
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise InputFormatError(f"{path}: empty file")
        if [col.strip() for col in header] != ["x", "y"]:
            raise InputFormatError(f"{path}: header must be exactly 'x,y'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputFormatError(f"{path}: row {lineno}: expected two columns")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError as exc:
                raise InputFormatError(f"{path}: row {lineno}: non-numeric value") from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputFormatError(f"{path}: row {lineno}: non-finite value")
            values += (x, y)
    except csv.Error as exc:  # e.g. a value longer than csv.field_size_limit()
        raise InputFormatError(f"{path}: row {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:  # exc.object is the failed chunk, which ends at tell()
        at = fh.buffer.tell() - len(exc.object) + exc.start
        raise InputFormatError(f"{path}: not valid UTF-8 at byte {at}") from exc
    if not values:
        raise InputFormatError(f"{path}: no data rows")
    return PairedSample._from_columns(*np.array(values).reshape(-1, 2).T)


def write_sample_csv(path, sample: PairedSample) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\r\n")
        for start in range(0, sample.n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            cells = np.empty(2 * len(sample.x[rows]), dtype=object)  # x, y of each row in turn
            for k, (column, end) in enumerate(((sample.x, ","), (sample.y, "\r\n"))):
                # distinct by bits, not by value, so that -0.0 and 0.0 keep their own text
                bits, inverse = np.unique(column[rows].view(np.uint64), return_inverse=True)
                text = np.array([repr(v) + end for v in bits.view(float).tolist()], dtype=object)
                cells[k::2] = text[inverse]
            fh.write("".join(cells.tolist()))
