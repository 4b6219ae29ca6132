"""File formats: joint JSON and paired-sample CSV.

Joint JSON: ``{"atoms": [{"x": <num>, "y": <num>, "p": <num>}, ...]}``.
Sample CSV: header ``x,y``, one pair per row, decimal point, UTF-8.  Rows
end in CRLF and each value is its float's shortest repr, formatted once per
distinct value in a chunk of rows, so a write then a read gives back the
same floats bit for bit.  numpy's C reader parses a file; one it cannot take
whole (a padded or quoted header or field, ``1_000``, non-ASCII digits, a
non-finite value, a row that is not two columns, bytes that are not UTF-8)
is read again by a ``csv`` loop, which accepts what ``float`` does or names
the bad row or byte.  Only the loop caps a value at ``csv.field_size_limit()``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from operator import itemgetter

import numpy as np

from .distributions import FiniteJointDistribution, PairedSample, make_joint
from .errors import InputFormatError

#: Rows per chunk of a sample CSV write, which bounds the writer's memory.
_CHUNK_ROWS = 1 << 16


def read_joint_json(path) -> FiniteJointDistribution:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)  # one read and one decode: exc.start below is the file offset
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("atoms"), list):
        raise InputFormatError(f'{path}: expected an object of the form {{"atoms": [...]}}')
    try:
        raw = list(map(itemgetter("x", "y", "p"), doc["atoms"]))
    except (KeyError, TypeError):  # the entry-by-entry check runs only to name the bad entry
        for i, entry in enumerate(doc["atoms"]):
            if not isinstance(entry, dict) or not {"x", "y", "p"} <= set(entry):
                msg = f"{path}: atom {i}: expected an object with x, y and p"
                raise InputFormatError(msg) from None
        raise
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
        try:  # a UnicodeDecodeError is a ValueError too
            if fh.readline().rstrip("\r\n") == "x,y":
                with warnings.catch_warnings():  # no rows: the loop names that case
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            pass
    if table is not None and len(table) and table.shape[1] == 2 and np.isfinite(table).all():
        return PairedSample(table[:, 0], table[:, 1])
    return _read_sample_rows(path)


def _read_sample_rows(path) -> PairedSample:
    """``read_sample_csv`` one row at a time: the ``csv`` module splits the
    rows and ``float`` converts each value."""
    values: list[float] = []  # x and y of each row in turn
    with open(path, newline="", encoding="utf-8") as fh:
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
                values.append(x)
                values.append(y)
        except csv.Error as exc:  # e.g. a value longer than csv.field_size_limit()
            raise InputFormatError(f"{path}: row {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # exc.object is the failed chunk, which ends at tell()
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise InputFormatError(f"{path}: not valid UTF-8 at byte {at}") from exc
    if not values:
        raise InputFormatError(f"{path}: no data rows")
    return PairedSample(values[0::2], values[1::2])


def write_sample_csv(path, sample: PairedSample) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\r\n")
        for start in range(0, sample.n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            cells: list[str] = [""] * (2 * len(sample.x[rows]))  # x, y of each row in turn
            for k, (column, end) in enumerate(((sample.x, ","), (sample.y, "\r\n"))):
                # distinct by bits, not by value, so that -0.0 and 0.0 keep their own text
                bits, inverse = np.unique(column[rows].view(np.uint64), return_inverse=True)
                text = [repr(v) + end for v in bits.view(float).tolist()]
                cells[k::2] = map(text.__getitem__, inverse.tolist())
            fh.write("".join(cells))
