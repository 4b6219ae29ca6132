"""File formats: joint JSON and paired-sample CSV.

Joint JSON: ``{"atoms": [{"x": <num>, "y": <num>, "p": <num>}, ...]}``.
Sample CSV: header ``x,y``, one pair per row, decimal point, UTF-8.  Rows
end in CRLF and each value is written as its float's shortest repr, so a
write then a read gives back the same floats bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from operator import itemgetter

from .distributions import FiniteJointDistribution, PairedSample, make_joint
from .errors import InputFormatError

_XYP = itemgetter("x", "y", "p")


def read_joint_json(path) -> FiniteJointDistribution:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("atoms"), list):
        raise InputFormatError(f'{path}: expected an object of the form {{"atoms": [...]}}')
    try:
        raw = list(map(_XYP, doc["atoms"]))
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
    values: list[float] = []  # x and y of each row in turn
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
    if not values:
        raise InputFormatError(f"{path}: no data rows")
    return PairedSample(values[0::2], values[1::2])


def write_sample_csv(path, sample: PairedSample) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\r\n")
        fh.writelines(map("{!r},{!r}\r\n".format, map(float, sample.x), map(float, sample.y)))
