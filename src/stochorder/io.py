"""File formats: joint JSON, grid JSON and paired-sample CSV.

Joint JSON: ``{"atoms": [{"x": <num>, "y": <num>, "p": <num>}, ...]}``.
Grid JSON: ``{"grid": [...], "fx": [...], "fy": [...]}``.
Sample CSV: header ``x,y``, one pair per row, decimal point, UTF-8.
"""

from __future__ import annotations

import csv
import json
import math
from operator import itemgetter

from .distributions import FiniteJointDistribution, GridDensityPair, PairedSample, make_joint
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


def read_grid_json(path) -> GridDensityPair:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not all(
        isinstance(doc.get(k), list) for k in ("grid", "fx", "fy")
    ):
        raise InputFormatError(f"{path}: expected arrays 'grid', 'fx' and 'fy'")
    return GridDensityPair(doc["grid"], doc["fx"], doc["fy"])


def write_grid_json(path, g: GridDensityPair) -> None:
    doc = {"grid": list(map(float, g.grid)), "fx": list(map(float, g.fx)), "fy": list(map(float, g.fy))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_sample_csv(path) -> PairedSample:
    pairs: list[tuple[float, float]] = []
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
            pairs.append((x, y))
    if not pairs:
        raise InputFormatError(f"{path}: no data rows")
    return PairedSample.from_pairs(pairs)


def write_sample_csv(path, sample: PairedSample) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in zip(sample.x, sample.y):
            writer.writerow([repr(float(x)), repr(float(y))])
