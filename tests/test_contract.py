"""The input contract, fuzzed: every input exits 0 or 2, and every value is a number or a StochOrderError.

The number rule (``stochorder.distributions``): a number is what ``float()``
reads, bools as 0 and 1, but no str, bytes, complex value or None.
"""

import json
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stochorder import (
    FiniteJointDistribution,
    FiniteMarginal,
    GridDensityPair,
    PairedSample,
    StochOrderError,
    apply_transform,
    make_joint,
    make_marginal,
)
from stochorder.cli import main

from test_io import _joint_docs

_CSV_NUMBER = st.one_of(st.integers(-3, 3).map(str), st.floats(allow_nan=False, allow_infinity=False).map(repr))
_CSV_CELL = _CSV_NUMBER | st.sampled_from(["1e400", "nan", "inf", "", " 3", '"4"', "a", "1_000", "٣", "True"])
_CSV_TEXT = st.builds(
    lambda header, rows, end: end.join([header, *(",".join(row) for row in rows)]) + end,
    st.sampled_from(["x,y"] * 4 + ["x, y", '"x",y', "y,x", "x", ""]),
    st.lists(st.tuples(_CSV_NUMBER, _CSV_NUMBER) | st.lists(_CSV_CELL, min_size=1, max_size=3), max_size=5),
    st.sampled_from(["\r\n", "\n"]),
)
_FILES = st.one_of(
    st.binary(max_size=40),
    _joint_docs().map(lambda doc: json.dumps(doc).encode()),
    _CSV_TEXT.map(str.encode),
)


@given(content=_FILES, command=st.sampled_from(["compare", "estimate"]))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exits_0_or_2_with_one_error_line_at_most(tmp_path, capsys, content, command):
    path = tmp_path / "input"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main([command, "--input", str(path)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert status in (0, 2) and len(errors) == (status == 2)


_COMPLEX_ARRAYS = hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=1, max_side=3))
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**70, 10**400, -(10**400), 10**5000, -(10**5000)]),  # past the 4300-digit str limit too
    st.floats(),
    st.floats(0.0, 1.0),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.complex_numbers(),
    st.sampled_from([np.complex128(1 + 2j), np.complex64(1), np.float32(0.5), np.int64(3), np.bool_(True)]),
    _COMPLEX_ARRAYS,
)


def _rows(width: int):
    return st.lists(st.tuples(*[_VALUES] * width), max_size=3) | hnp.arrays(
        np.complex128, st.tuples(st.integers(0, 3), st.just(width))
    )


@given(
    atoms=_rows(3),
    points=_rows(2),
    column=st.lists(_VALUES, min_size=3, max_size=3) | _COMPLEX_ARRAYS,
    value=_VALUES,
)
@settings(max_examples=150, deadline=None)
def test_constructors_take_numbers_or_raise_a_stochorder_error(atoms, points, column, value):
    j = make_joint([(0.0, 1.0, 0.5), (1.0, 0.0, 0.5)])
    flat = [0.5, 0.5, 0.5]
    builds = [
        lambda: make_joint(atoms),
        lambda: FiniteJointDistribution(atoms),
        lambda: make_marginal(points),
        lambda: FiniteMarginal(points),
        lambda: PairedSample(column, column),
        lambda: PairedSample.from_pairs(points),
        lambda: GridDensityPair.from_arrays(column, flat, flat),
        lambda: GridDensityPair.from_arrays([0.0, 1.0, 2.0], column, flat, normalize=True),
        lambda: apply_transform(j, {0.0: value, 1.0: 2.0}),
        lambda: apply_transform(j, lambda t: value),
    ]
    for build in builds:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning or a DeprecationWarning fails the property
            try:
                build()
            except StochOrderError:
                pass
