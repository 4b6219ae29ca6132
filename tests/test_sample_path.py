"""The sample path (draw, CSV read, estimate) holds one copy of the pairs.

Peaks are ``tracemalloc``'s, over the call alone, as multiples of the 16n
bytes that n pairs take as two float64 columns.  That ``PairedSample(x, y)``
copies the caller's arrays is tested in test_distributions.py.
"""

import tracemalloc

import pytest

from stochorder import (
    SeededStream,
    estimate_orders,
    make_joint,
    read_sample_csv,
    sample_joint,
    write_sample_csv,
)

N = 200_000
#: 36 atoms on {1..6}^2, so the estimate takes the multinomial bootstrap
JOINT = make_joint([(x, y, (2.0 if x <= y else 1.0) / 57.0) for x in range(1, 7) for y in range(1, 7)])


def _peak(call):
    """What ``call()`` returns, and its traced memory peak in units of 16N bytes."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (16 * N)


@pytest.fixture(scope="module")
def drawn():
    return sample_joint(JOINT, N, SeededStream(1))


@pytest.fixture(scope="module")
def csv_path(drawn, tmp_path_factory):
    path = tmp_path_factory.mktemp("sample") / "s.csv"
    write_sample_csv(path, drawn)
    return path


def test_drawn_sample_is_read_only(drawn):
    for column in (drawn.x, drawn.y):
        with pytest.raises(ValueError):
            column[0] = 0.0


def test_read_sample_is_read_only(csv_path, tmp_path):
    quoted = tmp_path / "quoted.csv"  # the csv loop's sample too
    quoted.write_text('x,y\r\n"1",2\r\n3,4\r\n')
    for sample in (read_sample_csv(csv_path), read_sample_csv(quoted)):
        for column in (sample.x, sample.y):
            with pytest.raises(ValueError):
                column[0] = 0.0


def test_sample_joint_peak():
    # the draws are freed before the gathers, and the gathered columns are not copied
    sample, peak = _peak(lambda: sample_joint(JOINT, N, SeededStream(1)))
    assert sample.n == N
    assert peak < 2.0


def test_read_sample_csv_peak(csv_path, drawn):
    # the parsed table's columns are the sample's, not copied
    sample, peak = _peak(lambda: read_sample_csv(csv_path))
    assert sample.x.tobytes() == drawn.x.tobytes() and sample.y.tobytes() == drawn.y.tobytes()
    assert peak < 1.5


def test_estimate_orders_peak_on_discrete_pairs(csv_path):
    # grouping gathers one key column at a time, and counts rows without a unit-mass column
    sample = read_sample_csv(csv_path)
    report, peak = _peak(lambda: estimate_orders(sample, bootstrap=20))
    assert report.n == N
    assert peak < 2.0
