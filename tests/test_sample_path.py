"""The sample path (draw, CSV read, estimate) holds one copy of the pairs.

Peaks are ``tracemalloc``'s, over the call alone, as multiples of the 16n
bytes that n pairs take as two float64 columns.  That ``PairedSample(x, y)``
copies the caller's arrays is tested in test_distributions.py.
"""

import tracemalloc

import numpy as np
import pytest

from stochorder import (
    PairedSample,
    SeededStream,
    estimate_orders,
    make_joint,
    read_sample_csv,
    sample_example4,
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
    # the differences are grouped once, and counted without a unit-mass column
    sample = read_sample_csv(csv_path)
    report, peak = _peak(lambda: estimate_orders(sample, bootstrap=20))
    assert report.n == N
    assert peak < 2.0


def test_estimate_orders_peak_on_continuous_pairs():
    # more than 256 distinct differences: one (6, n) table of the differences at a
    # scalar unit weight, filled row by row, serves the points and is freed before
    # the bag of little bootstraps weighs its small subset tables (4.69 measured;
    # 5.56 while the table also served per-resample index draws)
    sample = sample_example4(0.3, N, SeededStream(2))
    report, peak = _peak(lambda: estimate_orders(sample, bootstrap=20))
    assert report.n == N
    assert peak < 5.5


def test_bag_peak_does_not_grow_with_the_resamples():
    # both paths draw and weigh a subset's counts at most 100 resamples at a time and
    # keep only the replicates' spread, 7 floats a resample: from 1000 resamples to
    # 10,000, the peak grows by at most 1.5x those 9000 spreads.  Integer pairs with
    # 256 distinct differences take the multinomial path, which grew by 36.8 MB while
    # it drew all the resamples' counts at once.  On the bag, 10,000 resamples peak
    # within 1.5x of 1000, and 1000 no higher than the 8.46x of 16 * 20k bytes
    # (2.71 MB; 24.9 MB at 10,000) measured while each subset's counts were one block
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1000, 20_000).astype(float)
    integers = PairedSample(x, x + rng.integers(-128, 128, x.size))
    assert np.unique(integers.y - integers.x).size == 256
    for sample in (sample_example4(0.3, 20_000, SeededStream(0)), integers):
        (report, small), (_, large) = (_peak(lambda: estimate_orders(sample, bootstrap=b)) for b in (1000, 10_000))
        assert (large - small) * 16 * N <= 1.5 * 9000 * 7 * 8, (report.method, small, large)
        small, large = small * N / sample.n, large * N / sample.n
        if report.method == "blb-percentile":
            assert small <= 8.46 and large <= 1.5 * small, (small, large)
