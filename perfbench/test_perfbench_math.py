"""The benchmark's own arithmetic (``ledger.py``)."""

import pytest

from ledger import (chunk_percentile, failed_frac, ledger_error, percentile,
                    self_times)


def test_nearest_rank_percentile():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 99) == 10
    assert percentile(values, 100) == 10
    assert percentile(values, 1) == 1
    assert percentile([42.0], 99) == 42.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_chunk_percentile_is_the_median_of_chunk_percentiles():
    # Three chunks; the middle one is a stall and does not move the
    # result, an empty chunk (repeated end) is skipped.
    values = [1, 2, 3, 100, 200, 300, 2, 3, 4]
    assert chunk_percentile(values, [3, 6, 6, 9], 50) == 3
    assert chunk_percentile(values, [3, 6, 9], 90) == 4
    assert chunk_percentile(values, [9], 50) == percentile(values, 50)
    with pytest.raises(ValueError):
        chunk_percentile([], [0], 50)


def test_self_time_subtracts_nested_children():
    spans = [
        ("request", 0.0, 10.0),
        ("route", 1.0, 4.0),
        ("decide", 2.0, 3.0),
        ("serialize", 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == {"request": 3.0, "route": 2.0, "decide": 1.0,
                     "serialize": 4.0}
    assert sum(selfs.values()) == 10.0


def test_self_time_sums_repeated_names():
    spans = [("pass", 0.0, 6.0), ("decide", 1.0, 2.0), ("decide", 3.0, 5.0)]
    assert self_times(spans) == {"pass": 3.0, "decide": 3.0}


def test_overlapping_siblings_show_as_double_counting():
    # "b" starts inside "a" but ends after it: not nested, so it is not
    # a's child, and the self times add up to more than the whole.
    spans = [("root", 0.0, 10.0), ("a", 1.0, 5.0), ("b", 4.0, 8.0)]
    selfs = self_times(spans)
    assert sum(selfs.values()) > 10.0
    assert ledger_error(selfs, 0.0, 10.0) > 0.05


def test_ledger_error_with_wire_time():
    layers = {"read": 10.0, "route": 30.0, "write": 10.0}
    assert ledger_error(layers, 50.0, 100.0) == 0.0
    assert ledger_error(layers, 40.0, 100.0) == pytest.approx(0.1)


def test_failed_frac_counts_refusals_transport_errors_and_degraded():
    statuses = [200, 200, 503, 200, None, 200, 200, 200]
    # One refused request (503), one transport error, one degraded answer.
    assert failed_frac(statuses, degraded=1) == pytest.approx(3 / 8)
    assert failed_frac([200, 204], degraded=0) == 0.0
    with pytest.raises(ValueError):
        failed_frac([], degraded=0)
