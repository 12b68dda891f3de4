"""Dedup striding per rule partition and the time-disjoint split."""

from __future__ import annotations

import math
from datetime import date, datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alert_sift.errors import ValidationError
from alert_sift.ingest import parse_alert_record
from alert_sift.labeling import LabeledAlert
from alert_sift.sampling import SampleParams, dedup_sample, partition_by_period

from conftest import make_line


def _stream(rule_sequence, timestamps=None):
    out = []
    for i, rule in enumerate(rule_sequence):
        ts = timestamps[i] if timestamps else "2025-03-04T10:20:30Z"
        alert = parse_alert_record(make_line(rule_uuid=rule, src_port=i % 65536, timestamp=ts))
        out.append(LabeledAlert(alert=alert, label=i % 2))
    return out


def test_thousand_same_rule_defaults_keep_ten():
    stream = _stream(["r"] * 1000)
    kept = dedup_sample(stream)
    assert len(kept) == 10
    # survivors sit at 1-based positions 1, 101, ..., 901
    assert [k.alert.src_port for k in kept] == [i * 100 for i in range(10)]


def test_150_same_rule_defaults_keep_two():
    kept = dedup_sample(_stream(["r"] * 150))
    assert [k.alert.src_port for k in kept] == [0, 100]


def test_single_alert_kept():
    assert len(dedup_sample(_stream(["r"]))) == 1


def test_partitions_emitted_in_first_seen_order():
    kept = dedup_sample(_stream(["b", "a", "b", "a", "c"]))
    assert [k.alert.rule_uuid for k in kept] == ["b", "a", "c"]


def test_cap_applies_after_striding():
    kept = dedup_sample(_stream(["r"] * 50), SampleParams(stride=10, per_rule_cap=3))
    assert [k.alert.src_port for k in kept] == [0, 10, 20]


def test_params_validated():
    with pytest.raises(ValidationError):
        SampleParams(stride=0)
    with pytest.raises(ValidationError):
        SampleParams(per_rule_cap=0)


@pytest.mark.parametrize("name", ["stride", "per_rule_cap"])
@pytest.mark.parametrize("value", [1.5, True, "3", None])
def test_params_refuse_a_count_that_is_not_an_int(name, value):
    # stride=1.5 used to keep positions 0, 3, 6, ... and stride=True to act as 1
    with pytest.raises(ValidationError) as info:
        SampleParams(**{name: value})
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=120),
    st.integers(1, 20),
    st.integers(1, 8),
)
def test_per_rule_size_bound(rules, stride, cap):
    stream = _stream(rules)
    kept = dedup_sample(stream, SampleParams(stride=stride, per_rule_cap=cap))
    for rule in set(rules):
        n = rules.count(rule)
        kept_n = sum(1 for k in kept if k.alert.rule_uuid == rule)
        assert kept_n == min(cap, math.ceil(n / stride))


def _sliced(items, params):
    """The reference dedup: each whole rule partition, sliced [::stride][:cap]."""
    partitions = {}
    for item in items:
        partitions.setdefault(item.alert.rule_uuid, []).append(item)
    stride, cap = params.stride, params.per_rule_cap
    return [x for part in partitions.values() for x in part[::stride][:cap]]


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=200),
    st.integers(1, 12),
    st.integers(1, 6),
)
def test_streamed_dedup_matches_per_rule_slices(rules, stride, cap):
    stream = _stream(rules)
    params = SampleParams(stride=stride, per_rule_cap=cap)
    # a one-shot iterator: dedup_sample may read each item only once
    assert dedup_sample(iter(stream), params) == _sliced(stream, params)


def test_stride_one_idempotent():
    stream = _stream(["a", "b", "a", "a", "b"])
    params = SampleParams(stride=1, per_rule_cap=3)
    once = dedup_sample(stream, params)
    twice = dedup_sample(once, params)
    assert twice == once


def _dated_stream(months):
    stamps = [f"2022-{m:02d}-15T00:00:00Z" for m in months]
    return _stream(["r"] * len(months), stamps)


def test_partition_by_period_splits_on_instant():
    stream = _dated_stream([1, 2, 3, 4, 5, 6, 7])
    train, test = partition_by_period(
        stream, datetime(2022, 5, 1, tzinfo=timezone.utc)
    )
    assert [x.alert.timestamp.month for x in train] == [1, 2, 3, 4]
    assert [x.alert.timestamp.month for x in test] == [5, 6, 7]


def test_partition_all_before_split():
    stream = _dated_stream([1, 2])
    train, test = partition_by_period(stream, datetime(2023, 1, 1, tzinfo=timezone.utc))
    assert test == [] and len(train) == 2


def test_partition_none_before_split():
    stream = _dated_stream([3, 4])
    train, test = partition_by_period(stream, datetime(2022, 1, 1, tzinfo=timezone.utc))
    assert train == [] and len(test) == 2


def test_partition_is_exhaustive_and_ordered():
    stream = _dated_stream([1, 6, 2, 7, 3])
    train, test = partition_by_period(stream, datetime(2022, 5, 1, tzinfo=timezone.utc))
    assert len(train) + len(test) == len(stream)
    if train and test:
        assert max(x.alert.timestamp for x in train) < min(x.alert.timestamp for x in test)


def test_partition_requires_aware_instant():
    with pytest.raises(ValidationError):
        partition_by_period(_dated_stream([1]), datetime(2022, 5, 1))


@pytest.mark.parametrize(
    "instant", ["2025-01-01", None, 1735689600, date(2025, 1, 1), datetime(2022, 5, 1)]
)
def test_partition_refuses_an_instant_that_is_not_an_aware_datetime(instant):
    # a string once ended in AttributeError: 'str' object has no attribute 'tzinfo'
    with pytest.raises(ValidationError) as info:
        partition_by_period([], instant)
    assert str(info.value) == f"split_instant must be a timezone-aware datetime, got {instant!r}"
