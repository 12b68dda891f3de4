"""Synthetic corpus generator: determinism, calibration, and round-trips."""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import timedelta

import pytest

from alert_sift import synth
from alert_sift.errors import ValidationError
from alert_sift.ingest import parse_alert_record, parse_timestamp
from alert_sift.labeling import build_label_lists, label_corpus
from alert_sift.synth import (
    _FP_DESCRIPTIONS,
    _TP_DESCRIPTIONS,
    _WINDOW_DAYS,
    _WINDOW_START,
    SynthSpec,
    generate_corpus,
    write_alerts,
    write_comments,
    write_truth,
)

SMALL = SynthSpec(n_tp=30, n_fp=40, n_rules=10, duplication_factor=3, seed=7)


def test_same_spec_generates_identical_corpus():
    a = generate_corpus(SMALL)
    b = generate_corpus(SMALL)
    assert a == b
    out_a, out_b = io.StringIO(), io.StringIO()
    write_alerts(a, out_a)
    write_alerts(b, out_b)
    assert out_a.getvalue() == out_b.getvalue()


def test_different_seed_differs():
    a = generate_corpus(SMALL)
    b = generate_corpus(SynthSpec(n_tp=30, n_fp=40, n_rules=10, duplication_factor=3, seed=8))
    assert a.alerts != b.alerts


def test_corpus_sizes_and_truth_alignment():
    corpus = generate_corpus(SMALL)
    assert len(corpus.alerts) == (30 + 40) * 3
    assert len(corpus.truth) == len(corpus.alerts)
    assert sum(corpus.truth) == 30 * 3
    assert len(corpus.comments) == 10


def test_duplication_factor_one_keeps_base_count():
    corpus = generate_corpus(SynthSpec(n_tp=982, n_fp=1126, duplication_factor=1))
    assert len(corpus.alerts) == 2108


def test_every_alert_parses():
    corpus = generate_corpus(SMALL)
    for record in corpus.alerts:
        alert = parse_alert_record(json.dumps(record))
        assert alert.rule_uuid == record["rule_uuid"]


def test_weak_labels_reproduce_ground_truth():
    corpus = generate_corpus(SMALL)
    tp_list, fp_list = build_label_lists(corpus.comments)
    alerts = [parse_alert_record(json.dumps(r)) for r in corpus.alerts]
    labeled = label_corpus(alerts, tp_list, fp_list)
    assert len(labeled) == len(corpus.alerts)  # every rule matched one list
    assert [la.label for la in labeled] == list(corpus.truth)


def test_duplicates_vary_only_source_port():
    corpus = generate_corpus(SMALL)
    dup = SMALL.duplication_factor
    for start in range(0, len(corpus.alerts), dup):
        group = corpus.alerts[start : start + dup]
        stripped = [{k: v for k, v in rec.items() if k != "src_port"} for rec in group]
        assert all(s == stripped[0] for s in stripped)
        for rec in group:
            assert 1024 <= rec["src_port"] <= 65535
        assert len(set(corpus.truth[start : start + dup])) == 1


def test_timestamps_sorted_and_inside_window():
    corpus = generate_corpus(SMALL)
    stamps = [parse_timestamp(rec["timestamp"]) for rec in corpus.alerts]
    end = _WINDOW_START + timedelta(days=_WINDOW_DAYS)
    assert all(_WINDOW_START <= t < end for t in stamps)
    assert stamps == sorted(stamps)


def test_rule_uuids_unique_and_well_formed():
    corpus = generate_corpus(SMALL)
    uuids = [uuid for uuid, _ in corpus.comments]
    assert len(set(uuids)) == len(uuids)
    assert all(len(u) == 32 and int(u, 16) >= 0 for u in uuids)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_tp=-1)
    with pytest.raises(ValidationError):
        SynthSpec(n_rules=0)
    with pytest.raises(ValidationError):
        SynthSpec(duplication_factor=0)
    with pytest.raises(ValidationError):
        SynthSpec(signal_strength=1.5)


@pytest.mark.parametrize("name", ["n_tp", "n_fp", "n_rules", "duplication_factor", "seed"])
@pytest.mark.parametrize("value", [1.5, "3", True, None])
def test_spec_refuses_a_count_that_is_not_an_int(name, value):
    with pytest.raises(ValidationError) as info:
        SynthSpec(**{name: value})
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", ["0.5", None, True, False, [0.5]])
def test_spec_refuses_a_signal_strength_that_is_not_a_number(value):
    # "0.5" and None once ended in a bare TypeError, and True was taken as 1.0
    with pytest.raises(ValidationError) as info:
        SynthSpec(signal_strength=value)
    assert str(info.value) == f"signal_strength must be a number, got {value!r}"
    for number in (0, 1, 0.25):
        assert SynthSpec(signal_strength=number).signal_strength == number


def test_spec_refuses_one_rule_for_two_classes():
    # each class needs a rule of its own, so one rule would be written as two
    with pytest.raises(ValidationError) as info:
        SynthSpec(n_tp=2, n_fp=2, n_rules=1)
    assert str(info.value) == "n_rules must be >= 2 when both classes have alerts"
    for n_tp, n_fp in ((2, 0), (0, 2)):
        corpus = generate_corpus(SynthSpec(n_tp=n_tp, n_fp=n_fp, n_rules=1, duplication_factor=1))
        assert len(corpus.comments) == 1 and len(corpus.alerts) == 2
    assert len(generate_corpus(SynthSpec(n_tp=2, n_fp=2, n_rules=2)).comments) == 2


def _crossover(corpus, truth_value, foreign_pool):
    rows = [r for r, t in zip(corpus.alerts, corpus.truth) if t == truth_value]
    hits = sum(r["alert"]["signature"] in foreign_pool for r in rows)
    return hits / len(rows), len(rows)


def test_full_signal_never_crosses_pools():
    corpus = generate_corpus(
        SynthSpec(n_tp=200, n_fp=200, n_rules=8, duplication_factor=1, signal_strength=1.0)
    )
    assert _crossover(corpus, 1, _FP_DESCRIPTIONS)[0] == 0.0
    assert _crossover(corpus, 0, _TP_DESCRIPTIONS)[0] == 0.0


def test_zero_signal_balances_marker_frequencies():
    # with no planted signal both classes draw from the union pool, so the
    # foreign-pool rate sits near 0.5 in each class and the class gap is
    # within 3 sigma of zero
    corpus = generate_corpus(
        SynthSpec(n_tp=400, n_fp=400, n_rules=8, duplication_factor=1, signal_strength=0.0)
    )
    rate_tp, n_tp = _crossover(corpus, 1, _FP_DESCRIPTIONS)
    rate_fp, n_fp = _crossover(corpus, 0, _TP_DESCRIPTIONS)
    assert rate_tp == pytest.approx(0.5, abs=0.1)
    assert rate_fp == pytest.approx(0.5, abs=0.1)
    pooled = (rate_tp * n_tp + rate_fp * n_fp) / (n_tp + n_fp)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / n_tp + 1 / n_fp))
    assert abs(rate_tp - rate_fp) <= 3 * sigma


def test_writers_produce_headers_and_rows():
    corpus = generate_corpus(SynthSpec(n_tp=2, n_fp=2, n_rules=2, duplication_factor=2))
    alerts_out, comments_out, truth_out = io.StringIO(), io.StringIO(), io.StringIO()
    write_alerts(corpus, alerts_out)
    write_comments(corpus, comments_out)
    write_truth(corpus, truth_out)
    assert len(alerts_out.getvalue().splitlines()) == 8
    comment_lines = comments_out.getvalue().splitlines()
    assert comment_lines[0] == "rule_uuid,rev_comment"
    assert len(comment_lines) == 3
    truth_lines = truth_out.getvalue().splitlines()
    assert truth_lines[0] == "index,label"
    assert truth_lines[1].split(",")[0] == "0"
    assert len(truth_lines) == 9


def test_views_expand_each_base_record_in_its_key_order_once():
    corpus = generate_corpus(SMALL)
    assert all(record["src_port"] == 0 for record in corpus.records)
    assert [len(ports) for ports in corpus.ports] == [3] * 70
    alerts = iter(corpus.alerts)
    for record, ports in zip(corpus.records, corpus.ports):
        for port in ports:
            alert = next(alerts)
            assert list(alert) == list(record)
            assert alert == {**record, "src_port": port}
    assert corpus.alerts is corpus.alerts and corpus.truth is corpus.truth
    assert corpus.truth == tuple(label for label in corpus.labels for _ in range(3))


# one pool per marker group a string is drawn from, each value holding a
# character that JSON escapes or a printf-style template would misread
_ESCAPES = ("100%", 'say "hi"', "C:\\temp\\", "caf\u00e9 \u00e9", "line\u2028sep", "%s %d %%")


def _escape_pools(label):
    descriptions, class_types, prefixes, statuses, dst_ports, volume = synth._POOLS[label]
    tagged = tuple(f"{label}{value}" for value in _ESCAPES)
    return tagged, tagged[::-1], tuple(f"{value}." for value in tagged), statuses, dst_ports, volume


_WRITER_SPECS = {
    "dup1": SynthSpec(n_tp=9, n_fp=11, n_rules=4, duplication_factor=1, seed=3),
    "dup3-signal0": SynthSpec(n_tp=9, n_fp=11, n_rules=4, duplication_factor=3,
                              signal_strength=0.0, seed=4),
    "dup50-signal1": SynthSpec(n_tp=9, n_fp=11, n_rules=4, duplication_factor=50,
                               signal_strength=1.0, seed=5),
    "no-tp": SynthSpec(n_tp=0, n_fp=12, n_rules=3, duplication_factor=3, seed=6),
    "no-fp": SynthSpec(n_tp=12, n_fp=0, n_rules=3, duplication_factor=3, seed=7),
    "empty": SynthSpec(n_tp=0, n_fp=0, n_rules=2, duplication_factor=3, seed=8),
}


@pytest.mark.parametrize("pools", ["default", "escapes"])
@pytest.mark.parametrize("spec", sorted(_WRITER_SPECS))
def test_writers_match_plain_json_and_csv_oracles(monkeypatch, spec, pools):
    if pools == "escapes":
        monkeypatch.setattr(synth, "_POOLS", {1: _escape_pools(1), 0: _escape_pools(0)})
        monkeypatch.setattr(synth, "_DST_PREFIXES", tuple(f"{v}." for v in _ESCAPES))
    corpus = generate_corpus(_WRITER_SPECS[spec])
    if pools == "escapes":
        for record in corpus.records:
            assert record["alert"]["signature"][1:] in _ESCAPES
    alerts_out, truth_out = io.StringIO(), io.StringIO()
    write_alerts(corpus, alerts_out)
    write_truth(corpus, truth_out)
    assert alerts_out.getvalue() == "".join(
        json.dumps(alert, sort_keys=True) + "\n" for alert in corpus.alerts
    )
    oracle = io.StringIO()
    writer = csv.writer(oracle, lineterminator="\n")
    writer.writerow(["index", "label"])
    for i, label in enumerate(corpus.truth):
        writer.writerow([i, label])
    assert truth_out.getvalue() == oracle.getvalue()
    assert len(corpus.truth) == len(corpus.alerts) == sum(map(len, corpus.ports))
