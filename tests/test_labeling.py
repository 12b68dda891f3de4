"""Keyword classification of rule comments and corpus labeling."""

from __future__ import annotations

import io

import pytest

from alert_sift.errors import ValidationError
from alert_sift.ingest import parse_alert_record
from alert_sift.labeling import (
    KeywordConfig,
    LabelDecision,
    LabeledAlert,
    build_label_lists,
    classify_comment,
    label_alerts,
    label_corpus,
    load_keyword_config,
    write_label_lists,
)

from conftest import make_line


def test_fp_keyword_comment():
    assert classify_comment("filtering benign activity") is LabelDecision.FALSE_POSITIVE


def test_tp_keyword_comment():
    assert classify_comment("External scan has been alerted") is LabelDecision.TRUE_POSITIVE


def test_both_lists_hit_is_ambiguous():
    assert classify_comment("benign, but similar case was alerted") is LabelDecision.AMBIGUOUS


def test_empty_comment_unmatched():
    assert classify_comment("") is LabelDecision.UNMATCHED
    assert classify_comment(None) is LabelDecision.UNMATCHED


def test_no_keyword_unmatched():
    assert classify_comment("needs follow-up review") is LabelDecision.UNMATCHED


def test_whitespace_padding_irrelevant():
    assert classify_comment("   whitelisted   ") is classify_comment("whitelisted")


def test_match_is_case_insensitive_by_default():
    assert classify_comment("WHITELISTED per client") is LabelDecision.FALSE_POSITIVE


def test_keyword_config_rejects_empty_or_overlapping_lists():
    with pytest.raises(ValidationError):
        KeywordConfig(tp_keywords=())
    with pytest.raises(ValidationError):
        KeywordConfig(tp_keywords=("sent",), fp_keywords=("SENT",))


@pytest.mark.parametrize("name, words", [
    ("tp_keywords", "alerted"), ("tp_keywords", ("",)), ("tp_keywords", (5,)),
    ("fp_keywords", ("benign", "")), ("fp_keywords", None),
])
def test_keyword_config_refuses_a_list_that_is_not_of_non_empty_strings(name, words):
    # "alerted" once matched by its characters, so "zzz e" was a TP, and "" matched every comment
    with pytest.raises(ValidationError) as info:
        KeywordConfig(**{name: words})
    assert str(info.value) == f"{name} must list non-empty strings, got {words!r}"
    assert KeywordConfig(tp_keywords=["sent"]).tp_keywords == ["sent"]  # a list is a list


@pytest.mark.parametrize("comment", [123, b"alerted", ["alerted"]])
def test_a_comment_that_is_neither_a_string_nor_none_is_refused(comment):
    # these once ended in a bare AttributeError
    for call in (lambda: classify_comment(comment), lambda: build_label_lists([("r1", comment)])):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"rule comment must be a string or None, got {comment!r}"
    assert classify_comment(None) is LabelDecision.UNMATCHED


def test_build_label_lists_partitions_rules():
    rules = [
        ("r1", "confirmed and alerted"),
        ("r2", "expected maintenance"),
        ("r3", "whitelisted by client"),
        ("r4", "benign, was alerted once"),
    ]
    tp_list, fp_list = build_label_lists(rules)
    assert [u for u, _ in tp_list] == ["r1"]
    assert [u for u, _ in fp_list] == ["r2", "r3"]


def test_build_label_lists_empty_comments():
    tp_list, fp_list = build_label_lists([("r1", ""), ("r2", "")])
    assert tp_list == [] and fp_list == []


def test_build_label_lists_duplicate_uuid_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        build_label_lists([("r1", "alerted"), ("r1", "benign")])


def _alerts(*uuid_action_pairs):
    return [
        parse_alert_record(make_line(rule_uuid=u, action=a)) for u, a in uuid_action_pairs
    ]


def test_label_corpus_assigns_from_containing_list():
    alerts = _alerts(("r-fp", "filter"), ("r-tp", "alert"), ("r-none", "alert"))
    labeled = label_corpus(alerts, [("r-tp", "alerted")], [("r-fp", "benign")])
    assert [(x.alert.rule_uuid, x.label) for x in labeled] == [("r-fp", 0), ("r-tp", 1)]


def test_client_specific_action_dropped_even_when_listed():
    alerts = _alerts(("r-tp", "notate_for_soc"))
    assert label_corpus(alerts, [("r-tp", "alerted")], []) == []


def test_label_corpus_returns_labeled_alert_rows():
    alerts = _alerts(("r1", "a"), ("r2", "a"))
    labeled = label_corpus(alerts, [("r1", "alerted")], [("r2", "benign")])
    assert all(type(row) is LabeledAlert for row in labeled)
    assert [(row.alert, row.label) for row in labeled] == [(alerts[0], 1), (alerts[1], 0)]
    assert labeled == [(alerts[0], 1), (alerts[1], 0)]


def test_label_corpus_preserves_order_and_input():
    alerts = _alerts(("r1", "a"), ("r2", "a"), ("r1", "a"))
    labeled = label_corpus(alerts, [("r1", "alerted")], [("r2", "benign")])
    assert [x.alert.rule_uuid for x in labeled] == ["r1", "r2", "r1"]
    assert labeled[0].alert is alerts[0]


def test_label_alerts_reads_one_alert_at_a_time():
    alerts = _alerts(("r1", "a"), ("r2", "a"), ("r1", "a"))
    source = iter(alerts)
    pairs = label_alerts(source, [("r1", "alerted")], [("r2", "benign")])
    assert next(pairs) == (alerts[0], 1)
    assert next(source) is alerts[1]  # not yet read by label_alerts
    assert list(pairs) == [(alerts[2], 1)]


def test_label_corpus_rejects_overlapping_lists():
    alerts = _alerts(("r1", "a"))
    with pytest.raises(ValidationError):
        label_corpus(alerts, [("r1", "x")], [("r1", "y")])


def test_small_match_fraction_labels_small_fraction():
    # 10 rules, one listed: 1,000 of 10,000 alerts get labels
    alerts = []
    for i in range(10_000):
        alerts.append(parse_alert_record(make_line(rule_uuid=f"r{i % 10}")))
    labeled = label_corpus(alerts, [("r3", "alerted")], [])
    assert len(labeled) == 1_000
    assert all(x.label == 1 for x in labeled)


def test_load_keyword_config_stanzas():
    cfg = load_keyword_config(
        [
            "# comment lines are skipped",
            "tp:",
            "alerted",
            "escalated",
            "",
            "fp:",
            "expected",
        ]
    )
    assert cfg.tp_keywords == ("alerted", "escalated")
    assert cfg.fp_keywords == ("expected",)


def test_load_keyword_config_rejects_orphan_keyword():
    with pytest.raises(ValidationError):
        load_keyword_config(["alerted", "tp:"])


def test_write_label_lists_csv_shape():
    out = io.StringIO()
    write_label_lists([("r1", "alerted")], [("r2", "benign")], out)
    assert out.getvalue() == (
        "rule_uuid,rev_comment,label\nr1,alerted,1\nr2,benign,0\n"
    )
