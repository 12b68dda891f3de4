"""Weak-supervision labeling of alerts from analyst rule comments.

A rule's free-text comment decides the label of every alert it matched:
comments hitting only the true-positive keyword list label 1, only the
false-positive list label 0. Comments hitting both lists are ambiguous and
comments hitting neither are unmatched; alerts under such rules are dropped,
as are alerts whose analyst action marks them client-specific. Matching
ignores case. label_alerts yields each kept alert as a LabeledAlert row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator, Sequence

from .errors import ValidationError
from .ingest import LabeledAlert, RawAlert

# Default keyword lists; extendable via a keyword-config file.
DEFAULT_TP_KEYWORDS = ("alerted", "sent")
DEFAULT_FP_KEYWORDS = ("expected", "benign", "whitelisted")

# Alerts with this analyst action apply to single clients only and never
# represent general security events; they are excluded from labeling.
CLIENT_SPECIFIC_ACTION = "notate_for_soc"


class LabelDecision(Enum):
    TRUE_POSITIVE = "tp"
    FALSE_POSITIVE = "fp"
    AMBIGUOUS = "ambiguous"
    UNMATCHED = "unmatched"


@dataclass(frozen=True)
class KeywordConfig:
    tp_keywords: tuple[str, ...] = DEFAULT_TP_KEYWORDS
    fp_keywords: tuple[str, ...] = DEFAULT_FP_KEYWORDS

    def __post_init__(self):
        for name in ("tp_keywords", "fp_keywords"):  # a str would match by its characters
            words = getattr(self, name)
            if not isinstance(words, (tuple, list)) or not all(
                isinstance(word, str) and word for word in words
            ):
                raise ValidationError(f"{name} must list non-empty strings, got {words!r}")
        if not self.tp_keywords or not self.fp_keywords:
            raise ValidationError("both keyword lists must be non-empty")
        overlap = {k.lower() for k in self.tp_keywords} & {k.lower() for k in self.fp_keywords}
        if overlap:
            raise ValidationError(f"keywords in both lists: {sorted(overlap)}")


def classify_comment(comment: str | None, cfg: KeywordConfig | None = None) -> LabelDecision:
    """Decide TP/FP/ambiguous/unmatched for one comment by substring search."""
    cfg = cfg or KeywordConfig()
    if comment is not None and not isinstance(comment, str):
        raise ValidationError(f"rule comment must be a string or None, got {comment!r}")
    if not comment:
        return LabelDecision.UNMATCHED
    haystack = comment.lower()
    tp_hit = any(k.lower() in haystack for k in cfg.tp_keywords)
    fp_hit = any(k.lower() in haystack for k in cfg.fp_keywords)
    if tp_hit and fp_hit:
        return LabelDecision.AMBIGUOUS
    if tp_hit:
        return LabelDecision.TRUE_POSITIVE
    if fp_hit:
        return LabelDecision.FALSE_POSITIVE
    return LabelDecision.UNMATCHED


def build_label_lists(
    rules: Sequence[tuple[str, str]], cfg: KeywordConfig | None = None
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Split (rule_uuid, rev_comment) pairs into TP and FP lists.

    Ambiguous and unmatched rules land in neither list. Duplicate rule_uuids
    are a validation error.
    """
    cfg = cfg or KeywordConfig()
    seen: set[str] = set()
    tp_list: list[tuple[str, str]] = []
    fp_list: list[tuple[str, str]] = []
    for rule_uuid, comment in rules:
        if rule_uuid in seen:
            raise ValidationError(f"duplicate rule_uuid {rule_uuid!r}")
        seen.add(rule_uuid)
        decision = classify_comment(comment, cfg)
        if decision is LabelDecision.TRUE_POSITIVE:
            tp_list.append((rule_uuid, comment))
        elif decision is LabelDecision.FALSE_POSITIVE:
            fp_list.append((rule_uuid, comment))
    return tp_list, fp_list


def label_alerts(
    alerts: Iterable[RawAlert],
    tp_list: Sequence[tuple[str, str]],
    fp_list: Sequence[tuple[str, str]],
) -> Iterator[LabeledAlert]:
    """Yield a LabeledAlert row for each alert whose rule_uuid sits in exactly one list.

    Alerts with the client-specific action are dropped regardless of list
    membership. Alerts are read one at a time, in order, and never mutated,
    so the input may be a one-shot stream.
    """
    labels = {uuid: 1 for uuid, _ in tp_list}
    both = {uuid for uuid, _ in fp_list if uuid in labels}
    if both:
        raise ValidationError(f"rule_uuids present in both lists: {sorted(both)}")
    labels.update((uuid, 0) for uuid, _ in fp_list)
    for alert in alerts:
        label = labels.get(alert.rule_uuid)
        if label is not None and alert.action != CLIENT_SPECIFIC_ACTION:
            yield tuple.__new__(LabeledAlert, (alert, label))  # no Python-level __new__


def label_corpus(
    alerts: Iterable[RawAlert],
    tp_list: Sequence[tuple[str, str]],
    fp_list: Sequence[tuple[str, str]],
) -> list[LabeledAlert]:
    """label_alerts, collected in a list."""
    return list(label_alerts(alerts, tp_list, fp_list))


def load_keyword_config(source: Iterable[str]) -> KeywordConfig:
    """Load keyword lists from a text file with ``tp:`` / ``fp:`` stanzas.

    Each stanza header starts a list; following non-blank lines are one
    keyword each. ``#`` starts a comment.
    """
    lists: dict[str, list[str]] = {"tp": [], "fp": []}
    current: list[str] | None = None
    for line_no, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.lower() in ("tp:", "fp:"):
            current = lists[text.lower()[:-1]]
            continue
        if current is None:
            raise ValidationError(f"keyword-config line {line_no}: keyword before tp:/fp: stanza")
        current.append(text)
    return KeywordConfig(tp_keywords=tuple(lists["tp"]), fp_keywords=tuple(lists["fp"]))


def write_label_lists(
    tp_list: Sequence[tuple[str, str]],
    fp_list: Sequence[tuple[str, str]],
    stream: IO[str],
) -> None:
    """Export label lists as CSV ``rule_uuid,rev_comment,label``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["rule_uuid", "rev_comment", "label"])
    for rule_uuid, comment in tp_list:
        writer.writerow([rule_uuid, comment, 1])
    for rule_uuid, comment in fp_list:
        writer.writerow([rule_uuid, comment, 0])
