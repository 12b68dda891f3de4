"""Deduplicating sampling and time-disjoint train/test partitioning.

Labeled corpora are heavily duplicated per rule (one noisy sensor can emit
thousands of near-identical alerts differing only in port). Striding keeps
the first item of every ``stride`` within each rule partition, capped per
rule, which removes bulk duplication while allowing slight repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

from .errors import ValidationError
from .features import _is_int
from .ingest import LabeledAlert


@dataclass(frozen=True)
class SampleParams:
    stride: int = 100
    per_rule_cap: int = 10

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _is_int(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")


def dedup_sample(
    alerts: Iterable[LabeledAlert], params: SampleParams | None = None
) -> list[LabeledAlert]:
    """Stride-sample each rule_uuid partition, then cap it, in one pass.

    Within each partition (arrival order) positions 1, 1+stride, 1+2*stride,
    ... are kept, truncated to per_rule_cap; partitions are re-emitted in
    first-seen rule order. Only the survivors are held, so the input may be
    a one-shot stream of any length.
    """
    params = params or SampleParams()
    stride, end = params.stride, params.stride * params.per_rule_cap
    seen: dict[str, int] = {}  # rule_uuid -> items of its partition so far
    kept: dict[str, list[LabeledAlert]] = {}
    for item in alerts:
        rule = item.alert.rule_uuid
        position = seen.get(rule, 0)
        seen[rule] = position + 1
        if position < end and position % stride == 0:
            kept.setdefault(rule, []).append(item)
    return [item for items in kept.values() for item in items]


def partition_by_period(
    alerts: list[LabeledAlert], split_instant: datetime
) -> tuple[list[LabeledAlert], list[LabeledAlert]]:
    """Split into (train, test): timestamps before the instant train, rest test."""
    if split_instant.tzinfo is None:
        raise ValidationError("split_instant must be timezone-aware")
    train = [a for a in alerts if a.alert.timestamp < split_instant]
    test = [a for a in alerts if a.alert.timestamp >= split_instant]
    return train, test
