"""Parsing of newline-delimited JSON alert records into RawAlert values.

The input schema follows Suricata EVE naming by default (src_ip, dest_ip,
alert.signature, flow.pkts_toserver, ...) with two enrichment keys that sit at
the top level of each record: ``rule_uuid`` (the matched filter rule) and
``action`` (the analyst disposition). The mapping from RawAlert fields to JSON
paths is configurable via a field-map file of ``field=json.path`` lines.

Analyst comments on the matched rule (``rev_comment``) may arrive embedded in
each record or via a sidecar CSV with header ``rule_uuid,rev_comment``; both
paths are supported.

Parsing is two steps, ``decode_record`` (line to dict) and ``record_to_alert``
(dict to validated RawAlert); ``parse_alert_record`` is the two in a row. A
reader that needs the decoded dict for more (a label field) calls them
itself, so no line is decoded twice. One ``FieldPaths`` per read holds the
field map split into keys and the addresses that read has validated.
"""

from __future__ import annotations

import csv
import ipaddress
import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import IO, Iterable, Iterator

from .errors import ParseError, ValidationError

# RawAlert field -> dotted JSON path in the input record.
DEFAULT_FIELD_MAP: dict[str, str] = {
    "src_ip": "src_ip",
    "dst_ip": "dest_ip",
    "src_port": "src_port",
    "dst_port": "dest_port",
    "rule_sid": "alert.signature_id",
    "rule_description": "alert.signature",
    "class_type": "alert.category",
    "rule_uuid": "rule_uuid",
    "action": "action",
    "http_status": "http.status",
    "pkts_to_server": "flow.pkts_toserver",
    "pkts_to_client": "flow.pkts_toclient",
    "bytes_to_server": "flow.bytes_toserver",
    "bytes_to_client": "flow.bytes_toclient",
    "payload_len": "payload_len",
    "timestamp": "timestamp",
    "rev_comment": "rev_comment",
}

_REQUIRED_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "rule_sid",
    "rule_uuid",
    "timestamp",
)

_OPTIONAL_INT_FIELDS = (
    "http_status",
    "pkts_to_server",
    "pkts_to_client",
    "bytes_to_server",
    "bytes_to_client",
)


@dataclass(frozen=True)
class RawAlert:
    """One parsed IDS alert record."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    rule_sid: int
    rule_description: str
    class_type: str
    rule_uuid: str
    action: str
    timestamp: datetime
    payload_len: int = 0
    http_status: int | None = None
    pkts_to_server: int | None = None
    pkts_to_client: int | None = None
    bytes_to_server: int | None = None
    bytes_to_client: int | None = None
    rev_comment: str | None = None


@dataclass
class IngestReport:
    """Accounting for one corpus read: accepted + rejected = lines seen."""

    accepted: int = 0
    rejected: int = 0
    # (line number, reason) for every rejected line
    rejection_reasons: list[tuple[int, str]] = field(default_factory=list)


# One compiled field: (RawAlert field, parent JSON keys, leaf JSON key).
_Path = tuple[str, tuple[str, ...], str]


def _compile(field_map: dict[str, str] | None) -> tuple[_Path, ...]:
    """Split each path of a field map; no map means the default, compiled once."""
    if not field_map:
        return _DEFAULT_PATHS
    out = []
    for field, dotted in field_map.items():
        *parents, leaf = dotted.split(".")
        out.append((field, tuple(parents), leaf))
    return tuple(out)


_DEFAULT_PATHS = _compile(DEFAULT_FIELD_MAP)


class FieldPaths:
    """A field map compiled for one read of a corpus.

    Each dotted JSON path is split into its keys once. The read also
    remembers the address strings it has validated: a corpus repeats a few
    thousand addresses across all its alerts, so the repeats skip
    ``ipaddress``. Build one per read and drop it with the read, so the set
    lives no longer than the alerts it serves.
    """

    __slots__ = ("paths", "valid_ips")

    def __init__(self, field_map: dict[str, str] | None = None):
        self.paths = _compile(field_map)
        self.valid_ips: set[str] = set()


def parse_timestamp(value) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    if not isinstance(value, str):
        raise ValidationError(f"timestamp must be a string, got {value!r}")
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    # EVE emits numeric offsets without a colon (e.g. +0000).
    if len(text) >= 5 and text[-5] in "+-" and text[-4:].isdigit():
        text = text[:-2] + ":" + text[-2:]
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValidationError(f"bad timestamp {value!r}: {exc}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValidationError(f"{name} out of range: {value} (expected {bound})")
    return value


def _validate_ip(name: str, value, valid: set[str]) -> str:
    """Check an address string, once per distinct string in `valid`."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    if value not in valid:
        try:
            ipaddress.ip_address(value)
        except ValueError:
            raise ValidationError(f"{name} is not a valid IP address: {value!r}") from None
        valid.add(value)
    return value


def decode_record(line: str) -> dict:
    """Decode one NDJSON line; ParseError unless it holds a JSON object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object")
    return obj


def record_to_alert(obj: dict, field_map: dict[str, str] | FieldPaths | None = None) -> RawAlert:
    """Validate one decoded record into a RawAlert.

    Absent optional fields stay missing (None); unknown JSON keys are ignored.
    Raises ValidationError for out-of-range or missing required fields. Pass
    the FieldPaths of a read to reuse its compiled paths and addresses.
    """
    fields = field_map if isinstance(field_map, FieldPaths) else FieldPaths(field_map)
    raw = {}
    for field, parents, leaf in fields.paths:
        value = obj
        for key in parents:
            value = value.get(key) if isinstance(value, dict) else None
        raw[field] = value.get(leaf) if isinstance(value, dict) else None
    for field in _REQUIRED_FIELDS:
        if raw.get(field) is None:
            path = {f: ".".join((*p, leaf)) for f, p, leaf in fields.paths}[field]
            raise ValidationError(f"missing required field {field!r} (key {path!r})")

    kwargs: dict = {
        "src_ip": _validate_ip("src_ip", raw["src_ip"], fields.valid_ips),
        "dst_ip": _validate_ip("dst_ip", raw["dst_ip"], fields.valid_ips),
        "src_port": _require_int("src_port", raw["src_port"], 0, 65535),
        "dst_port": _require_int("dst_port", raw["dst_port"], 0, 65535),
        "rule_sid": _require_int("rule_sid", raw["rule_sid"], 0),
        "rule_description": str(raw["rule_description"] or ""),
        "class_type": str(raw["class_type"] or ""),
        "rule_uuid": str(raw["rule_uuid"]),
        "action": str(raw["action"] or ""),
        "timestamp": parse_timestamp(raw["timestamp"]),
        "payload_len": _require_int("payload_len", raw["payload_len"], 0)
        if raw["payload_len"] is not None
        else 0,
    }
    if raw["http_status"] is not None:
        kwargs["http_status"] = _require_int("http_status", raw["http_status"], 100, 599)
    for field in _OPTIONAL_INT_FIELDS[1:]:
        if raw[field] is not None:
            kwargs[field] = _require_int(field, raw[field], 0)
    if raw["rev_comment"] is not None:
        kwargs["rev_comment"] = str(raw["rev_comment"])
    return RawAlert(**kwargs)


def parse_alert_record(line: str, field_map: dict[str, str] | FieldPaths | None = None) -> RawAlert:
    """Parse one NDJSON line into a RawAlert: decode_record, then record_to_alert.

    Raises ParseError for malformed JSON and ValidationError for out-of-range
    or missing required fields.
    """
    return record_to_alert(decode_record(line), field_map)


def alert_to_record(alert: RawAlert, field_map: dict[str, str] | None = None) -> dict:
    """Serialize a RawAlert back to the nested input-record layout."""
    obj: dict = {}
    for field, parents, leaf in _compile(field_map):
        value = getattr(alert, field)
        if value is None:
            continue
        if field == "timestamp":
            value = value.isoformat()
        cur = obj
        for key in parents:
            cur = cur.setdefault(key, {})
        cur[leaf] = value
    return obj


def alert_to_json(alert: RawAlert, field_map: dict[str, str] | None = None) -> str:
    return json.dumps(alert_to_record(alert, field_map), sort_keys=True)


def read_corpus(
    source: Iterable[str], field_map: dict[str, str] | None = None
) -> tuple[list[RawAlert], IngestReport]:
    """Read newline-delimited records; bad lines are counted, never fatal."""
    alerts: list[RawAlert] = []
    report = IngestReport()
    fields = FieldPaths(field_map)
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            report.rejected += 1
            report.rejection_reasons.append((line_no, "empty line"))
            continue
        try:
            alerts.append(parse_alert_record(stripped, fields))
            report.accepted += 1
        except (ParseError, ValidationError) as exc:
            report.rejected += 1
            report.rejection_reasons.append((line_no, str(exc)))
    return alerts, report


def load_field_map(source: Iterable[str]) -> dict[str, str]:
    """Load a field-map file: one ``field=json.path`` per line, # comments.

    Unlisted fields keep their default mapping.
    """
    fmap = dict(DEFAULT_FIELD_MAP)
    for line_no, line in enumerate(source, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValidationError(f"field-map line {line_no}: expected field=json.path")
        field, _, path = text.partition("=")
        field, path = field.strip(), path.strip()
        if field not in DEFAULT_FIELD_MAP:
            raise ValidationError(f"field-map line {line_no}: unknown field {field!r}")
        if not path:
            raise ValidationError(f"field-map line {line_no}: empty path for {field!r}")
        fmap[field] = path
    return fmap


def read_rule_comments(source: IO[str] | Iterator[str]) -> list[tuple[str, str]]:
    """Read a rule-comment sidecar CSV with header ``rule_uuid,rev_comment``."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("rule-comment CSV is empty") from None
    if [h.strip() for h in header[:2]] != ["rule_uuid", "rev_comment"]:
        raise ValidationError(
            f"rule-comment CSV must start with header rule_uuid,rev_comment (got {header!r})"
        )
    return [(row[0], row[1] if len(row) > 1 else "") for row in reader if row]


def attach_comments(
    alerts: Iterable[RawAlert], comments: Iterable[tuple[str, str]]
) -> list[RawAlert]:
    """Join sidecar comments onto alerts by rule_uuid (sidecar wins)."""
    by_rule = dict(comments)
    out = []
    for alert in alerts:
        comment = by_rule.get(alert.rule_uuid)
        out.append(replace(alert, rev_comment=comment) if comment is not None else alert)
    return out
