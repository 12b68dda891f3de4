"""Parsing of newline-delimited JSON alert records into RawAlert values.

The input schema follows Suricata EVE naming by default (src_ip, dest_ip,
alert.signature, flow.pkts_toserver, ...) with two enrichment keys that sit at
the top level of each record: ``rule_uuid`` (the matched filter rule) and
``action`` (the analyst disposition). The mapping from RawAlert fields to JSON
paths is configurable via a field-map file of ``field=json.path`` lines.

Analyst comments on the matched rule (``rev_comment``) may arrive embedded in
each record or via a sidecar CSV with header ``rule_uuid,rev_comment``; both
paths are supported.

A RawAlert is an immutable NamedTuple; derive a changed copy with
``_replace``. Parsing is two steps, ``decode_record`` (line to dict) and
``record_to_alert`` (dict to validated RawAlert, in one pass over the
fields); ``parse_alert_record`` is the two in a row, and
``parse_labeled_record`` takes the label from the same dict, so no line is
decoded twice. One ``FieldPaths`` per read holds the field map split into
keys and memoises what that read has validated: addresses, and timestamp
strings with their parsed datetimes. Addresses are read by ``ip_value``:
a plain dotted quad by one compiled pattern, anything else by ``ipaddress``,
so both accept the same strings and give the same number.

There is one reader, ``Records``: it parses an NDJSON stream a line at a
time, a blank line being a bad line like any other (``read_corpus``
collects it). There is one writer, ``write_records``: it writes (alert,
label or None) rows as they arrive, as the NDJSON lines
``json.dumps(alert_to_record(alert), sort_keys=True)`` would give, from
templates compiled from the default layout. ``alert_to_record`` stays as
the plain reference for that layout.
"""

from __future__ import annotations

import csv
import ipaddress
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from socket import inet_aton
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .errors import AlertSiftError, ParseError, ValidationError

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

# Fields whose absence changes a written record's layout: the optional
# RawAlert fields and the label, which only labeled output carries.
_ABSENT_KEYS = (
    "http_status",
    "pkts_to_server",
    "pkts_to_client",
    "bytes_to_server",
    "bytes_to_client",
    "rev_comment",
    "label",
)


class RawAlert(NamedTuple):
    """One parsed IDS alert record; immutable, so derive a changed copy with ``_replace``."""

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


@dataclass(frozen=True)
class LabeledAlert:
    alert: RawAlert
    label: int  # 1 = true positive, 0 = false positive

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label!r}")


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
    """Split each path of a field map, in RawAlert field order.

    Unlisted fields keep their default path, and a key that names no
    RawAlert field is a ValidationError. No map means the default, compiled
    once.
    """
    if not field_map:
        return _DEFAULT_PATHS
    for field in field_map:
        if field not in DEFAULT_FIELD_MAP:
            raise ValidationError(f"field map: unknown field {field!r}")
    out = []
    for field in RawAlert._fields:
        *parents, leaf = field_map.get(field, DEFAULT_FIELD_MAP[field]).split(".")
        out.append((field, tuple(parents), leaf))
    return tuple(out)


_DEFAULT_PATHS = _compile(DEFAULT_FIELD_MAP)


class FieldPaths:
    """A field map compiled for one read of a corpus.

    Each dotted JSON path is split into its keys once. The read also
    remembers what it has validated: a corpus repeats a few thousand
    addresses and timestamps across all its alerts, so the repeats skip
    ``ipaddress`` and ``parse_timestamp``. Only values that passed enter
    ``valid_ips`` and ``timestamps``, so a bad value is rejected on every
    line it is on. Build one per read and drop it with the read, so the
    memos live no longer than the alerts they serve.
    """

    __slots__ = ("paths", "valid_ips", "timestamps")

    def __init__(self, field_map: dict[str, str] | None = None):
        self.paths = _compile(field_map)
        self.valid_ips: set[str] = set()
        self.timestamps: dict[str, datetime] = {}


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


# A plain dotted quad: four decimal octets of ASCII digits, no leading zeros.
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))


def ip_value(text: str) -> tuple[int, int]:
    """(IP version, integer value) of an address string.

    A plain dotted quad is matched by one compiled pattern and packed by
    ``inet_aton``; any other string (IPv6, a scope id, or not an address at
    all) is read by ``ipaddress``, whose ValueError it raises. The pattern
    accepts only strings ``ipaddress`` accepts, and none of the shorthand
    forms ``inet_aton`` would also take, so the result is always
    ``(ip.version, int(ip))``.
    """
    if _DOTTED_QUAD.fullmatch(text) is not None:
        return 4, int.from_bytes(inet_aton(text), "big")
    ip = ipaddress.ip_address(text)
    return ip.version, int(ip)


def _validate_ip(name: str, value, valid: set[str]) -> str:
    """Check an address string, once per distinct string in `valid`."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    if value not in valid:
        try:
            ip_value(value)
        except ValueError:
            raise ValidationError(f"{name} is not a valid IP address: {value!r}") from None
        valid.add(value)
    return value


def _text(name: str, value, absent: str | None) -> str | None:
    """A text field: `absent` when missing, else the value, which must be a string."""
    if value is None:
        return absent
    if type(value) is not str:
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def decode_record(line: str) -> dict:
    """Decode one NDJSON line; ParseError unless it holds a JSON object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past int()'s limit, deep nesting
        raise ParseError(f"unreadable JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object")
    return obj


def record_to_alert(obj: dict, field_map: dict[str, str] | FieldPaths | None = None) -> RawAlert:
    """Validate one decoded record into a RawAlert.

    Absent optional fields stay missing (None); unknown JSON keys are ignored.
    Raises ValidationError for out-of-range, ill-typed or missing required
    fields; a text field that is present must be a string. A record with
    several faults reports the first in field order, after any missing
    required field. Pass the FieldPaths of a read to reuse its
    compiled paths, addresses and timestamps.
    """
    fields = field_map if isinstance(field_map, FieldPaths) else FieldPaths(field_map)
    raw = []
    for _, parents, leaf in fields.paths:
        value = obj
        for key in parents:
            value = value.get(key) if isinstance(value, dict) else None
        raw.append(value.get(leaf) if isinstance(value, dict) else None)
    (src_ip, dst_ip, src_port, dst_port, rule_sid, description, class_type, rule_uuid, action,
     stamp, payload_len, http_status, pkts_ts, pkts_tc, bytes_ts, bytes_tc, comment) = raw
    if (src_ip is None or dst_ip is None or src_port is None or dst_port is None
            or rule_sid is None or rule_uuid is None or stamp is None):
        for (field, parents, leaf), value in zip(fields.paths, raw):
            if value is None and field in _REQUIRED_FIELDS:
                path = ".".join((*parents, leaf))
                raise ValidationError(f"missing required field {field!r} (key {path!r})")

    # Fast checks inline; the helpers run only to raise, for an absent text
    # field, or for an address or number of a subclass of str or int, which
    # they accept. Text fields must be exactly str.
    valid_ips = fields.valid_ips
    if type(src_ip) is not str or src_ip not in valid_ips:
        _validate_ip("src_ip", src_ip, valid_ips)
    if type(dst_ip) is not str or dst_ip not in valid_ips:
        _validate_ip("dst_ip", dst_ip, valid_ips)
    if type(src_port) is not int or not 0 <= src_port <= 65535:
        _require_int("src_port", src_port, 0, 65535)
    if type(dst_port) is not int or not 0 <= dst_port <= 65535:
        _require_int("dst_port", dst_port, 0, 65535)
    if type(rule_sid) is not int or rule_sid < 0:
        _require_int("rule_sid", rule_sid, 0)
    if type(description) is not str:
        description = _text("rule_description", description, "")
    if type(class_type) is not str:
        class_type = _text("class_type", class_type, "")
    if type(rule_uuid) is not str:
        rule_uuid = _text("rule_uuid", rule_uuid, None)
    if type(action) is not str:
        action = _text("action", action, "")
    if type(comment) is not str:
        comment = _text("rev_comment", comment, None)
    timestamp = fields.timestamps.get(stamp) if type(stamp) is str else None
    if timestamp is None:
        timestamp = parse_timestamp(stamp)
        if type(stamp) is str:
            fields.timestamps[stamp] = timestamp
    if payload_len is None:
        payload_len = 0
    elif type(payload_len) is not int or payload_len < 0:
        _require_int("payload_len", payload_len, 0)
    if http_status is not None and (type(http_status) is not int or not 100 <= http_status <= 599):
        _require_int("http_status", http_status, 100, 599)
    if pkts_ts is not None and (type(pkts_ts) is not int or pkts_ts < 0):
        _require_int("pkts_to_server", pkts_ts, 0)
    if pkts_tc is not None and (type(pkts_tc) is not int or pkts_tc < 0):
        _require_int("pkts_to_client", pkts_tc, 0)
    if bytes_ts is not None and (type(bytes_ts) is not int or bytes_ts < 0):
        _require_int("bytes_to_server", bytes_ts, 0)
    if bytes_tc is not None and (type(bytes_tc) is not int or bytes_tc < 0):
        _require_int("bytes_to_client", bytes_tc, 0)
    return RawAlert(
        src_ip, dst_ip, src_port, dst_port, rule_sid, description, class_type, rule_uuid,
        action, timestamp, payload_len, http_status, pkts_ts, pkts_tc, bytes_ts, bytes_tc,
        comment,
    )


def parse_alert_record(line: str, field_map: dict[str, str] | FieldPaths | None = None) -> RawAlert:
    """Parse one NDJSON line into a RawAlert: decode_record, then record_to_alert.

    Raises ParseError for malformed JSON and ValidationError for out-of-range
    or missing required fields.
    """
    return record_to_alert(decode_record(line), field_map)


def parse_labeled_record(text: str, fields: FieldPaths | None = None) -> LabeledAlert:
    """Parse one line of labeled NDJSON into a LabeledAlert, decoding it once."""
    obj = decode_record(text)
    if "label" not in obj:
        raise ValidationError("missing label field")
    label = obj["label"]
    if type(label) is not int or label not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {json.dumps(label)}")
    return LabeledAlert(record_to_alert(obj, fields), label)


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


def _template(absent: tuple[bool, ...]) -> tuple[str, Callable]:
    """The %-template of one pattern of absent fields, and a getter.

    The template is the line ``json.dumps(record, sort_keys=True)`` gives in
    the default layout, with a ``%s`` per value; the getter picks those
    values, in template order, from the tuple of a RawAlert's JSON-encoded
    values and the label.
    """
    skip = {name for name, gone in zip(_ABSENT_KEYS, absent) if gone}
    tree: dict = {}
    for index, (field, parents, leaf) in enumerate((*_DEFAULT_PATHS, ("label", (), "label"))):
        if field not in skip:
            node = tree
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = index
    order: list[int] = []

    def emit(node: dict) -> str:
        items = []
        for key in sorted(node):
            value = node[key]
            if isinstance(value, dict):
                text = emit(value)
            else:
                order.append(value)
                text = "%s"
            items.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + text)
        return "{" + ", ".join(items) + "}"

    template = emit(tree) + "\n"
    return template, itemgetter(*order)


def write_records(
    stream: IO[str],
    rows: Iterable[tuple[RawAlert, int | None]],
    comments: dict[str, str] | None = None,
) -> None:
    """Write (alert, label or None) rows as NDJSON in the default layout, one line each.

    Each line is byte for byte ``json.dumps(record, sort_keys=True)`` of
    ``alert_to_record(alert)``, with ``rev_comment`` replaced by
    ``comments[rule_uuid]`` where the alert's rule has one and, unless the
    label is None, ``label`` added. Rows are written as they are read, so
    they may come from a one-shot stream. One template per pattern of absent
    fields is filled with ``encode_basestring_ascii`` strings and ints; each
    timestamp object is formatted once per write.
    """
    templates: dict[tuple[bool, ...], tuple[str, Callable]] = {}
    # id(timestamp) -> (timestamp, its encoded isoformat); holding the
    # timestamp keeps its id from being reused while the write runs
    isoformats: dict[int, tuple[datetime, str]] = {}
    comments = comments or {}
    enc = encode_basestring_ascii
    write = stream.write
    for alert, label in rows:
        (src_ip, dst_ip, src_port, dst_port, rule_sid, description, class_type, rule_uuid,
         action, timestamp, payload_len, http_status, pkts_ts, pkts_tc, bytes_ts, bytes_tc,
         comment) = alert
        comment = comments.get(rule_uuid, comment)
        absent = (http_status is None, pkts_ts is None, pkts_tc is None, bytes_ts is None,
                  bytes_tc is None, comment is None, label is None)
        form = templates.get(absent)
        if form is None:
            form = templates[absent] = _template(absent)
        iso = isoformats.get(id(timestamp))
        if iso is None:
            iso = isoformats[id(timestamp)] = (timestamp, enc(timestamp.isoformat()))
        # RawAlert field order, then the label: the indices _template picks by
        values = (enc(src_ip), enc(dst_ip), src_port, dst_port, rule_sid, enc(description),
                  enc(class_type), enc(rule_uuid), enc(action), iso[1], payload_len,
                  http_status, pkts_ts, pkts_tc, bytes_ts, bytes_tc,
                  None if comment is None else enc(comment), label)
        write(form[0] % form[1](values))


class Records:
    """The records of an NDJSON stream, parsed a line at a time as it is iterated.

    Each stripped line is passed to parse once; a blank line is a bad line,
    "empty line". Given a rejected list, a bad line's (line number, reason)
    is appended to it and the line is skipped; otherwise a bad line raises
    AlertSiftError("<name> line N: <reason>"). count is the number of
    records yielded so far.
    """

    def __init__(self, lines: Iterable[str], parse: Callable[[str], object], name: str,
                 rejected: list[tuple[int, str]] | None = None):
        self.lines = lines
        self.parse = parse
        self.name = name
        self.rejected = rejected
        self.count = 0

    def __iter__(self) -> Iterator:
        parse, rejected = self.parse, self.rejected
        for line_no, line in enumerate(self.lines, start=1):
            text = line.strip()
            try:
                if not text:
                    raise ValidationError("empty line")
                record = parse(text)
            except AlertSiftError as exc:
                if rejected is None:
                    raise AlertSiftError(f"{self.name} line {line_no}: {exc}") from None
                rejected.append((line_no, str(exc)))
                continue
            self.count += 1
            yield record


def read_corpus(
    source: Iterable[str], field_map: dict[str, str] | None = None
) -> tuple[list[RawAlert], IngestReport]:
    """Read newline-delimited records; bad lines are counted, never fatal."""
    fields, rejected = FieldPaths(field_map), []
    records = Records(source, lambda text: parse_alert_record(text, fields), "corpus", rejected)
    alerts = list(records)
    return alerts, IngestReport(records.count, len(rejected), rejected)


def load_field_map(source: Iterable[str]) -> dict[str, str]:
    """Load a field-map file: one ``field=json.path`` per line, # comments.

    Returns only the listed fields; the reader fills the others with their
    default paths. Errors name the line.
    """
    fmap: dict[str, str] = {}
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
    """Read a rule-comment sidecar CSV with header ``rule_uuid,rev_comment``.

    A rule_uuid listed twice is a ValidationError.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("rule-comment CSV is empty") from None
    if [h.strip() for h in header[:2]] != ["rule_uuid", "rev_comment"]:
        raise ValidationError(
            f"rule-comment CSV must start with header rule_uuid,rev_comment (got {header!r})"
        )
    rules: dict[str, str] = {}
    for row in reader:
        if not row:
            continue
        if row[0] in rules:
            raise ValidationError(f"duplicate rule_uuid {row[0]!r}")
        rules[row[0]] = row[1] if len(row) > 1 else ""
    return list(rules.items())


def attach_comments(
    alerts: Iterable[RawAlert], comments: Iterable[tuple[str, str]]
) -> list[RawAlert]:
    """Join sidecar comments onto alerts by rule_uuid (sidecar wins)."""
    by_rule = dict(comments)
    out = []
    for alert in alerts:
        comment = by_rule.get(alert.rule_uuid)
        out.append(alert._replace(rev_comment=comment) if comment is not None else alert)
    return out
