"""Parsing of newline-delimited JSON alert records into RawAlert values.

The input schema follows Suricata EVE naming by default (src_ip, dest_ip,
alert.signature, flow.pkts_toserver, ...) with two enrichment keys that sit at
the top level of each record: ``rule_uuid`` (the matched filter rule) and
``action`` (the analyst disposition). The mapping from RawAlert fields to JSON
paths is configurable via a field-map file of ``field=json.path`` lines.

Analyst comments on the matched rule (``rev_comment``) may arrive embedded in
each record or via a sidecar CSV with header ``rule_uuid,rev_comment``; both
paths are supported. ``read_rule_comments`` reads a sidecar into a
``{rule_uuid: comment}`` dict, and ``parse_embedded`` collects the embedded
comments into one as it parses, refusing a rule whose comments differ.

A RawAlert is an immutable NamedTuple checked however it is made, so no code
that takes one checks its fields. A labeled row is a LabeledAlert NamedTuple
``(alert, label)``, unchecked as any pair is. Parsing is two steps,
``decode_record`` (line to dict) and ``record_to_alert`` (dict to validated
RawAlert, in one pass over the fields); ``parse_alert_record`` is the two in a
row, and ``parse_labeled_record`` takes the label from the same dict, so no
line is decoded twice. ``decode_record`` reads a line that is one JSON object
from end to end with one call of the C scanner ``json.loads`` runs (``_SCAN``),
and gives every other line to ``json.loads`` itself, so every result and error
text is ``json.loads``' own. ``load_field_map`` compiles a field map once, into
one function that reads a record's values with one ``.get`` each, with no loop
over fields; given none, the parsers read the default layout. The parser
remembers, process-wide, the addresses and timestamp strings (with their parsed
datetimes) that passed its checks. Only checked values enter, so a memo saves
work but never changes a result or an error text, and each is emptied when it
reaches ``_MEMO_SIZE`` entries, so distinct values hold a bounded set.
Addresses are read by ``ip_value``: a plain dotted quad by one compiled
pattern, anything else by ``ipaddress``, so both read the same strings to the
same number.

``refuse_alert`` states the alert contract once: walking the fields in
RawAlert order with one table of integer ranges (``_INT_RANGES``), it raises
the error of the first field at fault. A RawAlert runs it where it is made;
``record_to_alert`` checks inline first, calls it only when that check fails,
and makes its alert unchecked; a new dotted quad needs its pattern alone.

There is one NDJSON reader, ``Records``: it parses a stream a line at a
time, a blank line being a bad line like any other (``read_corpus``
collects it). There is one writer, ``write_records``, and it is the one
check of a label on output: it writes (alert, label or None) rows as they
arrive, as the NDJSON lines ``json.dumps(record, sort_keys=True)`` of each
alert's record in the default layout would give. It fills one %-template per
pattern of absent fields, and each template is ``json.dumps`` output itself:
the record with a marker string for each present value, each quoted marker
replaced by ``%s``.
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

from .errors import AlertSiftError, ParseError, ValidationError, check_int

# The scanner json.loads runs, with its default settings, without its Python wrapper.
_SCAN = json.JSONDecoder().scan_once

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

# Entries a memo of distinct values holds before it is emptied; a corpus
# repeats a few thousand addresses, timestamps and rule texts, so repeats still hit.
_MEMO_SIZE = 2**12
_new = tuple.__new__  # a RawAlert or LabeledAlert of checked values, skipping its __new__


class _Fields(NamedTuple):
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


class RawAlert(_Fields):
    """One IDS alert, checked by ``refuse_alert`` however it is made; copy it by ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return refuse_alert(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, iterable) -> RawAlert:  # _replace's constructor too
        return refuse_alert(super()._make(iterable))

    def __reduce__(self):  # every pickle protocol, and copy, rebuild through __new__
        return type(self), tuple(self)


# The RawAlert fields that may be None, in field order: those whose default is None.
_OPTIONAL = tuple(name for name, default in RawAlert._field_defaults.items() if default is None)
# Fields whose absence changes a written record's layout: the optional
# RawAlert fields and the label, which only labeled output carries.
_ABSENT_KEYS = (*_OPTIONAL, "label")
# Each integer field: its least value, and its greatest or None for no bound.
_INT_RANGES = {
    "src_port": (0, 65535),
    "dst_port": (0, 65535),
    "rule_sid": (0, None),
    "payload_len": (0, None),
    "http_status": (100, 599),
    "pkts_to_server": (0, None),
    "pkts_to_client": (0, None),
    "bytes_to_server": (0, None),
    "bytes_to_client": (0, None),
}


class LabeledAlert(NamedTuple):
    """One labeled row, an (alert, label) pair; write_records checks the label."""

    alert: RawAlert
    label: int  # 1 = true positive, 0 = false positive


@dataclass
class IngestReport:
    """Accounting for one corpus read: accepted + rejected = lines seen."""

    accepted: int = 0
    rejected: int = 0
    # (line number, reason) for every rejected line
    rejection_reasons: list[tuple[int, str]] = field(default_factory=list)


# A compiled field map: a record's 17 raw values in RawAlert field order.
Reader = Callable[[dict], tuple]


def load_field_map(source: Iterable[str]) -> Reader:
    """Compile a field-map file (one ``field=json.path`` per line, # comments) into a reader.

    An unlisted field keeps its default path; a field listed twice or a path
    with an empty key is refused, and errors name the line. The reader has no
    loop over fields: it looks up each distinct parent once, reads a record or
    parent that is not a dict as empty, and each leaf with one ``.get``. Keys
    are bound names, never source text. ``reader.paths`` holds each field's
    (field, parent keys, leaf key), in field order.
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
        if field in fmap:
            raise ValidationError(f"field-map line {line_no}: field {field!r} listed twice")
        if not path:
            raise ValidationError(f"field-map line {line_no}: empty path for {field!r}")
        if "" in path.split("."):
            raise ValidationError(f"field-map line {line_no}: empty key in path {path!r}")
        fmap[field] = path
    names: dict = {"_EMPTY": {}}
    parent_vars, paths, leaves = {(): "obj"}, [], []
    lines = ["def read(obj):", "    if not isinstance(obj, dict): obj = _EMPTY"]
    for i, field in enumerate(RawAlert._fields):
        *keys, leaf = fmap.get(field, DEFAULT_FIELD_MAP[field]).split(".")
        parents = tuple(keys)
        for depth in range(1, len(parents) + 1):
            if parents[:depth] not in parent_vars:
                var = parent_vars[parents[:depth]] = f"p{len(parent_vars)}"
                names[f"{var}_key"] = parents[depth - 1]
                lines += [f"    {var} = {parent_vars[parents[:depth - 1]]}.get({var}_key)",
                          f"    if not isinstance({var}, dict): {var} = _EMPTY"]
        names[f"leaf{i}"] = leaf
        leaves.append(f"{parent_vars[parents]}.get(leaf{i})")
        paths.append((field, parents, leaf))
    exec("\n".join([*lines, f"    return ({', '.join(leaves)})"]), names)
    names["read"].paths = tuple(paths)
    return names["read"]


_DEFAULT_READER = load_field_map(())
# The parser's memos: the addresses, and the timestamp strings with their
# datetimes, that passed its checks. Each is emptied at _MEMO_SIZE entries.
_VALID_IPS: set[str] = set()
_TIMESTAMPS: dict[str, datetime] = {}


# Python 3.10's documented fromisoformat grammar, with ASCII digits and a T
# or space separator, so every version reads the same strings: later
# versions also read week dates, basic forms, commas and other fractions.
_ISO_TIMESTAMP = re.compile(
    r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?"
    r"(?:[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?",
    re.ASCII,
)


def parse_timestamp(value) -> datetime:
    """Parse an ISO-8601 timestamp of ``_ISO_TIMESTAMP``'s grammar; naive values are taken as UTC.

    A trailing ``Z`` is read as ``+00:00``, and an offset without a colon
    (``+0000``, as EVE writes it) as one with it.
    """
    if not isinstance(value, str):
        raise ValidationError(f"timestamp must be a string, got {value!r}")
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    elif len(text) >= 5 and text[-5] in "+-" and text[-4:].isdigit():
        text = text[:-2] + ":" + text[-2:]
    if _ISO_TIMESTAMP.fullmatch(text) is None:  # fromisoformat's own text, as 3.10 gives it
        raise ValidationError(f"bad timestamp {value!r}: Invalid isoformat string: {text!r}")
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValidationError(f"bad timestamp {value!r}: {exc}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


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


def _validate_ip(name: str, value: str) -> None:
    """Refuse an address string that ``ip_value`` cannot read."""
    try:
        ip_value(value)
    except ValueError:
        raise ValidationError(f"{name} is not a valid IP address: {value!r}") from None


def refuse_alert(values: Iterable) -> Iterable:
    """Raise the ValidationError of the first field, in RawAlert order, that an alert may not hold.

    `values` is a RawAlert, or a record's fields with absent texts and payload
    length defaulted and the timestamp as text. Only ``_OPTIONAL`` fields may
    be None; an address is a string ``ip_value`` reads, an integer field one
    ``check_int`` passes within its ``_INT_RANGES`` bounds, other text a str.
    A RawAlert's timestamp is a timezone-aware datetime, a record's a string
    ``parse_timestamp`` reads. Returns values when no field is at fault.
    """
    made = isinstance(values, RawAlert)
    for name, value in zip(RawAlert._fields, values):
        if value is None and name in _OPTIONAL:
            continue
        if name in _INT_RANGES:
            check_int(name, value, *_INT_RANGES[name])
        elif name == "timestamp":
            if not made:
                parse_timestamp(value)
            elif not isinstance(value, datetime) or value.tzinfo is None:
                raise ValidationError(f"timestamp must be a timezone-aware datetime, got {value!r}")
        elif name in ("src_ip", "dst_ip") and isinstance(value, str):
            _validate_ip(name, value)
        elif type(value) is not str:
            raise ValidationError(f"{name} must be a string, got {value!r}")
    return values


def decode_record(line: str) -> dict:
    """Decode one NDJSON line; ParseError unless it holds a JSON object.

    A line that is one JSON object from its first character to its last is
    read by one call of json.loads' own C scanner, _SCAN; every other line
    (leading whitespace or a BOM, trailing data, a value that is no object,
    bytes, or any error of the scan) is read again by json.loads, so each
    result and each error text is json.loads' own.
    """
    try:
        obj, end = _SCAN(line, 0)
        if end == len(line) and type(obj) is dict:
            return obj
    except (StopIteration, TypeError, ValueError, RecursionError):  # TypeError: bytes
        pass
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past int()'s limit, deep nesting
        raise ParseError(f"unreadable JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object")
    return obj


def record_to_alert(obj: dict, reader: Reader = _DEFAULT_READER) -> RawAlert:
    """Validate one decoded record into a RawAlert.

    Absent optional fields stay missing (None), an absent description, class
    type or action is "" and an absent payload length 0; unknown JSON keys
    are ignored. Raises ValidationError for a missing required field, and
    otherwise refuse_alert's error for the first field at fault in RawAlert
    field order. The fields are read by reader, as load_field_map compiles
    it. Addresses and timestamp strings that passed are remembered in
    process-wide memos of at most ``_MEMO_SIZE`` entries each, so a repeat
    skips the address pattern and ``parse_timestamp``.
    """
    raw = reader(obj)
    (src_ip, dst_ip, src_port, dst_port, rule_sid, description, class_type, rule_uuid, action,
     stamp, payload_len, http_status, pkts_ts, pkts_tc, bytes_ts, bytes_tc, comment) = raw
    if description is None:
        description = ""
    if class_type is None:
        class_type = ""
    if action is None:
        action = ""
    if payload_len is None:
        payload_len = 0
    # The fast guard: exact types and _INT_RANGES inline. Behind it a missing
    # required field is reported first, then refuse_alert's first fault in
    # field order; it passes an int or str subclass.
    if not (
        stamp is not None and type(src_ip) is type(dst_ip) is str
        and type(src_port) is type(dst_port) is type(rule_sid) is type(payload_len) is int
        and 0 <= src_port <= 65535 and 0 <= dst_port <= 65535 and rule_sid >= 0
        and payload_len >= 0
        and type(description) is type(class_type) is type(rule_uuid) is type(action) is str
        and (http_status is None or type(http_status) is int and 100 <= http_status <= 599)
        and (pkts_ts is None or type(pkts_ts) is int and pkts_ts >= 0)
        and (pkts_tc is None or type(pkts_tc) is int and pkts_tc >= 0)
        and (bytes_ts is None or type(bytes_ts) is int and bytes_ts >= 0)
        and (bytes_tc is None or type(bytes_tc) is int and bytes_tc >= 0)
        and (comment is None or type(comment) is str)
    ):
        for (field, parents, leaf), value in zip(reader.paths, raw):
            if value is None and field in _REQUIRED_FIELDS:
                path = ".".join((*parents, leaf))
                raise ValidationError(f"missing required field {field!r} (key {path!r})")
        refuse_alert((src_ip, dst_ip, src_port, dst_port, rule_sid, description, class_type,
                      rule_uuid, action, stamp, payload_len, http_status, pkts_ts, pkts_tc,
                      bytes_ts, bytes_tc, comment))
    # The addresses lead the field order, so either is the first fault; a
    # dotted quad is read by its pattern alone.
    if src_ip not in _VALID_IPS or dst_ip not in _VALID_IPS:
        if _DOTTED_QUAD.fullmatch(src_ip) is None:
            _validate_ip("src_ip", src_ip)
        if _DOTTED_QUAD.fullmatch(dst_ip) is None:
            _validate_ip("dst_ip", dst_ip)
        if len(_VALID_IPS) > _MEMO_SIZE - 2:  # room for both addresses
            _VALID_IPS.clear()
        _VALID_IPS.update((src_ip, dst_ip))
    timestamp = _TIMESTAMPS.get(stamp) if type(stamp) is str else None
    if timestamp is None:
        timestamp = parse_timestamp(stamp)  # only a str parses
        if len(_TIMESTAMPS) >= _MEMO_SIZE:
            _TIMESTAMPS.clear()
        _TIMESTAMPS[stamp] = timestamp
    return _new(RawAlert, (
        src_ip, dst_ip, src_port, dst_port, rule_sid, description, class_type, rule_uuid,
        action, timestamp, payload_len, http_status, pkts_ts, pkts_tc, bytes_ts, bytes_tc,
        comment,
    ))


def parse_alert_record(line: str, reader: Reader = _DEFAULT_READER) -> RawAlert:
    """Parse one NDJSON line into a RawAlert: decode_record, then record_to_alert.

    Raises ParseError for malformed JSON and ValidationError for out-of-range
    or missing required fields.
    """
    return record_to_alert(decode_record(line), reader)


def parse_labeled_record(text: str) -> LabeledAlert:
    """Parse one line of labeled NDJSON into a LabeledAlert row, decoding it once."""
    obj = decode_record(text)
    if "label" not in obj:
        raise ValidationError("missing label field")
    label = obj["label"]
    if type(label) is not int or label not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {json.dumps(label)}")
    return _new(LabeledAlert, (record_to_alert(obj), label))


def _template(absent: tuple[bool, ...]) -> tuple[str, Callable]:
    """The %-template of one pattern of absent fields, and a getter.

    The template is ``json.dumps(record, sort_keys=True)`` of the record in
    the default layout whose present values are the marker strings
    ``"\\0<index>"``, each quoted marker replaced by ``%s``; the getter picks
    the values, in marker order, from the tuple of a RawAlert's JSON-encoded
    values and the label.
    """
    skip = {name for name, gone in zip(_ABSENT_KEYS, absent) if gone}
    record: dict = {}
    fields = (*_DEFAULT_READER.paths, ("label", (), "label"))
    for index, (field, parents, leaf) in enumerate(fields):
        if field not in skip:
            node = record
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = f"\0{index}"
    # json.dumps writes a marker as "\u0000<index>": the split alternates text and index
    parts = re.split(r'"\\u0000(\d+)"', json.dumps(record, sort_keys=True).replace("%", "%%"))
    return "%s".join(parts[::2]) + "\n", itemgetter(*map(int, parts[1::2]))


def write_records(
    stream: IO[str],
    rows: Iterable[tuple[RawAlert, int | None]],
    comments: dict[str, str] | None = None,
) -> None:
    """Write (alert, label or None) rows as NDJSON in the default layout, one line each.

    Each line is byte for byte ``json.dumps(record, sort_keys=True)`` of the
    alert's nested record in the default layout, its None fields left out and
    its timestamp in ``isoformat``, with ``rev_comment`` replaced by
    ``comments[rule_uuid]`` where the alert's rule has one and, unless the
    label is None, ``label`` added; a label other than None or the int 0 or
    1 (True, 1.0) is a ValidationError. Rows are written as they are read, so
    they may come from a one-shot stream. One template per pattern of absent
    fields is filled with ``encode_basestring_ascii`` strings and ints; each
    timestamp object is formatted once per write while the memo, emptied
    at ``_MEMO_SIZE`` entries, holds it.
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
        if label is not None and (type(label) is not int or label not in (0, 1)):
            raise ValidationError(f"label must be 0 or 1, got {label!r}")
        comment = comments.get(rule_uuid, comment)
        absent = (http_status is None, pkts_ts is None, pkts_tc is None, bytes_ts is None,
                  bytes_tc is None, comment is None, label is None)
        form = templates.get(absent)
        if form is None:
            form = templates[absent] = _template(absent)
        iso = isoformats.get(id(timestamp))
        if iso is None:
            if len(isoformats) >= _MEMO_SIZE:
                isoformats.clear()
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


def read_corpus(source: Iterable[str]) -> tuple[list[RawAlert], IngestReport]:
    """Read newline-delimited records in the default layout; bad lines are counted, never fatal.

    Each line is parsed by parse_alert_record, through the parser's
    process-wide memos, which are bounded and hold only checked values.
    """
    rejected: list[tuple[int, str]] = []
    records = Records(source, parse_alert_record, "corpus", rejected)
    alerts = list(records)
    return alerts, IngestReport(records.count, len(rejected), rejected)


def read_rule_comments(source: IO[str] | Iterator[str]) -> dict[str, str]:
    """Read a rule-comment sidecar CSV with header ``rule_uuid,rev_comment``.

    Returns ``{rule_uuid: rev_comment}`` in file order. A rule_uuid listed
    twice is a ValidationError.
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
    return rules


def parse_embedded(rules: dict[str, str], text: str) -> RawAlert:
    """parse_alert_record of text, its embedded comment added to rules by rule_uuid.

    A rule's embedded comment may first appear on its last alert, so rules is
    complete only once every line is parsed. An empty or absent comment adds
    nothing, and a repeat of a rule's comment is no conflict; a comment that
    differs leaves the rule's label undecided, as a sidecar that lists the rule
    twice does, and is a ValidationError.
    """
    alert = parse_alert_record(text)
    comment = alert.rev_comment
    if comment and rules.setdefault(alert.rule_uuid, comment) != comment:
        raise ValidationError(
            f"rule_uuid {alert.rule_uuid!r} has differing comments "
            f"{rules[alert.rule_uuid]!r} and {comment!r}"
        )
    return alert


def attach_comments(
    alerts: Iterable[RawAlert], comments: Iterable[tuple[str, str]]
) -> list[RawAlert]:
    """Join sidecar comments onto alerts by rule_uuid (sidecar wins); refuse a rule named twice."""
    by_rule: dict[str, str] = {}
    for rule_uuid, comment in comments:
        if rule_uuid in by_rule:
            raise ValidationError(f"duplicate rule_uuid {rule_uuid!r}")
        by_rule[rule_uuid] = comment
    out = []
    for alert in alerts:
        comment = by_rule.get(alert.rule_uuid)
        out.append(alert._replace(rev_comment=comment) if comment is not None else alert)
    return out
