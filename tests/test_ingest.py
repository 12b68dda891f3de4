"""Alert parsing, corpus reading, field maps, and the comment sidecar."""

from __future__ import annotations

import copy
import io
import ipaddress
import itertools
import json
import pickle
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alert_sift import ingest
from alert_sift.errors import AlertSiftError, ParseError, ValidationError
from alert_sift.ingest import (
    _MEMO_SIZE,
    DEFAULT_FIELD_MAP,
    LabeledAlert,
    RawAlert,
    Records,
    attach_comments,
    ip_value,
    load_field_map,
    parse_alert_record,
    parse_embedded,
    parse_timestamp,
    read_corpus,
    read_rule_comments,
    record_to_alert,
    write_records,
)
from alert_sift.labeling import label_alerts

from conftest import make_line, make_record


def alert_to_record(alert: RawAlert, reader=ingest._DEFAULT_READER) -> dict:
    """The reference layout: a RawAlert as the nested input record at reader's paths.

    None fields are left out and the timestamp is its isoformat; write_records
    must write the bytes json.dumps(..., sort_keys=True) gives of this record.
    """
    obj: dict = {}
    for field, parents, leaf in reader.paths:
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


def test_parses_fixture_values_verbatim():
    alert = parse_alert_record(make_line())
    assert alert.rule_sid == 2027863
    assert alert.rule_description == "ET EXPLOIT Possible CVE-2020-11899 Exploit"
    assert alert.pkts_to_server == 4
    assert alert.src_ip == "203.0.113.7"
    assert alert.dst_port == 443
    assert alert.payload_len == 320
    assert alert.timestamp.tzinfo is not None


def test_absent_http_block_leaves_status_missing():
    alert = parse_alert_record(make_line(http=None))
    assert alert.http_status is None


def test_absent_counters_stay_missing():
    alert = parse_alert_record(make_line(flow=None))
    assert alert.pkts_to_server is None
    assert alert.bytes_to_client is None


def test_out_of_range_port_rejected():
    with pytest.raises(ValidationError):
        parse_alert_record(make_line(dest_port=70000))
    with pytest.raises(ValidationError):
        parse_alert_record(make_line(src_port=-1))


def test_boolean_port_rejected():
    with pytest.raises(ValidationError):
        parse_alert_record(make_line(src_port=True))


def test_http_status_range_enforced():
    for bad in (99, 600):
        with pytest.raises(ValidationError):
            parse_alert_record(make_line(http={"status": bad}))


def test_negative_counter_rejected():
    with pytest.raises(ValidationError):
        parse_alert_record(make_line(flow={"pkts_toserver": -3}))


def test_missing_required_field_names_it():
    with pytest.raises(ValidationError, match="src_ip"):
        parse_alert_record(make_line(src_ip=None))
    # a required field that is the record's only fault, the timestamp included
    for key, field in (("timestamp", "timestamp"), ("rule_uuid", "rule_uuid"),
                       ("dest_port", "dst_port")):
        with pytest.raises(ValidationError) as info:
            parse_alert_record(make_line(**{key: None}))
        assert str(info.value) == f"missing required field {field!r} (key {key!r})"


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_alert_record("{not json")
    with pytest.raises(ParseError):
        parse_alert_record("[1, 2, 3]")


def _decoded(line: str | bytes) -> str:
    try:
        return repr(ingest.decode_record(line))
    except ParseError as exc:
        return f"ParseError: {exc}"


def _decoded_by_json_loads(line: str | bytes) -> str:
    """The reference: decode_record's outcome when json.loads reads every line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"ParseError: malformed JSON: {exc.msg}"
    except (ValueError, RecursionError) as exc:
        return f"ParseError: unreadable JSON: {exc}"
    return repr(obj) if isinstance(obj, dict) else "ParseError: record is not a JSON object"


_DEEP = 100_000
_CRAFTED_LINES = [
    "", " ", " {}", "{} ", "\t{}\n", "\ufeff{}", "{} {}", "{}x", "{}",
    "[1]", "NaN", "-Infinity", '{"a": NaN, "b": -Infinity, "c": Infinity}',
    '"\\ud800"', '{"a": "\\ud800"}', '{"a": "\ud800"}',
    "9" * 5000, '{"a": ' + "9" * 5000 + "}", '{"a": 1e' + "9" * 5000 + "}",
    "[" * _DEEP + "]" * _DEEP, '{"a": ' * _DEEP + "1" + "}" * _DEEP,
    '{"a": 1, "a": 2}', '{"a": 1, "b": {"c": 1, "c": [2]}, "a": 3}',
    '{"a": "\x01"}', '{"a\tb": 1}', '{"a":\x001}', "{\x7f}", '{"a": "\x7f\x80"}',
    make_line(), make_line() + " ", make_line()[:-1],
    b'{"a": 1}', b"\xef\xbb\xbf{}", b"\xff{}", make_line().encode("utf-16"),
]


@pytest.mark.parametrize("line", _CRAFTED_LINES, ids=range(len(_CRAFTED_LINES)))
def test_decode_record_reads_a_crafted_line_as_json_loads_does(line):
    assert _decoded(line) == _decoded_by_json_loads(line)


_PIECES = st.sampled_from(
    list(" \t\n\r\ufeff\x00\x01\x1f\"\\/{}[],:-+.eE0") + ["\ud800", "\\u", "NaN", "{}", "9" * 5000]
) | st.characters()


@st.composite
def _mutated_record(draw) -> str:
    """A valid record's line with one to three pieces inserted, replaced, deleted or cut."""
    line = make_line(**draw(st.sampled_from([{}, {"http": None}, {"payload_len": 2**70}])))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(["insert", "replace", "delete", "cut"]))
        if kind == "cut":
            line = line[:i]
        elif kind == "delete":
            line = line[:i] + line[i + 1:]
        else:
            line = line[:i] + draw(_PIECES) + line[i + (kind == "replace"):]
    return line


@settings(max_examples=500, deadline=None)
@given(line=_mutated_record())
def test_decode_record_reads_a_mutated_line_as_json_loads_does(line):
    assert _decoded(line) == _decoded_by_json_loads(line)


def test_decode_record_scans_with_the_c_scanner_json_loads_uses():
    # without the C extension both fall to the pure-Python scanner, and the fast path is lost
    c_scanner = json.scanner.c_make_scanner
    assert c_scanner is None or isinstance(ingest._SCAN, c_scanner)


def test_invalid_ip_rejected():
    with pytest.raises(ValidationError):
        parse_alert_record(make_line(src_ip="999.1.2.3"))


# Strings an address reader could misread: octets out of range or with
# leading zeros, 3 or 5 parts, empty parts, non-ASCII digits, whitespace and
# suffixes; IPv6 with a scope id, and IPv4-mapped IPv6.
_OCTET_TEXT = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, 99).map(lambda v: f"0{v}"),
    st.just(""),
    st.sampled_from(["\u0661", "\u0662\u0665\u0665", "\uff11", "\u00b2", " 1", "1 ", "+1", "-1",
                     "0x1", "1\n"]),
)
_ADDRESS_TEXT = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v))),
    st.lists(_OCTET_TEXT, min_size=3, max_size=5).map(".".join),
    st.tuples(
        st.lists(_OCTET_TEXT, min_size=4, max_size=4).map(".".join),
        st.sampled_from(["\n", " ", "/32", "%eth0", "."]),
    ).map("".join),
    st.tuples(
        st.integers(0, 2**128 - 1).map(lambda v: str(ipaddress.IPv6Address(v))),
        st.sampled_from(["", "%eth0", "%1"]),
    ).map("".join),
    st.integers(0, 2**32 - 1).map(lambda v: f"::ffff:{ipaddress.IPv4Address(v)}"),
    st.text(max_size=16),
)


@settings(max_examples=1000, deadline=None)
@given(text=_ADDRESS_TEXT)
@example(text="\u0661.2.3.4")
@example(text=" 1.2.3.4")
@example(text="1.2.3.4\n")
@example(text="1.2.3.4/32")
@example(text="01.2.3.4")
@example(text="1.2.3")
@example(text="1.2.3.4.5")
@example(text="1..3.4")
@example(text="fe80::1%eth0")
@example(text="::ffff:10.0.0.1")
def test_ip_value_matches_ipaddress(text):
    # record_to_alert takes a dotted quad on the pattern alone, and must accept the same strings
    try:
        ip = ipaddress.ip_address(text)
    except ValueError:
        with pytest.raises(ValueError):
            ip_value(text)
        with pytest.raises(ValidationError) as info:
            record_to_alert(make_record(src_ip=text))
        assert str(info.value) == f"src_ip is not a valid IP address: {text!r}"
    else:
        assert ip_value(text) == (ip.version, int(ip))
        assert record_to_alert(make_record(src_ip=text)).src_ip == text


def test_unknown_keys_ignored():
    base = parse_alert_record(make_line())
    extra = parse_alert_record(make_line(zzz="ignored", metadata={"depth": 3}))
    assert base == extra


def test_read_corpus_counts_and_order():
    lines = [make_line(src_port=p) for p in (1, 2, 3)]
    alerts, report = read_corpus(lines)
    assert [a.src_port for a in alerts] == [1, 2, 3]
    assert (report.accepted, report.rejected) == (3, 0)


def test_read_corpus_skips_bad_lines_with_line_numbers():
    lines = [make_line(), "{broken", make_line()]
    alerts, report = read_corpus(lines)
    assert len(alerts) == 2
    assert report.rejected == 1
    assert report.rejection_reasons[0][0] == 2


def test_records_refuses_or_records_each_bad_line_blank_included():
    lines = [make_line(src_port=1), "  ", "{broken", make_line(src_port=2)]
    rejected: list[tuple[int, str]] = []
    records = Records(lines, parse_alert_record, "in.ndjson", rejected)
    assert [a.src_port for a in records] == [1, 2] and records.count == 2
    assert rejected == [(2, "empty line"), (3, "malformed JSON: Expecting property name "
                                              "enclosed in double quotes")]
    records = Records(lines, parse_alert_record, "in.ndjson")
    with pytest.raises(AlertSiftError, match="^in.ndjson line 2: empty line$"):
        list(records)
    assert records.count == 1


def test_read_corpus_empty_stream():
    alerts, report = read_corpus([])
    assert alerts == []
    assert (report.accepted, report.rejected) == (0, 0)


@given(
    st.lists(
        st.sampled_from(["ok", "junk", "blank"]),
        max_size=30,
    )
)
def test_accepted_plus_rejected_equals_line_count(kinds):
    lines = {
        "ok": make_line(),
        "junk": "not json at all",
        "blank": "   ",
    }
    stream = [lines[k] for k in kinds]
    _, report = read_corpus(stream)
    assert report.accepted + report.rejected == len(stream)


def test_round_trip_preserves_alert():
    alert = parse_alert_record(make_line())
    again = parse_alert_record(json.dumps(alert_to_record(alert), sort_keys=True))
    assert again == alert


def test_round_trip_preserves_missing_optionals():
    alert = parse_alert_record(make_line(http=None, flow=None))
    again = parse_alert_record(json.dumps(alert_to_record(alert), sort_keys=True))
    assert again == alert
    assert again.http_status is None


def test_timestamp_formats_normalize_to_utc():
    variants = [
        "2021-07-18T22:10:57.000000+0000",
        "2021-07-18T22:10:57Z",
        "2021-07-18T22:10:57+00:00",
        "2021-07-18T22:10:57",
    ]
    parsed = {parse_timestamp(v) for v in variants}
    assert len(parsed) == 1
    (when,) = parsed
    assert when.utcoffset().total_seconds() == 0


def test_timestamp_offset_preserved():
    when = parse_timestamp("2021-07-18T22:10:57+0900")
    assert when.astimezone(timezone.utc).hour == 13


def test_bad_timestamp_rejected():
    with pytest.raises(ValidationError):
        parse_alert_record(make_line(timestamp="yesterday"))


@pytest.mark.parametrize("text", [
    "2025-03-04T10:20:30.1Z",
    "20250304T102030Z",
    "2025-W10-2T10:20:30Z",
    "2025-03-04T10:20:30,123Z",
    "2025-03-04T10:20:30.123456789Z",
])
def test_timestamp_outside_python_3_10s_grammar_is_refused_on_every_version(text):
    # Python 3.11's fromisoformat reads each of these; 3.10's refuses them
    normalised = text[:-1] + "+00:00"
    with pytest.raises(ValidationError) as info:
        parse_timestamp(text)
    assert str(info.value) == f"bad timestamp {text!r}: Invalid isoformat string: {normalised!r}"


_OFFSETS = st.none() | st.integers(-86_399_999_999, 86_399_999_999).map(
    lambda us: timezone(timedelta(microseconds=us)))


@settings(max_examples=300, deadline=None)
@given(when=st.datetimes(timezones=_OFFSETS), sep=st.sampled_from("T "),
       timespec=st.sampled_from(["hours", "minutes", "seconds", "milliseconds", "microseconds"]))
def test_every_isoformat_of_the_grammar_parses_as_fromisoformat_reads_it(when, sep, timespec):
    # write_records writes isoformat(); each form the grammar names reads back unchanged
    for text in (when.isoformat(sep, timespec), when.date().isoformat()):
        expected = datetime.fromisoformat(text)
        if expected.tzinfo is None:
            expected = expected.replace(tzinfo=timezone.utc)
        assert parse_timestamp(text) == expected
        assert parse_timestamp(text).utcoffset() == expected.utcoffset()


def test_field_map_remaps_keys():
    reader = load_field_map(["rule_uuid = meta.filter_id", "# comment", ""])
    assert ("rule_uuid", ("meta",), "filter_id") in reader.paths
    assert reader.paths == load_field_map(["rule_uuid=meta.filter_id"]).paths
    record = make_record()
    del record["rule_uuid"]
    record["meta"] = {"filter_id": "rule-zzz"}
    alert = parse_alert_record(json.dumps(record), reader)
    assert alert.rule_uuid == "rule-zzz"


def test_field_map_rejects_unknown_field():
    with pytest.raises(ValidationError, match="unknown field"):
        load_field_map(["not_a_field=some.path"])


def test_rule_comment_sidecar_reads_and_attaches():
    sidecar = io.StringIO("rule_uuid,rev_comment\nrule-aaa,Known benign scanner\n")
    comments = read_rule_comments(sidecar)
    alerts = [parse_alert_record(make_line())]
    joined = attach_comments(alerts, comments.items())
    assert joined[0].rev_comment == "Known benign scanner"


def test_rule_comment_sidecar_reads_into_a_dict_in_file_order():
    sidecar = io.StringIO("rule_uuid,rev_comment\nrule-ccc,alerted\n\nrule-aaa\nrule-bbb,a,b\n")
    comments = read_rule_comments(sidecar)
    assert type(comments) is dict
    assert list(comments.items()) == [("rule-ccc", "alerted"), ("rule-aaa", ""), ("rule-bbb", "a")]


def test_embedded_comment_is_added_to_its_rule():
    rules: dict[str, str] = {}
    alert = parse_embedded(rules, make_line(rev_comment="expected benign scanner"))
    assert alert == parse_alert_record(make_line(rev_comment="expected benign scanner"))
    assert rules == {"rule-aaa": "expected benign scanner"}
    # a repeat of the comment, an empty one and none at all change nothing
    for comment in ("expected benign scanner", "", None):
        parse_embedded(rules, make_line(rev_comment=comment))
    parse_embedded(rules, make_line(rule_uuid="rule-bbb", rev_comment="alerted"))
    assert rules == {"rule-aaa": "expected benign scanner", "rule-bbb": "alerted"}


def test_embedded_comment_that_differs_is_refused():
    rules = {"rule-aaa": "alerted the client"}
    with pytest.raises(ValidationError) as info:
        parse_embedded(rules, make_line(rev_comment="expected benign scanner"))
    assert str(info.value) == (
        "rule_uuid 'rule-aaa' has differing comments "
        "'alerted the client' and 'expected benign scanner'"
    )
    assert rules == {"rule-aaa": "alerted the client"}


def test_sidecar_wins_over_embedded_comment():
    alerts = [parse_alert_record(make_line(rev_comment="embedded text"))]
    joined = attach_comments(alerts, [("rule-aaa", "sidecar text")])
    assert joined[0].rev_comment == "sidecar text"
    unjoined = attach_comments(alerts, [("other-rule", "sidecar text")])
    assert unjoined[0].rev_comment == "embedded text"


def test_attach_comments_refuses_a_rule_listed_twice():
    alerts = [parse_alert_record(make_line())]
    with pytest.raises(ValidationError, match=r"^duplicate rule_uuid 'rule-aaa'$"):
        attach_comments(alerts, [("rule-aaa", "x"), ("rule-aaa", "y")])


def test_sidecar_requires_header():
    with pytest.raises(ValidationError, match="header"):
        read_rule_comments(io.StringIO("uuid,comment\nrule-aaa,x\n"))


def test_sidecar_refuses_a_rule_listed_twice():
    with pytest.raises(ValidationError, match="duplicate rule_uuid 'rule-aaa'"):
        read_rule_comments(io.StringIO("rule_uuid,rev_comment\nrule-aaa,x\nrule-aaa,y\n"))


def test_invalid_address_on_two_lines_is_rejected_on_both():
    bad = make_line(src_ip="300.1.2.3")
    alerts, report = read_corpus([bad, make_line(), bad])
    reason = "src_ip is not a valid IP address: '300.1.2.3'"
    assert report.accepted == 1 and len(alerts) == 1
    assert report.rejection_reasons == [(1, reason), (3, reason)]


def test_valid_and_invalid_addresses_side_by_side_in_one_read():
    good, bad = "198.51.100.4", "198.51.100.400"
    lines = [
        make_line(src_ip=good),
        make_line(src_ip=bad),
        make_line(src_ip=good, dest_ip=bad),
        make_line(dest_ip=good),
    ]
    alerts, report = read_corpus(lines)
    assert [(a.src_ip, a.dst_ip) for a in alerts] == [(good, "10.20.30.40"), ("203.0.113.7", good)]
    assert report.rejection_reasons == [
        (2, f"src_ip is not a valid IP address: {bad!r}"),
        (3, f"dst_ip is not a valid IP address: {bad!r}"),
    ]


@pytest.mark.parametrize("value", [["198.51.100.4"], {"ip": "198.51.100.4"}, 3325256708])
def test_non_string_address_rejected_after_the_same_text_was_accepted(value):
    lines = [make_line(src_ip="198.51.100.4", dest_ip="198.51.100.4")]
    lines += [make_line(src_ip=value), make_line(dest_ip=value)]
    alerts, report = read_corpus(lines)
    assert len(alerts) == 1
    assert report.rejection_reasons == [
        (2, f"src_ip must be a string, got {value!r}"),
        (3, f"dst_ip must be a string, got {value!r}"),
    ]
    assert record_to_alert(make_record(src_ip="198.51.100.4")).src_ip == "198.51.100.4"
    with pytest.raises(ValidationError, match="src_ip must be a string"):
        record_to_alert(make_record(src_ip=value))
    with pytest.raises(ValidationError, match="dst_ip must be a string"):
        record_to_alert(make_record(dest_ip=value))


def test_equal_timestamp_strings_share_one_datetime_across_reads():
    stamp = "2025-03-04T10:20:30.123456+0100"
    first = parse_alert_record(make_line(timestamp=stamp, src_ip="192.0.2.1"))
    second = parse_alert_record(make_line(timestamp=stamp, dest_ip="192.0.2.2"))
    assert second.timestamp is first.timestamp


def test_parser_memos_hold_at_most_memo_size_entries():
    ingest._VALID_IPS.clear()
    ingest._TIMESTAMPS.clear()
    for i in range(_MEMO_SIZE + 100):
        # a new timestamp and source address on every record, a new destination on every
        # other one, so the address memo passes through every size on its way to the bound
        stamp = f"2025-03-04T10:20:30.{i:06d}Z"
        alert = record_to_alert(make_record(
            src_ip=f"10.0.{i // 256}.{i % 256}", dest_ip=f"172.16.{i // 512}.{i // 2 % 256}",
            timestamp=stamp,
        ))
        assert len(ingest._VALID_IPS) <= _MEMO_SIZE and len(ingest._TIMESTAMPS) <= _MEMO_SIZE
        assert ingest._TIMESTAMPS[stamp] is alert.timestamp


def test_field_paths_compile_nested_map_once():
    reader = load_field_map(["src_ip = net.src.addr", "rule_uuid = meta.rule.id"])
    record = make_record(src_ip=None, rule_uuid=None)
    record["net"] = {"src": {"addr": "192.0.2.9"}}
    record["meta"] = {"rule": {"id": "rule-zzz"}}
    assert ("src_ip", ("net", "src"), "addr") in reader.paths
    for _ in range(2):
        alert = record_to_alert(record, reader)
        assert (alert.src_ip, alert.rule_uuid) == ("192.0.2.9", "rule-zzz")
    assert parse_alert_record(json.dumps(record), reader) == alert
    record["net"]["src"] = "192.0.2.9"  # a leaf where a parent object belongs
    with pytest.raises(ValidationError, match="'src_ip' \\(key 'net.src.addr'\\)"):
        record_to_alert(record, reader)


def walk_paths(obj: dict, paths) -> list:
    """The per-field walk: each field's value at its path, None where any step is no dict."""
    raw = []
    for _, parents, leaf in paths:
        value = obj
        for key in parents:
            value = value.get(key) if isinstance(value, dict) else None
        raw.append(value.get(leaf) if isinstance(value, dict) else None)
    return raw


def oracle_record_to_alert(obj: dict, paths) -> RawAlert:
    """record_to_alert from the walk: a missing required field first, then refuse_alert."""
    raw = walk_paths(obj, paths)
    for (field, parents, leaf), value in zip(paths, raw):
        if value is None and field in ingest._REQUIRED_FIELDS:
            path = ".".join((*parents, leaf))
            raise ValidationError(f"missing required field {field!r} (key {path!r})")
    values = dict(zip(RawAlert._fields, raw))
    for field, absent in (("rule_description", ""), ("class_type", ""), ("action", ""),
                          ("payload_len", 0)):
        if values[field] is None:
            values[field] = absent
    ingest.refuse_alert(values.values())
    return RawAlert(**{**values, "timestamp": parse_timestamp(values["timestamp"])})


class _Dict(dict):
    """A dict subclass, which the walk reads as a dict."""


# JSON keys that Python source, a %-template or a format string would misread,
# beside a few short ones that paths share as parents.
_KEYS = st.sampled_from([
    "a", "b", "net", 'q"uote', "q'uote", "back\\slash", "new\nline", "%s", "{}", "{0}",
    "class", "import", "None", "obj", "p0", "p0_key", "leaf0", "_EMPTY", "isinstance",
    '"); import os #',
]) | st.text(min_size=1, max_size=4).filter(lambda k: "." not in k and k == k.strip())
_JUNK = st.sampled_from([None, "", "x", -1, 0, 70000, 2**70, 1.5, True, [], ["x"], {"k": 1}])


def _valid(field: str):
    if field in ("src_ip", "dst_ip"):
        return st.sampled_from(["203.0.113.7", "2001:db8::1", "10.0.0.1"])
    if field == "timestamp":
        return st.sampled_from(_STAMPS)
    if field in ingest._INT_RANGES:
        lo, hi = ingest._INT_RANGES[field]
        return st.integers(lo, hi if hi is not None else 2**40)
    return _TEXT


@st.composite
def _field_map_and_record(draw) -> tuple[list[str], tuple, dict]:
    """Field-map lines, the paths they give, and a record laid out at them, then damaged."""
    lines, paths = [], []
    for field in RawAlert._fields:
        if draw(st.booleans()):
            keys = draw(st.lists(_KEYS, min_size=1, max_size=4))  # depth 0-3
            lines.append(f"{field}={'.'.join(keys)}")
        else:
            keys = DEFAULT_FIELD_MAP[field].split(".")
        paths.append((field, tuple(keys[:-1]), keys[-1]))
    lines = draw(st.permutations(lines))
    absent = draw(st.sets(st.sampled_from(RawAlert._fields), max_size=2))
    junk = draw(st.sets(st.sampled_from(RawAlert._fields), max_size=2))
    record: dict = {}
    parents: list[tuple[dict, str]] = []  # (node, key) of every object made for a parent
    for field, keys, leaf in paths:
        if field in absent:
            continue
        node = record
        for key in keys:
            if not isinstance(node.get(key), dict):
                node[key] = draw(st.sampled_from([dict, _Dict]))()
                parents.append((node, key))
            node = node[key]
        node[leaf] = draw(_JUNK if field in junk else _valid(field))
    for i in draw(st.sets(st.integers(0, len(parents) - 1), max_size=2)) if parents else ():
        node, key = parents[i]
        node[key] = draw(_JUNK)  # a parent that is not an object
    if draw(st.integers(0, 19)) == 0:
        return lines, tuple(paths), draw(_JUNK)  # a record that is not an object
    return lines, tuple(paths), draw(st.sampled_from([dict, _Dict]))(record)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=300, deadline=None)
@given(drawn=_field_map_and_record())
def test_compiled_reader_matches_the_per_field_walk(drawn):
    lines, paths, record = drawn
    reader = load_field_map(lines)
    assert reader.paths == paths
    assert reader(record) == tuple(walk_paths(record, paths))
    got = _outcome(record_to_alert, record, reader)
    assert got == _outcome(oracle_record_to_alert, record, paths)
    assert type(got) in (str, RawAlert)


def test_field_map_key_is_bound_not_written_into_source():
    key = '"); import os #'
    reader = load_field_map([f"src_ip={key}.{key}", f"rule_uuid=meta.{key}"])
    record = make_record(src_ip=None, rule_uuid=None, meta={key: "rule-zzz"})
    record[key] = {key: "192.0.2.9"}
    alert = record_to_alert(record, reader)
    assert (alert.src_ip, alert.rule_uuid) == ("192.0.2.9", "rule-zzz")
    record[key + "x"] = record.pop(key)
    with pytest.raises(ValidationError) as info:
        record_to_alert(record, reader)
    assert str(info.value) == f"missing required field 'src_ip' (key {key + '.' + key!r})"


@pytest.mark.parametrize(
    "lines, message",
    [
        (["src_ip=a.b", "src_ip=c"], "field-map line 2: field 'src_ip' listed twice"),
        (["# c", "rule_uuid=x", "", "rule_uuid = x"],
         "field-map line 4: field 'rule_uuid' listed twice"),
        (["src_ip=net."], "field-map line 1: empty key in path 'net.'"),
        (["dst_ip=a", "src_ip=.x"], "field-map line 2: empty key in path '.x'"),
        (["src_ip=a..b"], "field-map line 1: empty key in path 'a..b'"),
        (["src_ip=."], "field-map line 1: empty key in path '.'"),
    ],
)
def test_field_map_refuses_a_repeat_or_an_empty_key(lines, message):
    with pytest.raises(ValidationError) as info:
        load_field_map(lines)
    assert str(info.value) == message


def test_parsed_rows_are_exact_raw_and_labeled_alerts():
    alert = parse_alert_record(make_line())
    assert type(alert) is RawAlert and alert == RawAlert(*alert)
    assert alert._replace(src_port=1) == RawAlert(*alert[:2], 1, *alert[3:])
    assert type(alert._replace(src_port=1)) is RawAlert
    row = ingest.parse_labeled_record(make_line(label=1))
    assert type(row) is LabeledAlert and type(row.alert) is RawAlert
    assert row == LabeledAlert(alert, 1) and row._replace(label=0) == LabeledAlert(alert, 0)
    assert type(row._replace(label=0)) is LabeledAlert
    (labeled,) = label_alerts([alert], [(alert.rule_uuid, "alerted the client")], [])
    assert type(labeled) is LabeledAlert and labeled == LabeledAlert(alert, 1)
    assert labeled._replace(label=0).label == 0


# (field, value, refuse_alert's text): a value no RawAlert may hold
_BAD_FIELDS = [
    ("src_ip", "nope", "src_ip is not a valid IP address: 'nope'"),
    ("src_port", 65536, "src_port out of range: 65536 (expected in 0..65535)"),
    ("rule_sid", 2.5e6, "rule_sid must be an integer, got 2500000.0"),
    ("action", ["x"], "action must be a string, got ['x']"),
    ("timestamp", "2025-03-04T10:20:30Z",
     "timestamp must be a timezone-aware datetime, got '2025-03-04T10:20:30Z'"),
    ("http_status", 600, "http_status out of range: 600 (expected in 100..599)"),
    ("rev_comment", 5, "rev_comment must be a string, got 5"),
]


@pytest.mark.parametrize("field, value, message", _BAD_FIELDS, ids=[f for f, *_ in _BAD_FIELDS])
def test_every_way_of_making_an_alert_refuses_a_bad_field(field, value, message):
    alert = parse_alert_record(make_line())
    i = RawAlert._fields.index(field)
    values = (*alert[:i], value, *alert[i + 1:])
    unchecked = ingest._new(RawAlert, values)  # as no public way can make it
    with pytest.raises(ValidationError) as info:
        ingest.refuse_alert(unchecked)
    assert str(info.value) == message
    ways = {
        "positional": lambda: RawAlert(*values),
        "keyword": lambda: RawAlert(**dict(zip(RawAlert._fields, values))),
        "_make": lambda: RawAlert._make(values),
        "_replace": lambda: alert._replace(**{field: value}),
        "copy": lambda: copy.copy(unchecked),
        **{f"pickle protocol {protocol}": lambda protocol=protocol: pickle.loads(
            pickle.dumps(unchecked, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
    }
    for way, make in ways.items():
        with pytest.raises(ValidationError) as info:
            make()
        assert (way, str(info.value)) == (way, message)


def test_every_way_of_making_an_alert_keeps_a_good_one():
    alert = parse_alert_record(make_line())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(alert, protocol))
        assert type(again) is RawAlert and again == alert
    assert RawAlert._make(alert) == RawAlert(**alert._asdict()) == copy.deepcopy(alert) == alert


@pytest.mark.parametrize("stamp", [
    "2025-03-04T10:20:30Z",
    datetime(2025, 3, 4, 10, 20, 30),
    1741083630,
    None,
])
def test_an_alert_refuses_a_timestamp_that_is_not_an_aware_datetime(stamp):
    # such a timestamp used to reach write_records (AttributeError on a str's
    # isoformat) and partition_by_period (a bare TypeError against an aware instant)
    alert = parse_alert_record(make_line())
    with pytest.raises(ValidationError) as info:
        alert._replace(timestamp=stamp)
    assert str(info.value) == f"timestamp must be a timezone-aware datetime, got {stamp!r}"
    eastern = timezone(timedelta(hours=-5))
    moved = alert._replace(timestamp=alert.timestamp.astimezone(eastern))
    assert moved.timestamp == alert.timestamp


_ALERT_BLOCK = {"signature": "ET SCAN", "category": "attempted-recon"}


# Records with two or more faults, and the first fault each reports: the
# fields are checked in a fixed order: required presence, then RawAlert
# field order (addresses, ports, rule id, texts, timestamp, payload length,
# the optional counters, then the comment).
@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"src_ip": None, "dest_ip": "1.2.3"}, "missing required field 'src_ip' (key 'src_ip')"),
        ({"timestamp": None, "src_ip": "1.2.3"},
         "missing required field 'timestamp' (key 'timestamp')"),
        ({"dest_ip": "10.0.0.300", "src_port": 70000},
         "dst_ip is not a valid IP address: '10.0.0.300'"),
        ({"src_ip": 7, "dest_ip": "1.2.3"}, "src_ip must be a string, got 7"),
        ({"dest_port": -5, "timestamp": "yesterday"},
         "dst_port out of range: -5 (expected in 0..65535)"),
        ({"timestamp": "yesterday", "payload_len": -1},
         "bad timestamp 'yesterday': Invalid isoformat string: 'yesterday'"),
        ({"timestamp": 12345, "dest_port": 1.5}, "dst_port must be an integer, got 1.5"),
        ({"timestamp": 12345, "payload_len": -1}, "timestamp must be a string, got 12345"),
        ({"src_port": True, "timestamp": "nope"}, "src_port must be an integer, got True"),
        ({"alert": {**_ALERT_BLOCK, "signature_id": False}, "http": {"status": 600}},
         "rule_sid must be an integer, got False"),
        ({"flow": {"pkts_toserver": True}, "http": {"status": 600}},
         "http_status out of range: 600 (expected in 100..599)"),
        ({"http": {"status": 99}, "flow": {"bytes_toclient": -1}},
         "http_status out of range: 99 (expected in 100..599)"),
        ({"http": {"status": 600}, "payload_len": "x"}, "payload_len must be an integer, got 'x'"),
        ({"http": {"status": True}, "flow": {"pkts_toclient": -1}},
         "http_status must be an integer, got True"),
        ({"flow": {"pkts_toclient": -1, "bytes_toserver": False}},
         "pkts_to_client out of range: -1 (expected >= 0)"),
        ({"alert": {"signature_id": -1, "signature": 5}, "action": ["x"]},
         "rule_sid out of range: -1 (expected >= 0)"),
        ({"rule_uuid": {"a": [1]}, "action": ["x"]}, "rule_uuid must be a string, got {'a': [1]}"),
        ({"alert": {"signature_id": 1, "category": 0}, "rev_comment": 3},
         "class_type must be a string, got 0"),
        ({"action": ["x"], "timestamp": "yesterday"}, "action must be a string, got ['x']"),
        ({"rev_comment": ["c"], "timestamp": "nope"},
         "bad timestamp 'nope': Invalid isoformat string: 'nope'"),
    ],
)
def test_record_with_several_faults_reports_the_first(overrides, message):
    line = make_line(**overrides)
    with pytest.raises(ValidationError) as info:
        parse_alert_record(line)
    assert str(info.value) == message
    _, report = read_corpus([make_line(), line])
    assert report.rejection_reasons == [(2, message)]


def test_bad_timestamp_on_several_lines_is_rejected_on_each():
    good, bad = make_line(), make_line(timestamp="2025-13-01T00:00:00Z")
    alerts, report = read_corpus([bad, good, bad, good, bad, make_line(timestamp=["x"])])
    reason = "bad timestamp '2025-13-01T00:00:00Z': month must be in 1..12"
    assert len(alerts) == report.accepted == 2
    assert alerts[0].timestamp == alerts[1].timestamp
    assert report.rejection_reasons == [
        (1, reason), (3, reason), (5, reason), (6, "timestamp must be a string, got ['x']")
    ]


# Text that JSON must escape or that a %-template could misread.
_TEXT = st.text(
    st.sampled_from('%"\\/\x00\x08\x1f\x7f\u2028é€😀 ab') | st.characters(codec="utf-8"),
    max_size=10,
)
_STAMPS = (
    "2025-03-04T10:20:30Z",
    "2025-03-04T19:20:30+09:00",  # the same instant as the first, another offset
    "2025-03-04T10:20:30.250000-0230",
    "2025-03-04T10:20:30",
)
_NESTED_MAP = {
    "src_ip": "net.src.addr",
    "timestamp": "meta.when",
    "rev_comment": "meta.note.text",
    "pkts_to_server": "counters.pkts",
}


def _move(record: dict, field_map: dict[str, str]) -> dict:
    """Move each remapped field of a default-layout record to its new path."""
    for field, path in field_map.items():
        *parents, leaf = DEFAULT_FIELD_MAP[field].split(".")
        node = record
        for key in parents:
            node = node.get(key, {})
        if leaf in node:
            value = node.pop(leaf)
            *parents, leaf = path.split(".")
            node = record
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = value
    return record


@st.composite
def _record(draw) -> dict:
    counters = ("pkts_toserver", "pkts_toclient", "bytes_toserver", "bytes_toclient")
    flow = {k: draw(st.integers(0, 2**40)) for k in counters if draw(st.booleans())}
    return make_record(
        timestamp=draw(st.sampled_from(_STAMPS)),
        src_ip=draw(st.sampled_from(["203.0.113.7", "2001:db8::1"])),
        rule_uuid=draw(_TEXT),
        action=draw(_TEXT | st.none()),
        alert={"signature_id": draw(st.integers(0, 2**40)), "signature": draw(_TEXT),
               "category": draw(_TEXT)},
        http={"status": draw(st.integers(100, 599))} if draw(st.booleans()) else None,
        flow=flow or None,
        payload_len=draw(st.integers(0, 2**40) | st.none()),
        rev_comment=draw(_TEXT | st.none()),
    )


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(_record(), min_size=1, max_size=6),
    nested=st.booleans(),
    labeled=st.booleans(),
    data=st.data(),
)
def test_write_records_matches_json_dumps_byte_for_byte(records, nested, labeled, data):
    paths = load_field_map([f"{k}={v}" for k, v in _NESTED_MAP.items()] if nested else [])
    alerts = [record_to_alert(_move(r, _NESTED_MAP) if nested else r, paths) for r in records]
    labels = [data.draw(st.sampled_from([0, 1])) for _ in alerts] if labeled else None
    rules = sorted({a.rule_uuid for a in alerts})
    comments = data.draw(st.dictionaries(st.sampled_from(rules), _TEXT, max_size=len(rules)))
    out = io.StringIO()
    # rows arrive as a one-shot iterator, as the CLI streams them
    write_records(out, zip(alerts, labels if labeled else [None] * len(alerts)), comments)
    expected = []
    for i, alert in enumerate(alerts):
        if alert.rule_uuid in comments:
            alert = alert._replace(rev_comment=comments[alert.rule_uuid])
        record = alert_to_record(alert)
        if labeled:
            record = {**record, "label": labels[i]}
        expected.append(json.dumps(record, sort_keys=True) + "\n")
    assert out.getvalue() == "".join(expected)


# text that a %-template or a marker of the writer could mistake for its own
_HOSTILE_TEXTS = ("100% %s", 'say "%(x)s" \\ now', "\x003 \x00", "na\u00efve \u2603 \U0001d11e", "%%s\u00003")


def test_every_pattern_of_absent_fields_writes_json_dumps_bytes():
    # write_records fills one template per pattern; the hypothesis test only samples them
    description, class_type, rule_uuid, action, comment = _HOSTILE_TEXTS
    alert = parse_alert_record(make_line())._replace(
        rule_description=description, class_type=class_type, rule_uuid=rule_uuid, action=action)
    present = {"http_status": 404, "pkts_to_server": 3, "pkts_to_client": 5,
               "bytes_to_server": 700, "bytes_to_client": 2**40, "rev_comment": comment}
    rows, expected = [], []
    for i, absent in enumerate(itertools.product([False, True], repeat=len(present) + 1)):
        gone = dict(zip(present, absent))
        row = alert._replace(**{f: None if gone[f] else v for f, v in present.items()})
        label = None if absent[-1] else i % 2
        record = alert_to_record(row) | ({} if label is None else {"label": label})
        out = io.StringIO()
        write_records(out, [(row, label)])
        assert out.getvalue() == json.dumps(record, sort_keys=True) + "\n", absent
        rows.append((row, label))
        expected.append(out.getvalue())
    assert len(rows) == 2**7
    out = io.StringIO()
    write_records(out, rows)  # one write, every template held at once
    assert out.getvalue() == "".join(expected)


def _with_field(field: str, value) -> dict:
    """The fixture record with one field, at its default path, set or (None) removed."""
    record = make_record()
    *parents, leaf = DEFAULT_FIELD_MAP[field].split(".")
    node = record
    for key in parents:
        node = node[key]
    if value is None:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    return record


_TEXT_FIELDS = ("rule_description", "class_type", "rule_uuid", "action", "rev_comment")


@pytest.mark.parametrize("field", _TEXT_FIELDS)
@pytest.mark.parametrize("value", [{"a": [1]}, ["x"], 7, 0, False, 1.5])
def test_text_field_that_is_not_a_string_is_rejected(field, value):
    with pytest.raises(ValidationError) as info:
        record_to_alert(_with_field(field, value))
    assert str(info.value) == f"{field} must be a string, got {value!r}"
    _, report = read_corpus([make_line(), json.dumps(_with_field(field, value))])
    assert report.rejection_reasons == [(2, f"{field} must be a string, got {value!r}")]


@pytest.mark.parametrize(
    "field, absent",
    [("rule_description", ""), ("class_type", ""), ("action", ""), ("rev_comment", None)],
)
def test_absent_text_field_keeps_its_default(field, absent):
    assert getattr(record_to_alert(_with_field(field, None)), field) == absent
    assert getattr(record_to_alert(_with_field(field, "")), field) == ""
    with pytest.raises(ValidationError, match="missing required field 'rule_uuid'"):
        record_to_alert(_with_field("rule_uuid", None))


def test_partial_field_map_keeps_the_default_path_of_unlisted_fields():
    expected = record_to_alert(make_record())
    assert record_to_alert(make_record(), load_field_map(["src_ip=src_ip"])) == expected
    record = make_record()
    record["net"] = {"src": record.pop("src_ip")}
    paths = load_field_map(["src_ip=net.src"])
    assert record_to_alert(record, paths) == expected
    assert parse_alert_record(json.dumps(record), paths) == expected
    written = alert_to_record(expected, paths)
    assert written["net"] == {"src": "203.0.113.7"} and "src_ip" not in written
    assert record_to_alert(written, paths) == expected


def test_field_map_key_that_names_no_field_is_rejected():
    # dest_ip is the JSON key of dst_ip, not a RawAlert field
    with pytest.raises(ValidationError, match="^field-map line 1: unknown field 'dest_ip'$"):
        load_field_map(["dest_ip=dest_ip"])
    with pytest.raises(ValidationError, match="^field-map line 2: unknown field 'nope'$"):
        load_field_map(["src_ip=src_ip", "nope=x"])


def test_labeled_alert_is_an_alert_label_row():
    alert = parse_alert_record(make_line())
    row = LabeledAlert(alert, 1)
    assert row == (alert, 1) and (row.alert, row.label) == (alert, 1)
    got_alert, got_label = row
    assert got_alert is alert and got_label == 1
    out = io.StringIO()
    write_records(out, [row])
    expected = io.StringIO()
    write_records(expected, [(alert, 1)])
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("label", [2, True, False, 1.0, -1, "1"])
def test_write_records_refuses_a_label_other_than_0_or_1(label):
    alert = parse_alert_record(make_line())
    for row in ((alert, label), LabeledAlert(alert, label)):
        out = io.StringIO()
        with pytest.raises(ValidationError, match=f"^label must be 0 or 1, got {label!r}$"):
            write_records(out, [(alert, 0), row])
        assert out.getvalue().count("\n") == 1  # the row before it was written
