"""Alert parsing, corpus reading, field maps, and the comment sidecar."""

from __future__ import annotations

import io
import ipaddress
import json
from datetime import timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alert_sift.errors import AlertSiftError, ParseError, ValidationError
from alert_sift.ingest import (
    DEFAULT_FIELD_MAP,
    FieldPaths,
    Records,
    alert_to_record,
    attach_comments,
    ip_value,
    load_field_map,
    parse_alert_record,
    parse_timestamp,
    read_corpus,
    read_rule_comments,
    record_to_alert,
    write_records,
)

from conftest import make_line, make_record


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


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_alert_record("{not json")
    with pytest.raises(ParseError):
        parse_alert_record("[1, 2, 3]")


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
    try:
        ip = ipaddress.ip_address(text)
    except ValueError:
        with pytest.raises(ValueError):
            ip_value(text)
    else:
        assert ip_value(text) == (ip.version, int(ip))


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


def test_field_map_remaps_keys():
    fmap = load_field_map(["rule_uuid = meta.filter_id", "# comment", ""])
    assert fmap == {"rule_uuid": "meta.filter_id"}
    record = make_record()
    del record["rule_uuid"]
    record["meta"] = {"filter_id": "rule-zzz"}
    alert = parse_alert_record(json.dumps(record), fmap)
    assert alert.rule_uuid == "rule-zzz"


def test_field_map_rejects_unknown_field():
    with pytest.raises(ValidationError, match="unknown field"):
        load_field_map(["not_a_field=some.path"])


def test_rule_comment_sidecar_reads_and_attaches():
    sidecar = io.StringIO("rule_uuid,rev_comment\nrule-aaa,Known benign scanner\n")
    comments = read_rule_comments(sidecar)
    alerts = [parse_alert_record(make_line())]
    joined = attach_comments(alerts, comments)
    assert joined[0].rev_comment == "Known benign scanner"


def test_sidecar_wins_over_embedded_comment():
    alerts = [parse_alert_record(make_line(rev_comment="embedded text"))]
    joined = attach_comments(alerts, [("rule-aaa", "sidecar text")])
    assert joined[0].rev_comment == "sidecar text"
    unjoined = attach_comments(alerts, [("other-rule", "sidecar text")])
    assert unjoined[0].rev_comment == "embedded text"


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
    fields = FieldPaths()
    record_to_alert(make_record(src_ip="198.51.100.4"), fields)
    assert fields.valid_ips == {"198.51.100.4", "10.20.30.40"}
    with pytest.raises(ValidationError, match="src_ip must be a string"):
        record_to_alert(make_record(src_ip=value), fields)


def test_field_paths_compile_nested_map_once():
    fmap = load_field_map(["src_ip = net.src.addr", "rule_uuid = meta.rule.id"])
    record = make_record(src_ip=None, rule_uuid=None)
    record["net"] = {"src": {"addr": "192.0.2.9"}}
    record["meta"] = {"rule": {"id": "rule-zzz"}}
    fields = FieldPaths(fmap)
    assert ("src_ip", ("net", "src"), "addr") in fields.paths
    for _ in range(2):
        alert = record_to_alert(record, fields)
        assert (alert.src_ip, alert.rule_uuid) == ("192.0.2.9", "rule-zzz")
    assert record_to_alert(record, fmap) == alert
    assert parse_alert_record(json.dumps(record), fmap) == alert
    record["net"]["src"] = "192.0.2.9"  # a leaf where a parent object belongs
    with pytest.raises(ValidationError, match="'src_ip' \\(key 'net.src.addr'\\)"):
        record_to_alert(record, fields)


_ALERT_BLOCK = {"signature": "ET SCAN", "category": "attempted-recon"}


# Records with two or more faults, and the first fault each reports: the
# fields are checked in a fixed order (required presence, addresses, ports,
# rule id, text fields, timestamp, payload length, then the optional
# counters).
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
        ({"rev_comment": ["c"], "timestamp": "nope"}, "rev_comment must be a string, got ['c']"),
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
    field_map = load_field_map(f"{k}={v}" for k, v in _NESTED_MAP.items()) if nested else None
    fields = FieldPaths(field_map)  # one read: equal timestamps share one datetime
    alerts = [record_to_alert(_move(r, _NESTED_MAP) if nested else r, fields) for r in records]
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
    assert record_to_alert(make_record(), {"src_ip": "src_ip"}) == expected
    record = make_record()
    record["net"] = {"src": record.pop("src_ip")}
    assert record_to_alert(record, {"src_ip": "net.src"}) == expected
    assert parse_alert_record(json.dumps(record), {"src_ip": "net.src"}) == expected
    written = alert_to_record(expected, {"src_ip": "net.src"})
    assert written["net"] == {"src": "203.0.113.7"} and "src_ip" not in written
    assert record_to_alert(written, {"src_ip": "net.src"}) == expected


def test_field_map_key_that_names_no_field_is_rejected():
    # dest_ip is the JSON key of dst_ip, not a RawAlert field
    with pytest.raises(ValidationError, match="unknown field 'dest_ip'"):
        record_to_alert(make_record(), {"dest_ip": "dest_ip"})
    with pytest.raises(ValidationError, match="unknown field 'nope'"):
        FieldPaths({"src_ip": "src_ip", "nope": "x"})
