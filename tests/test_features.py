"""Feature encoding precision/ranges, chi-squared selection, and matrix I/O."""

from __future__ import annotations

import io
import ipaddress
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alert_sift import features, ingest
from alert_sift.errors import ValidationError
from alert_sift.features import (
    FeatureProfile,
    ScalingCaps,
    as_matrix,
    chi2_select,
    encode_alert,
    feature_names,
    load_caps,
    read_matrix_csv,
    write_matrix_csv,
)
from alert_sift.ingest import RawAlert, parse_alert_record, refuse_alert

from conftest import make_line

_FULL29 = feature_names(FeatureProfile.FULL29)


def _entry(name: str, **overrides) -> float:
    """The named full29 entry of the fixture alert with the record's `overrides`."""
    vec = encode_alert(parse_alert_record(make_line(**overrides)), FeatureProfile.FULL29)
    return vec[_FULL29.index(name)]


def test_scale_port_examples():
    assert _entry("sport", src_port=0) == 0.0
    assert _entry("dport", dest_port=65535) == 1.0
    assert _entry("dport", dest_port=443) == 0.01


def test_scale_port_range_enforced():
    alert = parse_alert_record(make_line())
    # the other ends than test_encode_refuses_an_out_of_range_field_with_the_helpers_error's
    for field, port in (("src_port", -1), ("dst_port", 65536)):
        with pytest.raises(ValidationError) as info:
            encode_alert(alert._replace(**{field: port}))
        assert str(info.value) == f"{field} out of range: {port} (expected in 0..65535)"


def test_scale_port_at_most_101_classes():
    alert = parse_alert_record(make_line())
    sport = _FULL29.index("sport")
    assert len({encode_alert(alert._replace(src_port=p))[sport] for p in range(65536)}) == 101


def test_scale_ip_examples():
    assert _entry("sip", src_ip="0.0.0.0") == 0.0
    assert _entry("sip", src_ip="255.255.255.255") == 1.0
    assert _entry("dip", dest_ip="10.0.0.1") == 0.039


def test_scale_ip_v6_uses_top_64_bits():
    assert _entry("sip", src_ip="::") == 0.0
    assert _entry("sip", src_ip="ffff:ffff:ffff:ffff::") == 1.0
    # low 64 bits are irrelevant
    assert _entry("sip", src_ip="2001:db8::1") == _entry("sip", src_ip="2001:db8::ffff")


def test_scale_ip_three_decimal_grid():
    rng = np.random.default_rng(7)
    alert = parse_alert_record(make_line())
    for raw in rng.integers(0, 2**32, size=2000):
        addr = ".".join(str((int(raw) >> s) & 0xFF) for s in (24, 16, 8, 0))
        value = encode_alert(alert._replace(src_ip=addr))[2]
        assert abs(value * 1000 - round(value * 1000)) < 1e-9


def test_is_private_ranges():
    for addr, private in [("192.168.1.5", 1.0), ("8.8.8.8", 0.0), ("172.31.255.1", 1.0),
                          ("172.32.0.1", 0.0), ("10.0.0.0", 1.0), ("11.0.0.0", 0.0),
                          ("fc00::1", 1.0), ("fd12::1", 1.0), ("fe80::1", 0.0)]:
        assert _entry("priv_src_ip", src_ip=addr) == private, addr
        assert _entry("priv_dst_ip", dest_ip=addr) == private, addr


# Reference encoding, written independently of the encoder: addresses through
# ipaddress objects and `ip in net`, keyword flags as substring tests over the
# keyword table below, every other entry through its scaling formula.
# encode_alert (one parse per address, integer intervals, step tables, a
# memoised flag table) must match it exactly.
_ORACLE_PRIVATE_V4 = [
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
]
_ORACLE_PRIVATE_V6 = ipaddress.ip_network("fc00::/7")
# (keyword, whether it is matched in the description) per flag, in layout
# order: core20's six, then full29's nine. A description keyword matches
# case-sensitively, a class keyword the lowercased class type.
_ORACLE_KEYWORDS = [
    ("CVE", True), ("attack", False), ("EXPLOIT", True), ("POSSIBLE", True),
    ("activity", False), ("attempt", False),
    ("SCAN", True), ("POLICY", True), ("WEB_SERVER", True), ("TROJAN", True),
    ("ATTEMPT", True), ("INBOUND", True), ("UNUSUAL", True), (".", True), ("policy", False),
]


def _scaled(v: int, cap: int, places: int) -> float:
    return round(min(v, cap) / cap, places)


def _counter(v: int | None, cap: int) -> float:
    return -1.0 if v is None else _scaled(v, cap, 2)


def oracle_scale_ip(addr: str) -> float:
    ip = ipaddress.ip_address(addr)
    if ip.version == 4:
        return _scaled(int(ip), 2**32 - 1, 3)
    return _scaled(int(ip) >> 64, 2**64 - 1, 3)


def oracle_is_private(addr: str) -> float:
    ip = ipaddress.ip_address(addr)
    if ip.version == 4:
        return 1.0 if any(ip in net for net in _ORACLE_PRIVATE_V4) else 0.0
    return 1.0 if ip in _ORACLE_PRIVATE_V6 else 0.0


def oracle_flags(description: str, class_type: str, profile: FeatureProfile) -> list[float]:
    table = _ORACLE_KEYWORDS[:6] if profile is FeatureProfile.CORE20 else _ORACLE_KEYWORDS
    return [float(kw in (description if in_description else class_type.lower()))
            for kw, in_description in table]


def oracle_encode(alert, profile: FeatureProfile, caps: ScalingCaps) -> tuple[float, ...]:
    sip = oracle_scale_ip(alert.src_ip)
    dip = oracle_scale_ip(alert.dst_ip)
    flags = oracle_flags(alert.rule_description, alert.class_type, profile)
    return (
        oracle_is_private(alert.src_ip),
        oracle_is_private(alert.dst_ip),
        sip,
        dip,
        round(abs(sip - dip), 3),
        0.0 if alert.http_status is None else round(alert.http_status / 1000, 3),
        _counter(alert.pkts_to_server, caps.pkts_cap),
        _counter(alert.pkts_to_client, caps.pkts_cap),
        _counter(alert.bytes_to_server, caps.bytes_cap),
        _counter(alert.bytes_to_client, caps.bytes_cap),
        _scaled(alert.rule_sid, caps.sid_max, 3),
        *flags[:6],
        round(alert.src_port / 65535, 2),
        round(alert.dst_port / 65535, 2),
        _scaled(alert.payload_len, caps.payload_cap, 3),
        *flags[6:],
    )


# (address, private) on each side of each private range's ends
_PRIVATE_BOUNDARIES = [
    ("9.255.255.255", 0.0), ("10.0.0.0", 1.0), ("10.255.255.255", 1.0), ("11.0.0.0", 0.0),
    ("172.15.255.255", 0.0), ("172.16.0.0", 1.0), ("172.31.255.255", 1.0), ("172.32.0.0", 0.0),
    ("192.167.255.255", 0.0), ("192.168.0.0", 1.0), ("192.168.255.255", 1.0),
    ("192.169.0.0", 0.0),
    ("fbff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", 0.0), ("fc00::", 1.0),
    ("fdff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", 1.0), ("fe00::", 0.0),
]
# reserved, but not in the private ranges: loopback, link-local, shared (CGNAT)
_SPECIAL_NOT_PRIVATE = ["127.0.0.1", "169.254.1.1", "100.64.0.1", "::1", "fe80::1"]


@pytest.mark.parametrize("addr, private", _PRIVATE_BOUNDARIES)
def test_private_range_boundaries(addr, private):
    assert _entry("priv_src_ip", src_ip=addr) == oracle_is_private(addr) == private


@pytest.mark.parametrize("addr", _SPECIAL_NOT_PRIVATE)
def test_special_ranges_encode_as_not_private(addr):
    assert oracle_is_private(addr) == 0.0
    vec = encode_alert(parse_alert_record(make_line(src_ip=addr, dest_ip=addr)))
    assert vec[:2] == (0.0, 0.0)


def test_ip_diff_examples():
    assert _entry("diff", src_ip="128.0.0.0", dest_ip="128.0.0.0") == 0.0
    assert _entry("diff", src_ip="255.255.255.255", dest_ip="0.0.0.0") == 1.0
    # 10.0.0.1 scales to 0.039 and 128.0.0.0 to 0.5
    assert _entry("diff", src_ip="10.0.0.1", dest_ip="128.0.0.0") == 0.461


def test_http_status_examples():
    assert _entry("http_status", http=None) == 0.0
    assert _entry("http_status", http={"status": 404}) == 0.404
    assert _entry("http_status", http={"status": 200}) == 0.2


def test_http_status_range_enforced():
    alert = parse_alert_record(make_line())
    for bad in (99, 600):
        with pytest.raises(ValidationError) as info:
            encode_alert(alert._replace(http_status=bad))
        assert str(info.value) == f"http_status out of range: {bad} (expected in 100..599)"


def test_counter_examples():
    def pkts(value):
        return _entry("pkt_to_svr", flow=None if value is None else {"pkts_toserver": value})

    assert pkts(None) == -1.0
    assert pkts(0) == 0.0
    assert pkts(10_000) == 1.0
    assert pkts(25_000) == 1.0
    assert pkts(5_432) == 0.54


def test_rule_sid_examples():
    def sid(value):
        return _entry("rulesid", alert={"signature_id": value})

    assert sid(0) == 0.0
    assert sid(10_000_000) == 1.0
    assert sid(2027863) == 0.203


def test_payload_scaling_saturates():
    assert _entry("PAYLOAD_Bytes", payload_len=0) == 0.0
    assert _entry("PAYLOAD_Bytes", payload_len=65535) == 1.0
    assert _entry("PAYLOAD_Bytes", payload_len=100_000) == 1.0


@pytest.mark.parametrize("cap", [0, -3])
def test_payload_scaling_refuses_a_cap_below_one(cap):
    error = f"^payload_cap out of range: {cap} \\(expected in 1\\.\\.{2**63 - 1}\\)$"
    with pytest.raises(ValidationError, match=error):
        ScalingCaps(payload_cap=cap)
    with pytest.raises(ValidationError, match=error):
        load_caps([f"payload_cap={cap}"])


@pytest.mark.parametrize("value", [1.5, 10_000.0, "5", True, False, None])
def test_scaling_caps_refuse_a_cap_that_is_not_an_int(value):
    with pytest.raises(ValidationError) as info:
        ScalingCaps(pkts_cap=value)
    assert str(info.value) == f"pkts_cap must be an integer, got {value!r}"


def _flags(description: str, category: str, profile: FeatureProfile) -> dict[str, float]:
    """The keyword-flag entries of the fixture alert with this rule text, by name."""
    alert = parse_alert_record(make_line())._replace(rule_description=description,
                                                     class_type=category)
    names = feature_names(profile)
    flag_columns = names[11:17] + names[20:]
    return {name: v for name, v in zip(names, encode_alert(alert, profile)) if name in flag_columns}


def test_keyword_flags_core_examples():
    flags = _flags("ET EXPLOIT CVE-2021-44228 attempt", "attempted-admin", FeatureProfile.CORE20)
    assert flags == {
        "CVE": 1.0,
        "attack": 0.0,
        "EXPLOIT": 1.0,
        "POSSIBLE": 0.0,
        "activity": 0.0,
        "attempt": 1.0,
    }


def test_keyword_flags_empty_inputs():
    flags = _flags("", "", FeatureProfile.FULL29)
    assert len(flags) == 15 and set(flags.values()) == {0.0}


def test_keyword_flags_description_match_is_case_sensitive():
    flags = _flags("ET SCAN Possible Nmap", "", FeatureProfile.FULL29)
    assert flags["SCAN"] == 1.0
    assert flags["POSSIBLE"] == 0.0


def test_keyword_flags_class_match_is_case_folded():
    assert _flags("", "Attempted-Admin", FeatureProfile.CORE20)["attempt"] == 1.0


class _Text(str):
    """A str subclass: equal to, and hashed as, its str twin."""


def test_non_str_text_is_refused_when_its_str_twin_is_memoised():
    alert = parse_alert_record(make_line())
    encode_alert(alert, FeatureProfile.FULL29)  # the memo now holds the str texts
    description, class_type = alert.rule_description, alert.class_type
    for field, value in (("rule_description", _Text(description)),
                         ("class_type", _Text(class_type)), ("rule_description", None)):
        with pytest.raises(ValidationError) as info:
            encode_alert(alert._replace(**{field: value}), FeatureProfile.FULL29)
        assert str(info.value) == f"{field} must be a string, got {value!r}"
    # the memoised flags would raise these, so such an alert is refused where it is made
    with pytest.raises(TypeError, match="argument of type 'NoneType' is not iterable"):
        features._keyword_flags(None, class_type, FeatureProfile.CORE20)
    with pytest.raises(AttributeError, match="'int' object has no attribute 'lower'"):
        features._keyword_flags(description, 7, FeatureProfile.CORE20)


def test_encode_minimal_alert_is_all_floor_values():
    line = make_line(
        src_ip="0.0.0.0",
        dest_ip="0.0.0.0",
        src_port=0,
        dest_port=0,
        alert={"signature_id": 0, "signature": "", "category": ""},
        http=None,
        flow=None,
        payload_len=0,
    )
    vec = encode_alert(parse_alert_record(line), FeatureProfile.CORE20)
    expected = [0.0] * 20
    for counter_pos in (6, 7, 8, 9):
        expected[counter_pos] = -1.0
    assert list(vec) == expected


def test_profile_lengths():
    alert = parse_alert_record(make_line())
    assert len(encode_alert(alert, FeatureProfile.CORE20)) == 20
    assert len(encode_alert(alert, FeatureProfile.FULL29)) == 29


@pytest.mark.parametrize("profile", ["core20", "full29", None, 20])
def test_a_profile_that_is_not_a_feature_profile_is_refused(profile):
    # feature_names("core20") once gave the 29 full names and encode_alert a bare KeyError
    alert = parse_alert_record(make_line())
    for call in (lambda: feature_names(profile), lambda: encode_alert(alert, profile)):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"profile must be a FeatureProfile, got {profile!r}"


def test_fixture_alert_golden_vector():
    # every entry hand-derived from the conftest fixture record
    alert = parse_alert_record(make_line())
    vec = encode_alert(alert, FeatureProfile.CORE20)
    assert vec == (
        0.0,    # src 203.0.113.7 is public
        1.0,    # dst 10.20.30.40 is private
        0.793,  # 3405803783 / (2^32 - 1)
        0.039,  # 169090600 / (2^32 - 1)
        0.754,  # |0.793 - 0.039|
        0.404,  # http 404 / 1000
        0.0,    # 4 pkts / 10,000 cap
        0.0,    # 6 pkts / 10,000 cap
        0.0,    # 1,200 bytes / 1,000,000 cap
        0.01,   # 5,400 bytes / 1,000,000 cap
        0.203,  # sid 2027863 / 10,000,000
        1.0,    # description contains CVE
        0.0,    # class lacks attack
        1.0,    # description contains EXPLOIT
        0.0,    # description has Possible, not POSSIBLE
        0.0,    # class lacks activity
        1.0,    # class attempted-admin contains attempt
        0.79,   # sport 51515 / 65535
        0.01,   # dport 443 / 65535
        0.005,  # payload 320 / 65535
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("http_status", 600, "http_status out of range: 600 (expected in 100..599)"),
        ("pkts_to_server", -1, "pkts_to_server out of range: -1 (expected >= 0)"),
        ("bytes_to_client", -2, "bytes_to_client out of range: -2 (expected >= 0)"),
        ("rule_sid", -1, "rule_sid out of range: -1 (expected >= 0)"),
        ("src_port", 65536, "src_port out of range: 65536 (expected in 0..65535)"),
        ("dst_port", -1, "dst_port out of range: -1 (expected in 0..65535)"),
        ("payload_len", -1, "payload_len out of range: -1 (expected >= 0)"),
    ],
)
def test_encode_refuses_an_out_of_range_field_with_the_helpers_error(field, value, message):
    # the helper is ingest.refuse_alert, run where the alert is made, so no
    # such alert reaches encode_alert and the error names the field as
    # record_to_alert's does
    alert = parse_alert_record(make_line())
    with pytest.raises(ValidationError) as info:
        alert._replace(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value",
    [
        ("src_port", 443.7),
        ("dst_port", True),
        ("src_port", None),
        ("pkts_to_server", True),
        ("pkts_to_client", 4.0),
        ("bytes_to_server", 1200.5),
        ("bytes_to_client", "5400"),
        ("rule_sid", 2.5e6),
        ("rule_sid", None),
        ("payload_len", 320.0),
        ("payload_len", None),
        ("http_status", 404.0),
        ("http_status", False),
    ],
)
def test_encode_refuses_a_number_that_is_not_an_int(field, value):
    # a non-integer can sit on the other side of a table step from the
    # scaling formula, so the alert is refused where it is made, as
    # record_to_alert refuses it
    alert = parse_alert_record(make_line())
    with pytest.raises(ValidationError) as info:
        alert._replace(**{field: value})
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("src_ip", "nope", "src_ip is not a valid IP address: 'nope'"),
        ("src_ip", 5, "src_ip must be a string, got 5"),
        ("src_ip", None, "src_ip must be a string, got None"),
        ("dst_ip", "10.0.0.300", "dst_ip is not a valid IP address: '10.0.0.300'"),
        ("dst_ip", "::g", "dst_ip is not a valid IP address: '::g'"),
        ("rule_description", True, "rule_description must be a string, got True"),
        ("rule_description", None, "rule_description must be a string, got None"),
        ("class_type", 7, "class_type must be a string, got 7"),
        # a sequence would test membership, not substrings
        ("rule_description", ["CVE"], "rule_description must be a string, got ['CVE']"),
        ("rule_description", ("CVE",), "rule_description must be a string, got ('CVE',)"),
    ],
)
def test_encode_refuses_a_bad_address_or_text_as_record_to_alert_does(field, value, message):
    # a hand-built RawAlert skips record_to_alert, and is refused where it is made with its texts
    alert = parse_alert_record(make_line())
    with pytest.raises(ValidationError) as info:
        alert._replace(**{field: value})
    assert str(info.value) == message


def test_encode_refuses_a_value_that_is_not_a_raw_alert():
    # a plain tuple or list of an alert's fields was never checked, so it is not encoded
    alert = parse_alert_record(make_line())
    for value in (tuple(alert), list(alert)):
        with pytest.raises(ValidationError) as info:
            encode_alert(value)
        assert str(info.value) == f"alert must be a RawAlert, got {type(value).__name__}"


@pytest.mark.parametrize("caps", [{"pkts_cap": 5}, "x", 5])
def test_encode_refuses_caps_that_are_not_scaling_caps(caps):
    # these once ended in a bare AttributeError naming the missing tables
    alert = parse_alert_record(make_line())
    with pytest.raises(ValidationError) as info:
        encode_alert(alert, FeatureProfile.CORE20, caps)
    assert str(info.value) == f"caps must be a ScalingCaps, got {type(caps).__name__}"


class _Int(int):
    """An int subclass: refuse_alert passes it, and it encodes as its value."""


# A value for any field of an alert: in and out of every range, the wrong
# types, subclasses of str and int, IPv6 addresses and junk.
_FIELD_VALUE = st.one_of(
    st.integers(-2, 70_000),
    st.integers(-(2**70), 2**70),
    st.integers(0, 70_000).map(_Int),
    st.booleans(),
    st.floats(allow_nan=True),
    st.none(),
    st.sampled_from(["203.0.113.7", "2001:db8::1", "fe80::1%eth0", "::ffff:10.0.0.1",
                     "1.2.3", "::g", "CVE-2024-1", ""]),
    st.sampled_from(["198.51.100.4", "ET EXPLOIT"]).map(_Text),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(field=st.sampled_from(RawAlert._fields), value=_FIELD_VALUE,
       profile=st.sampled_from(FeatureProfile))
@example(field="src_ip", value="::g", profile=FeatureProfile.CORE20)
@example(field="dst_ip", value="fe80::1%eth0", profile=FeatureProfile.CORE20)
@example(field="dst_port", value=_Int(443), profile=FeatureProfile.FULL29)
@example(field="http_status", value=_Int(600), profile=FeatureProfile.CORE20)
def test_encode_either_encodes_or_raises_the_ingest_refusal(field, value, profile):
    # the alert contract has one owner: a value is refused where the alert is
    # made, with refuse_alert's text, or the alert encodes with no error
    alert = parse_alert_record(make_line())
    try:
        changed = alert._replace(**{field: value})
    except ValidationError as exc:
        i = RawAlert._fields.index(field)
        with pytest.raises(ValidationError) as info:
            refuse_alert(ingest._new(RawAlert, (*alert[:i], value, *alert[i + 1:])))
        assert str(exc) == str(info.value)
    else:
        row = encode_alert(changed, profile)
        assert len(row) == profile.width
        if isinstance(value, _Int):
            assert row == encode_alert(alert._replace(**{field: int(value)}), profile)


def test_encode_matches_keywords_as_substrings_of_a_str_description():
    alert = parse_alert_record(make_line())
    cve = feature_names(FeatureProfile.CORE20).index("CVE")
    assert encode_alert(alert._replace(rule_description="probe CVE-2024-1"))[cve] == 1.0
    assert encode_alert(alert._replace(rule_description="probe"))[cve] == 0.0


def test_encode_is_pure():
    alert = parse_alert_record(make_line())
    assert encode_alert(alert, FeatureProfile.FULL29) == encode_alert(
        alert, FeatureProfile.FULL29
    )


# Step tables. Each entry is a non-decreasing function of an integer
# (correctly rounded division, then correctly rounded round), so a table is
# exact iff at each threshold t the function steps from the previous value to
# this one, and the last value holds to the domain's end.
_ODD_CAPS = [1, 3, 7919, 999_983, 2**63 - 1]


def _lookup(table, v):
    thresholds, values = table
    return values[bisect_right(thresholds, v) - 1]


def _formula(cap, places):
    return lambda v: _scaled(v, cap, places)


def _cap_tables():
    # (name, the entry as a function of one integer, table, largest integer to check)
    for caps in [ScalingCaps()] + [ScalingCaps(c, c, c, c) for c in _ODD_CAPS]:
        for name, places, cap, table in zip(
            ["pkts", "bytes", "sid", "payload"],
            [2, 2, 3, 3],
            [caps.pkts_cap, caps.bytes_cap, caps.sid_max, caps.payload_cap],
            caps.tables,
        ):
            yield f"{name}@{cap}", _formula(cap, places), table, 3 * cap + 1


def _all_tables():
    yield "port", _formula(65535, 2), (features._PORT_AT, features._PORTS), 65535
    yield ("http_status", lambda s: round(s / 1000, 3),
           (features._STATUS_AT, features._STATUSES), 599)
    yield ("ipv4", _formula(2**32 - 1, 3),
           (features._IPV4_THRESHOLDS, features._ADDRESS_GRID), 2**32 - 1)
    yield ("ipv6", _formula(2**64 - 1, 3),
           (features._ipv6_thresholds(), features._ADDRESS_GRID), 2**64 - 1)
    yield from _cap_tables()


_TABLES = list(_all_tables())


@pytest.mark.parametrize("name, f, table, top", _TABLES, ids=[name for name, *_ in _TABLES])
def test_step_table_is_exact(name, f, table, top):
    thresholds, values = table
    assert len(thresholds) == len(values) and thresholds == sorted(set(thresholds))
    assert values[0] == f(thresholds[0])
    for i in range(1, len(thresholds)):
        t = thresholds[i]
        assert f(t - 1) == values[i - 1] < values[i] == f(t), (name, t)
    assert f(top) == values[-1]


def test_step_tables_have_the_documented_levels():
    assert len(features._PORTS) == 101
    assert features._STATUS_AT == list(range(100, 600))
    assert len(features._ADDRESS_GRID) == 1001
    assert len(features._ipv6_thresholds()) == 1001
    assert [len(t[0]) for t in ScalingCaps().tables] == [101, 101, 1001, 1001]
    assert [len(t[0]) for t in ScalingCaps(3, 3, 3, 3).tables] == [4, 4, 4, 4]


def test_caps_build_their_tables_when_made(monkeypatch):
    alert = parse_alert_record(make_line())
    default, caps = ScalingCaps(), ScalingCaps(3, 30, 300, 3000)

    def no_table(*args, **kwargs):
        raise AssertionError("encode_alert built a step table")

    monkeypatch.setattr(features, "_steps", no_table)
    for profile in FeatureProfile:
        assert encode_alert(alert, profile) == oracle_encode(alert, profile, default)
        assert encode_alert(alert, profile, caps) == oracle_encode(alert, profile, caps)


def test_step_tables_match_the_helpers_over_cheap_domains():
    port_table = (features._PORT_AT, features._PORTS)
    assert [_lookup(port_table, p) for p in range(65536)] == [
        round(p / 65535, 2) for p in range(65536)
    ]
    status_table = (features._STATUS_AT, features._STATUSES)
    assert [_lookup(status_table, s) for s in range(100, 600)] == [
        round(s / 1000, 3) for s in range(100, 600)
    ]
    pkts = ScalingCaps().tables[0]
    assert [_lookup(pkts, v) for v in range(10_002)] == [
        _scaled(v, 10_000, 2) for v in range(10_002)
    ]


def test_ip_diff_is_the_grid_value_at_the_index_distance():
    # encode_alert's diff entry is grid[|ks - kd|]; the reference rounds the
    # difference of the two scaled values. They agree on all 1001 x 1001 pairs.
    grid = features._ADDRESS_GRID
    column = np.array(grid)
    for i in range(len(grid)):
        by_distance = grid[i::-1] + grid[1 : len(grid) - i]
        assert [round(d, 3) for d in np.abs(column - grid[i]).tolist()] == by_distance, i


_ip_strategy = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda v: ".".join(str((v >> s) & 0xFF) for s in (24, 16, 8, 0))
    ),
    st.integers(0, 2**128 - 1).map(
        lambda v: ":".join(f"{(v >> s) & 0xFFFF:x}" for s in range(112, -16, -16))
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    src_ip=_ip_strategy,
    dest_ip=_ip_strategy,
    src_port=st.integers(0, 65535),
    dest_port=st.integers(0, 65535),
    sid=st.integers(0, 99_999_999),
    status=st.one_of(st.none(), st.integers(100, 599)),
    counters=st.lists(st.one_of(st.none(), st.integers(0, 10**8)), min_size=4, max_size=4),
    payload=st.integers(0, 10**6),
    description=st.text(max_size=60),
    category=st.text(max_size=30),
    profile=st.sampled_from(list(FeatureProfile)),
)
def test_encoder_invariants_hold_for_random_alerts(
    src_ip, dest_ip, src_port, dest_port, sid, status, counters, payload,
    description, category, profile,
):
    overrides = {
        "src_ip": src_ip,
        "dest_ip": dest_ip,
        "src_port": src_port,
        "dest_port": dest_port,
        "alert": {"signature_id": sid, "signature": description, "category": category},
        "payload_len": payload,
        "http": None if status is None else {"status": status},
        "flow": {
            k: v
            for k, v in zip(
                ["pkts_toserver", "pkts_toclient", "bytes_toserver", "bytes_toclient"],
                counters,
            )
            if v is not None
        },
    }
    alert = parse_alert_record(make_line(**overrides))
    assert_vector_invariants(encode_alert(alert, profile), profile)


_oracle_ip_strategy = st.one_of(
    _ip_strategy,
    st.sampled_from([addr for addr, _ in _PRIVATE_BOUNDARIES] + _SPECIAL_NOT_PRIVATE),
    st.tuples(
        st.integers(0, 2**128 - 1).map(lambda v: str(ipaddress.IPv6Address(v))),
        st.sampled_from(["%eth0", "%1"]),
    ).map("".join),
    st.integers(0, 2**32 - 1).map(lambda v: f"::ffff:{ipaddress.IPv4Address(v)}"),
)
# rule text: random, or words drawn from every keyword in each case form, so
# each flag is hit in and out of its source text and case
_rule_text = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.sampled_from([form for kw, _ in _ORACLE_KEYWORDS
                         for form in (kw, kw.lower(), kw.upper(), kw.title())] + ["x"]),
        max_size=6,
    ).map(" ".join),
)
_caps_strategy = st.builds(
    ScalingCaps,
    pkts_cap=st.integers(1, 10**5),
    bytes_cap=st.integers(1, 10**7),
    payload_cap=st.integers(1, 10**5),
    sid_max=st.integers(1, 10**8),
)


def _near_step(data, thresholds, lo, hi):
    """An integer at a table threshold, or one either side of it, within [lo, hi]."""
    t = data.draw(st.sampled_from(thresholds))
    return min(max(t + data.draw(st.integers(-1, 1)), lo), hi)


def _address_near_step(data, version):
    if version == 4:
        v = _near_step(data, features._IPV4_THRESHOLDS, 0, 2**32 - 1)
        return str(ipaddress.IPv4Address(v))
    top = _near_step(data, features._ipv6_thresholds(), 0, 2**64 - 1)
    return str(ipaddress.IPv6Address(top << 64 | data.draw(st.integers(0, 2**64 - 1))))


@settings(max_examples=300, deadline=None)
@given(
    src_ip=_oracle_ip_strategy,
    dest_ip=_oracle_ip_strategy,
    src_port=st.integers(0, 65535),
    dest_port=st.integers(0, 65535),
    sid=st.integers(0, 99_999_999),
    status=st.one_of(st.none(), st.integers(100, 599)),
    counters=st.lists(st.one_of(st.none(), st.integers(0, 10**8)), min_size=4, max_size=4),
    payload=st.integers(0, 10**6),
    description=_rule_text,
    category=_rule_text,
    profile=st.sampled_from(list(FeatureProfile)),
    caps=st.one_of(st.none(), _caps_strategy),
    data=st.data(),
)
def test_encode_alert_matches_ipaddress_oracle(
    src_ip, dest_ip, src_port, dest_port, sid, status, counters, payload,
    description, category, profile, caps, data,
):
    # random integers almost never land on a table step: half the time, move
    # each scaled field to a step of its table, or one either side of it
    if data.draw(st.booleans(), label="at steps"):
        pkts, nbytes, sids, payloads = (caps or ScalingCaps()).tables
        src_ip = _address_near_step(data, data.draw(st.sampled_from([4, 6])))
        dest_ip = _address_near_step(data, data.draw(st.sampled_from([4, 6])))
        src_port = _near_step(data, features._PORT_AT, 0, 65535)
        dest_port = _near_step(data, features._PORT_AT, 0, 65535)
        sid = _near_step(data, sids[0], 0, 10**9)
        status = _near_step(data, features._STATUS_AT, 100, 599)
        counters = [_near_step(data, table[0], 0, 10**9) for table in (pkts, pkts, nbytes, nbytes)]
        payload = _near_step(data, payloads[0], 0, 10**9)
    overrides = {
        "src_ip": src_ip,
        "dest_ip": dest_ip,
        "src_port": src_port,
        "dest_port": dest_port,
        "alert": {"signature_id": sid, "signature": description, "category": category},
        "payload_len": payload,
        "http": None if status is None else {"status": status},
        "flow": dict(zip(["pkts_toserver", "pkts_toclient", "bytes_toserver", "bytes_toclient"],
                         counters)),
    }
    alert = parse_alert_record(make_line(**overrides))
    vec = encode_alert(alert, profile, caps)
    assert vec == oracle_encode(alert, profile, caps or ScalingCaps())


def assert_vector_invariants(values: tuple[float, ...], profile: FeatureProfile) -> None:
    assert len(values) == profile.width
    counter_positions = {6, 7, 8, 9}
    boolean_positions = {0, 1} | set(range(11, 17)) | set(range(20, profile.width))
    two_decimal_positions = {17, 18}
    three_decimal_positions = {2, 3, 4, 5, 10, 19}
    for i, v in enumerate(values):
        if i in counter_positions:
            assert v == -1.0 or 0.0 <= v <= 1.0
            assert abs(v * 100 - round(v * 100)) < 1e-9
        else:
            assert 0.0 <= v <= 1.0
        if i in boolean_positions:
            assert v in (0.0, 1.0)
        if i in two_decimal_positions:
            assert abs(v * 100 - round(v * 100)) < 1e-9
        if i in three_decimal_positions:
            assert abs(v * 1000 - round(v * 1000)) < 1e-9


def test_caps_file_overrides_and_validates():
    caps = load_caps(["pkts_cap = 500", "# note", "bytes_cap=2000"])
    assert caps == ScalingCaps(pkts_cap=500, bytes_cap=2000)
    with pytest.raises(ValidationError):
        load_caps(["unknown=3"])
    with pytest.raises(ValidationError, match="^caps line 3: cap 'pkts_cap' listed twice$"):
        load_caps(["pkts_cap=5", "# note", "pkts_cap = 7"])
    with pytest.raises(ValidationError):
        load_caps(["pkts_cap=abc"])
    with pytest.raises(ValidationError):
        ScalingCaps(pkts_cap=0)


@pytest.mark.parametrize("name", ["pkts_cap", "bytes_cap", "payload_cap", "sid_max"])
def test_caps_above_the_ceiling_are_refused(name):
    # a step table's search ranges must stay below sys.maxsize
    assert getattr(ScalingCaps(**{name: 2**63 - 1}), name) == 2**63 - 1
    for cap in (2**63, 2**116, 10**300):
        with pytest.raises(ValidationError) as info:
            load_caps([f"{name}={cap}"])
        assert str(info.value) == f"{name} out of range: {cap} (expected in 1..{2**63 - 1})"


def test_feature_vector_width_validated():
    with pytest.raises(ValidationError):
        as_matrix([(0.0,) * 20, (0.0,) * 19])
    with pytest.raises(ValidationError):
        as_matrix([(0.0, "x")])


def test_chi2_worked_example():
    X = np.array([[1.0], [1.0], [0.0], [0.0]])
    result = chi2_select(X, [1, 1, 0, 0], k=1)
    assert result.chi2_scores == [2.0]
    assert result.selected_indices == [0]


def test_chi2_constant_feature_scores_zero():
    X = np.array([[1.0], [1.0], [1.0], [1.0]])
    assert chi2_select(X, [1, 1, 0, 0], k=1).chi2_scores == [0.0]


def test_chi2_zero_mass_feature_scores_zero():
    X = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    result = chi2_select(X, [1, 1, 0, 0], k=2)
    assert result.chi2_scores[0] == 0.0


def test_chi2_k_at_least_width_selects_all():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    result = chi2_select(X, [0, 1], k=5)
    assert sorted(result.selected_indices) == [0, 1, 2]


def test_chi2_rejects_negative_values():
    with pytest.raises(ValidationError):
        chi2_select(np.array([[-1.0]]), [0], k=1)


@pytest.mark.parametrize("column", [[1e200, 0.0], [1.7e308, 1.7e308]])
def test_chi2_refuses_scores_past_the_largest_double(column):
    # a square, then a column sum, overflows
    with pytest.raises(ValidationError, match="chi2 scores overflow"):
        chi2_select(np.array([[0.5, v] for v in column]), [1, 0], k=1)
    assert chi2_select(np.array([[0.5, 1e150], [0.5, 0.0]]), [1, 0], k=1).selected_indices == [1]


def test_chi2_ties_break_by_lower_index():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    result = chi2_select(X, [1, 1, 0, 0], k=1)
    assert result.selected_indices == [0]


def _brute_chi2(X, y):
    classes = sorted(set(y))
    n = len(y)
    scores = []
    for j in range(X.shape[1]):
        total = sum(X[i][j] for i in range(n))
        if total == 0:
            scores.append(0.0)
            continue
        score = 0.0
        for c in classes:
            observed = sum(X[i][j] for i in range(n) if y[i] == c)
            expected = total * sum(1 for t in y if t == c) / n
            if expected > 0:
                score += (observed - expected) ** 2 / expected
        scores.append(score)
    return scores


def test_chi2_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        w = int(rng.integers(1, 6))
        X = np.round(rng.random((n, w)) * 3, 2)
        y = rng.integers(0, 2, size=n).tolist()
        got = chi2_select(X, y, k=w).chi2_scores
        ref = _brute_chi2(X, y)
        assert got == pytest.approx(ref, abs=1e-9)


def test_matrix_csv_round_trip():
    alerts = [parse_alert_record(make_line(src_port=p)) for p in (1, 99, 65535)]
    vectors = [encode_alert(a, FeatureProfile.CORE20) for a in alerts]
    names = feature_names(FeatureProfile.CORE20)
    out = io.StringIO()
    write_matrix_csv(out, as_matrix(vectors), [1, 0, 1], names)
    X, labels, read_names = read_matrix_csv(io.StringIO(out.getvalue()))
    assert read_names == names
    assert labels.tolist() == [1, 0, 1]
    assert X.tolist() == [list(v) for v in vectors]


def test_matrix_csv_without_labels():
    X, labels, names = read_matrix_csv(io.StringIO("a,b\n0.5,1.0\n"))
    assert labels is None
    assert names == ["a", "b"]
    assert X.tolist() == [[0.5, 1.0]]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_matrix_csv_rejects_non_finite_cells(cell):
    text = f"a,b,label\n0.5,1.0,1\n0.25,{cell},0\n"
    with pytest.raises(ValidationError, match="line 3: non-finite"):
        read_matrix_csv(io.StringIO(text))
