"""Feature encoding precision/ranges, screening, selection, and matrix I/O."""

from __future__ import annotations

import io
import ipaddress
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alert_sift import features
from alert_sift.errors import ValidationError
from alert_sift.features import (
    FeatureProfile,
    ScalingCaps,
    as_matrix,
    chi2_select,
    encode_alert,
    encode_counter,
    encode_http_status,
    feature_names,
    ip_diff,
    is_private,
    keyword_flags,
    load_caps,
    read_matrix_csv,
    scale_ip,
    scale_payload,
    scale_port,
    scale_rule_sid,
    screen_features,
    write_matrix_csv,
)
from alert_sift.ingest import parse_alert_record

from conftest import make_line


def test_scale_port_examples():
    assert scale_port(0) == 0.0
    assert scale_port(65535) == 1.0
    assert scale_port(443) == 0.01


def test_scale_port_range_enforced():
    with pytest.raises(ValidationError):
        scale_port(65536)
    with pytest.raises(ValidationError):
        scale_port(-1)


def test_scale_port_at_most_101_classes():
    assert len({scale_port(p) for p in range(65536)}) <= 101


def test_scale_ip_examples():
    assert scale_ip("0.0.0.0") == 0.0
    assert scale_ip("255.255.255.255") == 1.0
    assert scale_ip("10.0.0.1") == 0.039


def test_scale_ip_v6_uses_top_64_bits():
    assert scale_ip("::") == 0.0
    assert scale_ip("ffff:ffff:ffff:ffff::") == 1.0
    # low 64 bits are irrelevant
    assert scale_ip("2001:db8::1") == scale_ip("2001:db8::ffff")


def test_scale_ip_three_decimal_grid():
    rng = np.random.default_rng(7)
    for raw in rng.integers(0, 2**32, size=2000):
        addr = ".".join(str((int(raw) >> s) & 0xFF) for s in (24, 16, 8, 0))
        value = scale_ip(addr)
        assert abs(value * 1000 - round(value * 1000)) < 1e-9


def test_is_private_ranges():
    assert is_private("192.168.1.5") == 1.0
    assert is_private("8.8.8.8") == 0.0
    assert is_private("172.31.255.1") == 1.0
    assert is_private("172.32.0.1") == 0.0
    assert is_private("10.0.0.0") == 1.0
    assert is_private("11.0.0.0") == 0.0
    assert is_private("fc00::1") == 1.0
    assert is_private("fd12::1") == 1.0
    assert is_private("fe80::1") == 0.0


# Reference encoding: addresses through ipaddress objects and `ip in net`,
# every other entry through its public helper. encode_alert (one parse per
# address, integer intervals) must match it exactly.
_ORACLE_PRIVATE_V4 = [
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
]
_ORACLE_PRIVATE_V6 = ipaddress.ip_network("fc00::/7")


def oracle_scale_ip(addr: str) -> float:
    ip = ipaddress.ip_address(addr)
    if ip.version == 4:
        return round(int(ip) / (2**32 - 1), 3)
    return round((int(ip) >> 64) / (2**64 - 1), 3)


def oracle_is_private(addr: str) -> float:
    ip = ipaddress.ip_address(addr)
    if ip.version == 4:
        return 1.0 if any(ip in net for net in _ORACLE_PRIVATE_V4) else 0.0
    return 1.0 if ip in _ORACLE_PRIVATE_V6 else 0.0


def oracle_encode(alert, profile: FeatureProfile, caps: ScalingCaps) -> tuple[float, ...]:
    sip = oracle_scale_ip(alert.src_ip)
    dip = oracle_scale_ip(alert.dst_ip)
    flags = keyword_flags(alert.rule_description, alert.class_type, profile)
    return (
        oracle_is_private(alert.src_ip),
        oracle_is_private(alert.dst_ip),
        sip,
        dip,
        ip_diff(sip, dip),
        encode_http_status(alert.http_status),
        encode_counter(alert.pkts_to_server, caps.pkts_cap),
        encode_counter(alert.pkts_to_client, caps.pkts_cap),
        encode_counter(alert.bytes_to_server, caps.bytes_cap),
        encode_counter(alert.bytes_to_client, caps.bytes_cap),
        scale_rule_sid(alert.rule_sid, caps.sid_max),
        *flags[:6],
        scale_port(alert.src_port),
        scale_port(alert.dst_port),
        scale_payload(alert.payload_len, caps.payload_cap),
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
    assert is_private(addr) == oracle_is_private(addr) == private


@pytest.mark.parametrize("addr", _SPECIAL_NOT_PRIVATE)
def test_special_ranges_encode_as_not_private(addr):
    assert is_private(addr) == oracle_is_private(addr) == 0.0
    vec = encode_alert(parse_alert_record(make_line(src_ip=addr, dest_ip=addr)))
    assert vec[:2] == (0.0, 0.0)


def test_ip_diff_examples():
    assert ip_diff(0.5, 0.5) == 0.0
    assert ip_diff(1.0, 0.0) == 1.0
    assert ip_diff(0.039, 0.5) == 0.461


def test_ip_diff_validates_inputs():
    with pytest.raises(ValidationError):
        ip_diff(-0.1, 0.5)
    with pytest.raises(ValidationError):
        ip_diff(0.2, 1.5)


def test_http_status_examples():
    assert encode_http_status(None) == 0.0
    assert encode_http_status(404) == 0.404
    assert encode_http_status(200) == 0.2


def test_http_status_range_enforced():
    for bad in (99, 600):
        with pytest.raises(ValidationError):
            encode_http_status(bad)


def test_counter_examples():
    assert encode_counter(None, 10_000) == -1.0
    assert encode_counter(0, 10_000) == 0.0
    assert encode_counter(10_000, 10_000) == 1.0
    assert encode_counter(25_000, 10_000) == 1.0
    assert encode_counter(5_432, 10_000) == 0.54


def test_rule_sid_examples():
    assert scale_rule_sid(0, 10_000_000) == 0.0
    assert scale_rule_sid(10_000_000, 10_000_000) == 1.0
    assert scale_rule_sid(2027863, 10_000_000) == 0.203


def test_payload_scaling_saturates():
    assert scale_payload(0, 65535) == 0.0
    assert scale_payload(65535, 65535) == 1.0
    assert scale_payload(100_000, 65535) == 1.0


@pytest.mark.parametrize("cap", [0, -3])
def test_payload_scaling_refuses_a_cap_below_one(cap):
    with pytest.raises(ValidationError, match=f"cap must be >= 1, got {cap}"):
        scale_payload(5, cap)


def test_keyword_flags_core_examples():
    flags = keyword_flags(
        "ET EXPLOIT CVE-2021-44228 attempt", "attempted-admin", FeatureProfile.CORE20
    )
    named = dict(zip(["CVE", "attack", "EXPLOIT", "POSSIBLE", "activity", "attempt"], flags))
    assert named == {
        "CVE": 1.0,
        "attack": 0.0,
        "EXPLOIT": 1.0,
        "POSSIBLE": 0.0,
        "activity": 0.0,
        "attempt": 1.0,
    }


def test_keyword_flags_empty_inputs():
    assert set(keyword_flags("", "", FeatureProfile.FULL29)) == {0.0}


def test_keyword_flags_description_match_is_case_sensitive():
    flags = keyword_flags("ET SCAN Possible Nmap", "", FeatureProfile.FULL29)
    names = feature_names(FeatureProfile.FULL29)
    by_name = dict(zip(names[11:17] + names[20:], flags))
    assert by_name["SCAN"] == 1.0
    assert by_name["POSSIBLE"] == 0.0


def test_keyword_flags_class_match_is_case_folded():
    flags = keyword_flags("", "Attempted-Admin", FeatureProfile.CORE20)
    named = dict(zip(["CVE", "attack", "EXPLOIT", "POSSIBLE", "activity", "attempt"], flags))
    assert named["attempt"] == 1.0


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
        ("http_status", 600, "http_status out of range: 600"),
        ("pkts_to_server", -1, "counter must be >= 0, got -1"),
        ("bytes_to_client", -2, "counter must be >= 0, got -2"),
        ("rule_sid", -1, "rule_sid must be >= 0, got -1"),
        ("src_port", 65536, "port out of range: 65536"),
        ("dst_port", -1, "port out of range: -1"),
        ("payload_len", -1, "payload_len must be >= 0, got -1"),
    ],
)
def test_encode_refuses_an_out_of_range_field_with_the_helpers_error(field, value, message):
    alert = parse_alert_record(make_line())._replace(**{field: value})
    with pytest.raises(ValidationError) as info:
        encode_alert(alert)
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
    # helper's formula, so it is refused as record_to_alert refuses it
    alert = parse_alert_record(make_line())._replace(**{field: value})
    with pytest.raises(ValidationError) as info:
        encode_alert(alert)
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
    # a hand-built RawAlert skips record_to_alert; encoding fails closed with its texts
    alert = parse_alert_record(make_line())._replace(**{field: value})
    with pytest.raises(ValidationError) as info:
        encode_alert(alert, FeatureProfile.FULL29)
    assert str(info.value) == message


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


# Step tables. Each helper is a non-decreasing function of an integer
# (correctly rounded division, then correctly rounded round), so a table is
# exact iff at each threshold t the helper steps from the previous value to
# this one, and the last value holds to the domain's end.
_ODD_CAPS = [1, 3, 7919, 999_983]


def _lookup(table, v):
    thresholds, values = table
    return values[bisect_right(thresholds, v) - 1]


def _address_formula(bits):
    return lambda v: round(v / (2**bits - 1), 3)


def _cap_tables():
    # (name, helper of one integer, table, largest integer to check)
    for caps in [ScalingCaps()] + [ScalingCaps(c, c, c, c) for c in _ODD_CAPS]:
        for name, helper, cap, table in zip(
            ["pkts", "bytes", "sid", "payload"],
            [encode_counter, encode_counter, scale_rule_sid, scale_payload],
            [caps.pkts_cap, caps.bytes_cap, caps.sid_max, caps.payload_cap],
            features._cap_steps(caps),
        ):
            yield f"{name}@{cap}", lambda v, h=helper, c=cap: h(v, c), table, 3 * cap + 1


def _all_tables():
    yield "port", scale_port, (features._PORT_AT, features._PORTS), 65535
    yield "http_status", encode_http_status, (features._STATUS_AT, features._STATUSES), 599
    yield ("ipv4", _address_formula(32),
           (features._IPV4_THRESHOLDS, features._ADDRESS_GRID), 2**32 - 1)
    yield ("ipv6", _address_formula(64),
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
    assert [len(t[0]) for t in features._cap_steps(ScalingCaps())] == [101, 101, 1001, 1001]
    assert [len(t[0]) for t in features._cap_steps(ScalingCaps(3, 3, 3, 3))] == [4, 4, 4, 4]


def test_step_tables_match_the_helpers_over_cheap_domains():
    port_table = (features._PORT_AT, features._PORTS)
    assert [_lookup(port_table, p) for p in range(65536)] == [scale_port(p) for p in range(65536)]
    status_table = (features._STATUS_AT, features._STATUSES)
    assert [_lookup(status_table, s) for s in range(100, 600)] == [
        encode_http_status(s) for s in range(100, 600)
    ]
    pkts = features._cap_steps(ScalingCaps())[0]
    assert [_lookup(pkts, v) for v in range(10_002)] == [
        encode_counter(v, 10_000) for v in range(10_002)
    ]


def test_ip_diff_is_the_grid_value_at_the_index_distance():
    # encode_alert's diff entry is grid[|ks - kd|]; ip_diff rounds the
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
    description=st.text(max_size=60),
    category=st.text(max_size=30),
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
        pkts, nbytes, sids, payloads = features._cap_steps(caps or ScalingCaps())
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
    assert (is_private(src_ip), scale_ip(src_ip)) == (oracle_is_private(src_ip),
                                                      oracle_scale_ip(src_ip))


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
    with pytest.raises(ValidationError):
        load_caps(["pkts_cap=abc"])
    with pytest.raises(ValidationError):
        ScalingCaps(pkts_cap=0)


def test_feature_vector_width_validated():
    with pytest.raises(ValidationError):
        as_matrix([(0.0,) * 20, (0.0,) * 19])
    with pytest.raises(ValidationError):
        as_matrix([(0.0, "x")])


def test_screen_constant_column_flagged():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    report = screen_features(X, [0, 1, 0, 1])
    assert report.variance[0] == 0.0
    assert report.flagged == [0]
    assert report.pearson[1] == pytest.approx(1.0)


def test_screen_anticorrelated_column():
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    report = screen_features(X, [1, 0, 1, 0])
    assert report.pearson[0] == pytest.approx(-1.0)


def _naive_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return cov / (sx * sy)


def test_screen_matches_naive_two_pass_pearson():
    rng = np.random.default_rng(11)
    X = rng.random((40, 6))
    y = rng.integers(0, 2, size=40)
    report = screen_features(X, y)
    for j in range(6):
        expected = _naive_pearson(X[:, j].tolist(), y.tolist())
        assert report.pearson[j] == pytest.approx(expected, abs=1e-12)
        assert report.variance[j] == pytest.approx(float(np.var(X[:, j])), abs=1e-12)


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
    out = io.StringIO()
    write_matrix_csv(out, np.array([[0.5, 1.0]]), None, ["a", "b"])
    X, labels, names = read_matrix_csv(io.StringIO(out.getvalue()))
    assert labels is None
    assert names == ["a", "b"]
    assert X.tolist() == [[0.5, 1.0]]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_matrix_csv_rejects_non_finite_cells(cell):
    text = f"a,b,label\n0.5,1.0,1\n0.25,{cell},0\n"
    with pytest.raises(ValidationError, match="line 3: non-finite"):
        read_matrix_csv(io.StringIO(text))
