"""Shared builders for alert records used across the test modules."""

from __future__ import annotations

import json
import warnings

import pytest

from alert_sift.ingest import parse_alert_record

# hypothesis imports this module lazily, while it reports a failing example;
# with libcst installed the import warns, and under -W error the report then
# ends in INTERNALERROR instead of the falsifying example. Import it here once,
# ignoring only that DeprecationWarning; every test still runs with warnings as
# errors, as pyproject.toml's filterwarnings sets.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional
        pass


def make_record(**overrides) -> dict:
    """A valid EVE-style alert dict; override any top-level or nested key."""
    record = {
        "timestamp": "2025-03-04T10:20:30Z",
        "src_ip": "203.0.113.7",
        "src_port": 51515,
        "dest_ip": "10.20.30.40",
        "dest_port": 443,
        "rule_uuid": "rule-aaa",
        "action": "alert",
        "alert": {
            "signature_id": 2027863,
            "signature": "ET EXPLOIT Possible CVE-2020-11899 Exploit",
            "category": "attempted-admin",
        },
        "http": {"status": 404},
        "flow": {
            "pkts_toserver": 4,
            "pkts_toclient": 6,
            "bytes_toserver": 1200,
            "bytes_toclient": 5400,
        },
        "payload_len": 320,
    }
    for key, value in overrides.items():
        if value is None:
            record.pop(key, None)
        else:
            record[key] = value
    return record


def make_line(**overrides) -> str:
    return json.dumps(make_record(**overrides))


@pytest.fixture
def alert():
    return parse_alert_record(make_line())
