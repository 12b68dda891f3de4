"""Deterministic generator of labeled synthetic alert corpora.

Each base alert belongs to a rule whose analyst comment carries the
keywords the weak labeler looks for, so the generated corpus exercises the
whole pipeline. Class signal is planted per marker group (signature text,
class type, addressing, HTTP status, volume counters, service port): with
probability signal_strength the value comes from the alert's own class
pool, otherwise from the union of both pools. At signal_strength 0 the
classes are therefore statistically identical.

Every base alert is replicated duplication_factor times with only the
ephemeral source port varying, reproducing the sensor-duplication
pathology the dedup sampler exists for. Timestamps spread uniformly over
a 180-day window so a date cut gives a time-disjoint train/test split.

A corpus is stored as drawn: one record per base alert (``src_port`` 0 in
its key position), that alert's tuple of duplicate ports and its label.
``write_alerts`` encodes each base record once, with a marker for the
port, and writes every duplicate by putting its port between the two
halves; the ``alerts`` and ``truth`` views expand the duplicates only for
callers that want them as dicts and labels.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import cached_property
from typing import IO

from .errors import ValidationError, check_int, check_number

_WINDOW_START = datetime(2025, 1, 1, tzinfo=timezone.utc)
_WINDOW_DAYS = 180

# Marker pools. TP descriptions favor exploit/trojan tokens, TP class
# types contain attack/attempt/activity substrings; FP pools look like
# policy and scanner noise. The booleans these trip are documented in the
# feature table.
_TP_DESCRIPTIONS = (
    "ET EXPLOIT Apache Log4j RCE Attempt CVE-2021-44228",
    "ET EXPLOIT POSSIBLE EternalBlue SMB Probe CVE-2017-0144",
    "ET TROJAN Cobalt Strike Beacon Observed",
    "GPL EXPLOIT ATTEMPT Admin Share Access CVE-2019-0708",
    "ET TROJAN INBOUND Suspicious Stager Download CVE-2020-1472",
)
_FP_DESCRIPTIONS = (
    "ET POLICY Windows Update Flow Detected",
    "ET INFO Internal Health Probe Heartbeat",
    "SURICATA HTTP WEB_SERVER Status Page Fetch",
    "ET SCAN Internal Nessus Scheduled Sweep",
    "ET POLICY Dropbox Client Sync Traffic",
)
_TP_CLASS_TYPES = (
    "attempted-admin",
    "trojan-activity",
    "targeted-attack",
    "shellcode-detect",
    "successful-admin",
)
_FP_CLASS_TYPES = (
    "policy-violation",
    "not-suspicious",
    "network-scan",
    "protocol-command-decode",
    "unknown",
)
_TP_SRC_PREFIXES = ("203.0.113.", "198.51.100.", "192.0.2.", "185.220.101.")
_FP_SRC_PREFIXES = ("192.168.10.", "192.168.22.", "10.4.8.", "172.16.31.")
_DST_PREFIXES = ("10.20.30.", "10.20.31.", "172.20.1.")
_TP_HTTP_STATUSES = (403, 404, 500, 502)
_FP_HTTP_STATUSES = (200, 200, 204, 301)
_TP_DST_PORTS = (445, 3389, 22, 8080, 8443)
_FP_DST_PORTS = (80, 443, 53, 123, 8530)
# volume ranges: (pkts lo-hi, bytes lo-hi, payload lo-hi)
_TP_VOLUME = ((20, 200), (5_000, 80_000), (400, 1_400))
_FP_VOLUME = ((1, 15), (100, 3_000), (0, 200))
# label -> its marker pools, in the order generate_corpus indexes them
_POOLS = {
    1: (_TP_DESCRIPTIONS, _TP_CLASS_TYPES, _TP_SRC_PREFIXES, _TP_HTTP_STATUSES, _TP_DST_PORTS,
        _TP_VOLUME),
    0: (_FP_DESCRIPTIONS, _FP_CLASS_TYPES, _FP_SRC_PREFIXES, _FP_HTTP_STATUSES, _FP_DST_PORTS,
        _FP_VOLUME),
}

# Comment templates; each contains exactly one class's label keywords and
# none of the other's (watch for accidental substrings like "present").
_TP_COMMENTS = (
    "Investigated and alerted the customer SOC.",
    "Escalation sent to the on-call analyst.",
    "Confirmed malicious activity; alerted tier two.",
)
_FP_COMMENTS = (
    "Known benign scanner traffic from the IT subnet.",
    "Expected maintenance window behavior.",
    "Source whitelisted at customer request.",
)


@dataclass(frozen=True)
class SynthSpec:
    n_tp: int = field(default=982, metadata={"least": 0})
    n_fp: int = field(default=1126, metadata={"least": 0})
    n_rules: int = field(default=200, metadata={"least": 1})
    duplication_factor: int = field(default=50, metadata={"least": 1})
    signal_strength: float = 0.9
    seed: int = 42

    def __post_init__(self):
        for spec in fields(self):
            if spec.name != "signal_strength":
                check_int(spec.name, getattr(self, spec.name), spec.metadata.get("least"))
        if self.n_rules < 2 and self.n_tp > 0 and self.n_fp > 0:
            raise ValidationError("n_rules must be >= 2 when both classes have alerts")
        check_number("signal_strength", self.signal_strength)
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValidationError("signal_strength must be in [0, 1]")


@dataclass(frozen=True)
class SynthCorpus:
    """Base records in emission order, their duplicate ports and labels, and rule comments.

    Base alert i is written once per port in ``ports[i]``: ``records[i]``
    with that ``src_port``, labelled ``labels[i]``.
    """

    records: tuple[dict, ...]  # src_port 0, set per duplicate
    ports: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]  # 1 = TP
    comments: tuple[tuple[str, str], ...]  # (rule_uuid, rev_comment)

    @cached_property
    def alerts(self) -> tuple[dict, ...]:
        """Every duplicate as its own alert dict, in emission order."""
        return tuple(
            dict(record, src_port=port)
            for record, ports in zip(self.records, self.ports)
            for port in ports
        )

    @cached_property
    def truth(self) -> tuple[int, ...]:
        """The label of each alert, aligned with ``alerts``."""
        return tuple(label for label, ports in zip(self.labels, self.ports) for _ in ports)


def _pick(rng: random.Random, own: tuple, other: tuple, strength: float):
    if rng.random() < strength:
        return own[rng.randrange(len(own))]
    pool = own + other
    return pool[rng.randrange(len(pool))]


def _volume(rng: random.Random, own, other, strength: float) -> tuple[int, int, int]:
    ranges = _pick(rng, (own,), (other,), strength)
    pkts, byts, payload = ranges
    return (
        rng.randint(*pkts),
        rng.randint(*byts),
        rng.randint(*payload),
    )


def _rule_table(spec: SynthSpec, rng: random.Random) -> tuple[list[dict], list[dict]]:
    """Rules with uuid, sid, and a class-consistent analyst comment."""
    if spec.n_tp > 0 and spec.n_fp > 0:
        n_tp_rules = spec.n_rules // 2
        n_fp_rules = spec.n_rules - n_tp_rules
    elif spec.n_tp > 0:
        n_tp_rules, n_fp_rules = spec.n_rules, 0
    else:
        n_tp_rules, n_fp_rules = 0, spec.n_rules

    def make(count: int, comments: tuple[str, ...]) -> list[dict]:
        rules = []
        for _ in range(count):
            rules.append(
                {
                    "uuid": f"{rng.getrandbits(128):032x}",
                    "sid": rng.randint(2_000_000, 2_999_999),
                    "comment": comments[rng.randrange(len(comments))],
                }
            )
        return rules

    return make(n_tp_rules, _TP_COMMENTS), make(n_fp_rules, _FP_COMMENTS)


def generate_corpus(spec: SynthSpec) -> SynthCorpus:
    rng = random.Random(spec.seed)
    tp_rules, fp_rules = _rule_table(spec, rng)
    s = spec.signal_strength

    base_alerts: list[tuple[str, int, dict, int]] = []  # (timestamp key, order, record, label)
    order = 0
    for label, count, rules in ((1, spec.n_tp, tp_rules), (0, spec.n_fp, fp_rules)):
        own, other = _POOLS[label], _POOLS[1 - label]
        for _ in range(count):
            rule = rules[rng.randrange(len(rules))]
            when = _WINDOW_START + timedelta(
                seconds=rng.randrange(_WINDOW_DAYS * 86_400)
            )
            stamp = when.strftime("%Y-%m-%dT%H:%M:%SZ")
            pkts_s, bytes_s, payload = _volume(rng, own[5], other[5], s)
            record = {
                "timestamp": stamp,
                "src_ip": _pick(rng, own[2], other[2], s) + str(rng.randint(1, 254)),
                "dest_ip": _DST_PREFIXES[rng.randrange(len(_DST_PREFIXES))]
                + str(rng.randint(1, 254)),
                "src_port": 0,  # one per duplicate, in SynthCorpus.ports
                "dest_port": int(_pick(rng, own[4], other[4], s)),
                "rule_uuid": rule["uuid"],
                "action": "alert",
                "alert": {
                    "signature_id": rule["sid"],
                    "signature": _pick(rng, own[0], other[0], s),
                    "category": _pick(rng, own[1], other[1], s),
                },
                "http": {"status": int(_pick(rng, own[3], other[3], s))},
                "flow": {
                    "pkts_toserver": pkts_s,
                    "pkts_toclient": max(1, pkts_s // 2),
                    "bytes_toserver": bytes_s,
                    "bytes_toclient": max(60, bytes_s // 3),
                },
                "payload_len": payload,
            }
            base_alerts.append((stamp, order, record, label))
            order += 1

    base_alerts.sort(key=lambda item: (item[0], item[1]))
    copies = range(spec.duplication_factor)
    ports = tuple(tuple(rng.randint(1024, 65535) for _ in copies) for _ in base_alerts)

    comments = tuple(
        (rule["uuid"], rule["comment"]) for rule in tp_rules + fp_rules
    )
    return SynthCorpus(
        records=tuple(record for _, _, record, _ in base_alerts),
        ports=ports,
        labels=tuple(label for _, _, _, label in base_alerts),
        comments=comments,
    )


# no pool value holds a NUL, so the quoted marker appears once, as src_port
_PORT_MARKER = "\0port"
_QUOTED_MARKER = json.dumps(_PORT_MARKER)


def write_alerts(corpus: SynthCorpus, stream: IO[str]) -> None:
    """Write each alert as ``json.dumps(alert, sort_keys=True)``, one line each.

    Each base record is encoded once with the port marker as its src_port;
    every duplicate is the text around the marker with its port in between.
    """
    for record, ports in zip(corpus.records, corpus.ports):
        line = json.dumps(dict(record, src_port=_PORT_MARKER), sort_keys=True)
        head, _, tail = line.partition(_QUOTED_MARKER)
        stream.write("".join([f"{head}{port}{tail}\n" for port in ports]))


def write_comments(corpus: SynthCorpus, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["rule_uuid", "rev_comment"])
    for uuid, comment in corpus.comments:
        writer.writerow([uuid, comment])


def write_truth(corpus: SynthCorpus, stream: IO[str]) -> None:
    """Write the ``index,label`` CSV of every alert as one string.

    Two integers need no CSV quoting; the rows of one base alert share its
    label, so they are its indices joined by ``,<label>\\n``.
    """
    parts, start = ["index,label\n"], 0
    for label, ports in zip(corpus.labels, corpus.ports):
        stop = start + len(ports)
        row_end = f",{label}\n"
        parts.append(row_end.join(map(str, range(start, stop))) + row_end)
        start = stop
    stream.write("".join(parts))
