"""Fixed-order numeric encoding of alerts, feature screening, and selection.

Every alert becomes a vector of floats in [-1.0, 1.0] with a fixed layout:
the 20-entry core profile, or the 29-entry full profile that appends nine
extra keyword flags. Scaled fields are bucketed by rounding: ports to 2
decimal places (101 classes), IPs / rule sid / payload length to 3 decimal
places (1,001 classes). Flow counters use -1.00 as the missing-value
sentinel; all other entries are non-negative.

Each address is parsed once per alert, by ``ingest.ip_value``, and both its
entries (private flag and scaled value) come from that one integer. The
private ranges are integer intervals computed once from the networks below,
so the flag is exactly ``ip in net`` over them (not ``ipaddress``'s own
``is_private``, which also counts loopback, link-local and others).
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import RawAlert, ip_value

PORT_MAX = 65535

# (feature name, source text, keyword). Description keywords are matched
# case-sensitively (uppercase signature tokens); class-type keywords are
# lowercase and matched against the lowercased class string.
_KEYWORD_FEATURES_CORE: list[tuple[str, str, str]] = [
    ("CVE", "description", "CVE"),
    ("attack", "class", "attack"),
    ("EXPLOIT", "description", "EXPLOIT"),
    ("POSSIBLE", "description", "POSSIBLE"),
    ("activity", "class", "activity"),
    ("attempt", "class", "attempt"),
]
_KEYWORD_FEATURES_EXTRA: list[tuple[str, str, str]] = [
    ("SCAN", "description", "SCAN"),
    ("POLICY", "description", "POLICY"),
    ("WEB_SERVER", "description", "WEB_SERVER"),
    ("TROJAN", "description", "TROJAN"),
    ("ATTEMPT", "description", "ATTEMPT"),
    ("INBOUND", "description", "INBOUND"),
    ("UNUSUAL", "description", "UNUSUAL"),
    ("dot", "description", "."),
    ("policy", "class", "policy"),
]

_CORE_NAMES = [
    "priv_src_ip",
    "priv_dst_ip",
    "sip",
    "dip",
    "diff",
    "http_status",
    "pkt_to_svr",
    "pkt_to_clt",
    "byt_to_svr",
    "byt_to_clt",
    "rulesid",
    "CVE",
    "attack",
    "EXPLOIT",
    "POSSIBLE",
    "activity",
    "attempt",
    "sport",
    "dport",
    "PAYLOAD_Bytes",
]
_EXTRA_NAMES = [name for name, _, _ in _KEYWORD_FEATURES_EXTRA]

_PRIVATE_V4 = [
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
]
_PRIVATE_V6 = ipaddress.ip_network("fc00::/7")

# IP version -> (first, last) integer value of each private network
_PRIVATE_SPANS = {
    4: tuple((int(net.network_address), int(net.broadcast_address)) for net in _PRIVATE_V4),
    6: ((int(_PRIVATE_V6.network_address), int(_PRIVATE_V6.broadcast_address)),),
}


class FeatureProfile(Enum):
    CORE20 = "core20"
    FULL29 = "full29"

    @property
    def width(self) -> int:
        return 20 if self is FeatureProfile.CORE20 else 29


_KEYWORD_SPEC = {
    FeatureProfile.CORE20: _KEYWORD_FEATURES_CORE,
    FeatureProfile.FULL29: _KEYWORD_FEATURES_CORE + _KEYWORD_FEATURES_EXTRA,
}


def feature_names(profile: FeatureProfile) -> list[str]:
    """Ordered column names for the given profile."""
    if profile is FeatureProfile.CORE20:
        return list(_CORE_NAMES)
    return _CORE_NAMES + _EXTRA_NAMES


@dataclass(frozen=True)
class ScalingCaps:
    """Saturation caps for min-max scaled fields (config-exposed defaults)."""

    pkts_cap: int = 10_000
    bytes_cap: int = 1_000_000
    payload_cap: int = PORT_MAX
    sid_max: int = 10_000_000

    def __post_init__(self):
        for name in ("pkts_cap", "bytes_cap", "payload_cap", "sid_max"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")


_DEFAULT_CAPS = ScalingCaps()


def load_caps(source: Iterable[str]) -> ScalingCaps:
    """Read a ``name=value`` caps file; unlisted caps keep defaults."""
    known = {"pkts_cap", "bytes_cap", "payload_cap", "sid_max"}
    overrides: dict[str, int] = {}
    for line_no, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        name, sep, value = text.partition("=")
        name = name.strip()
        if not sep or name not in known:
            raise ValidationError(f"caps line {line_no}: expected one of {sorted(known)}=value")
        try:
            overrides[name] = int(value.strip())
        except ValueError:
            raise ValidationError(f"caps line {line_no}: {value.strip()!r} is not an integer")
    return ScalingCaps(**overrides)


def scale_port(port: int) -> float:
    """Bucket a port into 101 classes: round(port / 65535, 2)."""
    if not 0 <= port <= PORT_MAX:
        raise ValidationError(f"port out of range: {port}")
    return round(port / PORT_MAX, 2)


def _address(addr: str) -> tuple[float, float]:
    """(private flag, scaled value) of an address, from one parse."""
    version, value = ip_value(addr)
    private = 0.0
    for first, last in _PRIVATE_SPANS[version]:
        if first <= value <= last:
            private = 1.0
            break
    if version == 4:
        return private, round(value / (2**32 - 1), 3)
    return private, round((value >> 64) / (2**64 - 1), 3)


def scale_ip(addr: str) -> float:
    """Bucket an address into 1,001 classes over its numeric space.

    IPv4 scales the 32-bit value; IPv6 scales the top 64 bits.
    """
    return _address(addr)[1]


def is_private(addr: str) -> float:
    """1.0 iff the address is in a reserved private range, else 0.0."""
    return _address(addr)[0]


def ip_diff(src_scaled: float, dst_scaled: float) -> float:
    """Absolute difference of two scaled addresses, 3 decimal places."""
    for value in (src_scaled, dst_scaled):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"scaled IP out of range: {value}")
    return round(abs(src_scaled - dst_scaled), 3)


def encode_http_status(status: int | None) -> float:
    """Missing -> 0.000; present -> status / 1000."""
    if status is None:
        return 0.0
    if not 100 <= status <= 599:
        raise ValidationError(f"http_status out of range: {status}")
    return round(status / 1000, 3)


def encode_counter(value: int | None, cap: int) -> float:
    """Missing -> -1.00; else saturate at cap and scale to [0, 1], 2 decimals."""
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    if value is None:
        return -1.0
    if value < 0:
        raise ValidationError(f"counter must be >= 0, got {value}")
    return round(min(value, cap) / cap, 2)


def scale_rule_sid(sid: int, sid_max: int) -> float:
    """Saturate the signature id at sid_max and scale, 3 decimal places."""
    if sid_max < 1:
        raise ValidationError(f"sid_max must be >= 1, got {sid_max}")
    if sid < 0:
        raise ValidationError(f"rule_sid must be >= 0, got {sid}")
    return round(min(sid, sid_max) / sid_max, 3)


def scale_payload(length: int, cap: int) -> float:
    if length < 0:
        raise ValidationError(f"payload_len must be >= 0, got {length}")
    return round(min(length, cap) / cap, 3)


def keyword_flags(
    rule_description: str, class_type: str, profile: FeatureProfile
) -> list[float]:
    """{0,1} flag per keyword feature, in fixed layout order."""
    class_folded = class_type.lower()
    return [
        1.0 if keyword in (rule_description if source == "description" else class_folded) else 0.0
        for _, source, keyword in _KEYWORD_SPEC[profile]
    ]


def encode_alert(
    alert: RawAlert,
    profile: FeatureProfile = FeatureProfile.CORE20,
    caps: ScalingCaps | None = None,
) -> tuple[float, ...]:
    """Assemble the full fixed-order vector for one alert.

    Each address is parsed once, for both its entries.
    """
    if caps is None:
        caps = _DEFAULT_CAPS
    src_private, sip = _address(alert.src_ip)
    dst_private, dip = _address(alert.dst_ip)
    flags = keyword_flags(alert.rule_description, alert.class_type, profile)
    return (
        src_private,
        dst_private,
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


def as_matrix(rows: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Stack rows into an (n, width) float array; a float array is not copied."""
    try:
        X = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"rows do not form a float matrix: {exc}") from None
    if X.ndim != 2:
        raise ValidationError(f"matrix must be 2-dimensional, got shape {X.shape}")
    return X


@dataclass
class ScreenReport:
    """Per-column population variance and Pearson r against the label.

    Columns where r is undefined (zero variance on either side) carry None
    and are listed in flagged.
    """

    variance: list[float]
    pearson: list[float | None]

    @property
    def flagged(self) -> list[int]:
        return [i for i, r in enumerate(self.pearson) if r is None]


def screen_features(matrix: np.ndarray, labels: Sequence[int]) -> ScreenReport:
    """Variance and label correlation per feature column."""
    X = as_matrix(matrix)
    y = np.asarray(labels, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise ValidationError("screening needs at least 2 samples")
    variance = np.var(X, axis=0)
    y_centered = y - y.mean()
    y_norm = float(np.sqrt(np.sum(y_centered**2)))
    pearson: list[float | None] = []
    for j in range(X.shape[1]):
        col = X[:, j] - X[:, j].mean()
        col_norm = float(np.sqrt(np.sum(col**2)))
        if col_norm == 0.0 or y_norm == 0.0:
            pearson.append(None)
        else:
            pearson.append(float(np.dot(col, y_centered) / (col_norm * y_norm)))
    return ScreenReport(variance=[float(v) for v in variance], pearson=pearson)


@dataclass
class SelectionResult:
    chi2_scores: list[float]
    selected_indices: list[int]  # descending score, ties by lower index


def chi2_select(matrix: np.ndarray, labels: Sequence[int], k: int) -> SelectionResult:
    """Score features by the chi-squared statistic and keep the top k.

    Feature values are treated as non-negative frequency mass: per class c
    the observed mass is the in-class column sum and the expected mass is
    the column total weighted by the class prior. Features with zero total
    mass score 0.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    X = as_matrix(matrix)
    y = np.asarray(labels)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if np.any(X < 0):
        raise ValidationError("chi2 requires non-negative feature values")
    n = X.shape[0]
    classes = np.unique(y)
    observed = np.array([X[y == c].sum(axis=0) for c in classes])  # (n_classes, width)
    priors = np.array([(y == c).sum() / n for c in classes])
    totals = observed.sum(axis=0)
    expected = np.outer(priors, totals)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    scores = np.where(totals > 0, terms.sum(axis=0), 0.0)
    width = X.shape[1]
    order = sorted(range(width), key=lambda j: (-scores[j], j))
    return SelectionResult(
        chi2_scores=[float(s) for s in scores],
        selected_indices=order[: min(k, width)],
    )


def write_matrix_csv(
    stream: IO[str],
    matrix: np.ndarray,
    labels: Sequence[int] | None,
    names: Sequence[str],
) -> None:
    """Export a feature matrix as CSV: named columns plus trailing label."""
    X = as_matrix(matrix)
    if X.shape[1] != len(names):
        raise ValidationError(f"{X.shape[1]} columns vs {len(names)} names")
    header = list(names) + (["label"] if labels is not None else [])
    stream.write(",".join(header) + "\n")
    for i in range(X.shape[0]):
        row = [repr(float(v)) for v in X[i]]
        if labels is not None:
            row.append(str(int(labels[i])))
        stream.write(",".join(row) + "\n")


def read_matrix_csv(
    source: Iterable[str],
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Read a matrix CSV; returns (X, labels or None, feature names)."""
    lines = iter(source)
    try:
        header = next(lines).rstrip("\n").split(",")
    except StopIteration:
        raise ValidationError("matrix CSV is empty") from None
    has_label = header and header[-1] == "label"
    names = header[:-1] if has_label else header
    rows: list[list[float]] = []
    labels: list[int] = []
    for line_no, line in enumerate(lines, start=2):
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != len(header):
            raise ValidationError(
                f"matrix CSV line {line_no}: expected {len(header)} columns, got {len(parts)}"
            )
        try:
            if has_label:
                rows.append([float(p) for p in parts[:-1]])
                labels.append(int(parts[-1]))
            else:
                rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(f"matrix CSV line {line_no}: {exc}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValidationError(f"matrix CSV line {line_no}: non-finite value")
    X = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return X, (np.array(labels, dtype=int) if has_label else None), names
