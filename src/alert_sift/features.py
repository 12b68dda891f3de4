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

The scaling helpers (``scale_port``, ``encode_counter`` and the rest) define
every scaled entry, but ``encode_alert`` reads each one from a step table: the
integers at which the helper's output changes, and its output at each. The
tables are built from the helpers, once per cap value, and are exact.
"""

from __future__ import annotations

import ipaddress
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import IO, Callable, Iterable, NoReturn, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import RawAlert, _validate_ip, ip_value

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


def _address(addr: str) -> tuple[float, int]:
    """(private flag, index of the scaled value in _ADDRESS_GRID) of an address, from one parse."""
    version, value = ip_value(addr)
    private = 0.0
    for first, last in _PRIVATE_SPANS[version]:
        if first <= value <= last:
            private = 1.0
            break
    if version == 4:
        return private, bisect_right(_IPV4_THRESHOLDS, value) - 1
    return private, bisect_right(_ipv6_thresholds(), value >> 64) - 1


def scale_ip(addr: str) -> float:
    """Bucket an address into 1,001 classes over its numeric space.

    IPv4 scales the 32-bit value; IPv6 scales the top 64 bits.
    """
    return _ADDRESS_GRID[_address(addr)[1]]


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
    """Saturate the payload length at cap and scale, 3 decimal places."""
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    if length < 0:
        raise ValidationError(f"payload_len must be >= 0, got {length}")
    return round(min(length, cap) / cap, 3)


def _steps(f: Callable[[int], float], cap: int, places: int, lo: int = 0, hi: int | None = None):
    """(thresholds, values) of f(v) = round(min(v, cap) / cap, places) for lo <= v <= hi.

    f(v) is values[bisect_right(thresholds, v) - 1], exactly: each threshold
    is where f reaches the next level, and each value is f's own output.
    Level k / 10**places starts where v / cap passes (k - 1/2) / 10**places;
    the float quotient errs by at most 2**-53, so f is searched only over
    the integers whose exact quotient lies that near the boundary (below a
    cap of 2**42, only one that lies on it). hi defaults to cap.
    """
    hi = cap if hi is None else hi
    f = lru_cache(maxsize=None)(f)
    scale = 10**places
    slack = 2 * scale * cap >> 53  # in units of 1 / (2 * scale * cap)
    thresholds, values = [lo], [f(lo)]
    for k in range(1, scale + 1):
        edge = (2 * k - 1) * cap
        unsure = range(max(-((slack - edge) // (2 * scale)), lo),
                       min((edge + slack) // (2 * scale), hi) + 1)
        t = unsure.start + bisect_left(unsure, k / scale, key=f)
        if t > hi:
            break
        if t > thresholds[-1]:
            thresholds.append(t)
            values.append(f(t))
    return thresholds, values


# IPv4 scales all 32 bits of an address and IPv6 its top 64, onto the same
# 1,001-level grid, so the distance of two addresses is the grid value at the
# distance of their step indices.
_IPV4_THRESHOLDS, _ADDRESS_GRID = _steps(lambda v: round(v / (2**32 - 1), 3), 2**32 - 1, 3)
_PORT_AT, _PORTS = _steps(scale_port, PORT_MAX, 2)
_STATUS_AT, _STATUSES = _steps(encode_http_status, 1000, 3, lo=100, hi=599)


@lru_cache(maxsize=None)
def _ipv6_thresholds() -> list[int]:
    """Built at the first IPv6 address: its search spans up to 2**12 integers a level."""
    return _steps(lambda v: round(v / (2**64 - 1), 3), 2**64 - 1, 3)[0]


@lru_cache(maxsize=32)
def _cap_steps(caps: ScalingCaps) -> tuple:
    """(thresholds, values) of the packet, byte, rule-sid and payload entries under `caps`."""
    return (
        _steps(partial(encode_counter, cap=caps.pkts_cap), caps.pkts_cap, 2),
        _steps(partial(encode_counter, cap=caps.bytes_cap), caps.bytes_cap, 2),
        _steps(partial(scale_rule_sid, sid_max=caps.sid_max), caps.sid_max, 3),
        _steps(partial(scale_payload, cap=caps.payload_cap), caps.payload_cap, 3),
    )


_DEFAULT_STEPS = _cap_steps(_DEFAULT_CAPS)
# Each table-read field in encoding order: whether it may be missing, and the
# helper that checks its range.
_FIELD_CHECKS = (
    ("http_status", True, encode_http_status),
    *((name, True, partial(encode_counter, cap=1)) for name in
      ("pkts_to_server", "pkts_to_client", "bytes_to_server", "bytes_to_client")),
    ("rule_sid", False, partial(scale_rule_sid, sid_max=1)),
    ("src_port", False, scale_port),
    ("dst_port", False, scale_port),
    ("payload_len", False, partial(scale_payload, cap=1)),
)


def _refuse(alert: RawAlert) -> NoReturn:
    """Raise the error of the first field of `alert` that encoding cannot take.

    The table-read fields come first, then the addresses and the keyword
    texts, each refused with record_to_alert's text.
    """
    for name, missable, check in _FIELD_CHECKS:
        value = getattr(alert, name)
        if type(value) is not int and not (missable and value is None):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        check(value)  # an integer out of range: the helper raises its own error
    _validate_ip("src_ip", alert.src_ip, set())
    _validate_ip("dst_ip", alert.dst_ip, set())
    for name in ("rule_description", "class_type"):
        value = getattr(alert, name)
        if type(value) is not str:
            raise ValidationError(f"{name} must be a string, got {value!r}")
    raise AssertionError(f"every field of {alert!r} is in range")


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

    Each address is parsed once, for both its entries; every other scaled entry
    is read from its step table. A non-int number or non-str text is refused.
    """
    (src_ip, dst_ip, sport, dport, sid, description, class_type, _, _, _,
     payload, status, pkts_ts, pkts_tc, bytes_ts, bytes_tc, _) = alert
    if not (
        type(sport) is type(dport) is type(sid) is type(payload) is int
        and type(description) is type(class_type) is str
        and 0 <= sport <= PORT_MAX and 0 <= dport <= PORT_MAX and sid >= 0 and payload >= 0
        and (status is None or type(status) is int and 100 <= status <= 599)
        and (pkts_ts is None or type(pkts_ts) is int and pkts_ts >= 0)
        and (pkts_tc is None or type(pkts_tc) is int and pkts_tc >= 0)
        and (bytes_ts is None or type(bytes_ts) is int and bytes_ts >= 0)
        and (bytes_tc is None or type(bytes_tc) is int and bytes_tc >= 0)
    ):
        _refuse(alert)
    try:
        src_private, ks = _address(src_ip)
        dst_private, kd = _address(dst_ip)
        flags = keyword_flags(description, class_type, profile)
    except (AttributeError, TypeError, ValueError):
        _refuse(alert)
    (pkts_at, pkts), (bytes_at, nbytes), (sid_at, sids), (payload_at, payloads) = (
        _DEFAULT_STEPS if caps is None else _cap_steps(caps)
    )
    grid = _ADDRESS_GRID
    return (
        src_private,
        dst_private,
        grid[ks],
        grid[kd],
        grid[abs(ks - kd)],
        0.0 if status is None else _STATUSES[bisect_right(_STATUS_AT, status) - 1],
        -1.0 if pkts_ts is None else pkts[bisect_right(pkts_at, pkts_ts) - 1],
        -1.0 if pkts_tc is None else pkts[bisect_right(pkts_at, pkts_tc) - 1],
        -1.0 if bytes_ts is None else nbytes[bisect_right(bytes_at, bytes_ts) - 1],
        -1.0 if bytes_tc is None else nbytes[bisect_right(bytes_at, bytes_tc) - 1],
        sids[bisect_right(sid_at, sid) - 1],
        *flags[:6],
        _PORTS[bisect_right(_PORT_AT, sport) - 1],
        _PORTS[bisect_right(_PORT_AT, dport) - 1],
        payloads[bisect_right(payload_at, payload) - 1],
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
    classes = np.unique(y)
    try:  # a sum or a square past the largest double leaves no score to rank
        with np.errstate(over="raise", divide="ignore", invalid="ignore"):
            observed = np.array([X[y == c].sum(axis=0) for c in classes])  # (n_classes, width)
            priors = np.array([(y == c).mean() for c in classes])
            totals = observed.sum(axis=0)
            expected = np.outer(priors, totals)
            terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
            scores = np.where(totals > 0, terms.sum(axis=0), 0.0)
    except FloatingPointError:
        raise ValidationError("chi2 scores overflow: feature values are too large") from None
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
        if has_label:
            label = parts.pop()
            if label not in ("0", "1"):
                raise ValidationError(
                    f"matrix CSV line {line_no}: label must be 0 or 1, got {label!r}"
                )
            labels.append(int(label))
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(f"matrix CSV line {line_no}: {exc}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValidationError(f"matrix CSV line {line_no}: non-finite value")
    X = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return X, (np.array(labels, dtype=int) if has_label else None), names
