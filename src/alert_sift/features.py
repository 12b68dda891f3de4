"""Fixed-order numeric encoding of alerts, and chi-squared feature selection.

Every alert becomes a vector of floats in [-1.0, 1.0] with a fixed layout:
the 20-entry core profile, or the 29-entry full profile that appends nine
extra keyword flags. Scaled fields are bucketed by rounding: ports to 2
decimal places (101 classes), IPs / rule sid / payload length to 3 decimal
places (1,001 classes), HTTP status to status / 1000. Flow counters use
-1.00 as the missing-value sentinel and a missing HTTP status is 0.0; all
other entries are non-negative.

Each address is parsed once per alert, by ``ingest.ip_value``, and both its
entries (private flag and scaled value) come from that one integer. The
private ranges are integer intervals computed once from the networks below,
and the flag is one ``bisect`` over their sorted edges, so it is exactly
``ip in net`` over them (not ``ipaddress``'s own ``is_private``, which also
counts loopback, link-local and others).

The keyword flags come from a per-profile table of ``(keyword, reads the
description)`` pairs, built at import, and are memoised per (description,
class type, profile) text in a bounded cache: a corpus has a few hundred
rules, each with one description and class type.

Every scaled entry is f(v) = round(min(v, cap) / cap, places) of one integer
(the top 64 bits of an IPv6 address), and ``encode_alert`` reads it from a
step table: the integers at which f changes, and its output at each.
``_steps`` builds every table (ports, HTTP status, addresses and the capped
fields) from that one formula, and the tables are exact. Each ``ScalingCaps``
builds its four capped tables once, when it is made, so encoding builds none.

``encode_alert`` tests no field of its alert: a RawAlert is checked where it is made.
"""

from __future__ import annotations

import ipaddress
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import _MEMO_SIZE, RawAlert, ip_value

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
    *(name for name, _, _ in _KEYWORD_FEATURES_CORE),
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

# IP version -> the first value of each private network and the one past its
# last, ascending: a value is private iff an odd number of edges are <= it
_PRIVATE_EDGES = {
    version: [edge for net in nets
              for edge in (int(net.network_address), int(net.broadcast_address) + 1)]
    for version, nets in ((4, _PRIVATE_V4), (6, [_PRIVATE_V6]))
}


class FeatureProfile(Enum):
    CORE20 = "core20"
    FULL29 = "full29"

    @property
    def width(self) -> int:
        return len(feature_names(self))


# profile -> (keyword, whether it is matched in the description) per flag, in layout order
_KEYWORDS = {
    profile: tuple((keyword, source == "description") for _, source, keyword in spec)
    for profile, spec in (
        (FeatureProfile.CORE20, _KEYWORD_FEATURES_CORE),
        (FeatureProfile.FULL29, _KEYWORD_FEATURES_CORE + _KEYWORD_FEATURES_EXTRA),
    )
}


def feature_names(profile: FeatureProfile) -> list[str]:
    """Ordered column names for the given profile."""
    if profile is FeatureProfile.CORE20:
        return list(_CORE_NAMES)
    return _CORE_NAMES + _EXTRA_NAMES


def _is_int(value) -> bool:
    """Whether value is an int and not a bool: the rule of every integer parameter."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScalingCaps:
    """Saturation caps for min-max scaled fields (config-exposed defaults).

    Each cap is an integer in [1, 2**63 - 1]; any other value, a float, a
    string or a bool included, is refused by name. ``tables``, built once when
    the caps are made and not a field, holds the (thresholds, values) step
    tables of the packet, byte, rule-sid and payload entries under these caps.
    """

    pkts_cap: int = 10_000
    bytes_cap: int = 1_000_000
    payload_cap: int = PORT_MAX
    sid_max: int = 10_000_000

    def __post_init__(self):
        for name in _CAP_NAMES:
            cap = getattr(self, name)
            if not _is_int(cap):
                raise ValidationError(f"{name} must be an integer, got {cap!r}")
            if cap < 1:
                raise ValidationError(f"{name} must be >= 1")
            if cap > 2**63 - 1:  # the ranges _steps searches must fit a C ssize_t
                raise ValidationError(f"{name} must be <= 2**63 - 1")
        tables = (_steps(self.pkts_cap, 2), _steps(self.bytes_cap, 2),
                  _steps(self.sid_max, 3), _steps(self.payload_cap, 3))
        object.__setattr__(self, "tables", tables)


_CAP_NAMES = [f.name for f in fields(ScalingCaps)]


def load_caps(source: Iterable[str]) -> ScalingCaps:
    """Read a ``name=value`` caps file; unlisted caps keep defaults."""
    overrides: dict[str, int] = {}
    for line_no, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        name, sep, value = text.partition("=")
        name = name.strip()
        if not sep or name not in _CAP_NAMES:
            raise ValidationError(
                f"caps line {line_no}: expected one of {sorted(_CAP_NAMES)}=value"
            )
        if name in overrides:
            raise ValidationError(f"caps line {line_no}: cap {name!r} listed twice")
        try:
            overrides[name] = int(value.strip())
        except ValueError:
            raise ValidationError(f"caps line {line_no}: {value.strip()!r} is not an integer")
    return ScalingCaps(**overrides)


def _address(addr: str) -> tuple[float, int]:
    """(private flag, index of the scaled value in _ADDRESS_GRID) of an address, from one parse."""
    version, value = ip_value(addr)
    private = float(bisect_right(_PRIVATE_EDGES[version], value) & 1)
    if version == 4:
        return private, bisect_right(_IPV4_THRESHOLDS, value) - 1
    return private, bisect_right(_ipv6_thresholds(), value >> 64) - 1


def _steps(cap: int, places: int, lo: int = 0, hi: int | None = None):
    """(thresholds, values) of f(v) = round(min(v, cap) / cap, places) for lo <= v <= hi.

    f(v) is values[bisect_right(thresholds, v) - 1], exactly: each threshold
    is where f reaches the next level, and each value is f's own output.
    Level k / 10**places starts where v / cap passes (k - 1/2) / 10**places;
    the float quotient errs by at most 2**-53, so f is searched only over
    the integers whose exact quotient lies that near the boundary (below a
    cap of 2**42, only one that lies on it). hi defaults to cap.
    """
    hi = cap if hi is None else hi
    scale = 10**places

    def f(v: int) -> float:
        return round(min(v, cap) / cap, places)

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
_IPV4_THRESHOLDS, _ADDRESS_GRID = _steps(2**32 - 1, 3)
_PORT_AT, _PORTS = _steps(PORT_MAX, 2)
_STATUS_AT, _STATUSES = _steps(1000, 3, lo=100, hi=599)
_DEFAULT_CAPS = ScalingCaps()  # built at import, so no scored batch builds a table


@lru_cache(maxsize=None)
def _ipv6_thresholds() -> list[int]:
    """Built at the first IPv6 address: its search spans up to 2**12 integers a level."""
    return _steps(2**64 - 1, 3)[0]


@lru_cache(maxsize=_MEMO_SIZE)
def _keyword_flags(description: str, class_type: str, profile: FeatureProfile) -> tuple:
    class_folded = class_type.lower()
    return tuple(
        float(keyword in (description if in_description else class_folded))
        for keyword, in_description in _KEYWORDS[profile]
    )


def encode_alert(
    alert: RawAlert,
    profile: FeatureProfile = FeatureProfile.CORE20,
    caps: ScalingCaps | None = None,
) -> tuple[float, ...]:
    """Assemble the full fixed-order vector for one alert.

    Each address is parsed once, for both its entries; every other scaled entry
    is read from its step table, the capped ones from caps' tables (the
    default caps' when caps is None). A RawAlert is checked where it is made,
    so no field is tested here; any other value, a plain tuple too, is refused.
    """
    if not isinstance(alert, RawAlert):
        raise ValidationError(f"alert must be a RawAlert, got {type(alert).__name__}")
    (src_ip, dst_ip, sport, dport, sid, description, class_type, _, _, _,
     payload, status, pkts_ts, pkts_tc, bytes_ts, bytes_tc, _) = alert
    src_private, ks = _address(src_ip)
    dst_private, kd = _address(dst_ip)
    flags = _keyword_flags(description, class_type, profile)
    (pkts_at, pkts), (bytes_at, nbytes), (sid_at, sids), (payload_at, payloads) = (
        _DEFAULT_CAPS if caps is None else caps
    ).tables
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
        *flags[:len(_KEYWORD_FEATURES_CORE)],
        _PORTS[bisect_right(_PORT_AT, sport) - 1],
        _PORTS[bisect_right(_PORT_AT, dport) - 1],
        payloads[bisect_right(payload_at, payload) - 1],
        *flags[len(_KEYWORD_FEATURES_CORE):],
    )


def as_matrix(rows: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Stack rows into an (n, width) float array; a float array is not copied.

    The one check of a matrix: 2-D, at least one column, every cell finite."""
    try:
        X = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"rows do not form a float matrix: {exc}") from None
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValidationError(f"matrix must be 2-D with at least one column, got shape {X.shape}")
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValidationError(f"non-finite value {X[i, j]} at matrix row {i}, column {j}")
    return X


def as_labeled_matrix(
    rows: Sequence[Sequence[float]] | np.ndarray, labels: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """as_matrix of rows, and one int64 label per row: the one check of labels.

    Each must equal 0 or 1 exactly (1.0 and True pass); the first that does not
    (1.7, NaN, 2, "1", None, a row of labels) is refused by name, uncast.
    """
    X = as_matrix(rows)
    for i, label in enumerate(labels.tolist() if isinstance(labels, np.ndarray) else labels):
        if label not in (0, 1):
            raise ValidationError(f"labels must be 0/1, got {label!r} at row {i}")
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] != len(y):
        raise ValidationError(f"{X.shape[0]} rows vs {len(y)} labels")
    return X, y


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
    X, y = as_labeled_matrix(matrix, labels)
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
    labels: Sequence[int],
    names: Sequence[str],
) -> None:
    """Export a labeled feature matrix as CSV: named columns plus trailing label."""
    X, labels = as_labeled_matrix(matrix, labels)
    if X.shape[1] != len(names):
        raise ValidationError(f"{X.shape[1]} columns vs {len(names)} names")
    stream.write(",".join([*names, "label"]) + "\n")
    for row, label in zip(X, labels):
        stream.write(",".join([*(repr(float(v)) for v in row), str(label)]) + "\n")


def read_matrix_csv(
    source: Iterable[str],
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Read a matrix CSV; returns (X, labels or None, feature names)."""
    lines = iter(source)
    try:
        header = next(lines).rstrip("\n").split(",")
    except StopIteration:
        raise ValidationError("matrix CSV is empty") from None
    if len(set(header)) != len(header):
        twice = next(h for i, h in enumerate(header) if h in header[:i])
        raise ValidationError(f"matrix CSV header names column {twice!r} twice")
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
