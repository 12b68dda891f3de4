"""Release gate: the nine acceptance checks, one printed verdict line each.

Each test prints PASS/FAIL with its measured numbers even under pytest
capture, then asserts. Criteria 7 and 8 share one full-scale pipeline run
(executed twice for the determinism check) via a module-scoped fixture.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from conftest import make_line
from test_attribution import _brute_phi
from test_features import _brute_chi2, assert_vector_invariants
from test_forest import _oracle_split, _saved

from alert_sift import cli
from alert_sift.evaluation import cross_validate, kfold_split, workload_savings
from alert_sift.features import FeatureProfile, chi2_select, encode_alert
from alert_sift.forest import (
    ForestParams,
    _ranked,
    best_split,
    predict_proba,
    train_forest,
)
from alert_sift.attribution import tree_shap
from alert_sift.ingest import parse_alert_record
from alert_sift.labeling import LabeledAlert
from alert_sift.sampling import SampleParams, dedup_sample


def _verdict(capsys, ok: bool, line: str):
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


_SIGNATURE_TOKENS = [
    "ET", "GPL", "EXPLOIT", "POSSIBLE", "SCAN", "POLICY", "WEB_SERVER",
    "TROJAN", "ATTEMPT", "INBOUND", "UNUSUAL", "CVE-2021-44228", "Probe",
    "Flow", "Beacon", "Nmap", "Apache", "v1.2", "Retry", "Fetch",
]
_CLASS_TYPES = [
    "attempted-admin", "trojan-activity", "policy-violation", "not-suspicious",
    "network-scan", "unknown", "Attempted-Admin", "shellcode-detect",
]


def _random_ip(rng: random.Random) -> str:
    if rng.random() < 0.7:
        return ".".join(str(rng.randrange(256)) for _ in range(4))
    return ":".join(f"{rng.randrange(65536):x}" for _ in range(8))


def _random_overrides(rng: random.Random) -> dict:
    overrides = {
        "timestamp": (
            f"2025-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}Z"
        ),
        "src_ip": _random_ip(rng),
        "dest_ip": _random_ip(rng),
        "src_port": rng.randint(0, 65535),
        "dest_port": rng.randint(0, 65535),
        "rule_uuid": f"rule-{rng.randrange(64):02x}",
        "alert": {
            "signature_id": rng.randint(0, 30_000_000),
            "signature": " ".join(
                rng.choice(_SIGNATURE_TOKENS) for _ in range(rng.randint(1, 6))
            ),
            "category": rng.choice(_CLASS_TYPES),
        },
    }
    overrides["http"] = (
        {"status": rng.randint(100, 599)} if rng.random() < 0.7 else None
    )
    flow = {
        key: rng.randint(0, 10_000_000)
        for key in ("pkts_toserver", "pkts_toclient", "bytes_toserver", "bytes_toclient")
        if rng.random() < 0.7
    }
    overrides["flow"] = flow if rng.random() < 0.8 else None
    overrides["payload_len"] = rng.randint(0, 1_000_000) if rng.random() < 0.7 else None
    return overrides


def test_criterion_1_encoder_invariants(capsys):
    rng = random.Random(1001)
    n_alerts = 10_000
    start = time.perf_counter()
    for i in range(n_alerts):
        profile = FeatureProfile.CORE20 if i % 2 else FeatureProfile.FULL29
        alert = parse_alert_record(make_line(**_random_overrides(rng)))
        assert_vector_invariants(encode_alert(alert, profile), profile)
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        elapsed < 10.0,
        f"[1/9] encoder range/precision invariants on {n_alerts} random alerts, "
        f"0 violations, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_chi2_oracle(capsys):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        w = int(rng.integers(1, 11))
        if rng.random() < 0.5:
            X = rng.integers(0, 6, size=(n, w)).astype(float)
        else:
            X = np.round(rng.random((n, w)) * 4, 2)
        y = rng.integers(0, 2, size=n).tolist()
        if len(set(y)) < 2:
            y[0] = 1 - y[0]
        got = chi2_select(X, y, k=w).chi2_scores
        ref = _brute_chi2(X, y)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)))
    example = chi2_select(np.array([[1.0], [1.0], [0.0], [0.0]]), [1, 1, 0, 0], k=1)
    exact = example.chi2_scores == [2.0]
    _verdict(
        capsys,
        worst <= 1e-9 and exact,
        f"[2/9] chi-squared scores vs brute-force oracle on 200 matrices, "
        f"max |diff| {worst:.2e} (tol 1e-9); worked example 2.0 exact: {exact}",
    )


def test_criterion_3_split_oracle(capsys):
    rng = np.random.default_rng(1003)
    mismatches = 0
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        w = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            X = rng.integers(0, 4, size=(n, w)).astype(float)
        else:
            X = np.round(rng.random((n, w)), 1)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        got = best_split(_ranked(X, y), list(range(w)))
        ref = _oracle_split(X, y, list(range(w)))
        if ref is None:
            ok = got is None
        else:
            ok = (
                got is not None
                and got[0] == ref[1]
                and abs(got[1] - ref[2]) < 1e-12
                and abs(got[2] - float(ref[0])) < 1e-9
            )
        mismatches += 0 if ok else 1
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        mismatches == 0 and elapsed < 30.0,
        f"[3/9] best_split vs exhaustive root-split oracle on 100 datasets, "
        f"{mismatches} mismatches, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_4_shap_exactness(capsys):
    rng = np.random.default_rng(1004)
    worst_phi = 0.0
    for _ in range(50):
        width = int(rng.integers(2, 11))
        n = int(rng.integers(10, 31))
        X = rng.integers(0, 4, size=(n, width)).astype(float)
        y = rng.integers(0, 2, size=n)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        forest = train_forest(
            X, y,
            ForestParams(n_estimators=int(rng.integers(1, 3)), max_depth=3,
                         seed=int(rng.integers(10_000))),
        )
        for row in rng.integers(0, 4, size=(2, width)).astype(float):
            got = np.asarray(tree_shap(forest, row).phi)
            ref = np.zeros(width)
            trees = _saved(forest)["trees"]
            for tree in trees:
                ref += _brute_phi(tree, row, width)
            ref /= len(trees)
            worst_phi = max(worst_phi, float(np.abs(got - ref).max()))

    X = rng.random((200, 10))
    y = (X[:, 2] + X[:, 7] > 1.0).astype(int)
    forest = train_forest(X, y, ForestParams(n_estimators=25, max_depth=3))
    worst_local = 0.0
    for row in rng.random((1000, 10)):
        att = tree_shap(forest, row)
        worst_local = max(worst_local, abs(att.total - predict_proba(forest, row)))
    _verdict(
        capsys,
        worst_phi <= 1e-9 and worst_local < 1e-9,
        f"[4/9] exact Shapley match on 50 forests (max |phi diff| {worst_phi:.2e}) "
        f"and local accuracy on 1000 inputs (max {worst_local:.2e}, tol 1e-9)",
    )


def _same_rule_alerts(count: int) -> list[LabeledAlert]:
    # src_port encodes the arrival position so survivors are identifiable
    return [
        LabeledAlert(parse_alert_record(make_line(src_port=i, rule_uuid="rule-x")), 1)
        for i in range(count)
    ]


def test_criterion_5_dedup_semantics(capsys):
    kept_1000 = dedup_sample(_same_rule_alerts(1000), SampleParams())
    positions = [item.alert.src_port + 1 for item in kept_1000]  # 1-based
    kept_150 = dedup_sample(_same_rule_alerts(150), SampleParams())
    ok = positions == list(range(1, 1000, 100)) and len(kept_150) == 2
    _verdict(
        capsys,
        ok,
        f"[5/9] dedup keeps positions {positions[:3]}...{positions[-1]} of 1000 "
        f"({len(kept_1000)} survivors) and {len(kept_150)} of 150",
    )


def test_criterion_6_workload_arithmetic(capsys):
    first = workload_savings(208, 3.98)
    second = workload_savings(285, 4.21)
    ok = abs(first - 13.8) <= 0.05 and abs(second - 20.0) <= 0.05
    _verdict(
        capsys,
        ok,
        f"[6/9] workload savings (208, 3.98m) -> {first:.2f}h (13.8 +/- 0.05), "
        f"(285, 4.21m) -> {second:.2f}h (20.0 +/- 0.05)",
    )


def _run_pipeline(root) -> dict:
    p = {name: str(root / name) for name in (
        "alerts.ndjson", "rule_comments.csv", "ground_truth.csv", "labeled.ndjson",
        "train.ndjson", "test.ndjson", "train.csv", "test.csv", "model.json",
        "report.json",
    )}

    def run(argv):
        assert cli.main(argv) == 0, f"pipeline step failed: {argv}"

    run(["synth", "--out", p["alerts.ndjson"], "--comments", p["rule_comments.csv"],
         "--truth", p["ground_truth.csv"]])
    run(["label", "--in", p["alerts.ndjson"], "--comments", p["rule_comments.csv"],
         "--out", p["labeled.ndjson"]])
    run(["sample", "--in", p["labeled.ndjson"], "--split-date", "2025-05-07T00:00:00Z",
         "--train-out", p["train.ndjson"], "--test-out", p["test.ndjson"]])
    run(["encode", "--in", p["train.ndjson"], "--out", p["train.csv"]])
    run(["encode", "--in", p["test.ndjson"], "--out", p["test.csv"]])
    run(["train", "--in", p["train.csv"], "--model", p["model.json"]])
    run(["evaluate", "--in", p["test.csv"], "--model", p["model.json"],
         "--report", p["report.json"]])
    return p


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Full-default pipeline executed twice; records first-run wall time."""
    first_root = tmp_path_factory.mktemp("run_a")
    start = time.perf_counter()
    first = _run_pipeline(first_root)
    elapsed = time.perf_counter() - start
    second = _run_pipeline(tmp_path_factory.mktemp("run_b"))
    return {"first": first, "second": second, "elapsed": elapsed}


def test_criterion_7_end_to_end_benchmark(capsys, pipeline_runs):
    with open(pipeline_runs["first"]["report.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    recall = report["metrics"]["tp_recall"]
    accuracy = report["metrics"]["accuracy"]
    elapsed = pipeline_runs["elapsed"]
    ok = recall >= 0.95 and accuracy >= 0.90 and elapsed < 60.0
    _verdict(
        capsys,
        ok,
        f"[7/9] end-to-end synthetic benchmark: tp_recall {recall:.3f} (>=0.95), "
        f"accuracy {accuracy:.3f} (>=0.90), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_8_determinism(capsys, pipeline_runs):
    def read(run, name):
        with open(pipeline_runs[run][name], "rb") as fh:
            return fh.read()

    model_same = read("first", "model.json") == read("second", "model.json")
    report_same = read("first", "report.json") == read("second", "report.json")
    _verdict(
        capsys,
        model_same and report_same,
        f"[8/9] rerun determinism: model byte-identical {model_same}, "
        f"metrics report identical {report_same}",
    )


def test_criterion_9_kfold_harness(capsys):
    rng = np.random.default_rng(1009)
    X = rng.random((200, 3))
    X[:, 1] = np.where(X[:, 1] > 0.5, X[:, 1] + 0.5, X[:, 1] - 0.5)
    y = (X[:, 1] > 0.5).astype(int)
    cv = cross_validate(X, y, ForestParams(n_estimators=25, seed=42), k=10)
    perfect = cv.accuracies == (1.0,) * 10 and cv.accuracy_variance == 0.0

    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 501))
        k = int(rng.integers(2, min(n, 20) + 1))
        folds = kfold_split(n, k, seed=int(rng.integers(1_000_000)))
        flat = [i for fold in folds for i in fold]
        if sorted(flat) != list(range(n)) or len(flat) != len(set(flat)):
            violations += 1
    _verdict(
        capsys,
        perfect and violations == 0,
        f"[9/9] 10-fold on separable data: accuracies all 1.0 ({perfect}), "
        f"variance {cv.accuracy_variance}; fold partitions valid for 500 (n,k) draws "
        f"({violations} violations)",
    )
