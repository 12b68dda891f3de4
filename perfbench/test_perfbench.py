"""Self-test of the benchmark, at the reduced "smoke" size.

    python3 -m pytest perfbench -q

Covers: every workload finishes a smoke run, traced and untraced; every
metric named in BENCHMARK.json appears with its unit; deliberately
corrupted outputs make checks fail; and a directory without the package
exits nonzero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import Meter  # noqa: E402
from tracing import NullTracer  # noqa: E402

WORKLOADS = ("pipeline-default", "train-50k", "score-stream")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def src_on_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_corrupted_prediction_fails_the_attribution_check(tmp_path, src_on_path, monkeypatch):
    ledger = workloads.Ledger()
    w = workloads.PipelineDefault(7, "smoke", ledger)
    w.setup(tmp_path / "setup")
    real = workloads.cli.predict_proba_batch
    monkeypatch.setattr(workloads.cli, "predict_proba_batch", lambda f, X: real(f, X) + 1e-6)
    w.rep(tmp_path / "rep", "rep0", NullTracer(), Meter())
    assert "rep0.6.explain" in ledger.failures, ledger.failures


def test_corrupted_stream_line_fails_its_batch(tmp_path, src_on_path):
    ledger = workloads.Ledger()
    w = workloads.ScoreStream(7, "smoke", ledger)
    w.setup(tmp_path / "setup")
    w.lines[w.batch + 3] = w.lines[w.batch + 3].replace('"src_ip"', '"src_ipx"')
    w.rep(tmp_path / "rep", "rep0", NullTracer(), Meter())
    assert list(ledger.failures) == ["rep0.batch1"], ledger.failures


def test_changed_output_between_repetitions_fails(tmp_path, src_on_path):
    ledger = workloads.Ledger()
    w = workloads.Train50k(7, "smoke", ledger)
    w.setup(tmp_path / "setup")
    first = w.rep(tmp_path / "rep0", "rep0", NullTracer(), Meter())
    second = w.rep(tmp_path / "rep1", "rep1", NullTracer(), Meter())
    assert ledger.failed == 0
    second.digests["model.json"] = ("0" * 64, second.digests["model.json"][1])
    run.check_identical([first, second], ledger)
    assert list(ledger.failures) == ["rep1.train"]


def test_stream_model_is_the_readme_pipeline_model(tmp_path, src_on_path):
    ledger = workloads.Ledger()
    pipeline = workloads.PipelineDefault(7, "smoke", ledger)
    pipeline.setup(tmp_path / "p")
    stream = workloads.ScoreStream(7, "smoke", ledger)
    stream.setup(tmp_path / "s")
    rep = pipeline.rep(tmp_path / "rep", "rep0", NullTracer(), Meter())
    assert ledger.failed == 0, ledger.failures
    assert rep.model_json == stream.model_json


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "pipeline-default", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
