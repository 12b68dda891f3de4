"""End-to-end CLI chain plus option precedence and failure modes."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alert_sift
from alert_sift import cli, ingest
from alert_sift.errors import ValidationError
from alert_sift.features import FeatureProfile, feature_names
from alert_sift.forest import load_forest, predict_proba_batch
from alert_sift.ingest import LabeledAlert, parse_alert_record, write_records

from conftest import make_line, make_record


def run_ok(argv):
    assert cli.main(argv) == 0


def _count_lines(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One small synth -> label -> sample -> encode -> train -> evaluate run."""
    root = tmp_path_factory.mktemp("chain")
    p = {
        "alerts": str(root / "alerts.ndjson"),
        "comments": str(root / "rule_comments.csv"),
        "truth": str(root / "ground_truth.csv"),
        "labeled": str(root / "labeled.ndjson"),
        "sampled": str(root / "sampled.ndjson"),
        "matrix": str(root / "matrix.csv"),
        "model": str(root / "model.json"),
        "report": str(root / "report.json"),
    }
    run_ok(
        [
            "synth", "--out", p["alerts"], "--comments", p["comments"],
            "--truth", p["truth"], "--n-tp", "60", "--n-fp", "60",
            "--n-rules", "8", "--dup", "5", "--seed", "3",
        ]
    )
    run_ok(["label", "--in", p["alerts"], "--comments", p["comments"], "--out", p["labeled"]])
    run_ok(
        ["sample", "--in", p["labeled"], "--stride", "5", "--per-rule-cap", "10",
         "--out", p["sampled"]]
    )
    run_ok(["encode", "--in", p["sampled"], "--out", p["matrix"]])
    run_ok(["train", "--in", p["matrix"], "--model", p["model"], "--trees", "20"])
    run_ok(["evaluate", "--in", p["matrix"], "--model", p["model"], "--report", p["report"]])
    return p


def test_chain_report_parses(chain):
    with open(chain["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    assert set(report) == {"confusion", "metrics", "savings_hours", "per_fold", "mean", "variance"}
    assert report["confusion"] is not None
    assert report["metrics"]["accuracy"] is not None
    assert report["savings_hours"] >= 0.0
    assert report["per_fold"] is None and report["mean"] is None


def test_chain_intermediates_carry_labels(chain):
    with open(chain["labeled"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows
    assert all(row["label"] in (0, 1) for row in rows)
    with open(chain["matrix"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header[-1] == "label"
    assert len(header) == 21  # core20 profile plus the label column


def test_select_handles_missing_counter_sentinels(chain, tmp_path):
    # alerts without http/flow encode counters as -1.0; select must not choke
    bare = tmp_path / "bare.ndjson"
    with open(chain["labeled"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    with open(bare, "w", encoding="utf-8") as fh:
        for row in rows[:40]:
            row.pop("http", None)
            row.pop("flow", None)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    matrix = tmp_path / "bare_matrix.csv"
    selection = tmp_path / "selection.json"
    reduced = tmp_path / "reduced.csv"
    run_ok(["encode", "--in", str(bare), "--out", str(matrix)])
    run_ok(
        ["select", "--in", str(matrix), "--out", str(selection), "--k", "5",
         "--matrix-out", str(reduced)]
    )
    with open(selection, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["k"] == 5
    assert len(data["selected_indices"]) == 5
    assert len(data["selected_features"]) == 5
    with open(reduced, encoding="utf-8") as fh:
        assert len(fh.readline().strip().split(",")) == 6


def test_sample_split_date_writes_both_partitions(chain, tmp_path):
    train = tmp_path / "train.ndjson"
    test = tmp_path / "test.ndjson"
    run_ok(
        ["sample", "--in", chain["labeled"], "--stride", "5", "--per-rule-cap", "10",
         "--split-date", "2025-04-01T00:00:00Z",
         "--train-out", str(train), "--test-out", str(test)]
    )
    n_train = _count_lines(train)
    n_test = _count_lines(test)
    assert n_train > 0 and n_test > 0
    for path, before in ((train, True), (test, False)):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                stamp = json.loads(line)["timestamp"]
                assert (stamp < "2025-04-01") == before


@pytest.mark.parametrize("test_out", ["same.ndjson", "sub/../same.ndjson", "link.ndjson"])
def test_sample_refuses_one_path_for_both_splits(chain, tmp_path, monkeypatch, capsys, test_out):
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    os.symlink("same.ndjson", "link.ndjson")  # dangling: it names the train split's path
    for source in (chain["labeled"], "missing.ndjson"):  # refused before the input is read
        argv = ["sample", "--in", source, "--split-date", "2025-04-01T00:00:00Z",
                "--train-out", "same.ndjson", "--test-out", test_out]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --train-out and --test-out are the same file: same.ndjson\n"
    assert sorted(os.listdir(tmp_path)) == ["link.ndjson", "sub"]


def test_synth_refuses_one_rule_for_two_classes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--n-tp", "2", "--n-fp", "2", "--n-rules", "1", "--dup", "1"]) == 1
    message = "error: n_rules must be >= 2 when both classes have alerts\n"
    assert capsys.readouterr() == ("", message)
    assert os.listdir(tmp_path) == []


def test_explain_row_out_of_range_writes_nothing(chain, tmp_path, capsys):
    out, attribution = tmp_path / "importance.csv", tmp_path / "attribution.json"
    argv = ["explain", "--in", chain["matrix"], "--model", chain["model"], "--out", str(out),
            "--attribution-out", str(attribution)]
    run_ok(argv)
    before = out.read_bytes()
    n = _count_lines(chain["matrix"]) - 1
    for row in (str(n), "-1", "99999"):
        assert cli.main(argv + ["--row", row]) == 1
        assert capsys.readouterr().err == f"error: --row {row} out of range for {n} rows\n"
    assert out.read_bytes() == before and not attribution.exists()


@pytest.mark.parametrize("cap", [2**63, 2**116, 10**300])
def test_encode_refuses_a_cap_past_the_ceiling(chain, tmp_path, capsys, cap):
    caps, out = tmp_path / "caps.txt", tmp_path / "out.csv"
    caps.write_text(f"pkts_cap={cap}\n", encoding="utf-8")
    argv = ["encode", "--in", chain["sampled"], "--out", str(out), "--caps", str(caps)]
    assert cli.main(argv) == 1
    error = f"error: pkts_cap out of range: {cap} (expected in 1..{2**63 - 1})\n"
    assert capsys.readouterr().err == error
    assert not out.exists()


def test_encode_refuses_a_cap_listed_twice(chain, tmp_path, capsys):
    caps, out = tmp_path / "caps.txt", tmp_path / "out.csv"
    caps.write_text("pkts_cap=5\npkts_cap=7\n", encoding="utf-8")
    argv = ["encode", "--in", chain["sampled"], "--out", str(out), "--caps", str(caps)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: caps line 2: cap 'pkts_cap' listed twice\n"
    assert not out.exists()


def test_train_refuses_a_config_key_named_twice(chain, tmp_path, capsys):
    config, model = tmp_path / "c.json", tmp_path / "model.json"
    config.write_text('{"trees": 5, "trees": 7}\n', encoding="utf-8")
    argv = ["train", "--config", str(config), "--in", chain["matrix"], "--model", str(model)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: config file {config} names key 'trees' twice\n"
    assert not model.exists()


def test_train_takes_the_profile_from_the_feature_names(chain, tmp_path, capsys):
    full, reduced = tmp_path / "full29.csv", tmp_path / "reduced.csv"
    model, bad = tmp_path / "model.json", tmp_path / "bad_model.json"
    run_ok(["encode", "--in", chain["sampled"], "--out", str(full), "--profile", "full29"])
    run_ok(["select", "--in", str(full), "--out", str(tmp_path / "selection.json"),
            "--k", "20", "--matrix-out", str(reduced)])
    run_ok(["train", "--in", str(reduced), "--model", str(model), "--trees", "5"])
    saved = json.loads(model.read_text(encoding="utf-8"))
    # 20 selected columns of full29 are not core20's, so the model names no profile
    assert len(saved["feature_names"]) == 20
    assert saved["feature_names"] != feature_names(FeatureProfile.CORE20)
    assert saved["profile"] is None
    with open(chain["model"], encoding="utf-8") as fh:
        assert json.load(fh)["profile"] == "core20"
    # a model that claims core20 over other columns is refused on load
    saved["profile"] = "core20"
    bad.write_text(json.dumps(saved), encoding="utf-8")
    argv = ["predict", "--in", str(reduced), "--model", str(bad),
            "--out", str(tmp_path / "predictions.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: model profile 'core20' does not name its 20 features\n"
    )
    assert not (tmp_path / "predictions.csv").exists()


def test_explain_row_attribution_is_locally_accurate(chain, tmp_path):
    importance = tmp_path / "importance.csv"
    attribution = tmp_path / "attribution.json"
    predictions = tmp_path / "predictions.csv"
    run_ok(
        ["explain", "--in", chain["matrix"], "--model", chain["model"],
         "--out", str(importance), "--row", "3", "--attribution-out", str(attribution)]
    )
    run_ok(
        ["predict", "--in", chain["matrix"], "--model", chain["model"],
         "--out", str(predictions)]
    )
    with open(attribution, encoding="utf-8") as fh:
        att = json.load(fh)
    assert att["row"] == 3
    total = att["base_value"] + sum(att["phi"].values())
    assert total == pytest.approx(att["prediction"], abs=1e-9)
    with open(predictions, encoding="utf-8") as fh:
        fh.readline()
        proba_row3 = float(fh.readlines()[3].split(",")[1])
    assert att["prediction"] == pytest.approx(proba_row3, abs=1e-9)
    with open(importance, encoding="utf-8") as fh:
        header = fh.readline().strip()
        scores = [float(line.split(",")[1]) for line in fh]
    assert header == "feature,mean_abs_shap"
    assert scores == sorted(scores, reverse=True)


def test_rerun_is_byte_identical(tmp_path):
    outputs = {}
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        paths = {
            "alerts": str(d / "alerts.ndjson"),
            "comments": str(d / "comments.csv"),
            "truth": str(d / "truth.csv"),
            "labeled": str(d / "labeled.ndjson"),
            "sampled": str(d / "sampled.ndjson"),
            "matrix": str(d / "matrix.csv"),
            "model": str(d / "model.json"),
            "report": str(d / "report.json"),
        }
        run_ok(
            ["synth", "--out", paths["alerts"], "--comments", paths["comments"],
             "--truth", paths["truth"], "--n-tp", "40", "--n-fp", "40",
             "--n-rules", "6", "--dup", "4", "--seed", "11"]
        )
        run_ok(["label", "--in", paths["alerts"], "--comments", paths["comments"],
                "--out", paths["labeled"]])
        run_ok(["sample", "--in", paths["labeled"], "--stride", "4", "--out", paths["sampled"]])
        run_ok(["encode", "--in", paths["sampled"], "--out", paths["matrix"]])
        run_ok(["train", "--in", paths["matrix"], "--model", paths["model"], "--trees", "10"])
        run_ok(["evaluate", "--in", paths["matrix"], "--model", paths["model"],
                "--report", paths["report"]])
        outputs[name] = {
            key: Path(paths[key]).read_bytes()
            for key in ("alerts", "labeled", "sampled", "matrix", "model", "report")
        }
    assert outputs["a"] == outputs["b"]


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "alert-sift 0.1.0 (model format 1)"


def test_module_entry_point_exits_with_mains_code(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "alert_sift.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, check=False)

    ok = run("synth", "--n-tp", "2", "--n-fp", "2", "--n-rules", "2", "--dup", "1")
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == (
        "synth: wrote 4 alerts over 2 rules to alerts.ndjson "
        "(comments rule_comments.csv, truth ground_truth.csv)\n"
    )
    failed = run("label")
    assert (failed.returncode, failed.stdout, failed.stderr) == (1, "", "error: label needs --in\n")
    usage = run("label", "--bogus")
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr.endswith("alert-sift: error: unrecognized arguments: --bogus\n")


def test_every_exported_name_resolves():
    assert len(set(alert_sift.__all__)) == len(alert_sift.__all__)
    for name in alert_sift.__all__:
        assert getattr(alert_sift, name) is not None, name


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "n_tp": 4, "n_fp": 4, "n_rules": 2, "dup": 2, "seed": 5,
                "out": str(tmp_path / "alerts.ndjson"),
                "comments": str(tmp_path / "comments.csv"),
                "truth": str(tmp_path / "truth.csv"),
            }
        )
    )
    run_ok(["synth", "--config", str(config)])
    assert _count_lines(tmp_path / "alerts.ndjson") == 16
    run_ok(["synth", "--config", str(config), "--dup", "1"])
    assert _count_lines(tmp_path / "alerts.ndjson") == 8


def test_missing_required_input_exits_nonzero(capsys):
    assert cli.main(["label"]) == 1
    assert "error:" in capsys.readouterr().err


def test_predict_with_missing_model_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "predictions.csv"
    code = cli.main(
        ["predict", "--in", str(tmp_path / "nope.csv"),
         "--model", str(tmp_path / "missing.json"), "--out", str(out)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_with_only_bad_lines_exits_nonzero(tmp_path, capsys):
    src = tmp_path / "bad.ndjson"
    src.write_text("not json\n{\"also\": \"bad\"}\n")
    out = tmp_path / "parsed.ndjson"
    assert cli.main(["ingest", "--in", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rejected" in err
    assert not out.exists()
    # the error is raised as the write ends, which leaves a previous output as it was
    out.write_text("previous\n", encoding="utf-8")
    assert cli.main(["ingest", "--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: all 2 records rejected; first: line 1: malformed JSON: Expecting value\n"
    )
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ndjson", "parsed.ndjson"]


def test_ingest_reads_the_sidecar_before_the_corpus(tmp_path, capsys):
    src, comments = tmp_path / "alerts.ndjson", tmp_path / "comments.csv"
    src.write_bytes(b'{"src_ip": "\xff"}\n')
    comments.write_text("rule_uuid,rev_comment\nrule-aaa,alerted\nrule-aaa,benign\n",
                        encoding="utf-8")
    argv = ["ingest", "--in", str(src), "--comments", str(comments),
            "--out", str(tmp_path / "out.ndjson")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: duplicate rule_uuid 'rule-aaa'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alerts.ndjson", "comments.csv"]


def test_unknown_profile_exits_nonzero(chain, capsys):
    assert cli.main(["encode", "--in", chain["sampled"], "--profile", "bogus"]) == 1
    assert "profile" in capsys.readouterr().err


def test_evaluate_needs_model_or_kfold(chain, capsys):
    assert cli.main(["evaluate", "--in", chain["matrix"]]) == 1
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["0", "1", "1.5", "nan"])
def test_evaluate_threshold_outside_open_unit_interval_exits_with_error(
    chain, tmp_path, capsys, threshold
):
    report = tmp_path / "report.json"
    for mode in (["--model", chain["model"]], ["--kfold", "3"]):
        argv = ["evaluate", "--in", chain["matrix"], *mode, "--threshold", threshold,
                "--report", str(report)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: threshold must be in (0, 1), got {float(threshold)}\n"
        assert not report.exists()


def test_train_trees_refusal_names_the_flag(chain, tmp_path, capsys):
    # the library checks n_estimators; the user typed --trees (or the config key trees)
    model, config = tmp_path / "model.json", tmp_path / "c.json"
    config.write_text('{"trees": 0}', encoding="utf-8")
    argv = ["train", "--in", chain["matrix"], "--model", str(model)]
    for extra in (["--trees", "0"], ["--config", str(config)]):
        assert cli.main(argv + extra) == 1
        assert capsys.readouterr().err == "error: --trees out of range: 0 (expected >= 1)\n"
        assert not model.exists()


def test_evaluate_kfold_refusal_names_the_flag(chain, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["evaluate", "--in", chain["matrix"], "--kfold", "1", "--report", str(report)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: --kfold out of range: 1 (expected >= 2)\n"
    assert not report.exists()


@pytest.mark.parametrize("command, flag, least", [
    ("synth", "--n-tp", 0), ("synth", "--n-fp", 0), ("synth", "--n-rules", 1),
    ("synth", "--dup", 1), ("sample", "--stride", 1), ("sample", "--per-rule-cap", 1),
    ("select", "--k", 1), ("train", "--trees", 1), ("train", "--depth", 1),
    ("train", "--min-split", 1), ("evaluate", "--kfold", 2),
])
def test_every_bounded_integer_flag_is_refused_by_its_name_before_the_stage_runs(
    tmp_path, monkeypatch, capsys, command, flag, least
):
    # --in names no file: the option is refused before any input is read, whether the
    # value came by flag or by config key; the config file sits outside the watched cwd
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): least - 1}), encoding="utf-8")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = [command] + ([] if command == "synth" else ["--in", "absent"])
    for given in ([flag, str(least - 1)], ["--config", str(config)]):
        assert cli.main(argv + given) == 1
        assert capsys.readouterr() == ("", f"error: {flag} out of range: {least - 1} "
                                           f"(expected >= {least})\n")
        assert os.listdir(cwd) == []


@pytest.mark.parametrize("minutes", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_minutes_per_alert_exits_with_error(chain, tmp_path, capsys, minutes):
    report = tmp_path / "report.json"
    argv = ["evaluate", "--in", chain["matrix"], "--model", chain["model"],
            f"--minutes-per-alert={minutes}", "--report", str(report)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: minutes_per_alert must be finite")
    assert not report.exists()


def test_evaluate_kfold_with_negative_seed(chain, tmp_path):
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    run_ok(["evaluate", "--in", chain["matrix"], "--kfold", "3", "--seed", "-1",
            "--report", str(report)])
    folds = json.loads(report.read_text(encoding="utf-8"))["per_fold"]
    # a model trained with seed -1 carries that seed into its folds
    run_ok(["train", "--in", chain["matrix"], "--model", str(model), "--trees", "5",
            "--seed", "-1"])
    run_ok(["evaluate", "--in", chain["matrix"], "--model", str(model), "--kfold", "3",
            "--report", str(report)])
    assert len(folds) == len(json.loads(report.read_text(encoding="utf-8"))["per_fold"]) == 3


@pytest.mark.parametrize("model", [True, False])
def test_evaluate_kfold_takes_the_models_seed_over_seed(chain, tmp_path, model):
    # with --model the folds are grown with the model's own seed, so --seed changes no byte
    reports = []
    for seed in ("1", "2"):
        report = tmp_path / f"report_{seed}.json"
        argv = ["evaluate", "--in", chain["matrix"], "--kfold", "3", "--seed", seed,
                "--report", str(report)]
        run_ok(argv + (["--model", chain["model"]] if model else []))
        reports.append(report.read_bytes())
    assert (reports[0] == reports[1]) is model


def test_evaluate_kfold_summary(chain, tmp_path):
    report = tmp_path / "cv_report.json"
    summary = tmp_path / "summary.csv"
    run_ok(
        ["evaluate", "--in", chain["matrix"], "--model", chain["model"],
         "--kfold", "4", "--report", str(report), "--summary", str(summary)]
    )
    with open(report, encoding="utf-8") as fh:
        data = json.load(fh)
    assert len(data["per_fold"]) == 4
    assert data["mean"] is not None and data["variance"] is not None
    lines = summary.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert {"accuracy", "savings_hours", "kfold_mean_accuracy"} <= keys


def _first_leaf(node):
    while "feature" in node:
        node = node["left"]
    return node


_MODEL_MUTATIONS = {
    "feature-out-of-range": lambda m: m["trees"][0].update(feature=99),
    "feature-negative": lambda m: m["trees"][0].update(feature=-1),
    "feature-not-integer": lambda m: m["trees"][0].update(feature="3"),
    "split-without-left": lambda m: m["trees"][0].pop("left"),
    "split-without-right": lambda m: m["trees"][0].pop("right"),
    "split-without-threshold": lambda m: m["trees"][0].pop("threshold"),
    "threshold-nan": lambda m: m["trees"][0].update(threshold=float("nan")),
    "threshold-inf": lambda m: m["trees"][0].update(threshold=float("inf")),
    "leaf-negative-count": lambda m: _first_leaf(m["trees"][0]).update(tp=-1),
    "leaf-fractional-count": lambda m: _first_leaf(m["trees"][0]).update(fp=1.5),
    "leaf-without-count": lambda m: _first_leaf(m["trees"][0]).pop("tp"),
    "leaf-empty": lambda m: _first_leaf(m["trees"][0]).update(tp=0, fp=0),
    "leaf-count-too-large": lambda m: _first_leaf(m["trees"][0]).update(tp=2**64),
    "no-trees": lambda m: m.update(trees=[]),
    "no-params": lambda m: m.pop("params"),
    "params-not-numbers": lambda m: m["params"].update(n_estimators="x"),
    "params-key-with-newline": lambda m: m["params"].update({"\n": None}),
    "profile-unknown": lambda m: m.update(profile="bogus"),
    "profile-not-a-string": lambda m: m.update(profile=[1]),
    "profile-of-another-width": lambda m: m.update(profile="full29"),
}


@pytest.mark.parametrize("mutation", sorted(_MODEL_MUTATIONS))
def test_malformed_model_exits_with_error(chain, tmp_path, capsys, mutation):
    with open(chain["model"], encoding="utf-8") as fh:
        model = json.load(fh)
    _MODEL_MUTATIONS[mutation](model)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(model))
    for argv in (
        ["predict", "--out", str(tmp_path / "predictions.csv")],
        ["explain", "--out", str(tmp_path / "importance.csv"), "--row", "0",
         "--attribution-out", str(tmp_path / "attribution.json")],
        ["evaluate", "--report", str(tmp_path / "report.json")],
    ):
        assert cli.main(argv + ["--in", chain["matrix"], "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.glob("*.csv")) and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["select", "train", "evaluate"])
def test_matrix_without_a_label_column_exits_with_the_shared_error(
    chain, tmp_path, capsys, command
):
    with open(chain["matrix"], encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    assert rows[0][-1] == "label"
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("".join(",".join(r[:-1]) + "\n" for r in rows), encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "select": ["--out", out],
        "train": ["--model", out],
        "evaluate": ["--model", chain["model"], "--report", out],
    }[command]
    assert cli.main([command, "--in", str(unlabeled), *argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {unlabeled} has no label column; run encode on labeled input\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["unlabeled.csv"]


@pytest.mark.parametrize("command", ["evaluate", "explain", "predict"])
def test_model_stage_reads_the_model_before_the_matrix(tmp_path, capsys, command):
    matrix, model = tmp_path / "missing.csv", tmp_path / "missing.json"
    flag = "--report" if command == "evaluate" else "--out"
    argv = [command, "--in", str(matrix), "--model", str(model), flag, str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{model}'\n"


def test_swapped_matrix_columns_exit_with_error(chain, tmp_path, capsys):
    # swapping two columns keeps the width but breaks the model's encoding
    with open(chain["matrix"], encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    assert rows[0][:2] == ["priv_src_ip", "priv_dst_ip"]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(",".join([r[1], r[0]] + r[2:]) + "\n" for r in rows))
    for argv in (
        ["predict", "--out", str(tmp_path / "predictions.csv")],
        ["explain", "--out", str(tmp_path / "importance.csv")],
        ["evaluate", "--report", str(tmp_path / "report.json")],
    ):
        assert cli.main(argv + ["--in", str(swapped), "--model", chain["model"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'priv_dst_ip'" in err and "'priv_src_ip'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["swapped.csv"]


@pytest.mark.parametrize("label", ['"x"', "true", "1.5", '"1"'])
def test_label_other_than_integer_0_or_1_exits_with_error(chain, tmp_path, capsys, label):
    with open(chain["sampled"], encoding="utf-8") as fh:
        good, record = fh.readline(), json.loads(fh.readline())
    record["label"] = json.loads(label)
    bad = tmp_path / "bad.ndjson"
    bad.write_text(good + json.dumps(record) + "\n", encoding="utf-8")
    for argv in (
        ["encode", "--out", str(tmp_path / "matrix.csv")],
        ["sample", "--out", str(tmp_path / "sampled.ndjson")],
    ):
        assert cli.main(argv + ["--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} line 2: ") and label in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ndjson"]


def test_labeled_line_that_is_not_an_object_exits_with_error(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("5\n", encoding="utf-8")
    assert cli.main(["encode", "--in", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad} line 1: ")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "trees", "abc"),
        ("train", "depth", 2.5),
        ("train", "seed", True),
        ("synth", "n_tp", "many"),
        ("synth", "signal", [0.9]),
        ("predict", "threshold", "high"),
        ("predict", "out", {"path": "p.csv"}),
        ("evaluate", "kfold", None),
        ("evaluate", "minutes_per_alert", "four"),
    ],
)
def test_ill_typed_config_value_exits_with_error(chain, tmp_path, capsys, command, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = {
        "train": ["--in", chain["matrix"], "--model", str(tmp_path / "model.json")],
        "synth": ["--out", str(tmp_path / "a.ndjson"), "--comments", str(tmp_path / "c.csv"),
                  "--truth", str(tmp_path / "t.csv")],
        "predict": ["--in", chain["matrix"], "--model", chain["model"]],
        "evaluate": ["--in", chain["matrix"], "--model", chain["model"],
                     "--report", str(tmp_path / "report.json")],
    }[command]
    assert cli.main([command, "--config", str(config)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "command, key",
    [
        ("train", "tress"),
        ("train", "min_samples_split"),
        ("synth", "n-tp"),
        ("predict", "treshold"),
        ("train", "config"),
    ],
)
def test_unknown_config_key_exits_with_error(chain, tmp_path, capsys, command, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 5}), encoding="utf-8")
    argv = {
        "train": ["--in", chain["matrix"], "--model", str(tmp_path / "model.json")],
        "synth": ["--out", str(tmp_path / "a.ndjson"), "--comments", str(tmp_path / "c.csv"),
                  "--truth", str(tmp_path / "t.csv")],
        "predict": ["--in", chain["matrix"], "--model", chain["model"],
                    "--out", str(tmp_path / "p.csv")],
    }[command]
    assert cli.main([command, "--config", str(config)] + argv) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_config_key_of_another_subcommand_is_allowed(chain, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trees": 3, "kfold": 4, "n_rules": 9}), encoding="utf-8")
    model = tmp_path / "model.json"
    run_ok(["train", "--config", str(config), "--in", chain["matrix"], "--model", str(model)])
    assert len(json.loads(model.read_text(encoding="utf-8"))["trees"]) == 3


_LONG_INT = "9" * 5000  # past int()'s 4,300-digit limit, so json.loads cannot convert it
_DEEP_LIST = "[" * 100_000 + "]" * 100_000  # deeper than json.loads can recurse


@pytest.mark.parametrize("value", [_LONG_INT, _DEEP_LIST], ids=["long-integer", "deep-list"])
@pytest.mark.parametrize("where", ["config", "ingest", "label", "sample", "model"])
def test_json_that_python_cannot_decode_exits_with_error(chain, tmp_path, capsys, where, value):
    src, out = tmp_path / "in", tmp_path / "out"
    line = _labeled_line().replace('"payload_len": 320', '"payload_len": ' + value)
    if where == "config":
        src.write_text('{"trees": ' + value + "}", encoding="utf-8")
        argv = ["train", "--config", str(src), "--in", chain["matrix"], "--model", str(out)]
        expected = "error: invalid JSON input: "
    elif where == "ingest":
        src.write_text(line + "\n", encoding="utf-8")
        argv = ["ingest", "--in", str(src), "--out", str(out)]
        expected = "error: all 1 records rejected; first: line 1: unreadable JSON: "
    elif where == "model":
        with open(chain["model"], encoding="utf-8") as fh:
            model = json.load(fh)
        model["params"]["n_estimators"] = 0
        src.write_text(json.dumps(model).replace('"n_estimators": 0', '"n_estimators": ' + value),
                       encoding="utf-8")
        argv = ["predict", "--in", chain["matrix"], "--model", str(src), "--out", str(out)]
        expected = "error: invalid JSON input: "
    else:
        src.write_text(_labeled_line() + "\n" + line + "\n", encoding="utf-8")
        argv = [where, "--in", str(src), "--out", str(out)]
        expected = f"error: {src} line 2: unreadable JSON: "
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected) and err.count("\n") == 1
    assert not out.exists()


def test_train_on_adjacent_doubles_exits_zero(tmp_path):
    # the midpoint of two adjacent doubles rounds onto the upper one; the
    # split must still separate them
    matrix, model = tmp_path / "m.csv", tmp_path / "model.json"
    lo, hi = "1.0000000000000002", "1.0000000000000004"
    matrix.write_text(f"x,label\n{lo},0\n{lo},0\n{hi},1\n{hi},1\n", encoding="utf-8")
    run_ok(["train", "--in", str(matrix), "--model", str(model), "--trees", "20"])
    with open(model, encoding="utf-8") as fh:
        forest = load_forest(fh)
    proba = predict_proba_batch(forest, np.array([[float(lo)], [float(hi)]]))
    assert proba[0] < 0.5 <= proba[1]


@pytest.fixture(scope="module")
def header_only_matrix(tmp_path_factory):
    """encode of an empty labeled file, as an empty test split gives."""
    d = tmp_path_factory.mktemp("empty")
    (d / "test.ndjson").write_text("", encoding="utf-8")
    run_ok(["encode", "--in", str(d / "test.ndjson"), "--out", str(d / "test.csv")])
    return d / "test.csv"


def test_encode_of_empty_labeled_file_writes_header_only_matrix(header_only_matrix):
    header = ",".join(feature_names(FeatureProfile.CORE20)) + ",label\n"
    assert header_only_matrix.read_text(encoding="utf-8") == header


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("train", 1, "error: training needs at least 2 samples"),
        ("predict", 0, "predict: 0 rows, 0 filtered as fp -> {out}"),
        ("evaluate", 0, "evaluate: accuracy n/a, tp_recall n/a, savings 0.0h -> {out}"),
        ("explain", 1, "error: {src} has no rows to explain"),
    ],
)
def test_later_stages_on_header_only_matrix(
    chain, header_only_matrix, tmp_path, capsys, command, code, message
):
    out = tmp_path / "out"
    argv = [command, "--in", str(header_only_matrix)]
    if command == "train":
        argv += ["--model", str(out)]
    else:
        flag = "--report" if command == "evaluate" else "--out"
        argv += ["--model", chain["model"], flag, str(out)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err if code else captured.out) == message.format(
        out=out, src=header_only_matrix
    ) + "\n"
    if code:
        assert not out.exists()
    elif command == "predict":
        assert out.read_text(encoding="utf-8") == "row,proba,label\n"
    else:
        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report["confusion"].values()) == {0}
        assert set(report["metrics"].values()) == {None}


_NESTED_FIELD_MAP = {
    "src_ip": "net.src.addr",
    "dst_ip": "net.dst.addr",
    "rule_uuid": "meta.rule.id",
    "rule_sid": "meta.rule.sid",
    "timestamp": "meta.when",
}


def _nest(record: dict) -> dict:
    """Move the remapped fields of one synth record to their nested paths."""
    flat = {
        "src_ip": record.pop("src_ip"),
        "dst_ip": record.pop("dest_ip"),
        "rule_uuid": record.pop("rule_uuid"),
        "rule_sid": record["alert"].pop("signature_id"),
        "timestamp": record.pop("timestamp"),
    }
    for name, path in _NESTED_FIELD_MAP.items():
        *parents, last = path.split(".")
        node = record
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = flat[name]
    return record


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """The stages that read alert NDJSON, run once on a small synth corpus."""
    d = tmp_path_factory.mktemp("digests")
    alerts, comments = str(d / "alerts.ndjson"), str(d / "comments.csv")
    run_ok(["synth", "--out", alerts, "--comments", comments, "--truth", str(d / "truth.csv"),
            "--n-tp", "40", "--n-fp", "40", "--n-rules", "6", "--dup", "4", "--seed", "11"])
    with open(alerts, encoding="utf-8") as fh:
        nested = [json.dumps(_nest(json.loads(line)), sort_keys=True) for line in fh]
    (d / "nested.ndjson").write_text("\n".join(nested) + "\n", encoding="utf-8")
    (d / "nested.map").write_text(
        "".join(f"{name}={path}\n" for name, path in _NESTED_FIELD_MAP.items()), encoding="utf-8"
    )
    run_ok(["ingest", "--in", str(d / "nested.ndjson"), "--field-map", str(d / "nested.map"),
            "--out", str(d / "ingested_nested.ndjson")])
    run_ok(["ingest", "--in", alerts, "--comments", comments,
            "--out", str(d / "ingested.ndjson")])
    run_ok(["label", "--in", alerts, "--comments", comments,
            "--out", str(d / "labeled_sidecar.ndjson")])
    run_ok(["label", "--in", str(d / "ingested.ndjson"),
            "--out", str(d / "labeled_embedded.ndjson")])
    run_ok(["sample", "--in", str(d / "labeled_sidecar.ndjson"), "--stride", "2",
            "--per-rule-cap", "8", "--split-date", "2025-03-01T00:00:00Z",
            "--train-out", str(d / "train.ndjson"), "--test-out", str(d / "test.ndjson")])
    run_ok(["sample", "--in", str(d / "labeled_sidecar.ndjson"), "--stride", "4",
            "--out", str(d / "strided.ndjson")])
    (d / "caps.txt").write_text(
        "pkts_cap=7\nbytes_cap=3000\npayload_cap=200\nsid_max=2500000\n", encoding="utf-8"
    )
    for split in ("train", "test"):
        for name, extra in _MATRIX_RUNS.items():
            run_ok(["encode", "--in", str(d / f"{split}.ndjson"),
                    "--out", str(d / f"{split}_{name}.csv"), *extra(d)])
    # a weak-signal corpus, so that evaluate reports neither perfect nor undefined metrics
    noisy = str(d / "noisy.ndjson")
    run_ok(["synth", "--out", noisy, "--comments", str(d / "noisy_comments.csv"),
            "--truth", str(d / "noisy_truth.csv"), "--n-tp", "60", "--n-fp", "60",
            "--n-rules", "8", "--dup", "1", "--signal", "0.2", "--seed", "5"])
    run_ok(["label", "--in", noisy, "--comments", str(d / "noisy_comments.csv"),
            "--out", str(d / "noisy_labeled.ndjson")])
    run_ok(["encode", "--in", str(d / "noisy_labeled.ndjson"), "--out", str(d / "noisy.csv")])
    model = str(d / "model.json")
    run_ok(["train", "--in", str(d / "train_core20.csv"), "--model", model, "--trees", "10"])
    run_ok(["evaluate", "--in", str(d / "noisy.csv"), "--model", model, "--threshold", "0.6",
            "--report", str(d / "report_model.json"), "--summary", str(d / "summary_model.csv")])
    run_ok(["evaluate", "--in", str(d / "noisy.csv"), "--kfold", "4", "--seed", "3",
            "--report", str(d / "report_kfold.json"), "--summary", str(d / "summary_kfold.csv")])
    return d


# encode options per matrix run; the caps file sets all four caps off their defaults
_MATRIX_RUNS = {
    "core20": lambda d: ["--profile", "core20"],
    "full29": lambda d: ["--profile", "full29"],
    "caps": lambda d: ["--caps", str(d / "caps.txt")],
}


# sha256 of each output, computed before label, sample and ingest were
# rewritten to decode each line once; any change to the bytes fails here.
_GOLDEN_DIGESTS = {
    "ingested_nested.ndjson": "606eb044ea5af51e11b67dd3d7e2c47eb4e5a94850e88e2fea3504f2db56a517",
    "ingested.ndjson": "c5b30f836f8ed83e07696840072d6b4e4329193e0c45e1dcca4273c63f372b40",
    "labeled_sidecar.ndjson": "3f0ae61bac18e95ad183efc657122a518c75809c70b1e616940ba334fc5ea4e5",
    "labeled_embedded.ndjson": "3f0ae61bac18e95ad183efc657122a518c75809c70b1e616940ba334fc5ea4e5",
    "train.ndjson": "dfb63fe765afa1847cde9fc1d544025c1c24270ef8a7c0e7ec14a7839939591f",
    "test.ndjson": "87688b842bc37805219c8bfee739aadebd018c2f9fc57e2f2eaf2b5d48f7a1a5",
    "strided.ndjson": "110aadf70d85f7658289960ac253bab87f383d72bc9d631709219064886f9aef",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
def test_ndjson_stage_output_matches_golden_digest(digest_run, name):
    data = (digest_run / name).read_bytes()
    assert data.count(b"\n") > 0
    assert hashlib.sha256(data).hexdigest() == _GOLDEN_DIGESTS[name]


# sha256 of each encoded matrix, computed before encode_alert parsed each
# address once without ipaddress; any change to a feature value fails here.
_MATRIX_DIGESTS = {
    "train_core20.csv": "078422b1057086b9d9604a7d20c5739a14ec4788f7da3a6884d178792952125a",
    "test_core20.csv": "cc2ccba12dc485b9f183361ef1c937b3871f9e2eb3180d51e6eee927fbeeefea",
    "train_full29.csv": "e9479e2a1ffa2577dd2c2ffa3aff021df93ca4dcd2203137ed0ac652ac7053ac",
    "test_full29.csv": "05d101587ecee6863a072718f9158fcc3ed3e65d6c5ae36f32bf553d1dc61bf5",
    "train_caps.csv": "ff09c8aa9490069c8f931ea66f76874c1068c1ceaa30cf3413ce713e717d0876",
    "test_caps.csv": "f44308a7d70a766abff889879c84d50a405b513849ce3c62a9aa920990518100",
}


@pytest.mark.parametrize("name", sorted(_MATRIX_DIGESTS))
def test_encoded_matrix_matches_golden_digest(digest_run, name):
    data = (digest_run / name).read_bytes()
    assert data.count(b"\n") > 1
    assert hashlib.sha256(data).hexdigest() == _MATRIX_DIGESTS[name]


# sha256 of synth's three outputs and of evaluate's report and summary, computed
# before generate_corpus and cmd_evaluate were rewritten; any changed byte fails here.
_RUN_DIGESTS = {
    "alerts.ndjson": "0574f874355b763ef50dc1d63e2955aefac9ae3edbd6c0c4f7ab725d39467ed8",
    "comments.csv": "ce098c767d5367781e4431f9172e716e3ee3785119757e6636682141184dc4df",
    "truth.csv": "f6b171c9c10b5f6456df1f43e6077c7099c08e08cfa3fe3cff53aedd605223bb",
    "noisy.ndjson": "40a9b81059712c398230f083a6ca1b021a4d3f0471468f13665680de5bd4ba76",
    "report_model.json": "4d55b67c6d04be53ef0145a9f9409acc0ad7cfa37d6e98882b73b7fa4923868d",
    "summary_model.csv": "7a75c464cf8329b61e6d597adbc9a6e919794bdd7d418fbf37162849aa205880",
    "report_kfold.json": "3f5f1b1568c4709e5b9d11c3b765f8840a4c9fd89417e02f0044174eb4ea53bb",
    "summary_kfold.csv": "68777cef6eb0b15a3aa07847c855f0d0945d69cd63453a56fde5c693c494400b",
}


@pytest.mark.parametrize("name", sorted(_RUN_DIGESTS))
def test_synth_and_evaluate_output_matches_golden_digest(digest_run, name):
    data = (digest_run / name).read_bytes()
    assert data.count(b"\n") > 1
    assert hashlib.sha256(data).hexdigest() == _RUN_DIGESTS[name]


def _labeled_line(**overrides) -> str:
    return json.dumps({**make_record(**overrides), "label": 1}, sort_keys=True)


@pytest.mark.parametrize("command", ["sample", "encode"])
@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ('{"label" 1}', "malformed JSON: Expecting ':' delimiter"),
        (_labeled_line(src_ip="999.1.1.1"), "src_ip is not a valid IP address: '999.1.1.1'"),
        (_labeled_line(rule_uuid={"a": [1]}), "rule_uuid must be a string, got {'a': [1]}"),
    ],
    ids=["malformed-json", "bad-address", "non-string-rule"],
)
def test_labeled_input_errors_name_file_and_line(tmp_path, capsys, command, bad_line, reason):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(_labeled_line() + "\n" + bad_line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--in", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad} line 2: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ndjson"]


def test_invalid_address_repeated_in_labeled_input_fails_on_its_first_line(tmp_path, capsys):
    # the first line validates 203.0.113.7; a later bad address still fails
    lines = [_labeled_line(), _labeled_line(dest_ip="10.0.0.300"), _labeled_line()]
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("sample", "encode"):
        assert cli.main([command, "--in", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad} line 2: dst_ip is not a valid IP address: '10.0.0.300'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ndjson"]


def _narrower_matrix(path: Path, chain: dict) -> Path:
    """The chain's matrix without its first column: 19 features for a 20-feature model."""
    with open(chain["matrix"], encoding="utf-8") as fh:
        path.write_text("".join(line.split(",", 1)[1] for line in fh), encoding="utf-8")
    return path


def _written(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# each refusal: (argv, error text) from the inputs directory and the chain; no argv
# names an output, so any output would land in the working directory as its default
_REFUSALS = {
    "sample-labeled-line-without-label": lambda d, chain: (
        ["sample", "--in", str(_written(d / "a.ndjson", make_line() + "\n"))],
        f"{d / 'a.ndjson'} line 1: missing label field",
    ),
    "encode-labeled-line-without-label": lambda d, chain: (
        ["encode", "--in", str(_written(d / "a.ndjson", make_line() + "\n"))],
        f"{d / 'a.ndjson'} line 1: missing label field",
    ),
    "empty-matrix": lambda d, chain: (
        ["train", "--in", str(_written(d / "m.csv", ""))],
        "matrix CSV is empty",
    ),
    "empty-rule-comments": lambda d, chain: (
        ["label", "--in", chain["alerts"], "--comments", str(_written(d / "c.csv", ""))],
        "rule-comment CSV is empty",
    ),
    "config-not-an-object": lambda d, chain: (
        ["train", "--config", str(_written(d / "c.json", "[]")), "--in", chain["matrix"]],
        f"config file {d / 'c.json'} must hold a JSON object",
    ),
    "config-value-with-nul": lambda d, chain: (
        ["encode", "--config", str(_written(d / "c.json", '{"out": "m\\u0000.csv"}')),
         "--in", chain["sampled"]],
        "config key 'out' holds a NUL character",
    ),
    "model-not-an-object": lambda d, chain: (
        ["predict", "--in", chain["matrix"], "--model", str(_written(d / "m.json", "[]"))],
        "model file must hold a JSON object",
    ),
    "matrix-narrower-than-model": lambda d, chain: (
        ["predict", "--in", str(_narrower_matrix(d / "m.csv", chain)), "--model", chain["model"]],
        f"{d / 'm.csv'} has 19 features but the model expects 20",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusal_exits_1_with_its_error_and_writes_nothing(
    chain, tmp_path, monkeypatch, capsys, case
):
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    monkeypatch.chdir(work)
    argv, error = _REFUSALS[case](inputs, chain)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not any(work.iterdir())


@pytest.mark.parametrize("command", ["ingest", "label", "sample", "encode"])
def test_each_line_is_decoded_once(chain, tmp_path, monkeypatch, command):
    # a clean line is one call of the scanner and never reaches json.loads; a line
    # decoded twice, by either, makes one count too many
    scans, loads = [], []
    scan, json_loads = ingest._SCAN, json.loads
    monkeypatch.setattr(ingest, "_SCAN", lambda text, idx: scans.append(text) or scan(text, idx))
    monkeypatch.setattr(json, "loads", lambda text, **kw: loads.append(text) or json_loads(text, **kw))
    src = chain["labeled"] if command in ("sample", "encode") else chain["alerts"]
    argv = [command, "--in", src, "--out", str(tmp_path / "out")]
    run_ok(argv + (["--comments", chain["comments"]] if command == "label" else []))
    assert len(scans) == _count_lines(src) > 0
    assert loads == []


@pytest.mark.parametrize(
    "corpus_error, sidecar",
    [
        ("src_ip is not a valid IP address: '1.2.3'", "rule_uuid,rev_comment\n"),
        (None, "rule_uuid,rev_comment\nrule-aaa,alerted\nrule-aaa,benign\n"),
    ],
)
def test_failing_label_writes_no_output(tmp_path, capsys, corpus_error, sidecar):
    lines = [json.dumps(make_record())] * 3
    if corpus_error:
        lines.append(json.dumps(make_record(src_ip="1.2.3")))
    src, comments = tmp_path / "alerts.ndjson", tmp_path / "comments.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    comments.write_text(sidecar, encoding="utf-8")
    labeled = tmp_path / "labeled.ndjson"
    argv = ["label", "--in", str(src), "--comments", str(comments), "--out", str(labeled)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    expected = f"{src} line 4: {corpus_error}" if corpus_error else "duplicate rule_uuid"
    assert err.startswith("error: ") and expected in err
    assert not labeled.exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_line(draw, line: str) -> tuple[str, bool]:
    """A mutation of one NDJSON or CSV line, and whether it can no longer be valid."""
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "delete", "value"]))
    if kind == "value" and not line.startswith("{"):  # a CSV line: replace one cell
        cells = line.split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = str(draw(_JSON_VALUES))
        return ",".join(cells), False
    if kind == "value":  # replace a value at any depth
        record = json.loads(line)
        node, key = record, draw(st.sampled_from(sorted(record)))
        while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
        node[key] = draw(_JSON_VALUES)
        return json.dumps(record), False
    i = draw(st.integers(0, len(line) - 1))
    if kind == "truncate":  # a non-empty proper prefix of a JSON object is never JSON
        return line[:max(i, 1)], True
    char = draw(st.characters(codec="utf-8", exclude_characters="\n\r"))
    if kind == "replace":
        return line[:i] + char + line[i + 1:], False
    if kind == "insert":
        return line[:i] + char + line[i:], False
    return line[:i] + line[i + 1:], False


@pytest.mark.parametrize("command", ["label", "sample", "encode"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_ndjson_line_exits_with_error_never_a_traceback(command, data):
    if command == "label":
        line = json.dumps(make_record(rev_comment="alerted the customer"), sort_keys=True)
    else:
        line = _labeled_line()
    mutated, must_fail = data.draw(_mutated_line(line))
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.ndjson", Path(tmp) / "out"
        src.write_text(line + "\n" + mutated + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--in", str(src), "--out", str(out)])
        if code == 0:
            assert not must_fail and out.exists()
        else:
            assert code == 1
            assert err.getvalue().startswith(f"error: {src} line 2: ")
            assert err.getvalue().count("\n") == 1
            assert not out.exists()


@pytest.mark.parametrize("command", ["label", "sample", "encode"])
def test_input_that_is_not_utf8_exits_with_error(tmp_path, capsys, command):
    src, out = tmp_path / "in.ndjson", tmp_path / "out"
    src.write_bytes(_labeled_line().encode() + b'\n{"src_ip": "\xff"}\n')
    assert cli.main([command, "--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: input is not UTF-8 text: ")
    assert not out.exists()


def test_label_writes_the_sidecar_comment_over_the_embedded_one(tmp_path):
    src, comments = tmp_path / "alerts.ndjson", tmp_path / "comments.csv"
    src.write_text(json.dumps(make_record(rev_comment="expected benign scan")) + "\n",
                   encoding="utf-8")
    comments.write_text("rule_uuid,rev_comment\nrule-aaa,alerted the customer\n",
                        encoding="utf-8")
    labeled = tmp_path / "labeled.ndjson"
    run_ok(["label", "--in", str(src), "--comments", str(comments), "--out", str(labeled)])
    record = json.loads(labeled.read_text(encoding="utf-8"))
    assert (record["label"], record["rev_comment"]) == (1, "alerted the customer")


def test_label_refuses_a_rule_whose_embedded_comments_differ(tmp_path, capsys):
    # the rule's first alert says TP and its other nine say FP: neither may win silently
    src, out, lists = (tmp_path / name for name in ("alerts.ndjson", "labeled.ndjson", "lists.csv"))
    lines = [make_line(rev_comment="alerted the client")]
    lines += [make_line(rev_comment="expected benign scanner")] * 9
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out.write_text("previous\n", encoding="utf-8")
    argv = ["label", "--in", str(src), "--out", str(out), "--lists", str(lists)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {src} line 2: rule_uuid 'rule-aaa' has differing comments "
        "'alerted the client' and 'expected benign scanner'\n"
    )
    assert out.read_text(encoding="utf-8") == "previous\n" and not lists.exists()
    # one comment repeated, beside alerts with none or an empty one, is no conflict
    lines[0] = make_line(rev_comment="")
    src.write_text("\n".join(lines + [make_line()]) + "\n", encoding="utf-8")
    run_ok(argv)
    labels = [json.loads(line)["label"] for line in out.read_text(encoding="utf-8").splitlines()]
    assert labels == [0] * 11
    assert lists.read_text(encoding="utf-8").splitlines()[1:] == [
        "rule-aaa,expected benign scanner,0"
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_model_exits_with_error_never_a_traceback(chain, data):
    with open(chain["model"], encoding="utf-8") as fh:
        mutated, _ = data.draw(_mutated_line(fh.read()))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(mutated, encoding="utf-8")
        for argv in (
            ["predict", "--out", f"{tmp}/predictions.csv"],
            ["evaluate", "--report", f"{tmp}/report.json"],
            ["explain", "--out", f"{tmp}/importance.csv", "--row", "0",
             "--attribution-out", f"{tmp}/attribution.json"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--in", chain["matrix"], "--model", str(model)])
            if code != 0:
                assert code == 1
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_matrix_exits_with_error_never_a_traceback(chain, data):
    with open(chain["matrix"], encoding="utf-8") as fh:
        lines = fh.readlines()
    i = data.draw(st.integers(1, len(lines) - 1))  # one data line
    lines[i] = data.draw(_mutated_line(lines[i].rstrip("\n")))[0] + "\n"
    model = chain["model"]
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "matrix.csv"
        matrix.write_text("".join(lines), encoding="utf-8")
        for stage, outputs in (
            ("select", lambda d: ["--out", f"{d}/selection.json"]),
            ("train", lambda d: ["--model", f"{d}/model.json", "--trees", "5"]),
            ("evaluate", lambda d: ["--model", model, "--report", f"{d}/report.json"]),
            ("explain", lambda d: ["--model", model, "--out", f"{d}/importance.csv", "--row", "0",
                                   "--attribution-out", f"{d}/attribution.json"]),
            ("predict", lambda d: ["--model", model, "--out", f"{d}/predictions.csv"]),
        ):
            out = Path(tmp) / stage
            out.mkdir()
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([stage, "--in", str(matrix), *outputs(out)])
            if code != 0:
                assert code == 1
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert not any(out.iterdir())


def test_matrix_label_other_than_0_or_1_is_refused(chain, tmp_path, capsys):
    with open(chain["matrix"], encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = lines[1].rstrip("\n").rpartition(",")[0] + ",2\n"
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("".join(lines), encoding="utf-8")
    for argv in (
        ["select", "--out", str(tmp_path / "selection.json")],
        ["train", "--model", str(tmp_path / "model.json")],
        ["evaluate", "--model", chain["model"], "--report", str(tmp_path / "report.json")],
    ):
        assert cli.main(argv + ["--in", str(matrix)]) == 1
        err = capsys.readouterr().err
        assert err == "error: matrix CSV line 2: label must be 0 or 1, got '2'\n"
    assert os.listdir(tmp_path) == ["matrix.csv"]


def test_matrix_that_names_a_column_twice_is_refused(chain, tmp_path, capsys):
    # one column's chi2 score, or one phi entry, would otherwise stand for both
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("a,a,label\n0,1,1\n1,0,0\n0,0,1\n1,1,0\n", encoding="utf-8")
    for argv in (
        ["select", "--out", str(tmp_path / "selection.json")],
        ["train", "--model", str(tmp_path / "model.json")],
        ["explain", "--model", chain["model"], "--out", str(tmp_path / "importance.csv"),
         "--row", "0", "--attribution-out", str(tmp_path / "attribution.json")],
    ):
        assert cli.main(argv + ["--in", str(matrix)]) == 1
        assert capsys.readouterr().err == "error: matrix CSV header names column 'a' twice\n"
    assert os.listdir(tmp_path) == ["matrix.csv"]


@pytest.mark.parametrize("cells", [["1e200"], ["1.7e308", "1.7e308"]])
def test_select_refuses_a_chi2_score_past_the_largest_double(chain, tmp_path, capsys, cells):
    # a square, or a column sum, past the largest double: no score, so no selection.json
    with open(chain["matrix"], encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, cell in enumerate(cells, start=1):
        lines[i] = cell + "," + lines[i].partition(",")[2]
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("".join(lines), encoding="utf-8")
    argv = ["select", "--in", str(matrix), "--out", str(tmp_path / "selection.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: chi2 scores overflow: feature values are too large\n"
    assert os.listdir(tmp_path) == ["matrix.csv"]


def test_ingest_refuses_a_sidecar_that_lists_a_rule_twice(tmp_path, capsys):
    src, comments, out = tmp_path / "alerts.ndjson", tmp_path / "comments.csv", tmp_path / "out"
    src.write_text(make_line() + "\n", encoding="utf-8")
    comments.write_text("rule_uuid,rev_comment\nrule-aaa,alerted\nrule-aaa,benign\n",
                        encoding="utf-8")
    for command in ("ingest", "label"):
        assert cli.main([command, "--in", str(src), "--comments", str(comments),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: duplicate rule_uuid 'rule-aaa'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alerts.ndjson", "comments.csv"]


def test_label_reports_a_bad_sidecar_before_a_bad_corpus(tmp_path, capsys):
    # the rules are read before the first alert, so the sidecar's error wins
    src, comments = tmp_path / "alerts.ndjson", tmp_path / "comments.csv"
    src.write_text(make_line(src_ip="1.2.3") + "\n", encoding="utf-8")
    comments.write_text("rule_uuid,rev_comment\nrule-aaa,alerted\nrule-aaa,benign\n",
                        encoding="utf-8")
    argv = ["label", "--in", str(src), "--comments", str(comments),
            "--out", str(tmp_path / "labeled.ndjson")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: duplicate rule_uuid 'rule-aaa'\n"
    comments.write_text("rule_uuid,rev_comment\nrule-aaa,alerted\n", encoding="utf-8")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {src} line 1: src_ip is not a valid IP address: '1.2.3'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alerts.ndjson", "comments.csv"]


@pytest.mark.parametrize(
    "command, source, options",
    [
        ("label", "alerts", lambda p: ["--comments", p["comments"]]),
        ("label", "labeled", lambda p: []),  # the labeled file embeds each rule's comment
        ("sample", "labeled", lambda p: ["--stride", "5"]),
        ("ingest", "alerts", lambda p: ["--comments", p["comments"]]),
    ],
    ids=["label-sidecar", "label-embedded", "sample", "ingest"],
)
def test_stage_writing_over_its_own_input_gives_the_same_bytes(
    chain, tmp_path, command, source, options
):
    extra = options(chain)
    separate, same = tmp_path / "separate.ndjson", tmp_path / "same.ndjson"
    shutil.copyfile(chain[source], same)
    run_ok([command, "--in", chain[source], "--out", str(separate), *extra])
    run_ok([command, "--in", str(same), "--out", str(same), *extra])
    assert same.read_bytes() == separate.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["same.ndjson", "separate.ndjson"]


_SIDECAR = "rule_uuid,rev_comment\nrule-aaa,alerted\n"


@pytest.mark.parametrize(
    "command, tail, error",
    [
        ("label", b'{"src_ip": \n', "{src} line 2001: malformed JSON"),
        ("label", _labeled_line(src_ip="1.2.3").encode() + b"\n", "{src} line 2001: src_ip"),
        ("label", b"\n", "{src} line 2001: empty line"),
        ("label", b'{"src_ip": "\xff"}\n', "input is not UTF-8 text"),
        ("sample", _labeled_line(src_ip="1.2.3").encode() + b"\n", "{src} line 2001: src_ip"),
        ("sample", b"\n", "{src} line 2001: empty line"),
        ("sample", b'{"src_ip": "\xff"}\n', "input is not UTF-8 text"),
        ("encode", b"\n", "{src} line 2001: empty line"),
    ],
    ids=["label-truncated", "label-bad-address", "label-blank", "label-not-utf8",
         "sample-bad-address", "sample-blank", "sample-not-utf8", "encode-blank"],
)
def test_failure_on_the_last_line_leaves_no_file(tmp_path, capsys, command, tail, error):
    # 2,000 good lines: the writer has flushed many of them before the last line fails
    src, comments = tmp_path / "in.ndjson", tmp_path / "comments.csv"
    src.write_bytes((_labeled_line() + "\n").encode() * 2000 + tail)
    comments.write_text(_SIDECAR, encoding="utf-8")
    argv = [command, "--in", str(src), "--out", str(tmp_path / "out.ndjson")]
    if command == "label":
        argv += ["--comments", str(comments)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + error.format(src=src)) and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comments.csv", "in.ndjson"]


def test_interrupted_label_leaves_the_previous_output(tmp_path, monkeypatch):
    src, comments, out = tmp_path / "in.ndjson", tmp_path / "comments.csv", tmp_path / "out"
    src.write_text((make_line() + "\n") * 2000, encoding="utf-8")
    comments.write_text(_SIDECAR, encoding="utf-8")
    out.write_text("previous\n", encoding="utf-8")
    label_alerts = cli.label_alerts

    def interrupted(alerts, tp_list, fp_list):
        for i, pair in enumerate(label_alerts(alerts, tp_list, fp_list)):
            if i == 1500:
                raise KeyboardInterrupt
            yield pair

    monkeypatch.setattr(cli, "label_alerts", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["label", "--in", str(src), "--comments", str(comments), "--out", str(out)])
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comments.csv", "in.ndjson", "out"]


@pytest.mark.parametrize("label", [True, 2, 1.0])
def test_refused_label_leaves_the_previous_output(tmp_path, label):
    out = tmp_path / "out.ndjson"
    out.write_text("previous\n", encoding="utf-8")
    alert = parse_alert_record(make_line())
    # 2,000 good rows: the writer has flushed many of them before the bad one
    rows = [LabeledAlert(alert, 1)] * 2000 + [LabeledAlert(alert, label)]
    with pytest.raises(ValidationError, match=f"^label must be 0 or 1, got {label!r}$"):
        with cli._outputs({"--out": str(out)}) as (fh,):
            write_records(fh, rows)
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["out.ndjson"]


@pytest.mark.parametrize("command",
                         ["ingest", "label", "sample", "encode", "select", "explain", "predict"])
def test_stage_that_draws_no_random_number_has_no_seed_flag(command):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.main([command, "--seed", "1"])
    assert exc.value.code == 2


def test_seed_stays_a_config_key_of_every_stage(chain, tmp_path):
    # one config file still serves a whole pipeline, seeded stages and the rest
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7}), encoding="utf-8")
    run_ok(["predict", "--config", str(config), "--in", chain["matrix"],
            "--model", chain["model"], "--out", str(tmp_path / "predictions.csv")])


@pytest.mark.parametrize("stage", ["label", "predict"])
def test_label_output_gets_the_mode_a_plain_open_gives(chain, tmp_path, stage):
    out = tmp_path / "out"
    argv = {
        "label": ["label", "--in", chain["alerts"], "--comments", chain["comments"]],
        "predict": ["predict", "--in", chain["matrix"], "--model", chain["model"]],
    }[stage] + ["--out", str(out)]
    umask = os.umask(0o027)
    try:
        run_ok(argv)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640  # a new file: 0o666 less the umask
    out.chmod(0o604)
    run_ok(argv)
    assert stat.S_IMODE(out.stat().st_mode) == 0o604  # an existing file keeps its mode


def _write_small(tmp_path: Path, out: Path, chain: dict | None = None) -> tuple[int, bytes]:
    """Run label with a sidecar over 20 alerts into out, or predict on the chain's matrix if
    a chain is given; the exit code and the bytes expected."""
    expected = tmp_path / "exp"
    if chain is None:
        src, comments = tmp_path / "in.ndjson", tmp_path / "comments.csv"
        src.write_text((make_line() + "\n") * 20, encoding="utf-8")
        comments.write_text(_SIDECAR, encoding="utf-8")
        argv = ["label", "--in", str(src), "--comments", str(comments), "--out"]
    else:
        argv = ["predict", "--in", chain["matrix"], "--model", chain["model"], "--out"]
    run_ok(argv + [str(expected)])
    return cli.main(argv + [str(out)]), expected.read_bytes()


@pytest.mark.parametrize("stage, via_symlink",
                         [("label", False), ("label", True), ("predict", False)],
                         ids=["fifo", "symlink-to-fifo", "predict-fifo"])
def test_label_writes_through_a_fifo_and_keeps_it(chain, tmp_path, stage, via_symlink):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    out = fifo
    if via_symlink:
        out = tmp_path / "link"
        out.symlink_to(fifo)
    # a reader is open, so the writer's open does not block; the output fits the pipe's buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, expected = _write_small(tmp_path, out, chain if stage == "predict" else None)
        received = b""
        while chunk := os.read(reader, 1 << 16):
            received += chunk
    finally:
        os.close(reader)
    assert code == 0 and received == expected
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert out.is_symlink() == via_symlink
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_label_through_a_symlink_replaces_its_target(tmp_path):
    target, link = tmp_path / "target.ndjson", tmp_path / "link.ndjson"
    target.write_text("previous\n", encoding="utf-8")
    link.symlink_to(target)
    code, expected = _write_small(tmp_path, link)
    assert code == 0 and link.is_symlink() and target.read_bytes() == expected


@pytest.mark.parametrize("stage", ["label", "predict"])
def test_unwritable_output_names_the_given_path(chain, tmp_path, capsys, stage):
    out = tmp_path / "missing-dir" / "out"
    code, _ = _write_small(tmp_path, out, chain if stage == "predict" else None)
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


# each stage with two or more outputs: its other options, and two of its output flags in the
# order it writes them
_TWO_OUTPUTS = {
    "synth": (lambda p: ["--n-tp", "5", "--n-fp", "5", "--n-rules", "2", "--dup", "1"],
              "--out", "--truth"),
    "label": (lambda p: ["--in", p["alerts"], "--comments", p["comments"]], "--out", "--lists"),
    "sample": (lambda p: ["--in", p["labeled"], "--split-date", "2025-04-01T00:00:00Z"],
               "--train-out", "--test-out"),
    "select": (lambda p: ["--in", p["matrix"], "--k", "5"], "--out", "--matrix-out"),
    "evaluate": (lambda p: ["--in", p["matrix"], "--model", p["model"]], "--report", "--summary"),
    "explain": (lambda p: ["--in", p["matrix"], "--model", p["model"], "--row", "0"],
                "--out", "--attribution-out"),
}


@pytest.mark.parametrize("stage", list(_TWO_OUTPUTS))
def test_two_outputs_on_one_path_are_refused_before_anything_is_written(
    chain, tmp_path, monkeypatch, capsys, stage
):
    monkeypatch.chdir(tmp_path)  # synth's --comments defaults to a file here
    options, first, later = _TWO_OUTPUTS[stage]
    argv = [stage, *options(chain), first, "same", later, "./same"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {first} and {later} are the same file: same\n"
    assert os.listdir() == []
    Path("same").write_text("previous\n", encoding="utf-8")
    assert cli.main(argv) == 1
    assert os.listdir() == ["same"] and Path("same").read_text(encoding="utf-8") == "previous\n"


@pytest.mark.parametrize("stage", list(_TWO_OUTPUTS))
def test_unwritable_later_output_leaves_the_earlier_one(
    chain, tmp_path, monkeypatch, capsys, stage
):
    monkeypatch.chdir(tmp_path)
    options, first, later = _TWO_OUTPUTS[stage]
    Path("first").write_text("previous\n", encoding="utf-8")
    assert cli.main([stage, *options(chain), first, "first", later, "nodir/later"]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir/later'\n"
    assert os.listdir() == ["first"] and Path("first").read_text(encoding="utf-8") == "previous\n"


class _Handle:
    """A stage's output handle that notes each write."""

    def __init__(self, handle, name, seen):
        self.handle, self.name, self.seen = handle, name, seen

    def write(self, text):
        self.handle.write(text)
        self.seen.append(self.name)

    def __getattr__(self, attr):
        return getattr(self.handle, attr)


@pytest.mark.parametrize(
    "stage, writer, calls",
    [("synth", "write_truth", 1), ("label", "write_label_lists", 1),
     ("sample", "write_records", 2), ("select", "write_matrix_csv", 1),
     ("evaluate", "_outputs", 0), ("explain", "_outputs", 0)],
)
def test_interrupt_in_the_last_write_leaves_every_previous_output(
    chain, tmp_path, monkeypatch, stage, writer, calls
):
    monkeypatch.chdir(tmp_path)
    options, first, later = _TWO_OUTPUTS[stage]
    for name in ("first", "later"):
        Path(name).write_text("previous\n", encoding="utf-8")
    real, seen = getattr(cli, writer), []

    def interrupted(*args):
        real(*args)  # the last write's bytes are out when the interrupt comes
        seen.append(writer)
        if len(seen) == calls:
            raise KeyboardInterrupt

    @contextlib.contextmanager
    def interrupted_outputs(paths):
        # a stage that writes its handles itself: interrupt once its block has
        # written both outputs, before the temporary files replace them
        with real(paths) as handles:
            yield [h and _Handle(h, flag, seen) for flag, h in zip(paths, handles)]
            assert {first, later} <= set(seen)
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, writer, interrupted_outputs if writer == "_outputs" else interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main([stage, *options(chain), first, "first", later, "later"])
    assert sorted(os.listdir()) == ["first", "later"]
    for name in ("first", "later"):
        assert Path(name).read_text(encoding="utf-8") == "previous\n"


def test_empty_output_path_is_refused_before_anything_is_written(tmp_path, monkeypatch, capsys):
    src, comments = tmp_path / "in.ndjson", tmp_path / "comments.csv"
    src.write_text((make_line() + "\n") * 20, encoding="utf-8")
    comments.write_text(_SIDECAR, encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["label", "--in", str(src), "--comments", str(comments), "--out", ""]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comments.csv", "in.ndjson", "work"]
    assert not any(work.iterdir())


def test_empty_optional_output_is_not_written(chain, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, flag in (
        (["label", "--in", chain["alerts"], "--comments", chain["comments"]], "--lists"),
        (["select", "--in", chain["matrix"]], "--matrix-out"),
        (["evaluate", "--in", chain["matrix"], "--model", chain["model"], "--report", "out"],
         "--summary"),
    ):
        out = ["--out", "out"] if argv[0] != "evaluate" else []
        run_ok(argv + out)
        expected = (capsys.readouterr().out, Path("out").read_bytes())
        os.remove("out")
        run_ok(argv + out + [flag, ""])  # as if the flag were not given
        assert (capsys.readouterr().out, Path("out").read_bytes()) == expected
        assert os.listdir() == ["out"]
        os.remove("out")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ingest"], "--field-map"),
        (["ingest"], "--comments"),
        (["label"], "--comments"),
        (["label", "--comments", "{comments}"], "--keywords"),
        (["sample", "--in", "{labeled}"], "--split-date"),
        (["encode", "--in", "{sampled}"], "--caps"),
        (["evaluate", "--in", "{matrix}", "--kfold", "2"], "--model"),
    ],
    ids=["ingest-field-map", "ingest-comments", "label-comments", "label-keywords",
         "sample-split-date", "encode-caps", "evaluate-model"],
)
def test_empty_optional_input_is_not_read(chain, tmp_path, monkeypatch, capsys, argv, flag):
    # by flag or by config key, "" runs as if the option were not given
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(**chain) for arg in argv]
    if "--in" not in argv:
        argv += ["--in", chain["alerts"]]
    Path("c.json").write_text(json.dumps({flag[2:].replace("-", "_"): ""}), encoding="utf-8")
    runs = []
    for extra in ([], [flag, ""], ["--config", "c.json"]):
        run_ok(argv + extra)
        written = sorted(set(os.listdir()) - {"c.json"})
        runs.append((capsys.readouterr().out, {name: Path(name).read_bytes() for name in written}))
        for name in written:
            os.remove(name)
    assert runs[0][1] and runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_evaluate_with_an_empty_model_and_no_kfold_is_refused(chain, tmp_path, capsys, via):
    report = tmp_path / "report.json"
    config = tmp_path / "c.json"
    config.write_text('{"model": ""}', encoding="utf-8")
    given = ["--model", ""] if via == "flag" else ["--config", str(config)]
    argv = ["evaluate", "--in", chain["matrix"], *given, "--report", str(report)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: evaluate needs --model, --kfold, or both\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def _large_inputs(d, distinct: bool):
    raw, labeled = [], []
    for i in range(20_000):
        record = make_record(rule_uuid=f"rule-{i % 20}", src_port=i % 65536)
        if distinct:  # no timestamp or source address repeats
            record.update(timestamp=f"2025-03-04T10:20:30.{i:06d}Z",
                          src_ip=f"198.{18 + i // 65536}.{i // 256 % 256}.{i % 256}")
        raw.append(json.dumps(record, sort_keys=True) + "\n")
        labeled.append(json.dumps({**record, "label": i % 2}, sort_keys=True) + "\n")
    (d / "alerts.ndjson").write_text("".join(raw), encoding="utf-8")
    (d / "labeled.ndjson").write_text("".join(labeled), encoding="utf-8")
    (d / "comments.csv").write_text(
        "rule_uuid,rev_comment\n" + "".join(f"rule-{r},alerted\n" for r in range(20)),
        encoding="utf-8",
    )
    return d


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """20,000 raw and 20,000 labeled lines over 20 rules, about 10 MB each."""
    return _large_inputs(tmp_path_factory.mktemp("large"), distinct=False)


@pytest.fixture(scope="module")
def distinct_inputs(tmp_path_factory):
    """large_inputs with a distinct timestamp and source address on every line."""
    return _large_inputs(tmp_path_factory.mktemp("distinct"), distinct=True)


@pytest.mark.parametrize(
    "command, inputs",
    [pytest.param(command, inputs, id=command + suffix)
     for inputs, suffix in (("large_inputs", ""), ("distinct_inputs", "-distinct"))
     for command in ("ingest", "label", "sample")],
)
def test_streamed_stage_holds_far_less_than_its_input(request, tmp_path, command, inputs):
    # distinct values must not grow the per-read memos of addresses and timestamps
    inputs = request.getfixturevalue(inputs)
    src = inputs / ("labeled.ndjson" if command == "sample" else "alerts.ndjson")
    argv = [command, "--in", str(src), "--out", str(tmp_path / "out.ndjson")]
    if command != "sample":
        argv += ["--comments", str(inputs / "comments.csv")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every alert held as objects takes more than the file; a stream holds a few percent
    assert peak < src.stat().st_size / 4


# Each flag's help as `alert-sift <cmd> --help` prints it, recorded before the
# options moved into one table; the text, and every default it names, is pinned.
_FLAG_HELP = {
    "synth": {
        "--out": "alerts NDJSON path (default alerts.ndjson)",
        "--comments": "rule-comment sidecar CSV (default rule_comments.csv)",
        "--truth": "ground-truth CSV (default ground_truth.csv)",
        "--n-tp": "base TP alerts (default 982)",
        "--n-fp": "base FP alerts (default 1126)",
        "--n-rules": "rule count (default 200)",
        "--dup": "duplication factor (default 50)",
        "--signal": "signal strength in [0,1] (default 0.9)",
        "--seed": "RNG seed (default 42)",
    },
    "ingest": {
        "--in": "raw NDJSON alert log",
        "--out": "normalized NDJSON output (default parsed.ndjson)",
        "--field-map": "field=json.path remap file",
        "--comments": "rule-comment sidecar CSV to attach",
    },
    "label": {
        "--in": "normalized NDJSON from ingest",
        "--out": "labeled NDJSON output (default labeled.ndjson)",
        "--comments": "rule-comment sidecar CSV",
        "--keywords": "keyword config file (tp:/fp: stanzas)",
        "--lists": "also write the label lists CSV here",
    },
    "sample": {
        "--in": "labeled NDJSON",
        "--out": "sampled NDJSON output (default sampled.ndjson)",
        "--stride": "keep every stride-th per rule (default 100)",
        "--per-rule-cap": "max survivors per rule (default 10)",
        "--split-date": "ISO timestamp; before=train, rest=test",
        "--train-out": "train split path (default train.ndjson)",
        "--test-out": "test split path (default test.ndjson)",
    },
    "encode": {
        "--in": "labeled NDJSON",
        "--out": "matrix CSV output (default matrix.csv)",
        "--profile": "core20 or full29 (default core20)",
        "--caps": "scaling-caps file (name=value lines)",
    },
    "select": {
        "--in": "labeled matrix CSV",
        "--out": "selection JSON output (default selection.json)",
        "--k": "features to keep (default 20)",
        "--matrix-out": "also write the reduced matrix CSV",
    },
    "train": {
        "--in": "labeled matrix CSV",
        "--model": "model JSON output (default model.json)",
        "--trees": "tree count (default 100)",
        "--depth": "max depth (default 6)",
        "--min-split": "min samples to split (default 2)",
        "--seed": "RNG seed (default 42)",
    },
    "evaluate": {
        "--in": "labeled matrix CSV",
        "--model": "trained model JSON (holdout evaluation)",
        "--kfold": "also cross-validate with this many folds",
        "--threshold": "TP decision threshold (default 0.5)",
        "--minutes-per-alert": "analyst minutes per reviewed alert (default 4.0)",
        "--report": "report JSON output (default report.json)",
        "--summary": "also write a metric,value CSV here",
        "--seed": "RNG seed of --kfold; with --model, the model's seed is used (default 42)",
    },
    "explain": {
        "--in": "matrix CSV",
        "--model": "trained model JSON",
        "--out": "importance CSV output (default importance.csv)",
        "--row": "also attribute this row to JSON",
        "--attribution-out": "per-row attribution JSON path (default attribution.json)",
    },
    "predict": {
        "--in": "matrix CSV",
        "--model": "trained model JSON",
        "--out": "predictions CSV output (default predictions.csv)",
        "--threshold": "TP decision threshold (default 0.5)",
    },
}
_SHARED_FLAG_HELP = {
    "-h": "show this help message and exit",
    "--config": "JSON config file; flags override its values",
}


def _flag_help(command: str, monkeypatch) -> dict[str, str]:
    """{first option string: help} of one subcommand's --help, printed unwrapped."""
    monkeypatch.setenv("COLUMNS", "250")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    entries: list[str] = []
    for line in out.getvalue().split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            entries.append(line.strip())
        elif line.strip():  # a help moved below a long invocation
            entries[-1] += "  " + line.strip()
    pairs = (entry.split("  ", 1) for entry in entries)
    return {invocation.split()[0].rstrip(","): text.strip() for invocation, text in pairs}


@pytest.mark.parametrize("command", sorted(_FLAG_HELP))
def test_each_flag_help_line_is_pinned(command, monkeypatch):
    assert _flag_help(command, monkeypatch) == {**_SHARED_FLAG_HELP, **_FLAG_HELP[command]}


def test_no_flags_resolve_each_documented_default(chain, tmp_path, monkeypatch):
    """Each run passes only its required inputs; each "(default X)" must be what it used."""
    calls: dict[str, tuple] = {}

    def spy(name, replace_args=None):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = (args, kwargs)
            return real(*(replace_args(args) if replace_args else args), **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    # the default corpus is 105,400 alerts; record its spec, generate a small one
    spy("generate_corpus", lambda args: (
        dataclasses.replace(args[0], n_tp=4, n_fp=4, n_rules=2, duplication_factor=2),
    ))
    for name in ("dedup_sample", "train_forest", "evaluate_forest", "workload_savings",
                 "cross_validate", "check_threshold"):
        spy(name)
    monkeypatch.chdir(tmp_path)
    m, model = chain["matrix"], chain["model"]
    for argv in (
        ["synth"],
        ["ingest", "--in", chain["alerts"]],
        ["label", "--in", chain["alerts"]],
        ["sample", "--in", chain["labeled"]],
        ["sample", "--in", chain["labeled"], "--split-date", "2025-04-01T00:00:00Z"],
        ["encode", "--in", chain["sampled"]],
        ["select", "--in", m],
        ["train", "--in", m],
        ["evaluate", "--in", m, "--model", model],
        ["evaluate", "--in", m, "--kfold", "3", "--report", "kfold.json"],
        ["explain", "--in", m, "--model", model, "--row", "0"],
        ["predict", "--in", m, "--model", model],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            run_ok(argv)
    spec = calls["generate_corpus"][0][0]
    sample_params = calls["dedup_sample"][0][1]
    forest_params = calls["train_forest"][0][2]
    written = set(os.listdir(tmp_path))
    with open(tmp_path / "matrix.csv", encoding="utf-8") as fh:
        profile = "core20" if fh.readline().count(",") == 20 else "full29"
    with open(tmp_path / "selection.json", encoding="utf-8") as fh:
        k = json.load(fh)["k"]
    used = {
        ("synth", "--out"): "alerts.ndjson",
        ("synth", "--comments"): "rule_comments.csv",
        ("synth", "--truth"): "ground_truth.csv",
        ("synth", "--n-tp"): spec.n_tp,
        ("synth", "--n-fp"): spec.n_fp,
        ("synth", "--n-rules"): spec.n_rules,
        ("synth", "--dup"): spec.duplication_factor,
        ("synth", "--signal"): spec.signal_strength,
        ("synth", "--seed"): spec.seed,
        ("ingest", "--out"): "parsed.ndjson",
        ("label", "--out"): "labeled.ndjson",
        ("sample", "--out"): "sampled.ndjson",
        ("sample", "--stride"): sample_params.stride,
        ("sample", "--per-rule-cap"): sample_params.per_rule_cap,
        ("sample", "--train-out"): "train.ndjson",
        ("sample", "--test-out"): "test.ndjson",
        ("encode", "--out"): "matrix.csv",
        ("encode", "--profile"): profile,
        ("select", "--out"): "selection.json",
        ("select", "--k"): k,
        ("train", "--model"): "model.json",
        ("train", "--trees"): forest_params.n_estimators,
        ("train", "--depth"): forest_params.max_depth,
        ("train", "--min-split"): forest_params.min_samples_split,
        ("train", "--seed"): forest_params.seed,
        ("evaluate", "--threshold"): calls["evaluate_forest"][0][3],
        ("evaluate", "--minutes-per-alert"): calls["workload_savings"][0][1],
        ("evaluate", "--report"): "report.json",
        ("evaluate", "--seed"): calls["cross_validate"][0][2].seed,
        ("explain", "--out"): "importance.csv",
        ("explain", "--attribution-out"): "attribution.json",
        ("predict", "--out"): "predictions.csv",
        ("predict", "--threshold"): calls["check_threshold"][0][0],
    }
    documented = {}
    for command, flags in _FLAG_HELP.items():
        for flag, text in flags.items():
            if "(default " in text:
                documented[command, flag] = text.rsplit("(default ", 1)[1][:-1]
    assert set(documented) == set(used)
    for key, value in used.items():
        assert str(value) == documented[key], key
        if isinstance(value, str) and value.endswith((".ndjson", ".csv", ".json")):
            assert value in written, key


# command -> (the inputs it needs, the library call a spy watches, the index of the parameter
# object among its arguments, {flag: (that object's field, a value that is not its default)})
_PARAMETER_FLAGS = {
    "synth": (lambda p: [], "generate_corpus", 0, {
        "--n-tp": ("n_tp", 3), "--n-fp": ("n_fp", 4), "--n-rules": ("n_rules", 3),
        "--dup": ("duplication_factor", 2), "--signal": ("signal_strength", 0.25),
        "--seed": ("seed", 7),
    }),
    "sample": (lambda p: ["--in", p["labeled"]], "dedup_sample", 1, {
        "--stride": ("stride", 3), "--per-rule-cap": ("per_rule_cap", 4),
    }),
    "train": (lambda p: ["--in", p["matrix"]], "train_forest", 2, {
        "--trees": ("n_estimators", 3), "--depth": ("max_depth", 2),
        "--min-split": ("min_samples_split", 5), "--seed": ("seed", 9),
    }),
    "evaluate": (lambda p: ["--in", p["matrix"], "--kfold", "3"], "cross_validate", 2, {
        "--seed": ("seed", 11),
    }),
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(_PARAMETER_FLAGS))
def test_each_parameter_option_reaches_its_field(chain, tmp_path, monkeypatch, command, via):
    """A value that no default holds, given by flag or by config key, is what the library sees."""
    inputs, call, index, flags = _PARAMETER_FLAGS[command]
    seen = []
    real = getattr(cli, call)

    def spy(*args, **kwargs):
        seen.append(args[index])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, call, spy)
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        given = [text for flag, (_, value) in flags.items() for text in (flag, str(value))]
    else:
        config = {flag[2:].replace("-", "_"): value for flag, (_, value) in flags.items()}
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        given = ["--config", "config.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        run_ok([command, *inputs(chain), *given])
    params = seen[0]
    for flag, (field, value) in flags.items():
        assert value != getattr(type(params)(), field), flag  # not the default
        assert getattr(params, field) == value, flag


# every option name of every subcommand, and keys that name no option
_FUZZ_KEYS = sorted(
    {"input" if flag == "--in" else flag[2:].replace("-", "_")
     for flags in (_SHARED_FLAG_HELP, *_FLAG_HELP.values()) for flag in flags if flag != "-h"}
    | {"in", "n-tp", "bogus", ""}
)
# strings hold no "/", so every path a run writes stays in its working directory
_CONFIG_VALUES = (
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
    | st.text(alphabet="01.-ae\x00", max_size=3)
    | st.lists(st.integers(0, 3), max_size=2)
    | st.dictionaries(st.just("a"), st.integers(0, 3), max_size=1)
)
# the flags each run needs; synth's flags keep its corpus small
_FUZZ_ARGV = {
    "synth": lambda p: ["--n-tp", "3", "--n-fp", "3", "--n-rules", "2", "--dup", "1"],
    "ingest": lambda p: ["--in", p["alerts"]],
    "label": lambda p: ["--in", p["alerts"]],
    "sample": lambda p: ["--in", p["labeled"]],
    "encode": lambda p: ["--in", p["sampled"]],
    "select": lambda p: ["--in", p["matrix"]],
    "train": lambda p: ["--in", p["matrix"]],
    "evaluate": lambda p: ["--in", p["matrix"], "--model", p["model"]],
    "explain": lambda p: ["--in", p["matrix"], "--model", p["model"]],
    "predict": lambda p: ["--in", p["matrix"], "--model", p["model"]],
}


@pytest.mark.parametrize("command", sorted(_FUZZ_ARGV))
@settings(max_examples=30, deadline=None)
@given(
    text=st.dictionaries(st.sampled_from(_FUZZ_KEYS), _CONFIG_VALUES, max_size=4).map(json.dumps)
)
@example(text='{"seed": ' + _LONG_INT + "}")
def test_fuzzed_config_exits_with_error_never_a_traceback(chain, command, text):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", "config.json", *_FUZZ_ARGV[command](chain)])
        finally:
            os.chdir(cwd)
    if code != 0:
        assert code == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# the stage that reads each side file, the flag it comes by, and a valid text of it
_SIDE_FILES = {
    "caps": ("encode", "--caps", "# odd caps\npkts_cap=7\nbytes_cap=7919 # prime\nsid_max=99991\n"),
    "keywords": ("label", "--keywords", "tp:\nalerted the customer\nfp:\nbenign # a comment\n"),
    "field_map": ("ingest", "--field-map", "# the defaults\nsrc_ip=src_ip\ndst_ip = dest_ip\n"),
}


@pytest.mark.parametrize("kind", sorted(_SIDE_FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_side_file_exits_with_error_never_a_traceback(chain, kind, data):
    command, flag, text = _SIDE_FILES[kind]
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = data.draw(_mutated_line(lines[i]))[0]
    extra = ["--comments", chain["comments"]] if command == "label" else []
    with tempfile.TemporaryDirectory() as tmp:
        side, out = Path(tmp) / kind, Path(tmp) / "out"
        side.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, *_FUZZ_ARGV[command](chain), *extra, flag, str(side),
                             "--out", str(out)])
        if code == 0:
            assert out.exists()
        else:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()


_CI_SPLIT_DATE = "2025-05-07T00:00:00Z"


@pytest.fixture(scope="module")
def ci_chain(tmp_path_factory):
    """The README chain on the 40/40/6/dup-4 corpus, as the installed-script check runs it.

    synth, label and ingest with the sidecar, sample --stride 4 at the split
    date (the default stride of 100 keeps one alert per rule of this corpus),
    encode of both splits, train --trees 30 --seed 7 and evaluate --threshold 0.6.
    """
    d = tmp_path_factory.mktemp("ci_chain")
    alerts, comments = str(d / "alerts.ndjson"), str(d / "rule_comments.csv")
    run_ok(["synth", "--out", alerts, "--comments", comments, "--truth", str(d / "truth.csv"),
            "--n-tp", "40", "--n-fp", "40", "--n-rules", "6", "--dup", "4"])
    run_ok(["label", "--in", alerts, "--comments", comments, "--out", str(d / "labeled.ndjson")])
    run_ok(["ingest", "--in", alerts, "--comments", comments, "--out", str(d / "ingested.ndjson")])
    run_ok(["sample", "--in", str(d / "labeled.ndjson"), "--stride", "4",
            "--split-date", _CI_SPLIT_DATE,
            "--train-out", str(d / "train.ndjson"), "--test-out", str(d / "test.ndjson")])
    for split in ("train", "test"):
        run_ok(["encode", "--in", str(d / f"{split}.ndjson"), "--out", str(d / f"{split}.csv")])
    run_ok(["train", "--in", str(d / "train.csv"), "--model", str(d / "model.json"),
            "--trees", "30", "--seed", "7"])
    run_ok(["evaluate", "--in", str(d / "test.csv"), "--model", str(d / "model.json"),
            "--threshold", "0.6", "--report", str(d / "report.json")])
    return d


def test_field_map_that_lists_a_field_twice_leaves_no_output(ci_chain, tmp_path, capsys):
    field_map = _written(tmp_path / "twice.map", "src_ip=net.src.addr\nsrc_ip=net.src\n")
    argv = ["ingest", "--in", str(ci_chain / "alerts.ndjson"), "--field-map", str(field_map),
            "--out", str(tmp_path / "ingested_twice.ndjson")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: field-map line 2: field 'src_ip' listed twice\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["twice.map"]


def test_junk_line_is_counted_and_the_other_lines_give_the_clean_bytes(ci_chain, tmp_path, capsys):
    junk = tmp_path / "alerts_junk.ndjson"
    junk.write_bytes((ci_chain / "alerts.ndjson").read_bytes() + b"not json\n")
    out = tmp_path / "ingested_junk.ndjson"
    run_ok(["ingest", "--in", str(junk), "--comments", str(ci_chain / "rule_comments.csv"),
            "--out", str(out)])
    assert capsys.readouterr().out == f"ingest: accepted 320, rejected 1 -> {out}\n"
    assert out.read_bytes() == (ci_chain / "ingested.ndjson").read_bytes()


def test_caps_file_that_lists_the_defaults_writes_the_default_bytes(ci_chain, tmp_path):
    caps = _written(tmp_path / "default_caps.txt",
                    "pkts_cap=10000\nbytes_cap=1000000\npayload_cap=65535\nsid_max=10000000\n")
    out = tmp_path / "train_default_caps.csv"
    run_ok(["encode", "--in", str(ci_chain / "train.ndjson"), "--out", str(out),
            "--caps", str(caps)])
    assert out.read_bytes() == (ci_chain / "train.csv").read_bytes()


@pytest.mark.parametrize("option, width", [("odd-caps", 20), ("full29", 29)])
def test_odd_caps_and_full29_encode_every_row(ci_chain, tmp_path, capsys, option, width):
    if option == "odd-caps":
        caps = _written(tmp_path / "odd_caps.txt",
                        "pkts_cap=7\nbytes_cap=7919\npayload_cap=3\nsid_max=999983\n")
        extra = ["--caps", str(caps)]
    else:
        extra = ["--profile", "full29"]
    out = tmp_path / "train.csv"
    run_ok(["encode", "--in", str(ci_chain / "train.ndjson"), "--out", str(out), *extra])
    assert capsys.readouterr().out == f"encode: 47 rows x {width} features -> {out}\n"
    assert out.read_bytes() != (ci_chain / "train.csv").read_bytes()


def test_one_config_file_gives_the_flags_model_and_report_bytes(ci_chain, tmp_path):
    report, model = tmp_path / "report_config.json", tmp_path / "model_config.json"
    config = _written(tmp_path / "pipeline.json", json.dumps(
        {"trees": 30, "seed": 7, "threshold": 0.6, "report": str(report)}
    ))
    run_ok(["train", "--config", str(config), "--in", str(ci_chain / "train.csv"),
            "--model", str(model)])
    run_ok(["evaluate", "--config", str(config), "--in", str(ci_chain / "test.csv"),
            "--model", str(model)])
    assert model.read_bytes() == (ci_chain / "model.json").read_bytes()
    assert report.read_bytes() == (ci_chain / "report.json").read_bytes()


def test_model_of_a_chi2_selected_matrix_names_no_profile(ci_chain, tmp_path):
    top10, model = tmp_path / "train_top10.csv", tmp_path / "model_top10.json"
    run_ok(["select", "--in", str(ci_chain / "train.csv"), "--k", "10",
            "--out", str(tmp_path / "selection.json"), "--matrix-out", str(top10)])
    run_ok(["train", "--in", str(top10), "--model", str(model), "--trees", "30", "--seed", "7"])
    run_ok(["explain", "--in", str(top10), "--model", str(model), "--row", "0",
            "--out", str(tmp_path / "importance.csv"),
            "--attribution-out", str(tmp_path / "attribution.json")])
    profiles = [json.loads(path.read_text(encoding="utf-8"))["profile"]
                for path in (model, ci_chain / "model.json")]
    assert profiles == [None, "core20"]


def test_evaluate_kfold_5_of_the_train_split(ci_chain, tmp_path):
    report = tmp_path / "report_kfold.json"
    run_ok(["evaluate", "--in", str(ci_chain / "train.csv"), "--kfold", "5",
            "--report", str(report)])
    data = json.loads(report.read_text(encoding="utf-8"))
    assert len(data["per_fold"]) == 5 and data["confusion"] is None
    assert data["mean"] == pytest.approx(sum(fold["accuracy"] for fold in data["per_fold"]) / 5)


@pytest.mark.parametrize("depth", [1, 12])
def test_stumps_and_deep_trees_train_predict_and_evaluate(ci_chain, tmp_path, depth):
    # a model scores to its own deepest leaf, below or past the default depth of 6
    model, test = tmp_path / "model.json", str(ci_chain / "test.csv")
    predictions, report = tmp_path / "predictions.csv", tmp_path / "report.json"
    run_ok(["train", "--in", str(ci_chain / "train.csv"), "--model", str(model),
            "--trees", "30", "--depth", str(depth)])
    run_ok(["predict", "--in", test, "--model", str(model), "--out", str(predictions)])
    run_ok(["evaluate", "--in", test, "--model", str(model), "--report", str(report)])
    assert sum(json.loads(report.read_text(encoding="utf-8"))["confusion"].values()) == 11
    trees = json.loads(model.read_text(encoding="utf-8"))["trees"]
    with open(test, encoding="utf-8") as fh:
        rows = [[float(cell) for cell in line.split(",")[:-1]] for line in list(fh)[1:]]
    with open(predictions, encoding="utf-8") as fh:
        scored = [float(line.split(",")[1]) for line in list(fh)[1:]]
    expected = [sum(_leaf_fraction(tree, row) for tree in trees) / len(trees) for row in rows]
    assert scored == pytest.approx(expected)


def _leaf_fraction(node: dict, row: list[float]) -> float:
    """The TP fraction of the leaf a row reaches in one model-file tree."""
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["tp"] / (node["tp"] + node["fp"])


def test_default_stride_writes_a_header_only_test_matrix(ci_chain, tmp_path):
    # the default --stride 100 keeps one alert per rule, all before the split date
    train, test = tmp_path / "train.ndjson", tmp_path / "test.ndjson"
    run_ok(["sample", "--in", str(ci_chain / "labeled.ndjson"), "--split-date", _CI_SPLIT_DATE,
            "--train-out", str(train), "--test-out", str(test)])
    assert test.read_bytes() == b""
    for split in (train, test):
        run_ok(["encode", "--in", str(split), "--out", str(split.with_suffix(".csv"))])
    header = (tmp_path / "train.csv").read_text(encoding="utf-8").splitlines(keepends=True)[0]
    assert (tmp_path / "test.csv").read_text(encoding="utf-8") == header
