"""Command-line orchestrator for the alert-filtering pipeline.

Subcommands chain through files: synth or ingest produces normalized
NDJSON, label attaches 1/0 labels from rule comments, sample dedups and
optionally splits by date, encode emits a feature-matrix CSV, and the
model stages (select, train, evaluate, explain, predict) operate on that
CSV plus a JSON model file.

Option precedence is flags > config file > built-in defaults; the config
file is JSON keyed by the long flag names with dashes as underscores, and
a key that names no flag of any subcommand is an error.
Every run prints a one-line summary on success and exits nonzero with a
diagnostic on failure. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import asdict
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .errors import AlertSiftError, ValidationError
from .evaluation import (
    cross_validate,
    evaluate_forest,
    workload_savings,
)
from .features import (
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
from .forest import (
    MODEL_FORMAT_VERSION,
    Forest,
    ForestParams,
    check_threshold,
    load_forest,
    predict_proba_batch,
    save_forest,
    train_forest,
)
from .ingest import (
    FieldPaths,
    RawAlert,
    attach_comments,
    decode_record,
    load_field_map,
    parse_alert_record,
    parse_timestamp,
    read_corpus,
    read_rule_comments,
    record_to_alert,
    write_records,
)
from .labeling import (
    KeywordConfig,
    LabeledAlert,
    build_label_lists,
    label_alerts,
    load_keyword_config,
    write_label_lists,
)
from .sampling import SampleParams, dedup_sample, partition_by_period
from .synth import (
    SynthSpec,
    generate_corpus,
    write_alerts,
    write_comments,
    write_truth,
)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise AlertSiftError(f"config file {path} must hold a JSON object")
    return obj


class _Options:
    """Resolved option lookup: CLI flag, then config key, then default.

    A config value converts as if it were given to the flag: through the
    flag's argparse type (str when it has none).
    """

    def __init__(self, args: argparse.Namespace, config: dict, types: dict[str, Callable]):
        self._args = args
        self._config = config
        self._types = types

    def get(self, name: str, default):
        value = getattr(self._args, name, None)
        if value is not None:
            return value
        if name not in self._config:
            return default
        value, convert = self._config[name], self._types.get(name) or str
        if not isinstance(value, bool) and isinstance(value, (str, int, float)):
            try:
                return convert(str(value))
            except ValueError:
                pass
        raise AlertSiftError(f"config key {name!r} must be {convert.__name__}, got {value!r}")


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


class _Records:
    """The records of one NDJSON file, parsed a line at a time as it is iterated.

    Each stripped line is passed to parse once. A blank line is skipped when
    skip_blank, else refused as an empty line; an error names the file and
    line. count is the number of records parsed so far.
    """

    def __init__(self, path: str, parse: Callable[[str], object], skip_blank: bool = False):
        self.path = path
        self.parse = parse
        self.skip_blank = skip_blank
        self.count = 0

    def __iter__(self) -> Iterator:
        parse = self.parse
        with open(self.path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text and self.skip_blank:
                    continue
                try:
                    if not text:
                        raise ValidationError("empty line")
                    record = parse(text)
                except AlertSiftError as exc:
                    raise AlertSiftError(f"{self.path} line {line_no}: {exc}") from None
                self.count += 1
                yield record


def _read_labeled(path: str) -> _Records:
    """Normalized NDJSON that carries a top-level label field, as LabeledAlert values.

    Each line is decoded once: the same dict yields the label and the alert.
    """
    fields = FieldPaths()

    def parse(text: str) -> LabeledAlert:
        obj = decode_record(text)
        if "label" not in obj:
            raise ValidationError("missing label field")
        label = obj["label"]
        if type(label) is not int or label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {json.dumps(label)}")
        return LabeledAlert(record_to_alert(obj, fields), label)

    return _Records(path, parse, skip_blank=True)


def _write_ndjson(
    path: str,
    rows: Iterable[tuple[RawAlert, int | None]],
    comments: dict[str, str] | None = None,
) -> None:
    """write_records to path; a regular file is replaced only once all rows are written.

    A new or regular file (a symlink's target included) is written as a
    temporary file beside it, which replaces it on success, so rows may be
    read from path itself; any exception, an interrupt included, removes the
    temporary file and leaves path as it was. The file gets the permissions a
    plain open(path, "w") would give it. Anything else, such as a FIFO or a
    device like /dev/stdout, is written straight through, as open does.
    """
    try:
        mode: int | None = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            write_records(fh, rows, comments)
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".alert-sift-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        with open(fd, "w", encoding="utf-8") as fh:
            write_records(fh, rows, comments)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _profile(opt: _Options) -> FeatureProfile:
    name = opt.get("profile", "core20")
    try:
        return FeatureProfile(name)
    except ValueError:
        raise AlertSiftError(f"unknown profile {name!r} (expected core20 or full29)") from None


def _check_columns(src: str, names: list[str], forest: Forest) -> None:
    """Refuse a matrix whose columns are not the model's features, in order."""
    expected = forest.feature_names
    if len(names) != len(expected):
        raise AlertSiftError(f"{src} has {len(names)} features but the model expects {len(expected)}")
    for j, (got, want) in enumerate(zip(names, expected)):
        if got != want:
            raise AlertSiftError(f"{src} column {j + 1} is {got!r} but the model expects {want!r}")


def cmd_synth(opt: _Options) -> str:
    spec = SynthSpec(
        n_tp=opt.get("n_tp", 982),
        n_fp=opt.get("n_fp", 1126),
        n_rules=opt.get("n_rules", 200),
        duplication_factor=opt.get("dup", 50),
        signal_strength=opt.get("signal", 0.9),
        seed=opt.get("seed", 42),
    )
    out = opt.get("out", "alerts.ndjson")
    comments = opt.get("comments", "rule_comments.csv")
    truth = opt.get("truth", "ground_truth.csv")
    corpus = generate_corpus(spec)
    with open(out, "w", encoding="utf-8") as fh:
        write_alerts(corpus, fh)
    with open(comments, "w", encoding="utf-8") as fh:
        write_comments(corpus, fh)
    with open(truth, "w", encoding="utf-8") as fh:
        write_truth(corpus, fh)
    return (
        f"synth: wrote {len(corpus.alerts)} alerts over {len(corpus.comments)} rules "
        f"to {out} (comments {comments}, truth {truth})"
    )


def cmd_ingest(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("ingest needs --in")
    out = opt.get("out", "parsed.ndjson")
    fmap = None
    fmap_path = opt.get("field_map", None)
    if fmap_path:
        with open(fmap_path, encoding="utf-8") as fh:
            fmap = load_field_map(fh)
    with open(src, encoding="utf-8") as fh:
        alerts, report = read_corpus(fh, fmap)
    sidecar = opt.get("comments", None)
    if sidecar:
        with open(sidecar, encoding="utf-8") as fh:
            alerts = attach_comments(alerts, read_rule_comments(fh))
    if report.accepted == 0 and report.rejected > 0:
        first = report.rejection_reasons[0]
        raise AlertSiftError(
            f"all {report.rejected} records rejected; first: line {first[0]}: {first[1]}"
        )
    _write_ndjson(out, ((alert, None) for alert in alerts))
    return f"ingest: accepted {report.accepted}, rejected {report.rejected} -> {out}"


def _keyword_config(opt: _Options) -> KeywordConfig:
    path = opt.get("keywords", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            return load_keyword_config(fh)
    return KeywordConfig()


def cmd_label(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("label needs --in")
    out = opt.get("out", "labeled.ndjson")
    cfg = _keyword_config(opt)
    fields = FieldPaths()
    alerts = _Records(src, lambda text: parse_alert_record(text, fields))
    sidecar = opt.get("comments", None)
    if sidecar:
        # the rules are known before the first alert, so the alerts stream through
        with open(sidecar, encoding="utf-8") as fh:
            rules = read_rule_comments(fh)
        stream: Iterable[RawAlert] = alerts
    else:
        # a rule's embedded comment may first appear on its last alert
        stream = list(alerts)
        seen: dict[str, str] = {}
        for alert in stream:
            if alert.rev_comment and alert.rule_uuid not in seen:
                seen[alert.rule_uuid] = alert.rev_comment
        rules = list(seen.items())
    tp_list, fp_list = build_label_lists(rules, cfg)
    written = [0, 0]  # rows written with label 0, with label 1

    def tally(rows: Iterator[tuple[RawAlert, int]]) -> Iterator[tuple[RawAlert, int]]:
        for row in rows:
            written[row[1]] += 1
            yield row

    rows = tally(label_alerts(stream, tp_list, fp_list))
    # the sidecar comment of a rule is written onto its alerts, as ingest attaches it
    _write_ndjson(out, rows, dict(rules) if sidecar else None)
    lists_path = opt.get("lists", None)
    if lists_path:
        with open(lists_path, "w", encoding="utf-8") as fh:
            write_label_lists(tp_list, fp_list, fh)
    n_fp, n_tp = written
    return (
        f"label: {n_tp + n_fp} labeled ({n_tp} tp, {n_fp} fp), "
        f"{alerts.count - n_tp - n_fp} dropped -> {out}"
    )


def _write_labeled(path: str, labeled: list[LabeledAlert]) -> None:
    _write_ndjson(path, ((item.alert, item.label) for item in labeled))


def cmd_sample(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("sample needs --in")
    params = SampleParams(
        stride=opt.get("stride", 100),
        per_rule_cap=opt.get("per_rule_cap", 10),
    )
    # only the survivors are held; every line is still read and validated
    labeled = _read_labeled(src)
    kept = dedup_sample(labeled, params)
    split_date = opt.get("split_date", None)
    if split_date:
        instant = parse_timestamp(split_date)
        train, test = partition_by_period(kept, instant)
        train_out = opt.get("train_out", "train.ndjson")
        test_out = opt.get("test_out", "test.ndjson")
        _write_labeled(train_out, train)
        _write_labeled(test_out, test)
        return (
            f"sample: kept {len(kept)} of {labeled.count} "
            f"(train {len(train)} -> {train_out}, test {len(test)} -> {test_out})"
        )
    out = opt.get("out", "sampled.ndjson")
    _write_labeled(out, kept)
    return f"sample: kept {len(kept)} of {labeled.count} -> {out}"


def cmd_encode(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("encode needs --in")
    out = opt.get("out", "matrix.csv")
    profile = _profile(opt)
    caps_path = opt.get("caps", None)
    caps = ScalingCaps()
    if caps_path:
        with open(caps_path, encoding="utf-8") as fh:
            caps = load_caps(fh)
    labeled = list(_read_labeled(src))
    # no labeled alerts give a header-only matrix
    rows = [encode_alert(item.alert, profile, caps) for item in labeled]
    X = as_matrix(rows) if rows else np.empty((0, profile.width))
    labels = [item.label for item in labeled]
    with open(out, "w", encoding="utf-8") as fh:
        write_matrix_csv(fh, X, labels, feature_names(profile))
    return f"encode: {len(rows)} rows x {profile.width} features -> {out}"


def cmd_select(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("select needs --in")
    out = opt.get("out", "selection.json")
    k = opt.get("k", 20)
    with open(src, encoding="utf-8") as fh:
        X, labels, names = read_matrix_csv(fh)
    if labels is None:
        raise AlertSiftError(f"{src} has no label column; run encode on labeled input")
    # missing-counter sentinels (-1.0) carry no frequency mass
    result = chi2_select(np.where(X < 0, 0.0, X), labels, k)
    _write_json(
        out,
        {
            "k": k,
            "scores": {names[j]: result.chi2_scores[j] for j in range(len(names))},
            "selected_indices": result.selected_indices,
            "selected_features": [names[j] for j in result.selected_indices],
        },
    )
    reduced = opt.get("matrix_out", None)
    if reduced:
        keep = result.selected_indices
        with open(reduced, "w", encoding="utf-8") as fh:
            write_matrix_csv(fh, X[:, keep], labels, [names[j] for j in keep])
    return f"select: top {len(result.selected_indices)} of {len(names)} by chi2 -> {out}"


def cmd_train(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("train needs --in")
    model_path = opt.get("model", "model.json")
    params = ForestParams(
        n_estimators=opt.get("trees", 100),
        max_depth=opt.get("depth", 6),
        min_samples_split=opt.get("min_split", 2),
        seed=opt.get("seed", 42),
    )
    with open(src, encoding="utf-8") as fh:
        X, labels, names = read_matrix_csv(fh)
    if labels is None:
        raise AlertSiftError(f"{src} has no label column; run encode on labeled input")
    forest = train_forest(X, labels, params, feature_names=names)
    with open(model_path, "w", encoding="utf-8") as fh:
        save_forest(forest, fh)
    return (
        f"train: trained {params.n_estimators} trees, depth<={params.max_depth} "
        f"on {X.shape[0]} samples -> {model_path}"
    )


def cmd_evaluate(opt: _Options) -> str:
    src = opt.get("input", None)
    if src is None:
        raise AlertSiftError("evaluate needs --in")
    report_path = opt.get("report", "report.json")
    threshold = opt.get("threshold", 0.5)
    minutes = opt.get("minutes_per_alert", 4.0)
    kfold = opt.get("kfold", None)
    model_path = opt.get("model", None)
    if model_path is None and kfold is None:
        raise AlertSiftError("evaluate needs --model, --kfold, or both")
    with open(src, encoding="utf-8") as fh:
        X, labels, names = read_matrix_csv(fh)
    if labels is None:
        raise AlertSiftError(f"{src} has no label column")

    report: dict = {
        "confusion": None,
        "metrics": None,
        "savings_hours": None,
        "per_fold": None,
        "mean": None,
        "variance": None,
    }
    summary_bits = []
    params = ForestParams(seed=opt.get("seed", 42))
    if model_path:
        with open(model_path, encoding="utf-8") as fh:
            forest = load_forest(fh)
        _check_columns(src, names, forest)
        params = forest.params
        cm, rep = evaluate_forest(forest, X, labels, threshold)
        savings = workload_savings(cm.fp_as_fp, minutes)
        report["confusion"] = asdict(cm)
        report["metrics"] = asdict(rep)
        report["savings_hours"] = savings
        acc = "n/a" if rep.accuracy is None else f"{rep.accuracy:.3f}"
        rec = "n/a" if rep.tp_recall is None else f"{rep.tp_recall:.3f}"
        summary_bits.append(f"accuracy {acc}, tp_recall {rec}, savings {savings:.1f}h")
    if kfold is not None:
        cv = cross_validate(X, labels, params, k=kfold, seed=params.seed, threshold=threshold)
        report["per_fold"] = [asdict(r) for r in cv.reports]
        report["mean"] = cv.mean_accuracy
        report["variance"] = cv.accuracy_variance
        summary_bits.append(
            f"{kfold}-fold mean {cv.mean_accuracy:.3f} var {cv.accuracy_variance:.5f}"
        )
    _write_json(report_path, report)
    summary_path = opt.get("summary", None)
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write("metric,value\n")
            if report["metrics"]:
                for key, value in report["metrics"].items():
                    fh.write(f"{key},{'' if value is None else repr(float(value))}\n")
            if report["savings_hours"] is not None:
                fh.write(f"savings_hours,{report['savings_hours']!r}\n")
            if report["mean"] is not None:
                fh.write(f"kfold_mean_accuracy,{report['mean']!r}\n")
                fh.write(f"kfold_accuracy_variance,{report['variance']!r}\n")
    return f"evaluate: {'; '.join(summary_bits)} -> {report_path}"


def cmd_explain(opt: _Options) -> str:
    from .attribution import global_importance, tree_shap

    src = opt.get("input", None)
    model_path = opt.get("model", None)
    if src is None or model_path is None:
        raise AlertSiftError("explain needs --in and --model")
    out = opt.get("out", "importance.csv")
    with open(model_path, encoding="utf-8") as fh:
        forest = load_forest(fh)
    with open(src, encoding="utf-8") as fh:
        X, _, names = read_matrix_csv(fh)
    _check_columns(src, names, forest)
    if X.shape[0] == 0:
        raise AlertSiftError(f"{src} has no rows to explain")
    ranking = global_importance(forest, X)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("feature,mean_abs_shap\n")
        for name, score in ranking:
            fh.write(f"{name},{score!r}\n")
    row = opt.get("row", None)
    if row is not None:
        if not 0 <= row < X.shape[0]:
            raise AlertSiftError(f"--row {row} out of range for {X.shape[0]} rows")
        att = tree_shap(forest, X[row])
        _write_json(
            opt.get("attribution_out", "attribution.json"),
            {
                "row": row,
                "base_value": att.base_value,
                "phi": {forest.feature_names[j]: att.phi[j] for j in range(forest.width)},
                "prediction": att.total,
            },
        )
    return f"explain: ranked {len(ranking)} features over {X.shape[0]} rows -> {out}"


def cmd_predict(opt: _Options) -> str:
    src = opt.get("input", None)
    model_path = opt.get("model", None)
    if src is None or model_path is None:
        raise AlertSiftError("predict needs --in and --model")
    out = opt.get("out", "predictions.csv")
    threshold = opt.get("threshold", 0.5)
    check_threshold(threshold)
    with open(model_path, encoding="utf-8") as fh:
        forest = load_forest(fh)
    with open(src, encoding="utf-8") as fh:
        X, _, names = read_matrix_csv(fh)
    _check_columns(src, names, forest)
    proba = predict_proba_batch(forest, X)
    preds = (proba >= threshold).astype(int)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("row,proba,label\n")
        for i in range(X.shape[0]):
            fh.write(f"{i},{float(proba[i])!r},{int(preds[i])}\n")
    filtered = int((preds == 0).sum())
    return f"predict: {X.shape[0]} rows, {filtered} filtered as fp -> {out}"


_HANDLERS: dict[str, Callable[[_Options], str]] = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "label": cmd_label,
    "sample": cmd_sample,
    "encode": cmd_encode,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "predict": cmd_predict,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alert-sift",
        description="Filter false-positive IDS alerts with a weakly supervised decision forest.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"alert-sift {__version__} (model format {MODEL_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="RNG seed (default 42)")
        return p

    p = add("synth", "generate a deterministic synthetic corpus")
    p.add_argument("--out", help="alerts NDJSON path (default alerts.ndjson)")
    p.add_argument("--comments", help="rule-comment sidecar CSV (default rule_comments.csv)")
    p.add_argument("--truth", help="ground-truth CSV (default ground_truth.csv)")
    p.add_argument("--n-tp", type=int, dest="n_tp", help="base TP alerts (default 982)")
    p.add_argument("--n-fp", type=int, dest="n_fp", help="base FP alerts (default 1126)")
    p.add_argument("--n-rules", type=int, dest="n_rules", help="rule count (default 200)")
    p.add_argument("--dup", type=int, help="duplication factor (default 50)")
    p.add_argument("--signal", type=float, help="signal strength in [0,1] (default 0.9)")

    p = add("ingest", "parse and validate an NDJSON alert log")
    p.add_argument("--in", dest="input", help="raw NDJSON alert log")
    p.add_argument("--out", help="normalized NDJSON output (default parsed.ndjson)")
    p.add_argument("--field-map", dest="field_map", help="field=json.path remap file")
    p.add_argument("--comments", help="rule-comment sidecar CSV to attach")

    p = add("label", "weak-label alerts from rule comments")
    p.add_argument("--in", dest="input", help="normalized NDJSON from ingest")
    p.add_argument("--out", help="labeled NDJSON output (default labeled.ndjson)")
    p.add_argument("--comments", help="rule-comment sidecar CSV")
    p.add_argument("--keywords", help="keyword config file (tp:/fp: stanzas)")
    p.add_argument("--lists", help="also write the label lists CSV here")

    p = add("sample", "dedup-sample and optionally split by date")
    p.add_argument("--in", dest="input", help="labeled NDJSON")
    p.add_argument("--out", help="sampled NDJSON output (default sampled.ndjson)")
    p.add_argument("--stride", type=int, help="keep every stride-th per rule (default 100)")
    p.add_argument(
        "--per-rule-cap", type=int, dest="per_rule_cap", help="max survivors per rule (default 10)"
    )
    p.add_argument("--split-date", dest="split_date", help="ISO timestamp; before=train, rest=test")
    p.add_argument("--train-out", dest="train_out", help="train split path (default train.ndjson)")
    p.add_argument("--test-out", dest="test_out", help="test split path (default test.ndjson)")

    p = add("encode", "encode labeled alerts into the feature matrix CSV")
    p.add_argument("--in", dest="input", help="labeled NDJSON")
    p.add_argument("--out", help="matrix CSV output (default matrix.csv)")
    p.add_argument("--profile", help="core20 or full29 (default core20)")
    p.add_argument("--caps", help="scaling-caps file (name=value lines)")

    p = add("select", "rank features by chi-squared score")
    p.add_argument("--in", dest="input", help="labeled matrix CSV")
    p.add_argument("--out", help="selection JSON output (default selection.json)")
    p.add_argument("--k", type=int, help="features to keep (default 20)")
    p.add_argument("--matrix-out", dest="matrix_out", help="also write the reduced matrix CSV")

    p = add("train", "train the bagged forest on a labeled matrix")
    p.add_argument("--in", dest="input", help="labeled matrix CSV")
    p.add_argument("--model", help="model JSON output (default model.json)")
    p.add_argument("--trees", type=int, help="tree count (default 100)")
    p.add_argument("--depth", type=int, help="max depth (default 6)")
    p.add_argument("--min-split", type=int, dest="min_split", help="min samples to split (default 2)")

    p = add("evaluate", "holdout and/or k-fold evaluation")
    p.add_argument("--in", dest="input", help="labeled matrix CSV")
    p.add_argument("--model", help="trained model JSON (holdout evaluation)")
    p.add_argument("--kfold", type=int, help="also cross-validate with this many folds")
    p.add_argument("--threshold", type=float, help="TP decision threshold (default 0.5)")
    p.add_argument(
        "--minutes-per-alert",
        type=float,
        dest="minutes_per_alert",
        help="analyst minutes per reviewed alert (default 4.0)",
    )
    p.add_argument("--report", help="report JSON output (default report.json)")
    p.add_argument("--summary", help="also write a metric,value CSV here")

    p = add("explain", "per-feature attribution and global importance")
    p.add_argument("--in", dest="input", help="matrix CSV")
    p.add_argument("--model", help="trained model JSON")
    p.add_argument("--out", help="importance CSV output (default importance.csv)")
    p.add_argument("--row", type=int, help="also attribute this row to JSON")
    p.add_argument(
        "--attribution-out",
        dest="attribution_out",
        help="per-row attribution JSON path (default attribution.json)",
    )

    p = add("predict", "score a matrix with a trained model")
    p.add_argument("--in", dest="input", help="matrix CSV")
    p.add_argument("--model", help="trained model JSON")
    p.add_argument("--out", help="predictions CSV output (default predictions.csv)")
    p.add_argument("--threshold", type=float, help="TP decision threshold (default 0.5)")

    return parser


def _config_types(
    parser: argparse.ArgumentParser, command: str, config: dict
) -> dict[str, Callable]:
    """The argparse type of each flag of one subcommand, by option name.

    Every config key must name a flag of some subcommand (one config file
    may serve several), so a misspelt key fails instead of being ignored.
    """
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {a.dest for p in sub.choices.values() for a in p._actions if a.dest != "help"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise AlertSiftError(f"unknown config key {unknown[0]!r}")
    return {action.dest: action.type for action in sub.choices[command]._actions}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        opt = _Options(args, config, _config_types(parser, args.command, config))
        summary = _HANDLERS[args.command](opt)
    except AlertSiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
