"""Command-line orchestrator for the alert-filtering pipeline.

Subcommands chain through files: synth or ingest produces normalized
NDJSON, label attaches 1/0 labels from rule comments, sample dedups and
optionally splits by date, encode emits a feature-matrix CSV, and the
model stages (select, train, evaluate, explain, predict) operate on that
CSV plus a JSON model file. NDJSON streams in through ingest.Records, every
file goes out through _outputs, which renames outputs only once all are written,
and _read_matrix and _read_model refuse a matrix the stage or model cannot use.

_COMMANDS is the one place where flags and their defaults live: each
subcommand's handler, its help line and one (name, flag, type, default,
help) row per option. The parser, each flag's "(default X)" help, config
typing and the unknown-key check all come from it.

Each option resolves from its flag, else its config key, else its default
(flags > config file > built-in defaults). The config file is JSON keyed by
option names, the long flag with dashes as underscores (--in is input); a
value converts as the flag's type converts its text, and a key that names
no option of any subcommand is an error, so one file may serve a whole
pipeline. A row whose default is _REQUIRED must be given by flag or config
key, or the run fails with "<cmd> needs" and the command's required flags.
Every run prints a one-line summary on success and exits nonzero with a
diagnostic on failure. All randomness flows from --seed (synth, train and
evaluate). Labeled stages pass LabeledAlert rows, (alert, label) pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from argparse import Namespace
from dataclasses import asdict
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from . import __version__
from .errors import AlertSiftError
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
    Records,
    load_field_map,
    parse_alert_record,
    parse_labeled_record,
    parse_timestamp,
    read_rule_comments,
    write_records,
)
from .labeling import (
    KeywordConfig,
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
        text = fh.read()  # outside the try: a UnicodeDecodeError is a ValueError too
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, a long integer, deep nesting
        raise AlertSiftError(f"invalid JSON input: {exc}") from None
    if not isinstance(obj, dict):
        raise AlertSiftError(f"config file {path} must hold a JSON object")
    return obj


@contextlib.contextmanager
def _outputs(paths: dict[str, str | None]) -> Iterator[list[TextIO | None]]:
    """A text handle per {flag: path}, None for a None path; all are written or none.

    Two flags that name one file are refused before anything is opened. A
    missing or regular file (a symlink's target included) is written as a
    temporary file beside it, and once the block ends cleanly the temporary
    files replace their targets one after another: a stage may read its own
    output path, and any exception in the block leaves every output as it was.
    A new file gets the mode a plain open(path, "w") gives it; a FIFO or a
    device, such as /dev/stdout, is written straight through.
    """
    seen: dict[str, str] = {}  # realpath -> the first flag that names it
    for flag, path in paths.items():
        if path is not None:
            first = seen.setdefault(os.path.realpath(path), flag)
            if first != flag:
                raise AlertSiftError(f"{first} and {flag} are the same file: {paths[first]}")
    handles: list[TextIO | None] = []
    moves: list[tuple[str, str]] = []  # (temporary file, target) of each replaced output
    try:
        with contextlib.ExitStack() as stack:  # closes every handle, on success or failure
            for path in paths.values():
                if path is None:
                    handles.append(None)
                    continue
                try:
                    mode: int | None = os.stat(path).st_mode
                except FileNotFoundError:
                    if not path:  # refused as open refuses it: realpath("") is the cwd
                        raise
                    mode = None
                if mode is not None and not stat.S_ISREG(mode):
                    handles.append(stack.enter_context(open(path, "w", encoding="utf-8")))
                    continue
                target = os.path.realpath(path)
                tmp = os.path.join(os.path.dirname(target), f".alert-sift-{os.urandom(6).hex()}")
                try:
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                except OSError as exc:
                    raise OSError(exc.errno, exc.strerror, path) from None
                moves.append((tmp, target))
                handles.append(stack.enter_context(open(fd, "w", encoding="utf-8")))
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
            yield handles
        for tmp, target in moves:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in moves:
            with contextlib.suppress(FileNotFoundError):  # replaced before the failure
                os.unlink(tmp)
        raise


def _profile(name: str) -> FeatureProfile:
    try:
        return FeatureProfile(name)
    except ValueError:
        raise AlertSiftError(f"unknown profile {name!r} (expected core20 or full29)") from None


def _read_model(path: str) -> Forest:
    with open(path, encoding="utf-8") as fh:
        return load_forest(fh)


def _read_matrix(
    path: str, labeled: bool = False, forest: Forest | None = None
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """The matrix CSV at path as (X, labels or None, names).

    If labeled, a matrix with no label column is refused; given a forest, so
    is one whose columns are not the model's features, in order.
    """
    with open(path, encoding="utf-8") as fh:
        X, labels, names = read_matrix_csv(fh)
    if labeled and labels is None:
        raise AlertSiftError(f"{path} has no label column; run encode on labeled input")
    expected = names if forest is None else forest.feature_names
    if len(names) != len(expected):
        raise AlertSiftError(
            f"{path} has {len(names)} features but the model expects {len(expected)}"
        )
    for j, (got, want) in enumerate(zip(names, expected)):
        if got != want:
            raise AlertSiftError(f"{path} column {j + 1} is {got!r} but the model expects {want!r}")
    return X, labels, names


def cmd_synth(opt: Namespace) -> str:
    spec = SynthSpec(
        n_tp=opt.n_tp,
        n_fp=opt.n_fp,
        n_rules=opt.n_rules,
        duplication_factor=opt.dup,
        signal_strength=opt.signal,
        seed=opt.seed,
    )
    paths = {"--out": opt.out, "--comments": opt.comments, "--truth": opt.truth}
    with _outputs(paths) as (alerts_fh, comments_fh, truth_fh):
        corpus = generate_corpus(spec)
        write_alerts(corpus, alerts_fh)
        write_comments(corpus, comments_fh)
        write_truth(corpus, truth_fh)
    return (
        f"synth: wrote {len(corpus.alerts)} alerts over {len(corpus.comments)} rules "
        f"to {opt.out} (comments {opt.comments}, truth {opt.truth})"
    )


def cmd_ingest(opt: Namespace) -> str:
    fields = FieldPaths()
    with _outputs({"--out": opt.out}) as (out,):
        if opt.field_map:
            with open(opt.field_map, encoding="utf-8") as fh:
                fields = FieldPaths(load_field_map(fh))
        comments = None
        if opt.comments:
            with open(opt.comments, encoding="utf-8") as fh:
                comments = dict(read_rule_comments(fh))
        rejected: list[tuple[int, str]] = []
        with open(opt.input, encoding="utf-8") as fh:
            alerts = Records(fh, lambda text: parse_alert_record(text, fields), opt.input, rejected)
            write_records(out, ((alert, None) for alert in alerts), comments)
        if alerts.count == 0 and rejected:  # raised inside the with, so no file is left
            line_no, reason = rejected[0]
            raise AlertSiftError(
                f"all {len(rejected)} records rejected; first: line {line_no}: {reason}"
            )
    return f"ingest: accepted {alerts.count}, rejected {len(rejected)} -> {opt.out}"


def cmd_label(opt: Namespace) -> str:
    with _outputs({"--out": opt.out, "--lists": opt.lists or None}) as (out, lists):
        cfg = KeywordConfig()
        if opt.keywords:
            with open(opt.keywords, encoding="utf-8") as fh:
                cfg = load_keyword_config(fh)
        rules = None
        if opt.comments:
            # the rules are known before the first alert, so the alerts stream through
            with open(opt.comments, encoding="utf-8") as fh:
                rules = read_rule_comments(fh)
        fields = FieldPaths()
        with open(opt.input, encoding="utf-8") as fh:
            # looked up per line, so the benchmark's tracer, which rebinds it, counts these parses
            alerts = Records(fh, lambda text: parse_alert_record(text, fields), opt.input)
            stream: Iterable[RawAlert] = alerts
            if rules is None:
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
            write_records(out, rows, dict(rules) if opt.comments else None)
        if lists:
            write_label_lists(tp_list, fp_list, lists)
    n_fp, n_tp = written
    return (
        f"label: {n_tp + n_fp} labeled ({n_tp} tp, {n_fp} fp), "
        f"{alerts.count - n_tp - n_fp} dropped -> {opt.out}"
    )


def cmd_sample(opt: Namespace) -> str:
    params = SampleParams(stride=opt.stride, per_rule_cap=opt.per_rule_cap)
    split = parse_timestamp(opt.split_date) if opt.split_date else None
    paths = (
        {"--out": opt.out} if split is None
        else {"--train-out": opt.train_out, "--test-out": opt.test_out}
    )
    with _outputs(paths) as outs, open(opt.input, encoding="utf-8") as fh:
        labeled = Records(fh, partial(parse_labeled_record, fields=FieldPaths()), opt.input)
        # only the survivors are held; every line is still read and validated
        kept = dedup_sample(labeled, params)
        parts = [kept] if split is None else partition_by_period(kept, split)
        for out, rows in zip(outs, parts):
            write_records(out, rows)
    if split is None:
        return f"sample: kept {len(kept)} of {labeled.count} -> {opt.out}"
    train, test = parts
    return (
        f"sample: kept {len(kept)} of {labeled.count} "
        f"(train {len(train)} -> {opt.train_out}, test {len(test)} -> {opt.test_out})"
    )


def cmd_encode(opt: Namespace) -> str:
    profile = _profile(opt.profile)
    caps = ScalingCaps()
    with _outputs({"--out": opt.out}) as (out,):
        if opt.caps:
            with open(opt.caps, encoding="utf-8") as fh:
                caps = load_caps(fh)
        with open(opt.input, encoding="utf-8") as fh:
            labeled = list(
                Records(fh, partial(parse_labeled_record, fields=FieldPaths()), opt.input)
            )
        # no labeled alerts give a header-only matrix
        rows = [encode_alert(item.alert, profile, caps) for item in labeled]
        X = as_matrix(rows) if rows else np.empty((0, profile.width))
        write_matrix_csv(out, X, [item.label for item in labeled], feature_names(profile))
    return f"encode: {len(rows)} rows x {profile.width} features -> {opt.out}"


def cmd_select(opt: Namespace) -> str:
    with _outputs({"--out": opt.out, "--matrix-out": opt.matrix_out or None}) as (out, matrix_out):
        X, labels, names = _read_matrix(opt.input, labeled=True)
        # missing-counter sentinels (-1.0) carry no frequency mass
        result = chi2_select(np.where(X < 0, 0.0, X), labels, opt.k)
        keep = result.selected_indices
        selection = {
            "k": opt.k,
            "scores": {names[j]: result.chi2_scores[j] for j in range(len(names))},
            "selected_indices": keep,
            "selected_features": [names[j] for j in keep],
        }
        out.write(json.dumps(selection, sort_keys=True, indent=2) + "\n")
        if matrix_out:
            write_matrix_csv(matrix_out, X[:, keep], labels, [names[j] for j in keep])
    return f"select: top {len(keep)} of {len(names)} by chi2 -> {opt.out}"


def cmd_train(opt: Namespace) -> str:
    params = ForestParams(
        n_estimators=opt.trees, max_depth=opt.depth, min_samples_split=opt.min_split, seed=opt.seed
    )
    with _outputs({"--model": opt.model}) as (out,):
        X, labels, names = _read_matrix(opt.input, labeled=True)
        save_forest(train_forest(X, labels, params, feature_names=names), out)
    return (
        f"train: trained {params.n_estimators} trees, depth<={params.max_depth} "
        f"on {X.shape[0]} samples -> {opt.model}"
    )


def cmd_evaluate(opt: Namespace) -> str:
    if opt.model is None and opt.kfold is None:
        raise AlertSiftError("evaluate needs --model, --kfold, or both")
    with _outputs({"--report": opt.report, "--summary": opt.summary or None}) as (out, summary):
        forest = _read_model(opt.model) if opt.model else None
        X, labels, _ = _read_matrix(opt.input, labeled=True, forest=forest)

        keys = ("confusion", "metrics", "savings_hours", "per_fold", "mean", "variance")
        report: dict = dict.fromkeys(keys)
        summary_bits = []
        params = ForestParams(seed=opt.seed)
        if forest is not None:
            params = forest.params
            cm, rep = evaluate_forest(forest, X, labels, opt.threshold)
            savings = workload_savings(cm.fp_as_fp, opt.minutes_per_alert)
            report["confusion"] = asdict(cm)
            report["metrics"] = asdict(rep)
            report["savings_hours"] = savings
            acc = "n/a" if rep.accuracy is None else f"{rep.accuracy:.3f}"
            rec = "n/a" if rep.tp_recall is None else f"{rep.tp_recall:.3f}"
            summary_bits.append(f"accuracy {acc}, tp_recall {rec}, savings {savings:.1f}h")
        if opt.kfold is not None:
            cv = cross_validate(
                X, labels, params, k=opt.kfold, seed=params.seed, threshold=opt.threshold
            )
            report["per_fold"] = [asdict(r) for r in cv.reports]
            report["mean"] = cv.mean_accuracy
            report["variance"] = cv.accuracy_variance
            summary_bits.append(
                f"{opt.kfold}-fold mean {cv.mean_accuracy:.3f} var {cv.accuracy_variance:.5f}"
            )
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if summary:
            summary.write("metric,value\n")
            if report["metrics"]:
                for key, value in report["metrics"].items():
                    summary.write(f"{key},{'' if value is None else repr(float(value))}\n")
            if report["savings_hours"] is not None:
                summary.write(f"savings_hours,{report['savings_hours']!r}\n")
            if report["mean"] is not None:
                summary.write(f"kfold_mean_accuracy,{report['mean']!r}\n")
                summary.write(f"kfold_accuracy_variance,{report['variance']!r}\n")
    return f"evaluate: {'; '.join(summary_bits)} -> {opt.report}"


def cmd_explain(opt: Namespace) -> str:
    from .attribution import global_importance, tree_shap

    attribution_path = opt.attribution_out if opt.row is not None else None
    with _outputs({"--out": opt.out, "--attribution-out": attribution_path}) as (out, row_out):
        forest = _read_model(opt.model)
        X, _, _ = _read_matrix(opt.input, forest=forest)
        if X.shape[0] == 0:
            raise AlertSiftError(f"{opt.input} has no rows to explain")
        if opt.row is not None and not 0 <= opt.row < X.shape[0]:
            raise AlertSiftError(f"--row {opt.row} out of range for {X.shape[0]} rows")
        ranking = global_importance(forest, X)
        out.write("feature,mean_abs_shap\n")
        for name, score in ranking:
            out.write(f"{name},{score!r}\n")
        if row_out:
            att = tree_shap(forest, X[opt.row])
            attribution = {
                "row": opt.row,
                "base_value": att.base_value,
                "phi": {forest.feature_names[j]: att.phi[j] for j in range(forest.width)},
                "prediction": att.total,
            }
            row_out.write(json.dumps(attribution, sort_keys=True, indent=2) + "\n")
    return f"explain: ranked {len(ranking)} features over {X.shape[0]} rows -> {opt.out}"


def cmd_predict(opt: Namespace) -> str:
    check_threshold(opt.threshold)
    with _outputs({"--out": opt.out}) as (out,):
        forest = _read_model(opt.model)
        X, _, _ = _read_matrix(opt.input, forest=forest)
        proba = predict_proba_batch(forest, X)
        preds = (proba >= opt.threshold).astype(int)
        out.write("row,proba,label\n")
        for i in range(X.shape[0]):
            out.write(f"{i},{float(proba[i])!r},{int(preds[i])}\n")
    filtered = int((preds == 0).sum())
    return f"predict: {X.shape[0]} rows, {filtered} filtered as fp -> {opt.out}"


_REQUIRED = object()  # the default of an option that a run must be given

# One row per option: (name, flag, type, default, help). The name is the
# option's attribute and config key; a default of None is not documented.
_SEED = ("seed", "--seed", int, 42, "RNG seed")
_COMMANDS: dict[str, tuple[Callable[[Namespace], str], str, list[tuple]]] = {
    "synth": (cmd_synth, "generate a deterministic synthetic corpus", [
        ("out", "--out", str, "alerts.ndjson", "alerts NDJSON path"),
        ("comments", "--comments", str, "rule_comments.csv", "rule-comment sidecar CSV"),
        ("truth", "--truth", str, "ground_truth.csv", "ground-truth CSV"),
        ("n_tp", "--n-tp", int, 982, "base TP alerts"),
        ("n_fp", "--n-fp", int, 1126, "base FP alerts"),
        ("n_rules", "--n-rules", int, 200, "rule count"),
        ("dup", "--dup", int, 50, "duplication factor"),
        ("signal", "--signal", float, 0.9, "signal strength in [0,1]"),
        _SEED,
    ]),
    "ingest": (cmd_ingest, "parse and validate an NDJSON alert log", [
        ("input", "--in", str, _REQUIRED, "raw NDJSON alert log"),
        ("out", "--out", str, "parsed.ndjson", "normalized NDJSON output"),
        ("field_map", "--field-map", str, None, "field=json.path remap file"),
        ("comments", "--comments", str, None, "rule-comment sidecar CSV to attach"),
    ]),
    "label": (cmd_label, "weak-label alerts from rule comments", [
        ("input", "--in", str, _REQUIRED, "normalized NDJSON from ingest"),
        ("out", "--out", str, "labeled.ndjson", "labeled NDJSON output"),
        ("comments", "--comments", str, None, "rule-comment sidecar CSV"),
        ("keywords", "--keywords", str, None, "keyword config file (tp:/fp: stanzas)"),
        ("lists", "--lists", str, None, "also write the label lists CSV here"),
    ]),
    "sample": (cmd_sample, "dedup-sample and optionally split by date", [
        ("input", "--in", str, _REQUIRED, "labeled NDJSON"),
        ("out", "--out", str, "sampled.ndjson", "sampled NDJSON output"),
        ("stride", "--stride", int, 100, "keep every stride-th per rule"),
        ("per_rule_cap", "--per-rule-cap", int, 10, "max survivors per rule"),
        ("split_date", "--split-date", str, None, "ISO timestamp; before=train, rest=test"),
        ("train_out", "--train-out", str, "train.ndjson", "train split path"),
        ("test_out", "--test-out", str, "test.ndjson", "test split path"),
    ]),
    "encode": (cmd_encode, "encode labeled alerts into the feature matrix CSV", [
        ("input", "--in", str, _REQUIRED, "labeled NDJSON"),
        ("out", "--out", str, "matrix.csv", "matrix CSV output"),
        ("profile", "--profile", str, "core20", "core20 or full29"),
        ("caps", "--caps", str, None, "scaling-caps file (name=value lines)"),
    ]),
    "select": (cmd_select, "rank features by chi-squared score", [
        ("input", "--in", str, _REQUIRED, "labeled matrix CSV"),
        ("out", "--out", str, "selection.json", "selection JSON output"),
        ("k", "--k", int, 20, "features to keep"),
        ("matrix_out", "--matrix-out", str, None, "also write the reduced matrix CSV"),
    ]),
    "train": (cmd_train, "train the bagged forest on a labeled matrix", [
        ("input", "--in", str, _REQUIRED, "labeled matrix CSV"),
        ("model", "--model", str, "model.json", "model JSON output"),
        ("trees", "--trees", int, 100, "tree count"),
        ("depth", "--depth", int, 6, "max depth"),
        ("min_split", "--min-split", int, 2, "min samples to split"),
        _SEED,
    ]),
    "evaluate": (cmd_evaluate, "holdout and/or k-fold evaluation", [
        ("input", "--in", str, _REQUIRED, "labeled matrix CSV"),
        ("model", "--model", str, None, "trained model JSON (holdout evaluation)"),
        ("kfold", "--kfold", int, None, "also cross-validate with this many folds"),
        ("threshold", "--threshold", float, 0.5, "TP decision threshold"),
        ("minutes_per_alert", "--minutes-per-alert", float, 4.0,
         "analyst minutes per reviewed alert"),
        ("report", "--report", str, "report.json", "report JSON output"),
        ("summary", "--summary", str, None, "also write a metric,value CSV here"),
        _SEED,
    ]),
    "explain": (cmd_explain, "per-feature attribution and global importance", [
        ("input", "--in", str, _REQUIRED, "matrix CSV"),
        ("model", "--model", str, _REQUIRED, "trained model JSON"),
        ("out", "--out", str, "importance.csv", "importance CSV output"),
        ("row", "--row", int, None, "also attribute this row to JSON"),
        ("attribution_out", "--attribution-out", str, "attribution.json",
         "per-row attribution JSON path"),
    ]),
    "predict": (cmd_predict, "score a matrix with a trained model", [
        ("input", "--in", str, _REQUIRED, "matrix CSV"),
        ("model", "--model", str, _REQUIRED, "trained model JSON"),
        ("out", "--out", str, "predictions.csv", "predictions CSV output"),
        ("threshold", "--threshold", float, 0.5, "TP decision threshold"),
    ]),
}
# one config file may serve several subcommands, so any row's name is a known key
_CONFIG_KEYS = {row[0] for _, _, rows in _COMMANDS.values() for row in rows}


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
    for command, (_, help_line, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for name, flag, kind, default, text in rows:
            if default is not None and default is not _REQUIRED:
                text = f"{text} (default {default})"
            p.add_argument(flag, dest=name, type=kind, help=text)
    return parser


def _convert(name: str, kind: Callable, value):
    """A config value, converted as the flag's type converts the flag's text."""
    if isinstance(value, str) and "\0" in value:  # no path or option text can hold one
        raise AlertSiftError(f"config key {name!r} holds a NUL character")
    if not isinstance(value, bool) and isinstance(value, (str, int, float)):
        try:
            return kind(str(value))
        except ValueError:
            pass
    raise AlertSiftError(f"config key {name!r} must be {kind.__name__}, got {value!r}")


def _resolve(command: str, args: Namespace, config: dict) -> Namespace:
    """Each option of command from its flag, else its config key, else its default.

    A config value converts as if it were given to the flag. A config key
    that names no option of any subcommand is refused, and so is a run
    that leaves a required option unset.
    """
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise AlertSiftError(f"unknown config key {unknown[0]!r}")
    rows = _COMMANDS[command][2]
    resolved = Namespace()
    for name, _, kind, default, _ in rows:
        value = getattr(args, name)
        if value is None and name in config:
            value = _convert(name, kind, config[name])
        if value is None and default is _REQUIRED:
            needed = " and ".join(row[1] for row in rows if row[3] is _REQUIRED)
            raise AlertSiftError(f"{command} needs {needed}")
        setattr(resolved, name, default if value is None else value)
    return resolved


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opt = _resolve(args.command, args, _load_config(args.config))
        summary = _COMMANDS[args.command][0](opt)
    except (AlertSiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
