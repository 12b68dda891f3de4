"""Command-line shell of the alert-filtering pipeline: the options and their
config, _outputs, _read and one function per stage over the library modules.

Subcommands chain through files: synth or ingest produces normalized
NDJSON, label attaches 1/0 labels from rule comments, sample dedups and
optionally splits by date, encode emits a feature-matrix CSV, and the
model stages (select, train, evaluate, explain, predict) operate on that
CSV plus a JSON model file. NDJSON streams in through ingest.Records and
every other input file through _read; every file goes out through _outputs,
which renames outputs only once all are written, and _read_matrix refuses a
matrix the stage or model cannot use. Rule comments are one dict, {rule_uuid:
comment}: a sidecar's from ingest.read_rule_comments, or the alerts' own from
ingest.parse_embedded, which refuses a rule whose comments differ.

_COMMANDS is the one place where flags live: each subcommand's handler, its help
line and one (flag, type, default, help) row per option, named _name(flag). An
option that feeds a library parameter has the library's field as its default,
takes the default and least value stated there, and reaches the stage in
opt.params under the field's name. The parser, each "(default X)" help, config
typing, the unknown-key check and each range check come from it: an integer below
its least value is refused by its flag's name, before the stage runs.

Each option resolves from its flag, else its config key, else its default
(flags > config file > built-in defaults). The config file is JSON keyed by
option names, the long flag with dashes as underscores (--in is input); a
value converts as the flag's type converts its text, and a key that names
no option of any subcommand is an error, so one file may serve a whole
pipeline. A row whose default is _REQUIRED must be given by flag or config
key, or the run fails with "<cmd> needs" and the command's required flags.
Every run prints a one-line summary on success and exits nonzero with a
diagnostic on failure. All randomness flows from --seed (synth, train and
evaluate); evaluate --kfold with --model takes the model's seed, whatever
--seed says. Labeled stages pass LabeledAlert rows, (alert, label) pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from argparse import Namespace
from dataclasses import Field, asdict
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

import numpy as np

from . import __version__
from .errors import AlertSiftError, check_int
from .evaluation import (
    KFOLD_K, MINUTES_PER_ALERT, cross_validate, evaluate_forest, workload_savings
)
from .features import (
    SELECT_K,
    FeatureProfile,
    chi2_select,
    encode_alert,
    feature_names,
    load_caps,
    read_matrix_csv,
    write_matrix_csv,
)
from .forest import (
    MODEL_FORMAT_VERSION,
    THRESHOLD,
    Forest,
    ForestParams,
    check_threshold,
    load_forest,
    predict_proba_batch,
    save_forest,
    train_forest,
)
from .ingest import (
    RawAlert,
    Records,
    load_field_map,
    parse_alert_record,
    parse_embedded,
    parse_labeled_record,
    parse_timestamp,
    read_rule_comments,
    write_records,
)
from .labeling import build_label_lists, label_alerts, load_keyword_config, write_label_lists
from .sampling import SampleParams, dedup_sample, partition_by_period
from .synth import (
    SynthSpec,
    generate_corpus,
    write_alerts,
    write_comments,
    write_truth,
)

T = TypeVar("T")


def _read(path: str | None, load: Callable[[TextIO], T]) -> T | None:
    """load(fh) of the UTF-8 file at path, or None when no path is given."""
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return load(fh)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    text = _read(path, lambda fh: fh.read())  # outside the try: a decode error is a ValueError

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise AlertSiftError(f"config file {path} names key {key!r} twice")
            obj[key] = value
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=unique)
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
        raise AlertSiftError(f"unknown profile {name!r} (expected {_PROFILES})") from None


def _read_matrix(
    path: str, labeled: bool = False, forest: Forest | None = None
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """The matrix CSV at path as (X, labels or None, names).

    If labeled, a matrix with no label column is refused; given a forest, so
    is one whose columns are not the model's features, in order.
    """
    X, labels, names = _read(path, read_matrix_csv)
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
    spec = SynthSpec(**opt.params)
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
    with _outputs({"--out": opt.out}) as (out,):
        reader = _read(opt.field_map, load_field_map)
        parse = parse_alert_record if reader is None else partial(parse_alert_record, reader=reader)
        comments = _read(opt.comments, read_rule_comments)
        rejected: list[tuple[int, str]] = []
        with open(opt.input, encoding="utf-8") as fh:
            alerts = Records(fh, parse, opt.input, rejected)
            write_records(out, ((alert, None) for alert in alerts), comments)
        if alerts.count == 0 and rejected:  # raised inside the with, so no file is left
            line_no, reason = rejected[0]
            raise AlertSiftError(
                f"all {len(rejected)} records rejected; first: line {line_no}: {reason}"
            )
    return f"ingest: accepted {alerts.count}, rejected {len(rejected)} -> {opt.out}"


def cmd_label(opt: Namespace) -> str:
    with _outputs({"--out": opt.out, "--lists": opt.lists}) as (out, lists):
        cfg = _read(opt.keywords, load_keyword_config)
        comments = _read(opt.comments, read_rule_comments)
        with open(opt.input, encoding="utf-8") as fh:
            if comments is None:  # each rule's embedded comment is known after the last alert
                rules: dict[str, str] = {}
                alerts = Records(fh, partial(parse_embedded, rules), opt.input)
                stream: Iterable[RawAlert] = list(alerts)
            else:  # the rules are known before the first alert, so the alerts stream through
                rules = comments
                stream = alerts = Records(fh, parse_alert_record, opt.input)
            tp_list, fp_list = build_label_lists(rules.items(), cfg)
            written = [0, 0]  # rows written with label 0, with label 1

            def tally(rows: Iterator[tuple[RawAlert, int]]) -> Iterator[tuple[RawAlert, int]]:
                for row in rows:
                    written[row[1]] += 1
                    yield row

            rows = tally(label_alerts(stream, tp_list, fp_list))
            # the sidecar comment of a rule is written onto its alerts, as ingest attaches it
            write_records(out, rows, comments)
        if lists:
            write_label_lists(tp_list, fp_list, lists)
    n_fp, n_tp = written
    return (
        f"label: {n_tp + n_fp} labeled ({n_tp} tp, {n_fp} fp), "
        f"{alerts.count - n_tp - n_fp} dropped -> {opt.out}"
    )


def cmd_sample(opt: Namespace) -> str:
    params = SampleParams(**opt.params)
    split = None if opt.split_date is None else parse_timestamp(opt.split_date)
    paths = (
        {"--out": opt.out} if split is None
        else {"--train-out": opt.train_out, "--test-out": opt.test_out}
    )
    with _outputs(paths) as outs, open(opt.input, encoding="utf-8") as fh:
        labeled = Records(fh, parse_labeled_record, opt.input)
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
    with _outputs({"--out": opt.out}) as (out,):
        caps = _read(opt.caps, load_caps)  # None: encode_alert's default caps
        with open(opt.input, encoding="utf-8") as fh:
            labeled = list(Records(fh, parse_labeled_record, opt.input))
        # no labeled alerts give a header-only matrix
        rows = [encode_alert(item.alert, profile, caps) for item in labeled]
        X = rows or np.empty((0, profile.width))
        write_matrix_csv(out, X, [item.label for item in labeled], feature_names(profile))
    return f"encode: {len(rows)} rows x {profile.width} features -> {opt.out}"


def cmd_select(opt: Namespace) -> str:
    with _outputs({"--out": opt.out, "--matrix-out": opt.matrix_out}) as (out, matrix_out):
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
    params = ForestParams(**opt.params)
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
    with _outputs({"--report": opt.report, "--summary": opt.summary}) as (out, summary):
        forest = _read(opt.model, load_forest)
        X, labels, _ = _read_matrix(opt.input, labeled=True, forest=forest)
        keys = ("confusion", "metrics", "savings_hours", "per_fold", "mean", "variance")
        report: dict = dict.fromkeys(keys)
        rows: dict[str, float | None] = {}  # metric -> value, the --summary CSV's rows
        summary_bits = []
        if forest is not None:
            cm, rep = evaluate_forest(forest, X, labels, opt.threshold)
            savings = workload_savings(cm.fp_as_fp, opt.minutes_per_alert)
            report.update(confusion=asdict(cm), metrics=asdict(rep), savings_hours=savings)
            rows.update(report["metrics"], savings_hours=savings)
            acc, rec = ("n/a" if v is None else f"{v:.3f}" for v in (rep.accuracy, rep.tp_recall))
            summary_bits.append(f"accuracy {acc}, tp_recall {rec}, savings {savings:.1f}h")
        if opt.kfold is not None:
            params = ForestParams(**opt.params) if forest is None else forest.params
            cv = cross_validate(X, labels, params, k=opt.kfold, threshold=opt.threshold)
            mean, variance = cv.mean_accuracy, cv.accuracy_variance
            report.update(per_fold=[asdict(r) for r in cv.reports], mean=mean, variance=variance)
            rows.update(kfold_mean_accuracy=mean, kfold_accuracy_variance=variance)
            summary_bits.append(f"{opt.kfold}-fold mean {mean:.3f} var {variance:.5f}")
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if summary:
            summary.write("metric,value\n")
            for key, value in rows.items():
                summary.write(f"{key},{'' if value is None else repr(float(value))}\n")
    return f"evaluate: {'; '.join(summary_bits)} -> {opt.report}"


def cmd_explain(opt: Namespace) -> str:
    from .attribution import global_importance, tree_shap

    attribution_path = opt.attribution_out if opt.row is not None else None
    with _outputs({"--out": opt.out, "--attribution-out": attribution_path}) as (out, row_out):
        forest = _read(opt.model, load_forest)
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
        forest = _read(opt.model, load_forest)
        X, _, _ = _read_matrix(opt.input, forest=forest)
        proba = predict_proba_batch(forest, X)
        preds = (proba >= opt.threshold).astype(int)
        out.write("row,proba,label\n")
        for i in range(X.shape[0]):
            out.write(f"{i},{float(proba[i])!r},{int(preds[i])}\n")
    filtered = int((preds == 0).sum())
    return f"predict: {X.shape[0]} rows, {filtered} filtered as fp -> {opt.out}"


_REQUIRED = object()  # the default of an option that a run must be given
_PROFILES = " or ".join(profile.value for profile in FeatureProfile)  # --profile's choices
_SYNTH, _SAMPLE, _FOREST = (t.__dataclass_fields__ for t in (SynthSpec, SampleParams, ForestParams))


def _name(flag: str) -> str:
    """An option's attribute and config key: its long flag, dashes as underscores (--in: input)."""
    return "input" if flag == "--in" else flag[2:].replace("-", "_")


def _default(spec) -> tuple:
    """A row's (default, least value): a library field's own, else (spec, None)."""
    return (spec.default, spec.metadata.get("least")) if isinstance(spec, Field) else (spec, None)


# One row per option: (flag, type, default, help); _name(flag) is its attribute and config key.
# A default of None is not documented; a threshold, minutes or profile default is the library's.
# A library field as default gives the option the field's default and least value, and a value
# below that is refused by its flag; a parameter type's field also routes it to opt.params.
_COMMANDS: dict[str, tuple[Callable[[Namespace], str], str, list[tuple]]] = {
    "synth": (cmd_synth, "generate a deterministic synthetic corpus", [
        ("--out", str, "alerts.ndjson", "alerts NDJSON path"),
        ("--comments", str, "rule_comments.csv", "rule-comment sidecar CSV"),
        ("--truth", str, "ground_truth.csv", "ground-truth CSV"),
        ("--n-tp", int, _SYNTH["n_tp"], "base TP alerts"),
        ("--n-fp", int, _SYNTH["n_fp"], "base FP alerts"),
        ("--n-rules", int, _SYNTH["n_rules"], "rule count"),
        ("--dup", int, _SYNTH["duplication_factor"], "duplication factor"),
        ("--signal", float, _SYNTH["signal_strength"], "signal strength in [0,1]"),
        ("--seed", int, _SYNTH["seed"], "RNG seed"),
    ]),
    "ingest": (cmd_ingest, "parse and validate an NDJSON alert log", [
        ("--in", str, _REQUIRED, "raw NDJSON alert log"),
        ("--out", str, "parsed.ndjson", "normalized NDJSON output"),
        ("--field-map", str, None, "field=json.path remap file"),
        ("--comments", str, None, "rule-comment sidecar CSV to attach"),
    ]),
    "label": (cmd_label, "weak-label alerts from rule comments", [
        ("--in", str, _REQUIRED, "normalized NDJSON from ingest"),
        ("--out", str, "labeled.ndjson", "labeled NDJSON output"),
        ("--comments", str, None, "rule-comment sidecar CSV"),
        ("--keywords", str, None, "keyword config file (tp:/fp: stanzas)"),
        ("--lists", str, None, "also write the label lists CSV here"),
    ]),
    "sample": (cmd_sample, "dedup-sample and optionally split by date", [
        ("--in", str, _REQUIRED, "labeled NDJSON"),
        ("--out", str, "sampled.ndjson", "sampled NDJSON output"),
        ("--stride", int, _SAMPLE["stride"], "keep every stride-th per rule"),
        ("--per-rule-cap", int, _SAMPLE["per_rule_cap"], "max survivors per rule"),
        ("--split-date", str, None, "ISO timestamp; before=train, rest=test"),
        ("--train-out", str, "train.ndjson", "train split path"),
        ("--test-out", str, "test.ndjson", "test split path"),
    ]),
    "encode": (cmd_encode, "encode labeled alerts into the feature matrix CSV", [
        ("--in", str, _REQUIRED, "labeled NDJSON"),
        ("--out", str, "matrix.csv", "matrix CSV output"),
        ("--profile", str, FeatureProfile.CORE20.value, _PROFILES),
        ("--caps", str, None, "scaling-caps file (name=value lines)"),
    ]),
    "select": (cmd_select, "rank features by chi-squared score", [
        ("--in", str, _REQUIRED, "labeled matrix CSV"),
        ("--out", str, "selection.json", "selection JSON output"),
        ("--k", int, SELECT_K, "features to keep"),
        ("--matrix-out", str, None, "also write the reduced matrix CSV"),
    ]),
    "train": (cmd_train, "train the bagged forest on a labeled matrix", [
        ("--in", str, _REQUIRED, "labeled matrix CSV"),
        ("--model", str, "model.json", "model JSON output"),
        ("--trees", int, _FOREST["n_estimators"], "tree count"),
        ("--depth", int, _FOREST["max_depth"], "max depth"),
        ("--min-split", int, _FOREST["min_samples_split"], "min samples to split"),
        ("--seed", int, _FOREST["seed"], "RNG seed"),
    ]),
    "evaluate": (cmd_evaluate, "holdout and/or k-fold evaluation", [
        ("--in", str, _REQUIRED, "labeled matrix CSV"),
        ("--model", str, None, "trained model JSON (holdout evaluation)"),
        ("--kfold", int, KFOLD_K, "also cross-validate with this many folds"),
        ("--threshold", float, THRESHOLD, "TP decision threshold"),
        ("--minutes-per-alert", float, MINUTES_PER_ALERT, "analyst minutes per reviewed alert"),
        ("--report", str, "report.json", "report JSON output"),
        ("--summary", str, None, "also write a metric,value CSV here"),
        ("--seed", int, _FOREST["seed"],
         "RNG seed of --kfold; with --model, the model's seed is used"),
    ]),
    "explain": (cmd_explain, "per-feature attribution and global importance", [
        ("--in", str, _REQUIRED, "matrix CSV"),
        ("--model", str, _REQUIRED, "trained model JSON"),
        ("--out", str, "importance.csv", "importance CSV output"),
        ("--row", int, None, "also attribute this row to JSON"),
        ("--attribution-out", str, "attribution.json", "per-row attribution JSON path"),
    ]),
    "predict": (cmd_predict, "score a matrix with a trained model", [
        ("--in", str, _REQUIRED, "matrix CSV"),
        ("--model", str, _REQUIRED, "trained model JSON"),
        ("--out", str, "predictions.csv", "predictions CSV output"),
        ("--threshold", float, THRESHOLD, "TP decision threshold"),
    ]),
}
# one config file may serve several subcommands, so any row's name is a known key
_CONFIG_KEYS = {_name(row[0]) for _, _, rows in _COMMANDS.values() for row in rows}


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
        for flag, kind, spec, text in rows:
            if (default := _default(spec)[0]) is not None and default is not _REQUIRED:
                text = f"{text} (default {default})"
            p.add_argument(flag, dest=_name(flag), type=kind, help=text)
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

    A config value converts as the flag's text would; "" for an option whose default
    is None is not given. An unknown config key, an unset required option and an
    integer below its row's least value (named by its flag) are refused.
    """
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise AlertSiftError(f"unknown config key {unknown[0]!r}")
    rows = _COMMANDS[command][2]
    resolved = Namespace(params={})
    for flag, kind, spec, _ in rows:
        name, (default, least) = _name(flag), _default(spec)
        value = getattr(args, name)
        if value is None and name in config:
            value = _convert(name, kind, config[name])
        value = None if value == "" and default is None else value
        if value is None and default is _REQUIRED:
            needed = " and ".join(row[0] for row in rows if row[2] is _REQUIRED)
            raise AlertSiftError(f"{command} needs {needed}")
        if value is not None and least is not None:
            check_int(flag, value, least)
        setattr(resolved, name, default if value is None else value)
        if isinstance(spec, Field) and spec.name:  # SELECT_K and KFOLD_K have no name
            resolved.params[spec.name] = getattr(resolved, name)
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
