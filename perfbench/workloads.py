"""The three workloads: set-up, timed section and correctness checks.

Each workload object builds its inputs with ``setup`` (in a child process,
see setup_inputs.py) and runs one repetition of its timed section with
``rep``. A repetition returns its timings, the digests of everything it
wrote (compared across repetitions by run.py), and the model quality it
measured. Every CLI stage, scoring batch and training is an operation in
the Ledger; an operation fails when it raises, exits nonzero or fails a
check.

Timed work is cut into pieces (a CLI stage, a training, a group of
batches), each timed on the meter's clock and reported at nominal speed
(see speed.py).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from alert_sift import cli, evaluation, features, ingest
from alert_sift import forest as forest_mod
from alert_sift.errors import AlertSiftError

from setup_inputs import SIZES, SPLIT_DATE
from tracing import NullTracer

SETUP_SCRIPT = Path(__file__).with_name("setup_inputs.py")
SETUP_TIMEOUT_S = 170

MIN_TP_RECALL = 0.95  # paper criterion 7
MIN_ACCURACY = 0.90
ATTRIBUTION_TOL = 1e-9
SCORE_TOL = 1e-12
CHECK_EVERY = 1000  # rows re-scored one at a time with predict_proba
MINUTES_PER_ALERT = 4.0  # the evaluate default
BATCHES_PER_SEGMENT = 20


class Ledger:
    """Operations attempted in one invocation, and the reason each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def attempt(self, op: str) -> str:
        self.attempted += 1
        return op

    def check(self, ok: bool, op: str, reason: str) -> None:
        if not ok:
            self.failures.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Rep:
    wall_s: float = 0.0  # at nominal speed
    raw_wall_s: float = 0.0  # as measured
    batch_ms: list[float] = field(default_factory=list)  # at nominal speed
    # output name -> (sha256, operation that produced it)
    digests: dict[str, tuple[str, str]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    model_json: bytes = b""

    def add(self, raw_s: float, scale: float) -> None:
        self.raw_wall_s += raw_s
        self.wall_s += raw_s * scale


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quality(scores: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    preds = (scores >= 0.5).astype(int)
    cm = evaluation.confusion(preds.tolist(), truth.tolist())
    report = evaluation.metrics(cm)
    return {
        "tp_recall": report.tp_recall or 0.0,
        "accuracy": report.accuracy or 0.0,
        "savings_hours": evaluation.workload_savings(cm.fp_as_fp, MINUTES_PER_ALERT),
    }


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, ledger: Ledger) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.size_name = size
        self.ledger = ledger
        self.batch = self.size["batch"]
        rows = self.size["rows"]
        self.n_batches = (rows["n_tp"] + rows["n_fp"]) * rows["duplication_factor"] // self.batch
        self.n_alerts = 0

    def setup(self, out: Path) -> None:
        """Build inputs in a child process, then load them."""
        proc = subprocess.run(
            [sys.executable, str(SETUP_SCRIPT), self.name, str(self.seed), self.size_name, str(out)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {self.name} failed:\n{proc.stderr[-2000:]}")
        with open(out / "meta.json", encoding="utf-8") as fh:
            self.n_alerts = json.load(fh)["alerts"]
        self.load(out)

    def load(self, out: Path) -> None:
        pass

    def describe(self) -> dict:
        return {"alerts": self.n_alerts, "batch_size": self.batch, "batches_per_rep": self.n_batches}


# output file -> the stage that writes it
PIPELINE_OUTPUTS = {
    "labeled.ndjson": "label",
    "train.ndjson": "sample",
    "test.ndjson": "sample",
    "train.csv": "encode",
    "test.csv": "encode",
    "model.json": "train",
    "report.json": "evaluate",
    "importance.csv": "explain",
    "attribution.json": "explain",
    "predictions.csv": "predict",
}


class PipelineDefault(Workload):
    """The README CLI chain, in-process through alert_sift.cli.main."""

    name = "pipeline-default"

    def load(self, out: Path) -> None:
        self.inputs = out

    def _stages(self, d: Path) -> list[tuple[str, list[str]]]:
        a = self.inputs
        return [
            ("label", ["label", "--in", f"{a}/alerts.ndjson", "--comments",
                       f"{a}/rule_comments.csv", "--out", f"{d}/labeled.ndjson"]),
            ("sample", ["sample", "--in", f"{d}/labeled.ndjson", "--split-date", SPLIT_DATE,
                        "--train-out", f"{d}/train.ndjson", "--test-out", f"{d}/test.ndjson"]),
            ("encode", ["encode", "--in", f"{d}/train.ndjson", "--out", f"{d}/train.csv"]),
            ("encode", ["encode", "--in", f"{d}/test.ndjson", "--out", f"{d}/test.csv"]),
            ("train", ["train", "--in", f"{d}/train.csv", "--model", f"{d}/model.json"]),
            ("evaluate", ["evaluate", "--in", f"{d}/test.csv", "--model", f"{d}/model.json",
                          "--report", f"{d}/report.json"]),
            ("explain", ["explain", "--in", f"{d}/test.csv", "--model", f"{d}/model.json",
                         "--out", f"{d}/importance.csv", "--row", "0",
                         "--attribution-out", f"{d}/attribution.json"]),
            ("predict", ["predict", "--in", f"{d}/test.csv", "--model", f"{d}/model.json",
                         "--out", f"{d}/predictions.csv"]),
        ]

    def rep(self, d: Path, tag: str, tracer, meter) -> Rep:
        d.mkdir(parents=True)
        ledger = self.ledger
        ops: dict[str, str] = {}
        summaries: dict[str, str] = {}
        broken = False
        rep = Rep()
        gc.collect()
        with meter.running(), tracer.active():
            for i, (stage, argv) in enumerate(self._stages(d)):
                op = ledger.attempt(f"{tag}.{i}.{stage}")
                ops.setdefault(stage, op)
                if broken:
                    ledger.check(False, op, "skipped: an earlier stage failed")
                    continue
                out = io.StringIO()
                mark, start = meter.mark(), meter.clock()
                try:
                    with tracer.span(f"cli.{stage}"), contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(out):
                        rc = cli.main(argv)
                except (Exception, SystemExit) as exc:
                    rc = _failure(exc)
                rep.add(meter.clock() - start, meter.scale(mark))
                ledger.check(rc == 0, op, f"exit {rc}: {out.getvalue()[-500:]}")
                broken = rc != 0
                summaries[stage] = out.getvalue()
        if broken:
            return rep
        self._check(d, ops, summaries, rep)
        self._score_corpus(d, tag, rep, meter)
        rep.model_json = (d / "model.json").read_bytes()
        for path in sorted(d.iterdir()):
            rep.digests[path.name] = (_sha(path.read_bytes()), ops[PIPELINE_OUTPUTS[path.name]])
        shutil.rmtree(d)
        return rep

    def _check(self, d: Path, ops: dict, summaries: dict, rep: Rep) -> None:
        check = self.ledger.check
        found = re.search(r"kept (\d+) of \d+ \(train (\d+) .*test (\d+) ", summaries["sample"])
        check(found is not None, ops["sample"], f"unparsed summary {summaries['sample']!r}")
        if found:
            kept, n_train, n_test = (int(g) for g in found.groups())
            check(kept == n_train + n_test, ops["sample"], f"kept {kept} != {n_train} + {n_test}")
            for name, n in (("train", n_train), ("test", n_test)):
                with open(d / f"{name}.ndjson", "rb") as fh:
                    lines = sum(1 for _ in fh)
                check(lines == n, ops["sample"], f"{name}.ndjson has {lines} lines, summary {n}")

        with open(d / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        m = report["metrics"]
        rep.quality = {
            "tp_recall": m["tp_recall"] or 0.0,
            "accuracy": m["accuracy"] or 0.0,
            "savings_hours": report["savings_hours"],
        }
        check(rep.quality["tp_recall"] >= MIN_TP_RECALL, ops["evaluate"],
              f"tp_recall {rep.quality['tp_recall']} < {MIN_TP_RECALL}")
        check(rep.quality["accuracy"] >= MIN_ACCURACY, ops["evaluate"],
              f"accuracy {rep.quality['accuracy']} < {MIN_ACCURACY}")

        with open(d / "attribution.json", encoding="utf-8") as fh:
            att = json.load(fh)
        proba = self._predictions(d)
        total = att["base_value"] + sum(att["phi"].values())
        check(abs(total - proba[0]) <= ATTRIBUTION_TOL, ops["explain"],
              f"base_value + sum(phi) = {total!r} but row 0 scores {proba[0]!r}")

    @staticmethod
    def _predictions(d: Path) -> np.ndarray:
        with open(d / "predictions.csv", encoding="utf-8") as fh:
            next(fh)
            return np.array([float(line.split(",")[1]) for line in fh])

    def _score_corpus(self, d: Path, tag: str, rep: Rep, meter) -> None:
        """Score raw corpus lines in batches with the model the chain trained."""
        with open(d / "model.json", encoding="utf-8") as fh:
            model = forest_mod.load_forest(fh)
        with open(self.inputs / "alerts.ndjson", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for _, line in zip(range(self.n_batches * self.batch), fh)]
        _score_lines(self.ledger, tag, model, lines, self.batch, rep, meter, NullTracer(),
                     wall=False)


def _score_rows(ledger: Ledger, tag: str, model, X: np.ndarray, expected: np.ndarray,
                batch: int, rep: Rep, meter) -> None:
    """Time predict_proba_batch on consecutive batches of X; scores must equal expected."""
    segment: list[float] = []
    with meter.running():
        mark = meter.mark()
        for b in range(len(X) // batch):
            op = ledger.attempt(f"{tag}.batch{b}")
            rows = slice(b * batch, (b + 1) * batch)
            start = meter.clock()
            try:
                scores = forest_mod.predict_proba_batch(model, X[rows])
            except AlertSiftError as exc:
                ledger.check(False, op, _failure(exc))
                continue
            segment.append(meter.clock() - start)
            ledger.check(np.array_equal(scores, expected[rows]), op,
                         "batch scores differ from the workload's own scores")
            if len(segment) == BATCHES_PER_SEGMENT:
                mark = _close_segment(segment, rep, meter, mark, wall=False)
        _close_segment(segment, rep, meter, mark, wall=False)


def _close_segment(segment: list[float], rep: Rep, meter, mark: int, wall: bool) -> int:
    """Scale a group of batch times to nominal speed, empty it; returns the next mark."""
    if segment:
        scale = meter.scale(mark)
        rep.batch_ms.extend(t * scale * 1e3 for t in segment)
        if wall:
            rep.add(sum(segment), scale)
        segment.clear()
    return meter.mark()


class Train50k(Workload):
    """train_forest on 50,000 encoded rows, save_forest, predict_proba_batch on them."""

    name = "train-50k"

    def load(self, out: Path) -> None:
        self.X = np.load(out / "X.npy")
        self.y = np.load(out / "y.npy")
        self.names = features.feature_names(features.FeatureProfile.CORE20)

    def rep(self, d: Path, tag: str, tracer, meter) -> Rep:
        d.mkdir(parents=True)
        ledger = self.ledger
        op = ledger.attempt(f"{tag}.train")
        rep = Rep()
        gc.collect()
        with meter.running(), tracer.active():
            mark, start = meter.mark(), meter.clock()
            try:
                model = forest_mod.train_forest(self.X, self.y, forest_mod.ForestParams(),
                                                feature_names=self.names)
                with open(d / "model.json", "w", encoding="utf-8") as fh:
                    forest_mod.save_forest(model, fh)
                proba = forest_mod.predict_proba_batch(model, self.X)
            except AlertSiftError as exc:
                ledger.check(False, op, _failure(exc))
                return rep
            rep.add(meter.clock() - start, meter.scale(mark))
        _check_rows(ledger, lambda i: op, proba,
                    lambda i: forest_mod.predict_proba(model, self.X[i]))
        _score_rows(ledger, tag, model, self.X, proba, self.batch, rep, meter)
        rep.quality = _quality(proba, self.y)
        rep.model_json = (d / "model.json").read_bytes()
        rep.digests = {"model.json": (_sha(rep.model_json), op),
                       "scores": (_sha(proba.tobytes()), op)}
        shutil.rmtree(d)
        return rep


class ScoreStream(Workload):
    """Closed loop, one caller: raw NDJSON lines -> parse -> encode -> scores."""

    name = "score-stream"

    def load(self, out: Path) -> None:
        with open(out / "model.json", encoding="utf-8") as fh:
            self.model = forest_mod.load_forest(fh)
        self.model_json = (out / "model.json").read_bytes()
        with open(out / "stream.ndjson", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.truth = np.load(out / "truth.npy")

    def rep(self, d: Path, tag: str, tracer, meter) -> Rep:
        rep = Rep(model_json=self.model_json)
        gc.collect()
        proba = _score_lines(self.ledger, tag, self.model, self.lines, self.batch, rep, meter,
                             tracer, wall=True)
        rep.quality = _quality(proba, self.truth)
        rep.digests = {"scores": (_sha(proba.tobytes()), f"{tag}.batch0")}
        return rep


def _score_lines(ledger: Ledger, tag: str, model, lines: list[str], batch: int, rep: Rep,
                 meter, tracer, wall: bool) -> np.ndarray:
    """The deployed filter: parse, encode and score raw lines, one batch at a time.

    Batch times go to rep.batch_ms (and to the wall time if wall); the
    scores of every CHECK_EVERY-th line must equal predict_proba on it alone.
    """
    scores: list[np.ndarray] = []
    segment: list[float] = []
    with meter.running(), tracer.active():
        mark = meter.mark()
        for b in range(len(lines) // batch):
            op = ledger.attempt(f"{tag}.batch{b}")
            chunk = lines[b * batch:(b + 1) * batch]
            start = meter.clock()
            try:
                with tracer.span("stream.batch"):
                    alerts = [ingest.parse_alert_record(line) for line in chunk]
                    X = features.as_matrix([features.encode_alert(a) for a in alerts])
                    scores.append(forest_mod.predict_proba_batch(model, X))
            except AlertSiftError as exc:
                ledger.check(False, op, _failure(exc))
                scores.append(np.full(len(chunk), np.nan))
            segment.append(meter.clock() - start)
            if len(segment) == BATCHES_PER_SEGMENT:
                mark = _close_segment(segment, rep, meter, mark, wall)
        _close_segment(segment, rep, meter, mark, wall)
    proba = np.concatenate(scores)

    def single(i: int) -> float:
        alert = ingest.parse_alert_record(lines[i])
        return forest_mod.predict_proba(model, features.encode_alert(alert))

    _check_rows(ledger, lambda i: f"{tag}.batch{i // batch}", proba, single)
    return proba


def _check_rows(ledger: Ledger, op_of, proba: np.ndarray, single) -> None:
    """Batch scores equal predict_proba on every CHECK_EVERY-th row, all in [0, 1].

    op_of(i) names the operation that scored row i; single(i) scores it alone.
    """
    for i in range(0, len(proba), CHECK_EVERY):
        if np.isnan(proba[i]):
            continue  # its batch already failed
        expected = single(i)
        ledger.check(abs(proba[i] - expected) <= SCORE_TOL, op_of(i),
                     f"row {i}: batch score {proba[i]!r} != predict_proba {expected!r}")
    bad = np.flatnonzero(~((proba >= 0.0) & (proba <= 1.0)))
    for i in bad[:10]:
        ledger.check(False, op_of(i), f"row {i}: score {proba[i]!r}")


WORKLOADS = {w.name: w for w in (PipelineDefault, Train50k, ScoreStream)}
