"""Build one workload's inputs into a directory, in a child process.

    python3 perfbench/setup_inputs.py WORKLOAD SEED SIZE OUTDIR

run.py starts this once per set-up (with ``src`` on PYTHONPATH) and waits
for it. Inputs are built outside the workload's own process so that the
peak RSS reported for that process reflects the timed work, not the
generation of its inputs. The seed goes to the synthetic generator only;
the forest keeps its default seed, as in the README pipeline.
"""

from __future__ import annotations

import contextlib
import ipaddress
import json
import random
import sys
from pathlib import Path

import numpy as np

from alert_sift.cli import main as cli_main
from alert_sift.features import FeatureProfile, as_matrix, encode_alert, feature_names
from alert_sift.forest import ForestParams, save_forest, train_forest
from alert_sift.ingest import parse_timestamp, read_corpus
from alert_sift.labeling import build_label_lists, label_corpus
from alert_sift.sampling import SampleParams, dedup_sample, partition_by_period
from alert_sift.synth import SynthSpec, generate_corpus

SPLIT_DATE = "2025-05-07T00:00:00Z"

# "corpus" is the README's default synth corpus (105,400 alerts);
# "rows" is the 50,000-alert dup-1 corpus of train-50k and score-stream.
# "smoke" shrinks both for the benchmark's self-test.
SIZES = {
    "full": {
        "corpus": {"n_tp": 982, "n_fp": 1126, "n_rules": 200, "duplication_factor": 50},
        "rows": {"n_tp": 23_300, "n_fp": 26_700, "n_rules": 200, "duplication_factor": 1},
        "batch": 250,
    },
    "smoke": {
        "corpus": {"n_tp": 196, "n_fp": 225, "n_rules": 40, "duplication_factor": 50},
        "rows": {"n_tp": 932, "n_fp": 1068, "n_rules": 40, "duplication_factor": 1},
        "batch": 50,
    },
}


def _lines(corpus) -> list[str]:
    return [json.dumps(record, sort_keys=True) for record in corpus.alerts]


def _labeled(lines: list[str], comments) -> list:
    alerts, report = read_corpus(lines)
    if report.rejected:
        raise SystemExit(f"set-up: {report.rejected} synthetic lines rejected")
    tp_list, fp_list = build_label_lists(comments)
    return label_corpus(alerts, tp_list, fp_list)


def _public_addresses(rng: random.Random, n: int) -> list[str]:
    """n distinct globally routable IPv4 addresses."""
    seen: set[int] = set()
    out: list[str] = []
    while len(out) < n:
        value = rng.getrandbits(32)
        if value not in seen and ipaddress.IPv4Address(value).is_global:
            seen.add(value)
            out.append(str(ipaddress.IPv4Address(value)))
    return out


def setup_pipeline(seed: int, size: dict, out: Path) -> int:
    """The README's synth stage: alerts, rule comments and ground truth."""
    spec = size["corpus"]
    argv = [
        "synth",
        "--out", str(out / "alerts.ndjson"),
        "--comments", str(out / "rule_comments.csv"),
        "--truth", str(out / "ground_truth.csv"),
        "--seed", str(seed),
        "--n-tp", str(spec["n_tp"]),
        "--n-fp", str(spec["n_fp"]),
        "--n-rules", str(spec["n_rules"]),
        "--dup", str(spec["duplication_factor"]),
    ]
    with contextlib.redirect_stdout(sys.stderr):
        if cli_main(argv) != 0:
            raise SystemExit("set-up: synth failed")
    with open(out / "alerts.ndjson", "rb") as fh:
        return sum(1 for _ in fh)


def setup_train(seed: int, size: dict, out: Path) -> int:
    """Parse, label and encode the dup-1 corpus into X.npy and y.npy."""
    corpus = generate_corpus(SynthSpec(seed=seed, **size["rows"]))
    labeled = _labeled(_lines(corpus), corpus.comments)
    np.save(out / "X.npy", as_matrix([encode_alert(item.alert) for item in labeled]))
    np.save(out / "y.npy", np.array([item.label for item in labeled], dtype=np.int64))
    return len(labeled)


def setup_stream(seed: int, size: dict, out: Path) -> int:
    """Train the README pipeline's model; write the raw stream and its truth."""
    corpus = generate_corpus(SynthSpec(seed=seed, **size["corpus"]))
    kept = dedup_sample(_labeled(_lines(corpus), corpus.comments), SampleParams())
    train, _ = partition_by_period(kept, parse_timestamp(SPLIT_DATE))
    forest = train_forest(
        as_matrix([encode_alert(item.alert) for item in train]),
        [item.label for item in train],
        ForestParams(),
        feature_names=feature_names(FeatureProfile.CORE20),
    )
    with open(out / "model.json", "w", encoding="utf-8") as fh:
        save_forest(forest, fh)

    stream = generate_corpus(SynthSpec(seed=seed, **size["rows"]))
    addresses = _public_addresses(random.Random(seed), len(stream.alerts))
    with open(out / "stream.ndjson", "w", encoding="utf-8") as fh:
        for record, address in zip(stream.alerts, addresses):
            fh.write(json.dumps(dict(record, src_ip=address), sort_keys=True))
            fh.write("\n")
    np.save(out / "truth.npy", np.array(stream.truth, dtype=np.int64))
    return len(stream.alerts)


SETUPS = {
    "pipeline-default": setup_pipeline,
    "train-50k": setup_train,
    "score-stream": setup_stream,
}


def main(argv: list[str]) -> int:
    workload, seed, size, out = argv
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_alerts = SETUPS[workload](int(seed), SIZES[size], out_dir)
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"alerts": n_alerts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
