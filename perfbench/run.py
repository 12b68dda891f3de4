"""alert-sift benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing. With ``--trace 0`` the
timed section repeats until S seconds have passed (at least once) and the
end-to-end metrics are reported. With ``--trace 1`` one untraced and one
traced repetition run, and the per-layer metrics are reported. The last
line of standard output is the JSON result; a fuller record, with
provenance and, for traced runs, every span, goes to
``.perfbench_work/results/``. Exits 1 if any operation failed, 2 if the
package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process, one thread: the machine has two cores and the timings must
# not depend on how BLAS or OpenMP would spread over them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("alerts_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("tp_recall", "ratio"),
    ("accuracy", "ratio"),
    ("savings_hours", "h"),
)
CLI_STAGES = ("label", "sample", "encode", "train", "evaluate", "explain", "predict")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-default", "train-50k", "score-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args: argparse.Namespace, workload) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": workload.describe(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def check_identical(reps: list, ledger) -> None:
    """Every repetition's outputs match the first repetition's, byte for byte."""
    first = reps[0].digests
    for r, rep in enumerate(reps[1:], start=1):
        for name in sorted(set(first) | set(rep.digests)):
            a, b = first.get(name), rep.digests.get(name)
            op = (b or a)[1]
            ledger.check(a is not None and b is not None and a[0] == b[0], op,
                         f"{name} of repetition {r} differs from repetition 0")


def end_to_end(workload, setup_s: list[float], reps: list) -> dict:
    """End-to-end metrics; times at nominal speed (see speed.py)."""
    walls = [rep.wall_s for rep in reps]
    batches = [ms for rep in reps for ms in rep.batch_ms]
    quality = reps[0].quality
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "alerts_per_s": workload.n_alerts * len(reps) / sum(walls),
        "batch_p50_ms": statistics.median(batches) if batches else 0.0,
        "batch_p95_ms": statistics.quantiles(batches, n=20, method="inclusive")[18]
        if len(batches) > 1 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "tp_recall": quality.get("tp_recall", 0.0),
        "accuracy": quality.get("accuracy", 0.0),
        "savings_hours": quality.get("savings_hours", 0.0),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def tree_shape(model_json: bytes) -> tuple[int, int]:
    """(nodes, leaves) over all trees of a saved model."""
    nodes = leaves = 0
    stack = list(json.loads(model_json)["trees"]) if model_json else []
    while stack:
        node = stack.pop()
        nodes += 1
        if "feature" in node:
            stack += [node["left"], node["right"]]
        else:
            leaves += 1
    return nodes, leaves


def per_layer(workload, tracer, base, traced) -> dict:
    """Per-layer metrics from the traced repetition's spans, at nominal speed."""
    stats = tracer.stats()
    counts = tracer.counts
    scale = traced.wall_s / traced.raw_wall_s

    def calls(name: str) -> int:
        return stats[name]["calls"] if name in stats else 0

    def total(name: str) -> float:
        return stats[name]["total_s"] * scale if name in stats else 0.0

    def own(name: str) -> float:
        return stats[name]["self_s"] * scale if name in stats else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    parse, encode, split = "ingest.parse_alert_record", "features.encode_alert", "forest.best_split"
    predict, shap = "forest.predict_proba_batch", "attribution.tree_shap"
    train_s = total("forest.train_forest")
    nodes, leaves = tree_shape(traced.model_json)
    m = {
        "ingest.parse_calls": (calls(parse), "count"),
        "ingest.parses_per_alert": (ratio(calls(parse), workload.n_alerts), "ratio"),
        "ingest.parse_us": (ratio(own(parse), calls(parse)) * 1e6, "us"),
        "ingest.read_corpus_s": (total("ingest.read_corpus"), "s"),
        "ingest.attach_comments_s": (total("ingest.attach_comments"), "s"),
        "ingest.rejected": (stats[parse]["errors"] if parse in stats else 0, "count"),
        "labeling.build_label_lists_s": (total("labeling.build_label_lists"), "s"),
        "labeling.label_corpus_s": (total("labeling.label_corpus"), "s"),
        "labeling.kept_ratio": (ratio(counts["labeling.out"], counts["labeling.in"]), "ratio"),
        "sampling.dedup_s": (total("sampling.dedup_sample"), "s"),
        "sampling.partition_s": (total("sampling.partition_by_period"), "s"),
        "sampling.kept_ratio": (ratio(counts["sampling.out"], counts["sampling.in"]), "ratio"),
        "features.encode_calls": (calls(encode), "count"),
        "features.encode_us": (ratio(own(encode), calls(encode)) * 1e6, "us"),
        "features.matrix_write_s": (total("features.write_matrix_csv"), "s"),
        "features.matrix_read_s": (total("features.read_matrix_csv"), "s"),
        "forest.train_s": (train_s, "s"),
        "forest.train_rows_per_s": (ratio(counts["forest.train_rows"], train_s), "1/s"),
        "forest.grow_tree_s": (total("forest.grow_tree"), "s"),
        "forest.best_split_calls": (calls(split), "count"),
        "forest.best_split_us": (ratio(own(split), calls(split)) * 1e6, "us"),
        "forest.best_split_share": (ratio(own(split), train_s), "ratio"),
        "forest.nodes": (nodes, "count"),
        "forest.leaves": (leaves, "count"),
        "forest.predict_rows_per_s": (ratio(counts["forest.predict_rows"], total(predict)), "1/s"),
        "forest.predict_ms_per_batch": (ratio(total(predict), calls(predict)) * 1e3, "ms"),
        "forest.save_s": (total("forest.save_forest"), "s"),
        "forest.load_s": (total("forest.load_forest"), "s"),
        "forest.model_bytes": (len(traced.model_json), "B"),
        "attribution.tree_shap_calls": (calls(shap), "count"),
        "attribution.tree_shap_ms": (ratio(own(shap), calls(shap)) * 1e3, "ms"),
        "attribution.global_importance_s": (total("attribution.global_importance"), "s"),
        "evaluation.evaluate_forest_s": (total("evaluation.evaluate_forest"), "s"),
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = (total(f"cli.{stage}"), "s")
        m[f"cli.{stage}.self_s"] = (own(f"cli.{stage}"), "s")
    m["trace.overhead_s"] = (traced.wall_s - base.wall_s, "s")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}


def run(args: argparse.Namespace) -> int:
    import speed
    import workloads
    from tracing import NullTracer, Tracer

    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, ledger)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        meter = speed.Meter()
        setup_raw, setup_s = [], []
        for i in range(1 if args.trace else SETUP_REPEATS):
            mark, start = meter.mark(), perf_counter()
            with meter.running():
                workload.setup(work / f"setup{i}")
            setup_raw.append(perf_counter() - start)
            setup_s.append(setup_raw[-1] * meter.scale(mark))

        untraced = NullTracer()
        reps = []
        if args.trace:
            tracer = Tracer(meter.clock)
            reps.append(workload.rep(work / "rep0", "rep0", untraced, meter))
            reps.append(workload.rep(work / "rep1", "traced", tracer, meter))
        else:
            start = perf_counter()
            while not reps or perf_counter() - start < args.seconds:
                tag = f"rep{len(reps)}"
                reps.append(workload.rep(work / tag, tag, untraced, meter))
        check_identical(reps, ledger)

        record = {"provenance": provenance(args, workload), "ticks_s": meter.ticks,
                  "setup_raw_s": setup_raw, "wall_raw_s": [r.raw_wall_s for r in reps],
                  "wall_s": [r.wall_s for r in reps],
                  "batch_samples": sum(len(r.batch_ms) for r in reps)}
        if args.trace:
            metrics = per_layer(workload, tracer, *reps)
            if args.workload == "pipeline-default":
                stages = sum(metrics[f"cli.{s}_s"]["value"] for s in CLI_STAGES)
                wall = reps[1].wall_s
                record["cli_stage_gap_s"] = wall - stages
                op = ledger.attempt("traced.cli-stage-sum")
                ledger.check(0.0 <= wall - stages <= 0.01 * wall, op,
                             f"cli stages sum to {stages} s, traced wall {wall} s")
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
            record["stats"] = tracer.stats()
        else:
            metrics = end_to_end(workload, setup_s, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(metrics=metrics, attempted=ledger.attempted, failures=ledger.failures)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps(record["provenance"], sort_keys=True))
    print(f"repetitions {len(reps)}, batch latency samples {record['batch_samples']}, "
          f"failed_ratio {ledger.failed}/{ledger.attempted}, raw set-up {setup_raw} s, "
          f"raw wall {record['wall_raw_s']} s, nominal wall {record['wall_s']} s")
    for op, reason in sorted(ledger.failures.items()):
        print(f"FAILED {op}: {reason}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "alert_sift" / "__init__.py").is_file():
        print(f"error: no alert_sift package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
