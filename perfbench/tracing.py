"""Span tracer for the benchmark's traced runs, built from outside the package.

While active, the tracer replaces each public layer function listed in
TRACED with a wrapper, in every ``alert_sift`` module that binds it: the
defining module (whose globals other functions call through, as
``read_corpus`` calls ``parse_alert_record``), the package namespace, and
modules that imported the name directly, as ``cli.py`` does. Spans (name,
start, end, parent) are kept in memory. Per-record functions are not
given spans; their calls are aggregated into a count and a total on the
enclosing span. Leaving the active block restores every binding.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, aggregated into the parent span)
TRACED = (
    ("ingest", "read_corpus", False),
    ("ingest", "parse_alert_record", True),
    ("ingest", "attach_comments", False),
    ("labeling", "build_label_lists", False),
    ("labeling", "label_corpus", False),
    ("sampling", "dedup_sample", False),
    ("sampling", "partition_by_period", False),
    ("features", "encode_alert", True),
    ("features", "write_matrix_csv", False),
    ("features", "read_matrix_csv", False),
    ("forest", "train_forest", False),
    ("forest", "grow_tree", False),
    ("forest", "best_split", True),
    ("forest", "predict_proba_batch", False),
    ("forest", "save_forest", False),
    ("forest", "load_forest", False),
    ("attribution", "tree_shap", True),
    ("attribution", "global_importance", False),
    ("evaluation", "evaluate_forest", False),
)


def _sized_in_out(prefix: str):
    def count(counts: Counter, args: tuple, result) -> None:
        if hasattr(args[0], "__len__"):
            counts[prefix + ".in"] += len(args[0])
        counts[prefix + ".out"] += len(result)

    return count


# Counters read from a traced call's arguments or result.
_COUNTERS = {
    "labeling.label_corpus": _sized_in_out("labeling"),
    "sampling.dedup_sample": _sized_in_out("sampling"),
    "forest.train_forest": lambda counts, args, result: counts.update(
        {"forest.train_rows": len(args[1])}
    ),
    "forest.predict_proba_batch": lambda counts, args, result: counts.update(
        {"forest.predict_rows": len(result)}
    ),
}


class Tracer:
    """Spans and counters of one traced section."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        # each span: id, name, start, end, parent id, agg {name: [calls, seconds, errors]}
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "agg": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _wrap_aggregated(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = self._stack[-1]["agg"].setdefault(name, [0, 0.0, 0])
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                entry[2] += 1
                raise
            finally:
                entry[0] += 1
                entry[1] += self.clock() - start

        return traced

    @contextmanager
    def active(self):
        """Patch every binding of the traced functions; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("alert_sift")]
        patched = []
        for module, fname, aggregated in TRACED:
            original = getattr(sys.modules[f"alert_sift.{module}"], fname)
            name = f"{module}.{fname}"
            wrapper = (self._wrap_aggregated if aggregated else self._wrap)(name, original)
            for mod in modules:
                if vars(mod).get(fname) is original:
                    setattr(mod, fname, wrapper)
                    patched.append((mod, fname, original))
        try:
            with self.span("trace.root"):
                yield self
        finally:
            for mod, fname, original in reversed(patched):
                setattr(mod, fname, original)

    def stats(self) -> dict[str, dict]:
        """Per name: calls, total (inclusive) seconds, self seconds and errors.

        A span's self time is its duration minus its child spans and the
        aggregated calls made directly under it.
        """
        covered: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
        )
        for rec in self.spans:
            duration = rec["end"] - rec["start"]
            agg_total = sum(entry[1] for entry in rec["agg"].values())
            row = out[rec["name"]]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[rec["id"]] - agg_total
            for name, (calls, seconds, errors) in rec["agg"].items():
                row = out[name]
                row["calls"] += calls
                row["total_s"] += seconds
                row["self_s"] += seconds
                row["errors"] += errors
        return dict(out)


class NullTracer:
    """Stands in for Tracer in untraced repetitions."""

    @contextmanager
    def span(self, name: str):
        yield None

    @contextmanager
    def active(self):
        yield self
