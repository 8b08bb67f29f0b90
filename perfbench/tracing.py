"""Spans around the public functions of ddmtest's layers, for the traced run.

``instrument(tracer)`` replaces the functions below with timing wrappers for
the duration of a ``with`` block and puts the originals back afterwards.
Spans (id, parent id, name, start, end) stay in memory; a span's self time is
its duration minus the time its child spans cover. A function that a later
version of the program no longer has is simply not traced, so its metrics
read 0.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "cli.load": "cli.load_s",
    "treebank.parse": "treebank.parse_s",
    "treebank.preprocess": "treebank.preprocess_s",
    "trees.build": "trees.build_s",
    "pipeline.analyze": "pipeline.analyze_s",
    "pipeline.tally": "pipeline.tally_s",
    "pipeline.run_tests": "pipeline.run_tests_s",
    "pipeline.emit": "pipeline.emit_s",
    "stats.tail": "stats.tail_s",
    "stats.holm": "stats.holm_s",
    "stats.min_sample_size": "stats.min_sample_size_s",
}
EXCLUSION_REASONS = ("cycle", "multiple_roots", "malformed", "disconnected",
                     "empty_after_preprocessing")


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent id or 0, name, start_ns, end_ns)
        self.self_ns = defaultdict(int)
        self.counts = Counter()
        self._open = []            # [id, name, start_ns, child_ns]

    def open(self, name: str):
        self._open.append([len(self.spans) + len(self._open) + 1, name,
                           time.perf_counter_ns(), 0])

    def close(self):
        end = time.perf_counter_ns()
        sid, name, start, child = self._open.pop()
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += end - start
        self.self_ns[name] += end - start - child
        self.spans.append((sid, parent[0] if parent else 0, name, start, end))

    def layer_metrics(self) -> dict:
        """Self times in seconds and the counts, by per-layer metric name."""
        out = {metric: self.self_ns.get(span, 0) / 1e9
               for span, metric in SELF_TIME_METRICS.items()}
        c = self.counts
        for key in ("treebank.blocks", "treebank.parse_errors",
                    "treebank.bytes_read", "treebank.files", "trees.built",
                    "pipeline.tally_trees_scanned", "pipeline.tests",
                    "pipeline.report_bytes", "stats.tail_calls",
                    "stats.holm_calls"):
            out[key] = c[key]
        for reason in EXCLUSION_REASONS:
            out[f"treebank.excluded.{reason}"] = c[f"treebank.excluded.{reason}"]
        built = c["trees.built"]
        out["trees.useful_ratio"] = c["trees.useful"] / built if built else 0.0
        return out

    def write(self, path: Path):
        """Write the spans as gzipped JSON lines: [id, parent, name, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace ddmtest's cli, treebank, trees, pipeline and stats layers."""
    from ddmtest import cli, pipeline, stats, treebank, trees

    patched = []

    def wrap(owner, attr, name, count=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close()
            if count is not None:
                count(args, kwargs, result)
            return result

        patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def wrap_iterator(owner, attr, name):
        orig = getattr(owner, attr, None)
        if orig is None:
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            errors = kwargs.get("errors")
            before = len(errors) if errors is not None else 0
            it = orig(*args, **kwargs)
            yielded = 0
            while True:
                tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    tracer.close()
                yielded += 1
                yield item
            failed = len(errors) - before if errors is not None else 0
            tracer.counts["treebank.blocks"] += yielded + failed
            tracer.counts["treebank.parse_errors"] += failed

        patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    c = tracer.counts

    def count_files(args, kwargs, files):
        c["treebank.files"] += len(files)
        c["treebank.bytes_read"] += sum(Path(f).stat().st_size for f in files)

    def count_fate(args, kwargs, result):
        if not isinstance(result, trees.LinearizedTree):
            c[f"treebank.excluded.{getattr(result, 'value', result)}"] += 1

    def count_tree(args, kwargs, result):
        n = args[1] if len(args) > 1 else kwargs.get("n")
        c["trees.built"] += 1
        c["trees.useful"] += n in (3, 4)

    def count_scanned(args, kwargs, result):
        c["pipeline.tally_trees_scanned"] += len(args[0] if args else kwargs["trees"])

    def count_call(key):
        def count(args, kwargs, result):
            c[key] += 1
        return count

    def count_bytes(args, kwargs, payload):
        c["pipeline.report_bytes"] += len(payload)

    wrap(cli, "_load_inputs", "cli.load")
    wrap(treebank, "gather_files", "treebank.gather_files", count_files)
    wrap_iterator(treebank, "parse_treebank", "treebank.parse")
    wrap(treebank, "preprocess", "treebank.preprocess", count_fate)
    wrap(trees.LinearizedTree, "__init__", "trees.build", count_tree)
    wrap(pipeline, "analyze_collection", "pipeline.analyze")
    wrap(pipeline, "tally_level", "pipeline.tally", count_scanned)
    wrap(pipeline, "run_tests", "pipeline.run_tests", count_call("pipeline.tests"))
    wrap(pipeline, "emit_report", "pipeline.emit", count_bytes)
    wrap(stats, "log_binomial_upper_tail", "stats.tail",
         count_call("stats.tail_calls"))
    wrap(stats, "holm_adjust_log10", "stats.holm", count_call("stats.holm_calls"))
    wrap(stats, "holm_adjust", "stats.holm", count_call("stats.holm_calls"))
    wrap(stats, "min_sample_size", "stats.min_sample_size")
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
