"""In-memory spans around the public functions of each firedss module.

The traced run swaps module attributes for timing wrappers (nothing inside
``src/`` changes) and restores them afterwards. Each span records its name,
start, end and parent; a layer is the module name before the first dot, and
its self time is its spans' durations minus the time their child spans
cover. Spans named ``op.*`` mark the benchmark's own operations: they parent
layer spans but belong to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from firedss import fwi, ingest, retrieval, rules, semweb, stream

LAYERS = ("ingest", "fwi", "rules", "stream", "semweb", "retrieval")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.last_end = {}       # span name -> end time of its latest span
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index):
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self.last_end[span[0]] = end
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def mark_since(self, name, since):
        """Record a span that started when the latest ``since`` span ended
        and ends now, for work the program does between two traced calls."""
        parent = self._stack[-1] if self._stack else -1
        now = time.perf_counter()
        self.spans.append([name, self.last_end[since], now, parent])
        self.last_end[name] = now

    def summary(self):
        """Per span name: total ms, self ms, calls; per layer: self ms; and
        execute time grouped by the ``op.*`` span that called it."""
        child_ms = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        by_name = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_op = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            ms = (end - start) * 1000.0
            entry = by_name[name]
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[i]
            entry["calls"] += 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += ms - child_ms[i]
            if parent >= 0 and self.spans[parent][0].startswith("op."):
                by_op[(self.spans[parent][0], name)] += ms
        return dict(by_name), layer_self, dict(by_op)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _traced_call(tracer, name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer.counts, args, result)
        return result
    return traced


def _traced_generator(tracer, name, fn, count_name):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                if count_name is not None:
                    tracer.counts[count_name] += 1
                yield item
        finally:
            inner.close()
    return traced


def _count_evaluate(counts, args, result):
    counts["rules.facts_in"] += len(args[1])
    counts["rules.facts_derived"] += len(result) - len(args[1])


def _count_alerts(counts, args, result):
    counts["stream.alerts_out"] += len(result)


def _count_ntriples(counts, args, result):
    counts["semweb.ntriples_bytes"] += len(result.encode("utf-8"))


def _count_triples(counts, args, result):
    counts["semweb.triples"] += len(result)


def _count_rows(counts, args, result):
    counts["semweb.rows_out"] += len(result.rows)
    counts["semweb.type_clashes"] += result.type_clashes


def _count_embed(counts, args, result):
    counts["retrieval.embed.bytes"] += len(args[0].encode("utf-8"))


def _count_scanned(counts, args, result):
    counts["retrieval.docs_scanned"] += len(args[0])


# (owner, attribute, span name, counter) for plain calls; the program calls
# each of these through the owner's attribute, so replacing it is enough.
_CALLS = (
    (ingest, "parse_dataset", "ingest.parse_dataset", None),
    (fwi, "compute_codes", "fwi.compute_codes", None),
    (fwi, "classify", "fwi.classify", None),
    (fwi, "load_bands", "fwi.load_bands", None),
    (rules, "parse_rules", "rules.parse_rules", None),
    (rules, "evaluate", "rules.evaluate", _count_evaluate),
    (stream, "run_pipeline", "stream.run_pipeline", None),
    (stream, "batch_evaluate", "stream.batch_evaluate", _count_alerts),
    (stream, "record_facts", "stream.record_facts", None),
    (stream, "checkpoint_save", "stream.checkpoint_save", None),
    (semweb, "csv_to_graph", "semweb.csv_to_graph", None),
    (semweb, "serialize", "semweb.serialize", _count_ntriples),
    (semweb, "parse_ntriples", "semweb.parse_ntriples", _count_triples),
    (semweb, "parse_query", "semweb.parse_query", None),
    (semweb, "execute", "semweb.execute", _count_rows),
    (retrieval, "load_corpus", "retrieval.load_corpus", None),
    (retrieval, "embed", "retrieval.embed", _count_embed),
    (retrieval, "advisor_query", "retrieval.advisor_query", None),
    (retrieval.VectorIndex, "search", "retrieval.search", _count_scanned),
)

# generators are timed per item: one span for each next()
_GENERATORS = (
    (ingest, "iter_records", "ingest.iter_records", "ingest.records"),
    (stream, "cut_batches", "stream.cut_batches", None),
)


@contextlib.contextmanager
def installed(tracer):
    """Route every traced function through ``tracer`` while in the block."""
    saved = []
    try:
        for owner, attr, name, count in _CALLS:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _traced_call(tracer, name, fn, count))
        for owner, attr, name, count_name in _GENERATORS:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _traced_generator(tracer, name, fn, count_name))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
