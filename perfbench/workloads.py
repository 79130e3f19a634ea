"""Seeded inputs, timed jobs and output checks for the benchmark workloads.

Every workload is a closed loop with one caller in one thread: the next job
starts only when the previous one has returned and been checked. A job is
one fixed unit of work (a whole stream replay, one convert + load + query
mix, one pass over the alert list), so jobs of one run repeat the same work.
Inputs are generated from the seed into a scratch directory and handed to
the same library entry points the CLI uses; the program never sees the seed.

Times are taken with ``speed.LapClock`` and stated at the reference
speed (see speed.py); each job also keeps its raw wall time.

Outputs are checked against references the benchmark holds itself:
per-batch sink digests built from ``reference_rows.jsonl`` and the alert
rules' meaning, N-Triples text and query rows built from the CSV cells, and
top-k ids from a numpy brute-force ranking over an independent embedding.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from firedss import data_text, fwi, ingest, retrieval, rules, semweb, stream
from speed import LapClock

HERE = Path(__file__).resolve().parent
BASE = "http://example.org/forestfires#"
XSD = "http://www.w3.org/2001/XMLSchema#"


@dataclass(frozen=True)
class Sizes:
    replica_copies: int = 20      # stream_replica: copies of the 517-row table
    chain_links: int = 20         # stream_rule_chain: reversed chain length
    graph_rows: int = 80          # graph_query: table prefix (13 triples a row)
    corpus_docs: int = 2000       # advise: documents after expansion
    alerts_per_job: int = 500     # advise: alerts answered per job


FULL = Sizes()
TINY = Sizes(replica_copies=1, chain_links=5, graph_rows=12, corpus_docs=60,
             alerts_per_job=20)


@dataclass
class JobResult:
    wall_s: float                 # program time of the job at the reference
                                  # speed, less steal; checks and probes
                                  # excluded
    raw_wall_s: float             # the same, as measured
    items: int                    # records, queries or alerts completed
    op_ms: list                   # service time of each operation, scaled
    attempted: int
    failed: int
    phases: dict = field(default_factory=dict)   # report name -> scaled values
    raw_op_ms: list = field(default_factory=list)


class Probed:
    """A workload's speed probe: ``probe_kind`` and ``probe_rounds`` (see
    speed.py). Traced jobs run unprobed, and so does all of a traced run
    (``probed`` off), so that its untraced jobs compare with its traced
    ones."""

    probed = True

    def probe(self, tracer=None):
        return self.probe_kind, self.probe_rounds if self.probed and tracer is None else 0


def _result(clock, items, op_laps, attempted, failed, phases=None):
    """A JobResult from a finished clock; ``op_laps`` are the indexes of
    the laps that are operations."""
    return JobResult(sum(clock.net), sum(clock.raw), items,
                     [clock.scaled[i] * 1000.0 for i in op_laps], attempted, failed,
                     phases or {}, [clock.raw[i] * 1000.0 for i in op_laps])


def _bundled_table():
    """Header line, raw data lines and typed rows of the bundled table."""
    lines = data_text("forestfires_synthetic.csv").splitlines()
    header, body = lines[0], [line for line in lines[1:] if line.strip()]
    names = header.split(",")
    typed = []
    for fields in csv.reader(body):
        row = {}
        for name, cell in zip(names, fields):
            if name in ("X", "Y"):
                row[name] = int(cell)
            elif name in ("month", "day"):
                row[name] = cell.strip().lower()
            else:
                row[name] = float(cell)
        typed.append(row)
    return header, body, typed


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# --- stream workloads --------------------------------------------------------

# (alert kind, code) in emission order; the label index matches
# reference_rows.jsonl
_KINDS = (("FFMC_IGNITION", "FFMC"), ("DMC", "DMC"), ("DC_MOPUP", "DC"),
          ("ISI_SPREAD", "ISI"), ("BUI", "bui"), ("FWI", "fwi"))
_HARD = "difficult and extensive"
_TS_MS = re.compile(r', "ts_ms": -?\d+')
_BATCH = re.compile(r'\{"batch": (\d+),')


def _reference_rows(typed):
    rows = []
    with open(HERE / "reference_rows.jsonl", encoding="utf-8") as fh:
        for row, line in zip(typed, fh):
            ref = json.loads(line)
            codes = {"FFMC": row["FFMC"], "DMC": row["DMC"], "DC": row["DC"],
                     "ISI": row["ISI"], "bui": ref["bui"], "fwi": ref["fwi"]}
            rows.append((tuple(codes[c] for _, c in _KINDS), tuple(ref["labels"])))
    if len(rows) != len(typed):
        raise RuntimeError("reference_rows.jsonl does not cover the bundled table")
    return rows


def _derived(values, labels, chain):
    """(predicate, rule) heads that fwi_alerts.rules plus the chain derive
    for one record."""
    heads = []
    if labels[1] == _HARD and labels[2] == _HARD:
        heads.append(("fireTrigger", "fire_trigger"))
    if labels[2] == _HARD:
        heads.append(("mopUpNeeded", "mop_up_needed"))
        heads.extend(chain)
    if labels[0] == "extremely easy" and labels[3] == "fast":
        heads.append(("rapidSpreadWatch", "rapid_spread_watch"))
    if values[2] >= 600:
        heads.append(("deepDroughtWatch", "deep_drought_watch"))
    return heads


def expected_batch_digests(reference, order, batch_size, chain):
    """Digest of each batch's sink lines with ts_ms removed."""
    digests = []
    for seq, start in enumerate(range(0, len(order), batch_size)):
        offsets = range(start, min(start + batch_size, len(order)))
        lines = []
        for q, (kind, _) in enumerate(_KINDS):
            top = max(reference[order[o]][0][q] for o in offsets)
            hit = [o for o in offsets if reference[order[o]][0][q] == top]
            lines.append(json.dumps({
                "batch": seq, "kind": kind, "offsets": hit, "rule": None,
                "severity": reference[order[hit[0]]][1][q], "value": top},
                sort_keys=True))
        facts = []
        for o in offsets:
            values, labels = reference[order[o]]
            for predicate, rule in _derived(values, labels, chain):
                facts.append((f"{predicate}(rec_{o})", predicate, rule, o))
        for _, predicate, rule, o in sorted(facts):
            lines.append(json.dumps({
                "batch": seq, "kind": "RULE", "offsets": [o], "rule": rule,
                "severity": predicate, "value": None}, sort_keys=True))
        digests.append(_digest(lines))
    return digests


def sink_batch_digests(path):
    """Batch number -> digest of its sink lines with ts_ms removed; a batch
    that appears twice maps to None."""
    out, seq, lines = {}, None, []

    def flush():
        if seq is not None:
            out[seq] = None if seq in out else _digest(lines)

    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            m = _BATCH.match(line)
            line_seq = int(m.group(1)) if m else -1
            if line_seq != seq:
                flush()
                seq, lines = line_seq, []
            lines.append(_TS_MS.sub("", line, count=1))
    flush()
    return out


def chain_rules(rng, links):
    """A chain of single-atom rules rooted at DcClass_difficult_and_extensive,
    written last link first so that naive saturation needs one round per
    link. Returns the rule text and the (predicate, rule) heads in order."""
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))
    heads = [(f"{tag}Stage{k:03d}", f"{tag}_link{k:03d}") for k in range(1, links + 1)]
    lines = []
    for k in range(links, 0, -1):
        body = "DcClass_difficult_and_extensive" if k == 1 else heads[k - 2][0]
        predicate, name = heads[k - 1]
        lines.append(f"rule {name}: when {body}(?r) then assert {predicate}(?r)")
    return "\n".join(lines) + "\n", heads


class StreamWorkload(Probed):
    """``stream.run_pipeline`` over a generated CSV file with a fresh sink
    (and checkpoint) per job; one operation is one batch, timed from the
    previous batch's ``after_checkpoint`` hook to its own (the first from
    the call). The speed probes run inside that hook, between batches."""

    op_name, item_name = "batch", "records"

    def __init__(self, workdir, seed, copies, shuffle, batch_size, links,
                 checkpoint, setup_reps, probe):
        rng = random.Random(seed)
        header, body, typed = _bundled_table()
        order = []
        for _ in range(copies):
            block = list(range(len(body)))
            if shuffle:
                rng.shuffle(block)
            order.extend(block)
        chain_text, chain = chain_rules(rng, links) if links else ("", [])
        self.workdir = workdir
        self.source = workdir / "input.csv"
        self.source.write_text(
            header + "\n" + "".join(body[i] + "\n" for i in order), encoding="utf-8")
        self.rules_path = workdir / "alerts.rules"
        self.rules_path.write_text(data_text("fwi_alerts.rules") + chain_text,
                                   encoding="utf-8")
        self.bands_path = workdir / "default.bands"
        self.bands_path.write_text(data_text("default.bands"), encoding="utf-8")
        self.batch_size = batch_size
        self.checkpoint = checkpoint
        self.setup_reps = setup_reps
        self.probe_kind, self.probe_rounds = probe
        self.records = len(order)
        self.batches = -(-self.records // batch_size)
        self.expected = expected_batch_digests(
            _reference_rows(typed), order, batch_size, chain)
        self.inputs = {"records": self.records, "batch_size": batch_size,
                       "batches": self.batches, "rules": 4 + links,
                       "chain_links": links, "checkpoint": checkpoint,
                       "batch_arithmetic": f"{self.records} = "
                       f"{self.records // batch_size}x{batch_size} + "
                       f"{self.records % batch_size}"}

    def setup(self):
        rules_text = self.rules_path.read_text(encoding="utf-8")
        ruleset = rules.parse_rules(rules_text)
        bands = fwi.load_bands(self.bands_path.read_text(encoding="utf-8"))
        return rules_text, ruleset, bands

    def job(self, state, tracer=None):
        rules_text, ruleset, bands = state
        rundir = Path(tempfile.mkdtemp(prefix="job-", dir=self.workdir))
        sink = rundir / "alerts.jsonl"
        checkpoint = rundir / "stream.ckpt" if self.checkpoint else None
        clock = LapClock(*self.probe(tracer))

        def hook(point, seq):
            if point == "after_checkpoint":
                clock.lap()
            elif tracer is not None:
                tracer.mark_since("stream.sink", "stream.batch_evaluate")

        try:
            clock.start()
            try:
                stats = stream.run_pipeline(
                    str(self.source), str(sink), checkpoint_path=checkpoint,
                    batch_size=self.batch_size, bands=bands, rules=ruleset,
                    rules_text=rules_text, crash_hook=hook)
            except Exception:
                traceback.print_exc()
                stats = None
            clock.lap()                       # from the last batch to the return
            failed = self._check(stats, sink, checkpoint)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        return _result(clock, self.records if stats else 0,
                       range(len(clock.raw) - 1), self.batches, failed)

    def _check(self, stats, sink, checkpoint):
        if stats is None or not sink.exists():
            return self.batches
        if stats.records_in != self.records or stats.batches_out != self.batches:
            return self.batches
        if checkpoint is not None:
            try:
                cp = stream.checkpoint_load(checkpoint)
            except stream.StreamError:
                return self.batches
            if cp.batch_seq != self.batches - 1 or cp.offset != self.records:
                return self.batches
        actual = sink_batch_digests(sink)
        failed = sum(1 for seq, digest in enumerate(self.expected)
                     if actual.get(seq) != digest)
        return min(self.batches, failed + len(set(actual) - set(range(self.batches))))


# --- graph_query -------------------------------------------------------------

SHAPES = ("scan", "join2", "join3", "selective")
_GRAPH_COLUMNS = ("FFMC", "DMC", "DC", "ISI", "temp", "RH", "wind")


def _nt_term(kind, value):
    if kind == "iri":
        return f"<{value}>"
    return f'"{value}"^^<{XSD}{kind}>'


def _lexical(name, value):
    if name in ("X", "Y"):
        return "integer", str(value)
    if name in ("month", "day"):
        return "string", value
    return "decimal", repr(value)


class GraphQuery(Probed):
    """CSV prefix -> N-Triples -> graph -> a fixed mix of four query shapes.
    The operation is one pass over the mix (a median over single queries of
    four shapes would fall between two shapes' extremes); each shape's
    time, convert and load are reported as phases of the same job."""

    op_name, item_name = "query", "queries"

    def __init__(self, workdir, seed, rows, setup_reps, probe):
        rng = random.Random(seed)
        header, body, typed = _bundled_table()
        body, typed = body[:rows], typed[:rows]
        self.csv_path = workdir / "prefix.csv"
        self.csv_path.write_text(header + "\n" + "\n".join(body) + "\n", encoding="utf-8")
        self.setup_reps = setup_reps
        self.probe_kind, self.probe_rounds = probe
        names = header.split(",")
        subjects = [f"{BASE}row{i}" for i in range(len(typed))]

        lines = []
        for subject, row in zip(subjects, typed):
            for name in names:
                kind, lex = _lexical(name, row[name])
                lines.append(f"<{subject}> <{BASE}{name}> {_nt_term(kind, lex)} .")
        self.ntriples_digest = hashlib.sha256(
            ("\n".join(sorted(lines)) + "\n").encode("utf-8")).hexdigest()
        self.triples = len(lines)

        a, b, c = rng.sample(_GRAPH_COLUMNS, 3)
        t1, t2, t3 = (sorted(r[col] for r in typed)[rng.randrange(rows // 4, 3 * rows // 4 + 1)]
                      for col in (a, b, c))
        month = rng.choice(sorted({r["month"] for r in typed}))
        prefix = f"PREFIX ds: <{BASE}>\n"
        texts = {
            "scan": f"SELECT ?r ?a WHERE {{ ?r ds:{a} ?a . FILTER (?a > {t1!r}) }}",
            "join2": f"SELECT ?r ?a ?b WHERE {{ ?r ds:{a} ?a . ?r ds:{b} ?b . "
                     f"FILTER (?a > {t1!r} && ?b < {t2!r}) }}",
            "join3": f"SELECT ?r ?a ?b ?c WHERE {{ ?r ds:{a} ?a . ?r ds:{b} ?b . "
                     f"?r ds:{c} ?c . FILTER ((?a > {t1!r} && ?b < {t2!r}) || ?c > {t3!r}) }}",
            "selective": f'SELECT ?r ?a WHERE {{ ?r ds:{a} ?a . ?r ds:month "{month}" }}',
        }
        keep = {
            "scan": lambda r: r[a] > t1,
            "join2": lambda r: r[a] > t1 and r[b] < t2,
            "join3": lambda r: (r[a] > t1 and r[b] < t2) or r[c] > t3,
            "selective": lambda r: r["month"] == month,
        }
        columns = {"scan": (a,), "join2": (a, b), "join3": (a, b, c), "selective": (a,)}
        self.query_paths = {}
        self.expected = {}
        for shape in SHAPES:
            path = workdir / f"{shape}.rq"
            path.write_text(prefix + texts[shape] + "\n", encoding="utf-8")
            self.query_paths[shape] = path
            rows_out = []
            for subject, row in zip(subjects, typed):
                if keep[shape](row):
                    cells = [("iri", subject)] + [_lexical(n, row[n])
                                                  for n in columns[shape]]
                    rows_out.append(cells)
            rows_out.sort(key=lambda cells: tuple(_nt_term(k, v) for k, v in cells))
            self.expected[shape] = [tuple(v for _, v in cells) for cells in rows_out]
        self.inputs = {"rows": rows, "triples": self.triples,
                       "columns": [a, b, c], "month": month,
                       "rows_out": {s: len(self.expected[s]) for s in SHAPES}}

    def setup(self):
        return {shape: semweb.parse_query(path.read_text(encoding="utf-8"))
                for shape, path in self.query_paths.items()}

    def job(self, queries, tracer=None):
        clock = LapClock(*self.probe(tracer))
        clock.start()
        try:
            dataset = ingest.parse_dataset(self.csv_path.read_text(encoding="utf-8"))
            text = semweb.serialize(semweb.csv_to_graph(dataset, BASE))
            clock.lap()
            graph = semweb.parse_ntriples(text)
            clock.lap()
        except Exception:
            traceback.print_exc()
            clock.lap()
            return _result(clock, 0, [], 6, 6)
        results, failed = {}, 0
        for shape in SHAPES:
            try:
                if tracer is None:
                    results[shape] = semweb.execute(queries[shape], graph)
                else:
                    with tracer.span(f"op.{shape}"):
                        results[shape] = semweb.execute(queries[shape], graph)
            except Exception:
                traceback.print_exc()
                failed += 1
            clock.lap()
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != self.ntriples_digest:
            failed += 1
        if len(graph) != self.triples:
            failed += 1
        for shape, result in results.items():
            got = [tuple(semweb.format_cell(c) for c in row) for row in result.rows]
            if got != self.expected[shape] or result.type_clashes != 0:
                failed += 1
        phases = {"convert_s": [clock.scaled[0]], "graph_load_s": [clock.scaled[1]]}
        for lap, shape in enumerate(SHAPES, 2):
            if shape in results:
                phases[f"query_{shape}_ms"] = [clock.scaled[lap] * 1000.0]
        job = _result(clock, len(results), [], 6, failed, phases)
        if len(results) == len(SHAPES):
            job.op_ms = [sum(clock.scaled[2:]) * 1000.0]
            job.raw_op_ms = [sum(clock.raw[2:]) * 1000.0]
        return job


# --- advise ------------------------------------------------------------------

_SECTORS = ("Montesinho", "Rabal", "Gimonde", "Baçal", "Deilao", "Franca",
            "Espinhosela", "Aveleda", "Carragosa", "Sacoias")
_ACTIONS = ("recheck hydrant pressure", "brief the night shift",
            "stage a water tender", "close the forest track",
            "notify the parish council", "walk the fuel break",
            "refuel the patrol vehicles", "test the radio relay")
_ALERTS = (
    [("FFMC_IGNITION", s) for s in ("difficult", "possible", "moderately easy",
                                    "extremely easy")]
    + [("DMC", s) for s in ("easy", "moderate", _HARD)]
    + [("DC_MOPUP", s) for s in ("easy", "moderate", _HARD)]
    + [("ISI_SPREAD", s) for s in ("slow", "moderate", "fast")]
    + [("BUI", s) for s in ("low", "moderate", "high")]
    + [("FWI", s) for s in ("low", "moderate", "high", "extreme")]
    + [("RULE", s) for s in ("fireTrigger", "mopUpNeeded", "rapidSpreadWatch",
                             "deepDroughtWatch")])

_FNV_OFFSET, _FNV_PRIME, _MASK64 = 0xCBF29CE484222325, 0x100000001B3, (1 << 64) - 1


def reference_embed(text, dimension=256, ngram=3):
    """The documented embedding (lowercase, collapse whitespace, FNV-1a 64
    over character trigrams, L2-normalised bucket counts), written out
    independently of firedss.retrieval."""
    normalized = " ".join(text.lower().split())
    vec = np.zeros(dimension)
    if not normalized:
        return vec
    grams = ([normalized] if len(normalized) < ngram else
             [normalized[i:i + ngram] for i in range(len(normalized) - ngram + 1)])
    for gram in grams:
        h = _FNV_OFFSET
        for byte in gram.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        vec[h % dimension] += 1.0
    return vec / np.linalg.norm(vec)


class Advise(Probed):
    """Alert -> ``advisor_query`` -> ``VectorIndex.search(k=2)`` over the
    bundled precaution corpus expanded with seeded variants."""

    op_name, item_name = "advice", "alerts"

    def __init__(self, workdir, seed, docs, alerts, setup_reps, probe):
        rng = random.Random(seed)
        base = [json.loads(line) for line in data_text("corpus.jsonl").splitlines()
                if line.strip()]
        corpus = list(base)
        for j in range(docs - len(base)):
            doc = rng.choice(base)
            suffix = (f" Sector {rng.choice(_SECTORS)}-{rng.randint(1, 99)}: "
                      f"{rng.choice(_ACTIONS)} within {rng.randint(1, 48)} hours.")
            corpus.append({"id": f"{doc['id']}-v{j:05d}", "text": doc["text"] + suffix,
                           "metadata": dict(doc.get("metadata", {}), variant_of=doc["id"])})
        self.corpus_path = workdir / "corpus.jsonl"
        self.corpus_path.write_text(
            "".join(json.dumps(d, sort_keys=True) + "\n" for d in corpus), encoding="utf-8")
        self.alerts = [rng.choice(_ALERTS) for _ in range(alerts)]
        self.setup_reps = setup_reps
        self.probe_kind, self.probe_rounds = probe
        self.ids = [d["id"] for d in corpus]
        self.matrix = np.vstack([reference_embed(d["text"]) for d in corpus])
        rank = {doc_id: i for i, doc_id in enumerate(sorted(self.ids))}
        self.id_rank = np.array([rank[doc_id] for doc_id in self.ids])
        self.reference = {}
        self.inputs = {"docs": len(corpus), "alerts_per_job": alerts,
                       "distinct_alerts": len(set(self.alerts)),
                       "corpus_bytes": self.corpus_path.stat().st_size}

    def setup(self):
        return retrieval.load_corpus(self.corpus_path.read_text(encoding="utf-8"))

    def top_k(self, query, k=2):
        if query not in self.reference:
            scores = self.matrix @ reference_embed(query)
            order = np.lexsort((self.id_rank, -scores))[:k]
            self.reference[query] = ([self.ids[i] for i in order],
                                     [float(scores[i]) for i in order])
        return self.reference[query]

    def job(self, index, tracer=None):
        answers, laps, failed = [], [], 0
        clock = LapClock(*self.probe(tracer))
        clock.start()
        for kind, severity in self.alerts:
            try:
                if tracer is None:
                    query = retrieval.advisor_query(kind, severity)
                    hits = index.search(query, k=2)
                else:
                    with tracer.span("op.advice"):
                        query = retrieval.advisor_query(kind, severity)
                        hits = index.search(query, k=2)
            except Exception:
                traceback.print_exc()
                failed += 1
                clock.lap()
                continue
            laps.append(len(clock.raw))
            clock.lap()
            answers.append((query, hits))
        for query, hits in answers:
            ids, scores = self.top_k(query)
            if ([d.id for d, _ in hits] != ids
                    or any(abs(s - r) > 1e-9 for (_, s), r in zip(hits, scores))):
                failed += 1
        return _result(clock, len(answers), laps, len(self.alerts), failed)


# --- registry ----------------------------------------------------------------

WORKLOADS = {
    "stream_replica": lambda d, seed, s: StreamWorkload(
        d, seed, copies=s.replica_copies, shuffle=True, batch_size=20, links=0,
        checkpoint=True, setup_reps=10, probe=("table", 8)),
    "stream_rule_chain": lambda d, seed, s: StreamWorkload(
        d, seed, copies=1, shuffle=False, batch_size=25, links=s.chain_links,
        checkpoint=False, setup_reps=10, probe=("table", 64)),
    "graph_query": lambda d, seed, s: GraphQuery(
        d, seed, rows=s.graph_rows, setup_reps=20, probe=("join", 128)),
    "advise": lambda d, seed, s: Advise(
        d, seed, docs=s.corpus_docs, alerts=s.alerts_per_job, setup_reps=1,
        probe=("table", 8)),
}
