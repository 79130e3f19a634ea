"""Micro-batch streaming: sources, count-based batching, per-batch
classification + rule evaluation, alert emission, and checkpointed resume.

Batches are cut by record count (default 20), which keeps file replay
deterministic. Each batch is evaluated twice over:

* the six code quantities are aggregated (max by default) and classified,
  emitting one alert per quantity;
* every record is translated into facts (individual ``rec_<offset>`` with
  one unary atom per classification label and one binary atom per code),
  the rule set is saturated, and each derived fact becomes a RULE alert.

Delivery is at-least-once: alerts are flushed to the sink before the
checkpoint is saved, so a crash in between replays one whole batch.
Checkpoints refuse to resume when the rule/band fingerprint has changed.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import socket
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import fwi, ingest, rules as rules_mod

# json.dumps(x, sort_keys=True) without building an encoder on every call
_to_json = json.JSONEncoder(sort_keys=True).encode

# (alert kind, band quantity, code-fact predicate, label-fact prefix or None
# where DangerClassification has no label) in emission order
_ALERT_QUANTITIES = (
    ("FFMC_IGNITION", "ignition_potential", "hasFfmc", "IgnitionPotential"),
    ("DMC", "dmc_class", "hasDmc", "DmcClass"),
    ("DC_MOPUP", "dc_class", "hasDc", "DcClass"),
    ("ISI_SPREAD", "spread_rate", "hasIsi", "SpreadRate"),
    ("BUI", "bui_class", "hasBui", None),
    ("FWI", "fwi_class", "hasFwi", None),
)


class StreamError(Exception):
    pass


class IoError(StreamError):
    pass


class BadCheckpoint(StreamError):
    pass


class StaleCheckpoint(StreamError):
    pass


class CorruptCheckpoint(StreamError):
    pass


class BatchEvaluationError(StreamError):
    def __init__(self, batch_seq, offset, cause):
        super().__init__(f"batch {batch_seq}, offset {offset}: {cause}")
        self.batch_seq = batch_seq
        self.offset = offset
        self.cause = cause


class SimulatedCrash(StreamError):
    """Raised by test crash hooks at instrumented pipeline points."""


@dataclass(frozen=True)
class Batch:
    seq: int
    records: tuple            # ((offset, WeatherRecord), ...)
    is_final: bool = False

    @property
    def first_offset(self):
        return self.records[0][0]

    @property
    def last_offset(self):
        return self.records[-1][0]

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class AlertEvent:
    batch: int
    kind: str
    severity: str
    value: float | None
    offsets: tuple
    rule: str | None
    ts_ms: int

    def to_json(self):
        return _to_json(vars(self))


@dataclass(frozen=True)
class Checkpoint:
    source_id: str
    batch_seq: int      # last fully processed batch
    offset: int         # next unread record offset
    fingerprint: str


@dataclass
class PipelineStats:
    records_in: int = 0
    batches_out: int = 0
    alerts_by_kind: Counter = field(default_factory=Counter)
    duration_ms: float = 0.0

    def to_json(self):
        return _to_json(vars(self))


# --- sources -----------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpec:
    """A parsed source spec. source_id is the checkpoint identity."""
    source_id: str
    kind: str                   # "file" | "stdin" | "socket"
    target: str                 # file path, "<host>:<port>", or "" for stdin
    rate: float | None = None   # file replay records/s; inf means no delay


def parse_source(spec):
    """Parse a source spec: ``file:<path>`` (optionally ``?rate=<n>``, n > 0),
    a bare path, ``socket:<host>:<port>``, or ``stdin:`` / ``-``. The rate is
    not part of the source identity."""
    if spec.startswith("socket:"):
        return SourceSpec(spec, "socket", spec[len("socket:"):])
    if spec in ("stdin:", "-"):
        return SourceSpec("stdin:", "stdin", "")
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    rate = None
    if "?rate=" in path:
        path, rate_text = path.split("?rate=", 1)
        try:
            rate = float(rate_text)
        except ValueError:
            rate = math.nan  # rejected with the other bad rates below
        if not rate > 0:
            raise StreamError(f"rate must be a number > 0, got {rate_text!r}")
    return SourceSpec(f"file:{path}", "file", path, rate)


def _file_records(path, start_offset, rate):
    with open(path, "r", encoding="utf-8") as fh:
        records = ingest.iter_records(fh, header=True)
        for record in itertools.islice(records, start_offset, None):
            if rate is not None:
                time.sleep(1.0 / rate)
            yield record


def _socket_lines(listener):
    conn, _addr = listener.accept()
    try:
        with conn.makefile("r", encoding="utf-8", newline="") as lines:
            yield from lines
    finally:
        conn.close()
        listener.close()


def open_source(spec, start_offset=0):
    """Open the record source named by a spec (see parse_source) as an
    iterator of (offset, WeatherRecord) pairs, offsets counting up from
    start_offset.

    Files must start with a header, stdin may, and socket lines are
    headerless records. File replay honors start_offset for checkpoint
    resume.
    """
    spec = parse_source(spec)
    if spec.kind == "socket":
        try:
            host, port = spec.target.split(":", 1)
            listener = socket.create_server((host, int(port)))
        except (OSError, ValueError) as exc:
            raise IoError(f"cannot bind {spec.source_id}: {exc}") from None
        records = ingest.iter_records(_socket_lines(listener), header=False)
    elif spec.kind == "stdin":
        records = ingest.iter_records(sys.stdin, header=None)
    elif not Path(spec.target).is_file():
        raise IoError(f"no such file: {spec.target}")
    else:
        records = _file_records(spec.target, start_offset, spec.rate)
    return enumerate(records, start_offset)


def cut_batches(source, size=20, first_seq=0):
    """Contiguous non-overlapping batches in arrival order; the final short
    batch (if any) carries the flush flag."""
    if size < 1:
        raise StreamError(f"batch size must be >= 1, got {size}")
    seq = first_seq
    pending = []
    for offset, record in source:
        pending.append((offset, record))
        if len(pending) == size:
            yield Batch(seq, tuple(pending))
            pending = []
            seq += 1
    if pending:
        yield Batch(seq, tuple(pending), is_final=True)


# --- per-batch evaluation ------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _label_predicate(prefix, label):
    """Unary predicate <prefix>_<label>, each non-alphanumeric label
    character replaced by an underscore."""
    return prefix + "_" + "".join(c if c.isalnum() else "_" for c in label)


def record_facts(offset, codes, classification):
    """Fact encoding for one record: individual rec_<offset>, one unary atom
    per classification label (predicate <Quantity>_<label>), one binary atom
    per code value."""
    individual = rules_mod.Individual(f"rec_{offset}")
    facts = []
    for _kind, quantity, predicate, prefix in _ALERT_QUANTITIES:
        if prefix is not None:
            label = getattr(classification, quantity)
            facts.append(rules_mod.Atom(_label_predicate(prefix, label), (individual,)))
        value = getattr(codes, fwi.QUANTITIES[quantity])
        facts.append(rules_mod.Atom(predicate, (individual, rules_mod.Num(float(value)))))
    return facts


def _offsets_in_fact(fact):
    out = []
    for arg in fact.args:
        if isinstance(arg, rules_mod.Individual) and arg.name.startswith("rec_"):
            try:
                out.append(int(arg.name[4:]))
            except ValueError:
                continue
    return tuple(out)


def _require_all_quantities(bands):
    """Bands built in code may leave quantities out; the stream needs all six."""
    missing = [q for q in fwi.QUANTITIES if q not in bands.bands]
    if missing:
        raise StreamError(f"bands lack the quantities {', '.join(missing)}")


def batch_evaluate(batch, bands=fwi.DEFAULT_BANDS, rules=None, aggregate="max"):
    """Alerts for one batch: six aggregate-classification alerts plus one
    RULE alert per fact the rule set derives from the record facts."""
    _require_all_quantities(bands)
    if not batch.records:
        raise StreamError(f"batch {batch.seq} is empty")
    if aggregate not in ("max", "mean"):
        raise StreamError(f"unknown aggregate: {aggregate}")

    now = int(time.time() * 1000)
    per_record = []
    for offset, record in batch.records:
        try:
            codes = fwi.compute_codes(record)
            classification = fwi.classify(codes, bands)
        except (fwi.OutOfRange, fwi.BandConfigError) as exc:
            raise BatchEvaluationError(batch.seq, offset, exc) from None
        per_record.append((offset, codes, classification))

    events = []
    for kind, quantity, _predicate, _prefix in _ALERT_QUANTITIES:
        attr = fwi.QUANTITIES[quantity]
        values = [(getattr(codes, attr), offset) for offset, codes, _ in per_record]
        if aggregate == "max":
            agg = max(v for v, _ in values)
            offsets = tuple(o for v, o in values if v == agg)
        else:
            agg = sum(v for v, _ in values) / len(values)
            offsets = tuple(o for _, o in values)
        severity = bands.classify_value(quantity, agg)
        events.append(AlertEvent(batch.seq, kind, severity, agg, offsets, None, now))

    if rules is not None and len(rules) > 0:
        facts = []
        for offset, codes, classification in per_record:
            facts.extend(record_facts(offset, codes, classification))
        try:
            saturated = rules_mod.evaluate(rules, rules_mod.FactBase(facts))
        except rules_mod.TypeClash as exc:
            raise BatchEvaluationError(batch.seq, batch.first_offset, exc) from None
        derived = sorted(saturated.derived(), key=rules_mod.format_atom)
        for fact in derived:
            deriv = saturated.derivations[fact]
            events.append(AlertEvent(
                batch.seq, "RULE", fact.predicate, None,
                _offsets_in_fact(fact), deriv.rule, now))
    return events


# --- checkpoints ---------------------------------------------------------------

def config_fingerprint(rules_text="", bands=fwi.DEFAULT_BANDS):
    payload = (rules_text + "\x00" + fwi.dump_bands(bands)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


_CHECKPOINT_FIELDS = {"source_id": str, "batch_seq": int, "offset": int,
                      "fingerprint": str}


def checkpoint_save(path, cp: Checkpoint):
    """Atomic write (temp + rename) with a trailing integrity hash line.
    Refuses to regress behind an existing valid checkpoint."""
    path = Path(path)
    if path.exists():
        try:
            existing = checkpoint_load(path)
        except CorruptCheckpoint:
            existing = None
        if existing is not None and cp.batch_seq < existing.batch_seq:
            raise StaleCheckpoint(
                f"refusing to regress checkpoint from batch {existing.batch_seq} "
                f"to {cp.batch_seq}")
    body = _to_json(vars(cp))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(body + "\n" + digest + "\n", encoding="utf-8")
    tmp.replace(path)


def checkpoint_load(path) -> Checkpoint:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from None
    if len(lines) < 2:
        raise CorruptCheckpoint(f"{path}: truncated")
    body, digest = lines[0], lines[1].strip()
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != digest:
        raise CorruptCheckpoint(f"{path}: integrity hash mismatch")
    try:
        obj = json.loads(body)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise CorruptCheckpoint(f"{path}: body is not a JSON object")
    for name, kind in _CHECKPOINT_FIELDS.items():
        if type(obj.get(name)) is not kind:    # a bool is not an int here
            raise CorruptCheckpoint(f"{path}: {name} must be a JSON {kind.__name__}")
    return Checkpoint(**{name: obj[name] for name in _CHECKPOINT_FIELDS})


# --- pipeline ------------------------------------------------------------------

def run_pipeline(source_spec, sink_path, checkpoint_path=None, batch_size=20,
                 bands=fwi.DEFAULT_BANDS, rules=None, rules_text="",
                 aggregate="max", crash_hook=None) -> PipelineStats:
    """Replay a source through batching, evaluation, and the alert sink.

    Per batch, in order: evaluate, append alerts to the sink (flushed), then
    persist the checkpoint. On resume the fingerprint and source identity
    must match the checkpoint or the run is refused. crash_hook(point, seq)
    is called at the instrumented points "after_sink" and "after_checkpoint".
    """
    _require_all_quantities(bands)
    fingerprint = config_fingerprint(rules_text, bands)
    source_id = parse_source(source_spec).source_id
    start_offset, first_seq = 0, 0
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        cp = checkpoint_load(checkpoint_path)
        if cp.fingerprint != fingerprint:
            raise BadCheckpoint(
                "rule/band fingerprint changed since the checkpoint was written; "
                "refusing to resume")
        if cp.source_id != source_id:
            raise BadCheckpoint(
                f"checkpoint belongs to {cp.source_id!r}, not {source_id!r}")
        start_offset, first_seq = cp.offset, cp.batch_seq + 1

    source = open_source(source_spec, start_offset)
    stats = PipelineStats()
    started = time.perf_counter()
    try:
        sink = open(sink_path, "a", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open sink {sink_path}: {exc}") from None
    with sink:
        for batch in cut_batches(source, batch_size, first_seq):
            events = batch_evaluate(batch, bands, rules, aggregate)
            for event in events:
                sink.write(event.to_json() + "\n")
            sink.flush()
            if crash_hook is not None:
                crash_hook("after_sink", batch.seq)
            if checkpoint_path is not None:
                checkpoint_save(checkpoint_path, Checkpoint(
                    source_id, batch.seq, batch.last_offset + 1, fingerprint))
            if crash_hook is not None:
                crash_hook("after_checkpoint", batch.seq)
            stats.records_in += len(batch)
            stats.batches_out += 1
            stats.alerts_by_kind.update(event.kind for event in events)
    stats.duration_ms = (time.perf_counter() - started) * 1000.0
    return stats

