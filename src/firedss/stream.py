"""Micro-batch streaming: sources, count-based batching, per-batch
classification + rule evaluation, alert emission, and checkpointed resume.

A source is one generator that holds what it opened (a socket's listener
and connection, or the file) until it ends or is closed; run_pipeline
closes it on every exit. Batches are cut by record count (default 20),
which keeps file replay deterministic; run_pipeline's source parses its
records by blocks of the batch size, so it reads no line past the batch
it is cutting. Every source is decoded as UTF-8 a line at a time (see
open_source).
A batch is evaluated by columns: the codes of its records are computed,
each of the six code columns is classified by one
ClassBands.band_indexes call, and the records are encoded as facts
(record_facts: individual ``rec_<offset>`` with one unary atom per
classification label and one binary atom per code). Only the atoms whose
predicate a rule body or head names are built: no other fact can join a
body or be asserted by a head, so none can change a derivation. Which
those are is tabled once per (ClassBands, RuleSet). The first code
outside [0, inf) fails the batch with a BatchEvaluationError naming its
record, whatever the band trigger; the batch is then evaluated again
record by record to find it. Then:

* the six code columns are aggregated (max by default) and classified,
  emitting one alert per quantity; a mean past the float range fails the
  batch naming its first record;
* a record-local rule set (every rule has a body atom and reads one
  record: each atom has the rule's one record variable first, heads are
  unary, and each code value is a fresh variable that builtins compare
  only with numbers; see _record_tests) derives for a record only what
  its signature fixes: its named label predicates and the outcome of
  each distinct (code, comparison, constant) test. The signatures are
  built a column at a time. Such a set is saturated once per signature,
  over the facts of the first record that has it, and a memo keeps, per
  head predicate, the rule that derives it or None; every record takes its
  RULE alerts from the memo. Whether a set is record local, its signature's
  layout and its memo are kept once per (ClassBands, RuleSet), with the
  encoding, for as long as both live: every batch_evaluate call with the
  pair shares the memo;
* any other rule set, compiled once per RuleSet, is saturated over the
  facts of the whole batch, and each derived fact becomes a RULE alert,
  its offsets taken from the batch's individual -> offset map (any other
  ``rec_<n>`` giving n, for n in canonical decimal form). Only such a set
  can raise a TypeClash.

RULE alerts come in the order of their facts' ``rules.format_atom`` text,
so both paths write the same lines.

batch_evaluate returns a BatchAlerts: a read-only sequence of AlertEvents,
the six aggregate alerts and then the RULE alerts. Its length is known
without building the RULE events, which iterating or indexing builds once.
Every sink line is the one ``AlertEvent.to_json`` writes for its alert.

Delivery is at-least-once: alerts are flushed to the sink before the
checkpoint is saved, so a crash in between replays one whole batch.
Checkpoints refuse to resume when the rule/band fingerprint has changed.
A run reads its checkpoint once, at start, and the sink's tail once, as it
opens the sink: a sink that ends inside a line (a kill mid-write) is cut
back to its last newline and, resuming a file source with a checkpoint, the
first replayed batch's lines at its end are cut back to whole copies before
that batch is written, as a kill during a multi-page write can leave part
of one. The checkpoint file is created by rename, then updated in place, so
a symlink there is followed; a kill cannot tear it. Nothing is fsynced:
after a power cut a torn checkpoint fails its hash and resume is refused
with CorruptCheckpoint.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import socket
import sys
import threading
import time
import weakref
from collections import Counter, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import _syntax, fwi, ingest, rules as rules_mod

# json.dumps(x, sort_keys=True) without building an encoder on every call
_to_json = json.JSONEncoder(sort_keys=True).encode
_json_value = json.JSONEncoder().encode
_json_str = json.encoder.encode_basestring_ascii

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


class AlertEvent(namedtuple("AlertEvent", "batch kind severity value offsets rule ts_ms")):
    """One sink line's fields; a tuple, as rules.Atom is."""

    __slots__ = ()

    def to_json(self):
        """The sink line, as json.dumps(fields, sort_keys=True) writes it."""
        batch, kind, severity, value, offsets, rule, ts_ms = self
        return (f'{{"batch": {batch:d}, "kind": {_json_str(kind)}, '
                f'"offsets": [{", ".join(map(str, offsets))}], '
                f'"rule": {"null" if rule is None else _json_str(rule)}, '
                f'"severity": {_json_str(severity)}, "ts_ms": {ts_ms:d}, '
                f'"value": {"null" if value is None else _json_value(value)}}}')


# _alert_event((batch, kind, ...)) is AlertEvent(batch, kind, ...) without a Python-level call
_alert_event = functools.partial(tuple.__new__, AlertEvent)


class BatchAlerts(Sequence):
    """The alerts of one batch, as batch_evaluate returns them: a read-only
    sequence of AlertEvents. `events` are the aggregate alerts and any RULE
    alerts made one by one; each of `runs`, (head predicate, rule, offset
    texts), stands for one RULE alert per offset, after them in run order.
    The length counts the runs without building their events; iterating or
    indexing builds them once."""

    __slots__ = ("seq", "ts_ms", "events", "runs", "_len", "_all")

    def __init__(self, seq, ts_ms, events, runs=()):
        self.seq, self.ts_ms, self.events, self.runs = seq, ts_ms, events, runs
        self._len = len(events) + sum([len(offsets) for _, _, offsets in runs])
        self._all = None

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def _built(self):
        built = self._all
        if built is None:
            seq, now = self.seq, self.ts_ms
            built = list(self.events)
            for predicate, rule, offsets in self.runs:
                built += [_alert_event((seq, "RULE", predicate, None, (int(offset),), rule, now))
                          for offset in offsets]
            built = self._all = tuple(built)
        return built


# the stand-in offset from which the fixed parts of a sink line are cut:
# JSON escapes every control character that a field holds
_MARK = "\x00"


def _line_parts(parts, kind, severity, rule, batch, ts_ms):
    """The fixed parts of the sink lines with this kind, severity and rule,
    kept in `parts`: what follows the batch number up to the offsets, what
    follows them up to ts_ms, what follows it up to the value, and the end.
    They are cut from one to_json() call with a stand-in offset."""
    key = kind, severity, rule
    part = parts.get(key)
    if part is None:
        line = AlertEvent(batch, kind, severity, None, (_MARK,), rule, ts_ms).to_json()
        head, _, rest = line.partition(_MARK)
        middle, ts_key, rest = rest.rpartition('"ts_ms": ')
        before_value, _, end = rest[len(f"{ts_ms:d}"):].rpartition("null")
        part = parts[key] = (", " + head.partition(", ")[2], middle + ts_key, before_value,
                             end + "\n")
    return part


def _value_text(value):
    """`value` as json.dumps writes it; float.__repr__ for a finite float."""
    if value is None:
        return "null"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return _json_value(value)


def sink_text(events):
    """The sink lines of `events`, each as `to_json()` writes it and ended
    by a newline."""
    return _sink_text(events, {})


def _sink_text(events, parts):
    """sink_text, the fixed parts of a line (see _line_parts) kept in
    `parts` per (kind, severity, rule): only the batch, the offsets, ts_ms
    and the value are formatted per event, and each run of a BatchAlerts
    is written with one join of its offsets."""
    alerts = events if isinstance(events, BatchAlerts) else None
    lines = []
    for batch, kind, severity, value, offsets, rule, ts_ms in (
            events if alerts is None else alerts.events):
        kind_part, middle, before_value, end = _line_parts(
            parts, kind, severity, rule, batch, ts_ms)
        lines.append(f'{{"batch": {batch:d}{kind_part}{", ".join(map(str, offsets))}{middle}'
                     f'{ts_ms:d}{before_value}{_value_text(value)}{end}')
    if alerts is not None and alerts.runs:
        batch, ts_ms = alerts.seq, alerts.ts_ms
        batch_key, ts_text = f'{{"batch": {batch:d}', f"{ts_ms:d}"
        for predicate, rule, offsets in alerts.runs:
            kind_part, middle, before_value, end = _line_parts(
                parts, "RULE", predicate, rule, batch, ts_ms)
            head = batch_key + kind_part
            tail = f"{middle}{ts_text}{before_value}null{end}"
            lines += (head, (tail + head).join(offsets), tail)
    return "".join(lines)


# checkpoint field -> its JSON type, in field order
_CHECKPOINT_FIELDS = {"source_id": str,
                      "batch_seq": int,     # last fully processed batch
                      "offset": int,        # next unread record offset
                      "fingerprint": str}


class Checkpoint(namedtuple("Checkpoint", _CHECKPOINT_FIELDS)):
    __slots__ = ()


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


# the smallest replay rate whose delay between records time.sleep accepts
_MIN_RATE = 1 / threading.TIMEOUT_MAX


def parse_source(spec):
    """Parse a source spec: ``file:<path>`` (optionally ``?rate=<n>``,
    n >= _MIN_RATE), a bare path, ``socket:<host>:<port>``, or ``stdin:`` /
    ``-``. The rate is not part of the source identity."""
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
        if rate < _MIN_RATE:
            raise StreamError(f"rate must be at least {_MIN_RATE:.3g}, got {rate_text!r}")
    return SourceSpec(f"file:{path}", "file", path, rate)


def open_source(spec, start_offset=0, block=1):
    """Open the record source named by a spec (see parse_source) as a
    generator of (offset, WeatherRecord) pairs, offsets counting up from
    start_offset.

    Files must start with a header, stdin may, and socket lines are
    headerless records. File replay skips to start_offset for checkpoint
    resume. A socket is bound and a file found here, so a bad source fails
    at once; closing the generator closes what it has opened. Records are
    parsed by blocks of `block` (see ingest.iter_records), so a source
    reads no line past the block it is giving. Lines end in LF or CRLF and
    are decoded as UTF-8 one at a time: a line that is not gives the records
    of the lines before it, then raises IoError("cannot read <name>: line
    N: <codec message>"), <name> the path, ``stdin`` or the socket spec, and
    the message's position the bad byte's in the stream.
    """
    source = _numbered_records(parse_source(spec), start_offset, block)
    next(source)
    return source


def _numbered_records(spec, start_offset, block):
    """open_source's generator: its first step binds a socket, takes stdin
    or checks that a file exists, and yields None; the rest yields the
    numbered records, holding what it opened until it ends or is closed."""
    if spec.kind == "socket":
        try:
            host, port = spec.target.split(":", 1)
            port = int(port)
            if not 0 <= port <= 65535:
                raise ValueError(f"port must be 0-65535, got {port}")
            listener = socket.create_server((host, port))
        except (OSError, ValueError) as exc:
            raise IoError(f"cannot bind {spec.source_id}: {exc}") from None
        with listener:
            yield
            conn, _addr = listener.accept()
            with conn, conn.makefile("rb") as raw:
                yield from enumerate(_utf8_records(raw, spec.source_id, False, block),
                                     start_offset)
    elif spec.kind == "stdin":
        yield
        yield from enumerate(_utf8_records(sys.stdin.buffer, "stdin", None, block), start_offset)
    elif not Path(spec.target).is_file():
        raise IoError(f"no such file: {spec.target}")
    else:
        yield
        with open(spec.target, "rb") as raw:
            records = itertools.islice(_utf8_records(raw, spec.target, True, block),
                                       start_offset, None)
            pairs = enumerate(records, start_offset)
            if spec.rate is not None:       # one pair each 1/rate s
                pairs = (time.sleep(1.0 / spec.rate) or pair for pair in pairs)
            yield from pairs


def _utf8_records(raw, name, header, block):
    """ingest.iter_records(lines, header, block) over the lines of the
    binary stream `raw`, each decoded as it is read; see open_source."""
    read = [0, 0]       # the lines read, the bytes before the last of them

    def lines():
        for line in raw:
            read[0] += 1
            yield line.decode("utf-8")
            read[1] += len(line)

    try:
        yield from ingest.iter_records(lines(), header, block)
    except UnicodeDecodeError as exc:
        number, at = read
        start, end = at + exc.start, at + exc.end - 1
        where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if start == end
                 else f"bytes in position {start}-{end}")
        raise IoError(f"cannot read {name}: line {number}: "
                      f"'{exc.encoding}' codec can't decode {where}: {exc.reason}") from None


def _check_batch_size(size):
    if size < 1:
        raise StreamError(f"batch size must be >= 1, got {size}")


def _check_aggregate(aggregate):
    if aggregate not in ("max", "mean"):
        raise StreamError(f"unknown aggregate: {aggregate}")


def cut_batches(source, size=20, first_seq=0):
    """Contiguous non-overlapping batches of `size` records in arrival
    order, each taken from the source as it arrives; a final short batch
    (if any) carries the flush flag."""
    _check_batch_size(size)
    source = iter(source)
    for seq in itertools.count(first_seq):
        records = tuple(itertools.islice(source, size))
        if not records:
            return
        yield Batch(seq, records, is_final=len(records) < size)


# --- per-batch evaluation ------------------------------------------------------

def _label_predicate(prefix, label):
    """Unary predicate <prefix>_<label>, each non-alphanumeric label
    character replaced by an underscore."""
    return prefix + "_" + "".join(c if c.isalnum() else "_" for c in label)


_quantities = tuple(quantity for _, quantity, _, _ in _ALERT_QUANTITIES)
_codes_of = operator.attrgetter(*(fwi.QUANTITIES[q] for q in _quantities))
# _Num((Num, v)) is Num(v) and _Individual((Individual, n)) is Individual(n)
_Num = functools.partial(tuple.__new__, rules_mod.Num)
_Individual = functools.partial(tuple.__new__, rules_mod.Individual)


def record_facts(offset, codes, classification):
    """Fact encoding for one record: individual rec_<offset> and, per
    quantity in alert order, its label atom (unary predicate
    <Quantity>_<label>, where the quantity has a label) and then its code
    atom (binary)."""
    make_atom, num = rules_mod.make_atom, rules_mod.Num
    individual = rules_mod.Individual(f"rec_{offset}")
    subject = (individual,)
    facts = []
    for (_, quantity, predicate, prefix), value in zip(_ALERT_QUANTITIES, _codes_of(codes)):
        if prefix is not None:
            label = _label_predicate(prefix, getattr(classification, quantity))
            facts.append(make_atom((label, subject)))
        facts.append(make_atom((predicate, (individual, _Num((num, float(value)))))))
    return facts


def _check_bands(bands):
    """Refuse bands that lack one of the six quantities, as bands built in
    code may."""
    if not bands.bands.keys() >= fwi.QUANTITIES.keys():
        missing = [q for q in fwi.QUANTITIES if q not in bands.bands]
        raise StreamError(f"bands lack the quantities {', '.join(missing)}")


_ENCODINGS = weakref.WeakKeyDictionary()   # RuleSet -> {ClassBands: its _Encoding}

# code predicate -> its position in alert order
_CODE_POSITIONS = {code: k for k, (_, _, code, _) in enumerate(_ALERT_QUANTITIES)}
# per comparison builtin, the operator f with f(constant, code) its outcome
# when written op(?code, constant), then when written op(constant, ?code)
_TEST_OPERATORS = {"lessThan": (operator.gt, operator.lt),
                   "lessThanOrEqual": (operator.ge, operator.le),
                   "greaterThan": (operator.lt, operator.gt),
                   "greaterThanOrEqual": (operator.le, operator.ge),
                   "equal": (operator.eq, operator.eq),
                   "notEqual": (operator.ne, operator.ne)}


class _Encoding(namedtuple("_Encoding", "quantities labels tests heads memo")):
    """What batch_evaluate needs of one (ClassBands, RuleSet) pair.
    `quantities`: per quantity in alert order whose label or code predicate
    a rule names, (its position, its label predicates by band index with
    None for each that no rule names, or None for none, its code predicate
    or None). `labels`: (position, label predicates) of those with named
    labels. `tests`: None if the rule set is not record local, else its
    distinct code tests as (position, test), test(code) their outcome.
    `heads`: the head predicates in the order of their facts' format_atom
    text (no predicate holds "("). `memo`: record signature -> per head
    predicate in `heads` order, the rule that derives it for a record with
    that signature, or None."""

    __slots__ = ()


def _record_tests(rules):
    """The distinct (code position, comparison, constant) tests of a record
    local rule set, each as (position, test) with test(code) its outcome;
    None if the set is not record local. It is when every rule has a body
    atom, every body and head atom has the rule's one record variable
    first, heads are unary, every binary body atom is a code atom whose
    value is a variable that no other atom uses, and every builtin
    compares such a variable with a number. No binding then joins facts
    of two records, so a record's derivations depend only on its named
    labels and the outcomes of these tests."""
    tests = {}
    for rule in rules:
        atoms = rule.positive_atoms()
        record = atoms[0][1][:1] if atoms else ()
        if not record or record[0][0] is not rules_mod.Variable:
            return None
        if any(args != record for _, args in rule.head):
            return None
        codes = {}      # code variable -> its quantity position
        for predicate, args in atoms:
            if args == record:
                continue
            if len(args) != 2 or args[0] != record[0] or predicate not in _CODE_POSITIONS:
                return None
            value = args[1]
            if value[0] is not rules_mod.Variable or value == record[0] or value in codes:
                return None
            codes[value] = _CODE_POSITIONS[predicate]
        for builtin in rule.builtins():
            a, b = builtin.args
            if a in codes and b[0] is rules_mod.Num:
                tests[codes[a], _TEST_OPERATORS[builtin.op][0], b[1]] = None
            elif b in codes and a[0] is rules_mod.Num:
                tests[codes[b], _TEST_OPERATORS[builtin.op][1], a[1]] = None
            else:
                return None
    return tuple((k, functools.partial(test, constant)) for k, test, constant in tests)


def _encoding(bands, rules):
    """The _Encoding of (bands, rules), made once per pair."""
    by_bands = _ENCODINGS.get(rules)
    if by_bands is None:
        by_bands = _ENCODINGS.setdefault(rules, weakref.WeakKeyDictionary())
    encoding = by_bands.get(bands)
    if encoding is None:
        _check_bands(bands)
        named = rules.predicates
        quantities = []
        for k, (_, quantity, code, prefix) in enumerate(_ALERT_QUANTITIES):
            labels = prefix and tuple(_label_predicate(prefix, label)
                                      for label in bands.labels(quantity))
            if labels and not named.isdisjoint(labels):
                labels = tuple(p if p in named else None for p in labels)
            else:
                labels = None
            code = code if code in named else None
            if labels or code:
                quantities.append((k, labels, code))
        heads = sorted({atom[0] for rule in rules for atom in rule.head}, key=lambda p: p + "(")
        encoding = by_bands[bands] = _Encoding(
            tuple(quantities), tuple((k, labels) for k, labels, _ in quantities if labels),
            _record_tests(rules), tuple(heads), {})
    return encoding


def _named_facts(quantities, individual, indexes, values):
    """The facts of record_facts for one record whose predicate a rule
    names, in record_facts order; `quantities` as in _Encoding."""
    make_atom, num = rules_mod.make_atom, rules_mod.Num
    subject = (individual,)
    facts = []
    for k, labels, code in quantities:
        if labels is not None:
            label = labels[indexes[k]]
            if label is not None:
                facts.append(make_atom((label, subject)))
        if code is not None:
            facts.append(make_atom((code, (individual, _Num((num, float(values[k])))))))
    return facts


def _record_derivations(rules, quantities, heads, name, indexes, values):
    """Per head predicate in `heads`, the rule that derives its fact from
    one record's named facts alone, or None; the record's individual is
    `name`. A record derives at most one fact per head predicate, as heads
    are unary."""
    individual = _Individual((rules_mod.Individual, name))
    saturated = rules_mod.evaluate(rules, rules_mod.FactBase(
        _named_facts(quantities, individual, indexes, values)))
    rule_of = {fact[0]: saturated.rule_of(fact) for fact in saturated.derived()}
    return tuple(map(rule_of.get, heads))


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)
_kind_of = operator.itemgetter(1)     # an AlertEvent's kind


def _term_entry(term):
    """(text, offsets) of a fact argument outside the batch's records: its
    rules.format_term text, and (n,) for an individual rec_<n>, n in
    canonical decimal, else ()."""
    text = rules_mod.format_term(term)
    if term[0] is rules_mod.Individual and text.startswith("rec_"):
        try:
            n = int(text[4:])
        except ValueError:          # not a number, or past int()'s digit limit
            return text, ()
        if n >= 0 and str(n) == text[4:]:   # not "007", "1_0", "+7", " 7", "-7"
            return text, (n,)
    return text, ()


def _rule_alerts(saturated, table, seq, now):
    """One RULE alert of batch `seq` per fact that `saturated` derived, in
    the order of sorted(derived, key=rules.format_atom), without formatting
    each fact through it. `table` maps each argument term to its text and
    its record offsets; it holds the individuals of the batch's records,
    and other terms are added as they are met. A fact's sort key is its
    format_atom text joined from the table."""
    rule_of = saturated.rule_of
    keyed = []
    for fact in saturated.derived():
        predicate, args = fact
        if len(args) == 1:
            text, offsets = table.get(args[0]) or table.setdefault(args[0], _term_entry(args[0]))
        else:
            entries = [table.get(a) or table.setdefault(a, _term_entry(a)) for a in args]
            text = ", ".join([t for t, _ in entries])
            offsets = sum([o for _, o in entries], ())
        keyed.append((f"{predicate}({text})", _alert_event(
            (seq, "RULE", predicate, None, offsets, rule_of(fact), now))))
    keyed.sort(key=_first)
    return [event for _, event in keyed]


def _first_failure(batch, bands):
    """Raise BatchEvaluationError for the first record of `batch` whose
    codes or bands fail, as evaluating it record by record meets it."""
    for offset, record in batch.records:
        try:
            for quantity, value in zip(_quantities, _codes_of(fwi.compute_codes(record))):
                bands.band_index(quantity, value)
        except fwi.OutOfRange as exc:
            raise BatchEvaluationError(batch.seq, offset, exc) from None


def batch_evaluate(batch, bands=fwi.DEFAULT_BANDS, rules=None, aggregate="max"):
    """Alerts for one batch, as a BatchAlerts: six aggregate-classification
    alerts plus one RULE alert per fact the rule set derives from the
    record facts.

    The batch is evaluated by columns: each record's codes are computed,
    and each of the six code columns, in alert order, is banded by one
    ClassBands.band_indexes call. If any of that fails, the batch is
    evaluated again record by record to raise the error of the first
    record that fails. With rules, only the facts that record_facts gives
    for a record and its classification whose predicate a rule body or
    head names are encoded, in record_facts order: the others can join no
    body and a head cannot assert them again, so they cannot change a
    derivation. A record-local rule set (see _record_tests) is saturated
    once per record signature, its named label predicates and its code
    test outcomes, over the facts of the first record with that
    signature; the signatures are built a column at a time (the label
    predicates taken by band index, each test mapped over its code
    column). Every record takes its RULE alerts from that memo, which
    lasts as long as (bands, rules), ordered as format_atom orders their
    facts: by head predicate, then by the offset's text. Any other rule
    set is saturated over the facts of the whole batch. The first code out
    of range, or an aggregate mean past the float range, raises
    BatchEvaluationError naming the batch and the record (the batch's
    first for a mean)."""
    _check_bands(bands)
    if not batch.records:
        raise StreamError(f"batch {batch.seq} is empty")
    _check_aggregate(aggregate)

    now = int(time.time() * 1000)
    use_rules = rules is not None and len(rules) > 0
    quantities, labels, tests, heads, memo = (_encoding(bands, rules) if use_rules
                                              else ((), (), None, (), None))
    offsets, records = zip(*batch.records)
    try:
        rows = list(map(_codes_of, map(fwi.compute_codes, records)))
        columns = list(zip(*rows))
        indexes = list(map(bands.band_indexes, _quantities, columns))
    except fwi.OutOfRange:
        _first_failure(batch, bands)
        raise

    events = []
    for (kind, quantity, _, _), column in zip(_ALERT_QUANTITIES, columns):
        if aggregate == "max":
            agg = max(column)
            hit = tuple(itertools.compress(offsets, map(operator.eq, column,
                                                        itertools.repeat(agg))))
        else:
            agg = sum(column) / len(column)
            hit = offsets
        try:
            severity = bands.classify_value(quantity, agg)
        except fwi.OutOfRange as exc:   # only a mean can leave the range
            raise BatchEvaluationError(batch.seq, hit[0], exc) from None
        events.append(AlertEvent(batch.seq, kind, severity, agg, hit, None, now))
    if not use_rules:
        return BatchAlerts(batch.seq, now, events)

    if tests is not None:
        parts = ([map(predicates.__getitem__, indexes[k]) for k, predicates in labels]
                 + [map(test, map(float, columns[k])) for k, test in tests])
        signatures = list(zip(*parts)) if parts else [()] * len(offsets)
        derived = list(map(memo.get, signatures))
        while None in derived:      # a new signature, saturated over its first record
            i = derived.index(None)
            memo[signatures[i]] = _record_derivations(
                rules, quantities, heads, f"rec_{offsets[i]}",
                [column[i] for column in indexes], rows[i])
            derived = list(map(memo.get, signatures))
        # the records in the text order of their offsets; per head predicate,
        # the runs of its alerts, split where the rule changes. A run's
        # offsets taken from an iterator are a list: a tuple built from one
        # is resized, and once freed it stays in the tuple free list of its
        # size, which grew the peak RSS by megabytes over many batches.
        texts, derived = zip(*sorted(zip(map(str, offsets), derived), key=_first))
        runs, nones = [], (None,) * len(texts)
        for predicate, column in zip(heads, zip(*derived)):
            found = set(column)
            found.discard(None)
            if len(found) == 1:
                rule, = found
                runs.append((predicate, rule, texts if None not in column else
                             list(itertools.compress(texts, map(operator.is_not, column, nones)))))
            elif found:
                hits = itertools.compress(zip(texts, column), map(operator.is_not, column, nones))
                for rule, run in itertools.groupby(hits, _second):
                    runs.append((predicate, rule, list(map(_first, run))))
        return BatchAlerts(batch.seq, now, events, runs)

    facts, terms = [], {}
    for offset, values, record_indexes in zip(offsets, rows, zip(*indexes)):
        name = f"rec_{offset}"
        individual = _Individual((rules_mod.Individual, name))
        terms[individual] = (name, (offset,))
        facts += _named_facts(quantities, individual, record_indexes, values)
    try:
        saturated = rules_mod.evaluate(rules, rules_mod.FactBase(facts))
    except rules_mod.TypeClash as exc:
        raise BatchEvaluationError(batch.seq, batch.first_offset, exc) from None
    return BatchAlerts(batch.seq, now, events + _rule_alerts(saturated, terms, batch.seq, now))


# --- checkpoints ---------------------------------------------------------------

def config_fingerprint(rules_text="", bands=fwi.DEFAULT_BANDS):
    payload = (_syntax.lf(rules_text) + "\x00" + fwi.dump_bands(bands)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def checkpoint_save(path, cp: Checkpoint, previous=None):
    """Write the body line and its integrity hash line: a new file by temp +
    rename, an existing one in place by one pwrite at offset 0 and a truncate
    (a rename over it would make the file system flush it on every save).
    The body is json.dumps(cp._asdict(), sort_keys=True), formatted field by
    field as AlertEvent.to_json formats a line.
    Refuses to regress behind `previous`, the checkpoint the caller last
    wrote there, or, without one, behind an existing valid checkpoint."""
    if previous is None and os.path.exists(path):
        try:
            previous = checkpoint_load(path)
        except CorruptCheckpoint:
            pass
    if previous is not None and cp.batch_seq < previous.batch_seq:
        raise StaleCheckpoint(
            f"refusing to regress checkpoint from batch {previous.batch_seq} "
            f"to {cp.batch_seq}")
    body = (f'{{"batch_seq": {cp.batch_seq:d}, "fingerprint": {_json_str(cp.fingerprint)}, '
            f'"offset": {cp.offset:d}, "source_id": {_json_str(cp.source_id)}}}')
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    data = (body + "\n" + digest + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY)
    except FileNotFoundError:
        tmp = os.fspath(path) + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        return
    try:
        if os.pwrite(fd, data, 0) != len(data):
            raise IoError(f"short write to checkpoint {path}")
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def checkpoint_load(path) -> Checkpoint:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from None
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
    return Checkpoint._make(obj[name] for name in _CHECKPOINT_FIELDS)


# --- pipeline ------------------------------------------------------------------

def _cut_sink(path, seq):
    """Cut a sink file that ends inside a line, as a kill during a sink write
    leaves it, back to its last newline. Returns the byte lengths of the
    whole lines of batch `seq` (None: of no batch) that then end the file,
    which a kill during a multi-page write can leave short of a copy."""
    if not os.path.isfile(path):        # no sink yet, or a pipe or device
        return []
    prefix, size = None if seq is None else b'{"batch": %d, ' % seq, 65536
    with open(path, "rb+") as fh:
        end = fh.seek(0, os.SEEK_END)
        while True:     # read back to a line of another batch, or to the start
            start = max(end - size, 0)
            fh.seek(start)
            lines = fh.read(end - start).split(b"\n")
            keep = end - len(lines[-1])             # just after the last newline
            lines = lines[1 if start else 0:-1]     # the first may begin inside a line
            k = 0
            while prefix and k < len(lines) and lines[-1 - k].startswith(prefix):
                k += 1
            if k < len(lines) or not start:
                break
            size *= 2
        if keep < end:
            fh.truncate(keep)
    return [len(line) + 1 for line in lines[len(lines) - k:]]


def run_pipeline(source_spec, sink_path, checkpoint_path=None, batch_size=20,
                 bands=fwi.DEFAULT_BANDS, rules=None, rules_text="",
                 aggregate="max", crash_hook=None) -> PipelineStats:
    """Replay a source through batching, evaluation, and the alert sink.

    Per batch, in order: evaluate, append alerts to the sink (flushed), then
    persist the checkpoint. On resume the fingerprint and source identity
    must match the checkpoint or the run is refused. crash_hook(point, seq)
    is called at the instrumented points "after_sink" and "after_checkpoint".

    The bands, batch size and aggregate are checked first, and so is that
    rules under a checkpoint come with their text, so a refused run creates
    no sink and leaves an existing one as it was.
    """
    _check_bands(bands)
    _check_batch_size(batch_size)
    _check_aggregate(aggregate)
    if rules and not rules_text and checkpoint_path is not None:
        raise StreamError("a checkpoint needs the rules' text for its fingerprint")
    fingerprint = config_fingerprint(rules_text, bands)
    spec = parse_source(source_spec)
    source_id = spec.source_id
    start_offset, first_seq, cp = 0, 0, None
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

    stats, parts = PipelineStats(), {}     # parts: the sink lines' fixed parts
    with contextlib.closing(open_source(source_spec, start_offset, batch_size)) as source:
        started = time.perf_counter()
        try:
            # only a file source replays a batch that a kill cut short record for record
            tail = _cut_sink(sink_path, first_seq if checkpoint_path is not None
                             and spec.kind == "file" else None)
            sink = open(sink_path, "a", encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot open sink {sink_path}: {exc}") from None
        with sink:
            for batch in cut_batches(source, batch_size, first_seq):
                events = batch_evaluate(batch, bands, rules, aggregate)
                cut = len(tail) % len(events)   # the lines past whole copies of the batch
                if cut:
                    sink.truncate(sink.tell() - sum(tail[-cut:]))
                tail = ()
                sink.write(_sink_text(events, parts))
                sink.flush()
                if crash_hook is not None:
                    crash_hook("after_sink", batch.seq)
                if checkpoint_path is not None:
                    written = Checkpoint(source_id, batch.seq, batch.last_offset + 1,
                                         fingerprint)
                    checkpoint_save(checkpoint_path, written, cp)
                    cp = written
                if crash_hook is not None:
                    crash_hook("after_checkpoint", batch.seq)
                stats.records_in += len(batch)
                stats.batches_out += 1
                stats.alerts_by_kind.update(map(_kind_of, events.events))
                if events.runs:
                    stats.alerts_by_kind["RULE"] += len(events) - len(events.events)
    stats.duration_ms = (time.perf_counter() - started) * 1000.0
    return stats

