"""The RULE alerts of a record-local rule set, which batch_evaluate keeps
as runs of one head predicate and one rule, checked on seeded random
programs and batches: against each record saturated on its own, and
against the events they stand for (the sink text, the length, iteration
and indexing of the result, and run_pipeline's counts by kind)."""

import json
import random
from collections import Counter

from firedss import data_text, fwi, ingest, rules, stream

HEADER, *ROWS = data_text("forestfires_synthetic.csv").splitlines()
RECORDS = list(ingest.iter_records(ROWS, header=False))
CODES = [fwi.compute_codes(record) for record in RECORDS]
BANDS = fwi.DEFAULT_BANDS
LABELS = [stream._label_predicate(prefix, label)
          for _, quantity, _, prefix in stream._ALERT_QUANTITIES if prefix
          for label in BANDS.labels(quantity)]
# per quantity in alert order: its code predicate and its values in the table
CODE_COLUMNS = [(code, [getattr(c, fwi.QUANTITIES[quantity]) for c in CODES])
                for _, quantity, code, _ in stream._ALERT_QUANTITIES]
DERIVED = ("D0", "D1", "D2")


def _program(rng):
    """2-6 record-local rules, each with 1-2 body atoms (a label or derived
    atom, or a code atom and one comparison of its value with a value of
    the table) and one head in DERIVED. The first two derive D0 from
    different bodies, so D0's alerts change rule from record to record."""
    r = rules.Variable("r")
    out = []
    for n in range(rng.randint(2, 6)):
        body = []
        for i in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                body.append(rules.Atom(rng.choice(LABELS + list(DERIVED)), (r,)))
                continue
            code, values = rng.choice(CODE_COLUMNS)
            value = rules.Variable(f"v{i}")
            body += [rules.Atom(code, (r, value)),
                     rules.Builtin(rng.choice(("lessThan", "greaterThanOrEqual")),
                                   (value, rules.Num(rng.choice(values))))]
        head = "D0" if n < 2 else rng.choice(DERIVED)
        out.append(rules.RuleDef(f"r{n}", tuple(body), (rules.Atom(head, (r,)),)))
    return rules.RuleSet(out)


def _rule_alerts_record_by_record(batch, rs):
    """(head predicate, offsets, rule) of each RULE alert, each record's
    facts saturated on their own, in the order of the facts' format_atom
    text."""
    keyed = []
    for offset, record in batch.records:
        codes = fwi.compute_codes(record)
        saturated = rules.evaluate(rs, rules.FactBase(
            stream.record_facts(offset, codes, fwi.classify(codes, BANDS))))
        keyed += [(rules.format_atom(fact), fact.predicate, (offset,), saturated.rule_of(fact))
                  for fact in saturated.derived()]
    return [tuple(alert) for _, *alert in sorted(keyed)]


def _start_offset(rng, n):
    """A random start, or one that puts 9 and 10, 99 and 100 or 999 and
    1000 in a batch of n >= 2 records, whose offsets' text order is not
    their number order."""
    if n < 2 or rng.random() < 0.5:
        return rng.randint(0, 50)
    return rng.choice((10, 100, 1000)) - rng.randint(1, n - 1)


class TestRuleAlertRuns:
    def test_runs_stand_for_the_alerts_of_each_record(self, monkeypatch, tmp_path):
        made = Counter()
        alert_event = stream._alert_event
        monkeypatch.setattr(stream, "_alert_event",
                            lambda fields: made.update(("events",)) or alert_event(fields))
        rng = random.Random(35)
        seen = Counter()
        for case in range(320):
            rs = _program(rng)
            assert stream._encoding(BANDS, rs).tests is not None, rs.rules
            picked = [rng.randrange(len(RECORDS)) for _ in range(rng.randint(1, 30))]
            records = tuple(enumerate((RECORDS[i] for i in picked),
                                      _start_offset(rng, len(picked))))
            batch = stream.Batch(case, records)
            aggregate = rng.choice(("max", "mean"))

            made.clear()
            result = stream.batch_evaluate(batch, BANDS, rs, aggregate)
            size = len(result)
            assert made["events"] == 0          # the length builds no RULE event
            events = list(result)
            rule_events = [e for e in events if e.kind == "RULE"]
            assert made["events"] == len(rule_events) and size == len(events)
            assert list(iter(result)) == events and made["events"] == len(rule_events)
            assert [result[i] for i in range(-size, size)] == events + events
            assert [e.kind for e in events[:6]] == [k for k, *_ in stream._ALERT_QUANTITIES]
            assert [(e.severity, e.offsets, e.rule) for e in rule_events] == \
                _rule_alerts_record_by_record(batch, rs), rs.rules
            assert {(e.batch, e.ts_ms) for e in events} == {(case, events[0].ts_ms)}
            assert stream.sink_text(result) == "".join(e.to_json() + "\n" for e in events)

            source = tmp_path / f"case{case}.csv"
            source.write_text(HEADER + "\n" + "".join(ROWS[i] + "\n" for i in picked),
                              encoding="utf-8")
            sink = tmp_path / f"case{case}.jsonl"
            stats = stream.run_pipeline(str(source), str(sink), batch_size=rng.randint(1, 12),
                                        bands=BANDS, rules=rs, aggregate=aggregate)
            lines = sink.read_text(encoding="utf-8").splitlines()
            assert stats.alerts_by_kind == Counter(json.loads(line)["kind"] for line in lines)

            rules_of = {}
            for e in rule_events:
                rules_of.setdefault(e.severity, set()).add(e.rule)
            seen["split runs"] += any(len(names) > 1 for names in rules_of.values())
            offsets = [(e.severity, e.offsets) for e in rule_events]
            seen["text order is not number order"] += offsets != sorted(offsets)
            seen["rule alerts"] += bool(rule_events)
            seen[aggregate] += 1
        assert seen["split runs"] >= 100 and seen["text order is not number order"] >= 100, seen
        assert seen["rule alerts"] >= 250 and min(seen["max"], seen["mean"]) >= 130, seen
