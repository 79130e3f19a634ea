import hashlib
import json
import math
import random
import socket
import threading
from pathlib import Path

import pytest

from firedss import fwi, ingest, rules, stream
from firedss.stream import (
    BadCheckpoint, Batch, Checkpoint, CorruptCheckpoint, IoError,
    SimulatedCrash, StaleCheckpoint, StreamError, batch_evaluate,
    checkpoint_load, checkpoint_save, cut_batches, open_source, parse_source,
    run_pipeline,
)

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area"
TRIGGER_ROW = "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0"
CALM_ROW = "4,5,jan,tue,30.0,2.0,10.0,0.5,5.0,80,2.0,0.0,0.0"
HIGH_DC_ROW = "7,4,aug,sun,81.6,56.7,665.6,1.9,21.2,70,6.7,0.0,11.16"


def write_dataset(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def batch_of(rows, seq=0, start_offset=0):
    records = []
    for i, line in enumerate(rows):
        records.append((start_offset + i,
                        ingest.parse_record_fields(line.split(","))))
    return Batch(seq, tuple(records))


def read_sink(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def strip_ts(events):
    return [{k: v for k, v in e.items() if k != "ts_ms"} for e in events]


@pytest.fixture
def dataset_file(tmp_path, dataset_text):
    p = tmp_path / "data.csv"
    p.write_text(dataset_text, encoding="utf-8")
    return str(p)


@pytest.fixture
def alert_rules(rules_alerts_text):
    return rules.parse_rules(rules_alerts_text)


class TestSources:
    def test_file_replay_full(self, dataset_file):
        src = open_source(dataset_file)
        records = list(src)
        assert len(records) == 517
        assert records[0][0] == 0 and records[-1][0] == 516

    def test_offsets_strictly_increase(self, dataset_file):
        offsets = [o for o, _ in open_source(dataset_file)]
        assert offsets == sorted(set(offsets))

    def test_resume_offset(self, dataset_file):
        src = open_source(dataset_file, start_offset=40)
        first_batch = next(cut_batches(src, 20, first_seq=2))
        assert first_batch.seq == 2
        assert first_batch.first_offset == 40

    def test_missing_file(self):
        with pytest.raises(IoError):
            open_source("/nowhere/else.csv")

    def test_rate_suffix_and_file_prefix(self, tmp_path):
        path = write_dataset(tmp_path / "r.csv", [CALM_ROW] * 3)
        records = list(open_source(f"file:{path}?rate=10000"))
        assert len(records) == 3

    def test_socket_source(self):
        listener_probe = socket.socket()
        listener_probe.bind(("127.0.0.1", 0))
        port = listener_probe.getsockname()[1]
        listener_probe.close()

        src = open_source(f"socket:127.0.0.1:{port}")

        def feed():
            client = socket.create_connection(("127.0.0.1", port))
            client.sendall((TRIGGER_ROW + "\n" + CALM_ROW + "\n").encode())
            client.close()

        t = threading.Thread(target=feed)
        t.start()
        records = list(src)
        t.join()
        assert len(records) == 2
        assert records[0][1].ffmc == 92.3


    def test_socket_source_reads_csv_quoting(self):
        listener_probe = socket.socket()
        listener_probe.bind(("127.0.0.1", 0))
        port = listener_probe.getsockname()[1]
        listener_probe.close()

        src = open_source(f"socket:127.0.0.1:{port}")
        quoted = TRIGGER_ROW.replace(",aug,", ',"aug",').replace(",92.3,", ',"92.3",')

        def feed():
            client = socket.create_connection(("127.0.0.1", port))
            client.sendall((quoted + "\r\n\n" + CALM_ROW).encode())
            client.close()

        t = threading.Thread(target=feed)
        t.start()
        records = [r for _, r in src]
        t.join()
        assert records == [ingest.parse_record_fields(TRIGGER_ROW.split(",")),
                           ingest.parse_record_fields(CALM_ROW.split(","))]


class TestSourceSpec:
    @pytest.mark.parametrize("spec", ["x.csv", "file:x.csv", "file:x.csv?rate=5",
                                      "x.csv?rate=inf"])
    def test_rate_and_prefix_are_not_part_of_the_identity(self, spec):
        assert parse_source(spec).source_id == "file:x.csv"

    @pytest.mark.parametrize("spec, source_id, kind", [
        ("-", "stdin:", "stdin"),
        ("stdin:", "stdin:", "stdin"),
        ("socket:127.0.0.1:9009", "socket:127.0.0.1:9009", "socket"),
    ])
    def test_stdin_and_socket(self, spec, source_id, kind):
        parsed = parse_source(spec)
        assert (parsed.source_id, parsed.kind) == (source_id, kind)

    @pytest.mark.parametrize("rate", ["0", "-1", "-0.5", "nan", "-inf", "abc", ""])
    def test_bad_rate_rejected_before_the_sink_opens(self, tmp_path, rate):
        path = write_dataset(tmp_path / "r.csv", [CALM_ROW])
        with pytest.raises(StreamError, match="rate"):
            parse_source(f"file:{path}?rate={rate}")
        sink = tmp_path / "alerts.jsonl"
        with pytest.raises(StreamError, match="rate"):
            run_pipeline(f"file:{path}?rate={rate}", sink)
        assert not sink.exists()

    def test_infinite_rate_means_no_delay(self, tmp_path):
        path = write_dataset(tmp_path / "r.csv", [CALM_ROW] * 3)
        assert parse_source(f"{path}?rate=inf").rate == math.inf
        assert len(list(open_source(f"file:{path}?rate=inf"))) == 3

    def test_checkpoint_resumes_across_spec_spellings(self, tmp_path):
        path = write_dataset(tmp_path / "d.csv", [CALM_ROW, TRIGGER_ROW] * 10)
        sink, cp = tmp_path / "alerts.jsonl", tmp_path / "cp"

        def crash(point, seq):
            if point == "after_checkpoint" and seq == 1:
                raise SimulatedCrash("crash")

        with pytest.raises(SimulatedCrash):
            run_pipeline(path, sink, cp, batch_size=5, crash_hook=crash)
        assert checkpoint_load(cp).source_id == f"file:{path}"
        stats = run_pipeline(f"file:{path}?rate=100000", sink, cp, batch_size=5)
        assert stats.batches_out == 2
        assert sorted({e["batch"] for e in read_sink(sink)}) == [0, 1, 2, 3]

    def test_zero_byte_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ingest.MissingColumn):
            list(open_source(str(path)))


class TestCutBatches:
    def test_517_records_at_size_20(self, dataset_file):
        batches = list(cut_batches(open_source(dataset_file), 20))
        assert len(batches) == 26
        assert [len(b) for b in batches[:-1]] == [20] * 25
        assert len(batches[-1]) == 17 and batches[-1].is_final

    def test_exact_multiple_single_batch(self, tmp_path):
        path = write_dataset(tmp_path / "x.csv", [CALM_ROW] * 20)
        batches = list(cut_batches(open_source(path), 20))
        assert len(batches) == 1 and not batches[0].is_final

    def test_size_one_preserves_order(self, tmp_path):
        path = write_dataset(tmp_path / "x.csv", [CALM_ROW, TRIGGER_ROW, CALM_ROW])
        batches = list(cut_batches(open_source(path), 1))
        assert [b.seq for b in batches] == [0, 1, 2]
        assert [b.first_offset for b in batches] == [0, 1, 2]

    def test_conservation_over_random_sizes(self, tmp_path):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(0, 157)
            size = rng.randint(1, 100)
            path = write_dataset(tmp_path / "c.csv", [CALM_ROW] * n) if n else None
            if n == 0:
                (tmp_path / "c.csv").write_text(HEADER + "\n", encoding="utf-8")
                path = str(tmp_path / "c.csv")
            batches = list(cut_batches(open_source(path), size))
            assert sum(len(b) for b in batches) == n
            offsets = [o for b in batches for o, _ in b.records]
            assert offsets == list(range(n))

    def test_bad_size(self, dataset_file):
        with pytest.raises(StreamError):
            list(cut_batches(open_source(dataset_file), 0))


class TestBatchEvaluate:
    def test_six_quantity_alerts_in_fixed_order(self):
        events = batch_evaluate(batch_of([CALM_ROW, TRIGGER_ROW]))
        assert [e.kind for e in events] == [
            "FFMC_IGNITION", "DMC", "DC_MOPUP", "ISI_SPREAD", "BUI", "FWI"]

    def test_max_aggregate_picks_worst_record(self):
        events = batch_evaluate(batch_of([CALM_ROW, HIGH_DC_ROW]))
        dc_alert = next(e for e in events if e.kind == "DC_MOPUP")
        assert dc_alert.value == 665.6
        assert dc_alert.severity == "difficult and extensive"
        assert dc_alert.offsets == (1,)

    def test_mean_aggregate_covers_all_offsets(self):
        events = batch_evaluate(batch_of([CALM_ROW, HIGH_DC_ROW]), aggregate="mean")
        dc_alert = next(e for e in events if e.kind == "DC_MOPUP")
        assert dc_alert.value == pytest.approx((10.0 + 665.6) / 2)
        assert dc_alert.offsets == (0, 1)

    def test_all_calm_codes_floor_bands_no_rule_alerts(self, alert_rules):
        events = batch_evaluate(batch_of([CALM_ROW]), rules=alert_rules)
        quantity = [e for e in events if e.kind != "RULE"]
        assert [e.severity for e in quantity] == [
            "difficult", "easy", "easy", "slow", "low", "low"]
        assert not [e for e in events if e.kind == "RULE"]

    def test_all_zero_codes_batch(self, alert_rules):
        zero_row = "1,2,jan,mon,0.0,0.0,0.0,0.0,5.0,50,0.0,0.0,0.0"
        events = batch_evaluate(batch_of([zero_row, zero_row]), rules=alert_rules)
        assert len(events) == 6  # six quantity alerts, zero RULE alerts
        for e in events:
            assert e.kind != "RULE"
            assert e.value == 0.0
            quantity = dict(zip(
                ("FFMC_IGNITION", "DMC", "DC_MOPUP", "ISI_SPREAD", "BUI", "FWI"),
                ("ignition_potential", "dmc_class", "dc_class", "spread_rate",
                 "bui_class", "fwi_class")))[e.kind]
            assert e.severity == fwi.DEFAULT_BANDS.labels(quantity)[0]

    def test_trigger_row_produces_rule_alert(self, alert_rules):
        events = batch_evaluate(batch_of([CALM_ROW, TRIGGER_ROW], start_offset=136),
                                rules=alert_rules)
        trigger = [e for e in events if e.kind == "RULE" and e.rule == "fire_trigger"]
        assert len(trigger) == 1
        assert trigger[0].offsets == (137,)
        assert trigger[0].severity == "fireTrigger"
        assert trigger[0].value is None

    def test_severity_vocabulary_invariant(self, alert_rules):
        events = batch_evaluate(batch_of([TRIGGER_ROW, HIGH_DC_ROW, CALM_ROW]),
                                rules=alert_rules)
        quantity_for_kind = dict(zip(
            ("FFMC_IGNITION", "DMC", "DC_MOPUP", "ISI_SPREAD", "BUI", "FWI"),
            ("ignition_potential", "dmc_class", "dc_class", "spread_rate",
             "bui_class", "fwi_class")))
        for e in events:
            if e.kind == "RULE":
                continue
            assert e.severity in fwi.DEFAULT_BANDS.labels(quantity_for_kind[e.kind])

    def test_empty_batch_rejected(self):
        with pytest.raises(StreamError):
            batch_evaluate(Batch(0, ()))

    def test_partial_bands_rejected_naming_the_missing_quantities(self, tmp_path):
        # the four labelled quantities only, as ClassBands built in code allows
        bands = fwi.ClassBands({q: [(math.inf, "any")] for q in
                                ("dc_class", "dmc_class", "ignition_potential",
                                 "spread_rate")}, [])
        with pytest.raises(StreamError, match="bui_class, fwi_class"):
            batch_evaluate(batch_of([CALM_ROW]), bands)
        path = write_dataset(tmp_path / "b.csv", [CALM_ROW])
        sink = tmp_path / "alerts.jsonl"
        with pytest.raises(StreamError, match="bui_class, fwi_class"):
            run_pipeline(path, sink, bands=bands)
        assert not sink.exists()

    def test_cross_check_against_whole_file_oracle(self, dataset_text, alert_rules):
        # record-wise classify+rules over the whole file must agree with the
        # batched pipeline: on which offsets trigger the fire rule, and on
        # every windowed aggregate severity
        d = ingest.parse_dataset(dataset_text)
        records = d.records()
        expected_trigger = set()
        codes_by_offset = {}
        for offset, rec in enumerate(records):
            codes = fwi.compute_codes(rec)
            codes_by_offset[offset] = codes
            cls = fwi.classify(codes)
            if cls.dmc_class == "difficult and extensive" \
                    and cls.dc_class == "difficult and extensive":
                expected_trigger.add(offset)

        quantity_for_kind = {
            "FFMC_IGNITION": ("ignition_potential", "ffmc"),
            "DMC": ("dmc_class", "dmc"), "DC_MOPUP": ("dc_class", "dc"),
            "ISI_SPREAD": ("spread_rate", "isi"), "BUI": ("bui_class", "bui"),
            "FWI": ("fwi_class", "fwi")}

        got_trigger = set()
        src = open_source_text(dataset_text)
        for batch in cut_batches(src, 20):
            window = range(batch.first_offset, batch.last_offset + 1)
            for e in batch_evaluate(batch, rules=alert_rules):
                if e.kind == "RULE":
                    if e.rule == "fire_trigger":
                        got_trigger.update(e.offsets)
                    continue
                quantity, attr = quantity_for_kind[e.kind]
                window_max = max(getattr(codes_by_offset[o], attr) for o in window)
                assert e.value == window_max
                assert e.severity == fwi.DEFAULT_BANDS.classify_value(
                    quantity, window_max)
        assert got_trigger == expected_trigger
        assert expected_trigger, "fixture should contain trigger rows"


def open_source_text(text):
    records = ingest.iter_records(iter(text.splitlines()), header=True)
    return enumerate(records)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cp"
        cp = Checkpoint("file:x.csv", 5, 120, "abc")
        checkpoint_save(path, cp)
        assert checkpoint_load(path) == cp

    def test_stale_save_rejected(self, tmp_path):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("s", 5, 120, "f"))
        with pytest.raises(StaleCheckpoint):
            checkpoint_save(path, Checkpoint("s", 3, 80, "f"))

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("s", 1, 40, "f"))
        body = path.read_text().splitlines()[0]
        path.write_text(body + "\n")
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)

    def test_tampered_body_is_corrupt(self, tmp_path):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("s", 1, 40, "f"))
        text = path.read_text().replace('"batch_seq": 1', '"batch_seq": 7')
        path.write_text(text)
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)

    @pytest.mark.parametrize("body", [
        '[]', '"cp"', '5', 'null',
        '{"batch_seq": null, "fingerprint": "f", "offset": 40, "source_id": "s"}',
        '{"batch_seq": true, "fingerprint": "f", "offset": 40, "source_id": "s"}',
        '{"batch_seq": 1.0, "fingerprint": "f", "offset": 40, "source_id": "s"}',
        '{"batch_seq": "1", "fingerprint": "f", "offset": 40, "source_id": "s"}',
        '{"batch_seq": 1, "fingerprint": "f", "offset": false, "source_id": "s"}',
        '{"batch_seq": 1, "fingerprint": "f", "offset": [40], "source_id": "s"}',
        '{"batch_seq": 1, "fingerprint": 7, "offset": 40, "source_id": "s"}',
        '{"batch_seq": 1, "fingerprint": "f", "offset": 40, "source_id": null}',
        '{"batch_seq": 1, "fingerprint": "f", "offset": 40}',
    ])
    def test_body_of_the_wrong_type_with_a_valid_hash_is_corrupt(self, tmp_path, body):
        path = tmp_path / "cp"
        path.write_text(body + "\n" + hashlib.sha256(body.encode()).hexdigest() + "\n")
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)

    def test_deeply_nested_body_with_a_valid_hash_is_corrupt(self, tmp_path):
        path = tmp_path / "cp"
        body = "[" * 100_000 + "]" * 100_000
        path.write_text(body + "\n" + hashlib.sha256(body.encode()).hexdigest() + "\n")
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)


class TestRunPipeline:
    def test_full_replay_stats(self, dataset_file, tmp_path, alert_rules,
                               rules_alerts_text):
        sink = tmp_path / "alerts.jsonl"
        stats = run_pipeline(dataset_file, sink, tmp_path / "cp",
                             rules=alert_rules, rules_text=rules_alerts_text)
        assert stats.records_in == 517
        assert stats.batches_out == 26
        events = read_sink(sink)
        assert {e["batch"] for e in events} == set(range(26))
        for kind in ("FFMC_IGNITION", "DMC", "DC_MOPUP", "ISI_SPREAD", "BUI", "FWI"):
            assert stats.alerts_by_kind[kind] == 26

    def test_sink_field_names(self, tmp_path):
        path = write_dataset(tmp_path / "two.csv", [CALM_ROW, TRIGGER_ROW])
        sink = tmp_path / "alerts.jsonl"
        run_pipeline(path, sink, batch_size=2)
        for event in read_sink(sink):
            assert set(event) == {"batch", "kind", "severity", "value",
                                  "offsets", "rule", "ts_ms"}
            assert event["rule"] is None or event["kind"] == "RULE"

    def test_empty_source(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        sink = tmp_path / "alerts.jsonl"
        cp = tmp_path / "cp"
        stats = run_pipeline(str(path), sink, cp)
        assert stats.records_in == 0 and stats.batches_out == 0
        assert not cp.exists()

    def test_deterministic_output_modulo_timestamp(self, dataset_file, tmp_path,
                                                   alert_rules, rules_alerts_text):
        sinks = []
        for run in range(2):
            sink = tmp_path / f"alerts{run}.jsonl"
            run_pipeline(dataset_file, sink, rules=alert_rules,
                         rules_text=rules_alerts_text)
            sinks.append(strip_ts(read_sink(sink)))
        assert sinks[0] == sinks[1]

    def test_ordering_non_decreasing(self, dataset_file, tmp_path):
        sink = tmp_path / "alerts.jsonl"
        run_pipeline(dataset_file, sink)
        seqs = [e["batch"] for e in read_sink(sink)]
        assert seqs == sorted(seqs)

    def test_resume_after_kill(self, dataset_file, tmp_path, alert_rules,
                               rules_alerts_text):
        sink = tmp_path / "alerts.jsonl"
        cp = tmp_path / "cp"

        def crash_after_batch_10(point, seq):
            if point == "after_checkpoint" and seq == 10:
                raise SimulatedCrash(f"killed at {point} of batch {seq}")

        with pytest.raises(SimulatedCrash):
            run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                         rules_text=rules_alerts_text,
                         crash_hook=crash_after_batch_10)
        assert checkpoint_load(cp).batch_seq == 10

        stats = run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                             rules_text=rules_alerts_text)
        assert stats.batches_out == 15  # batches 11..25
        events = read_sink(sink)
        seqs = sorted({e["batch"] for e in events})
        assert seqs == list(range(26))
        # batch 0..10 not re-emitted: every sequence appears exactly once per kind
        from collections import Counter
        counts = Counter((e["batch"], e["kind"], e["severity"], tuple(e["offsets"]))
                         for e in events)
        assert max(counts.values()) == 1

    def test_at_least_once_under_crash_at_every_point(self, tmp_path, alert_rules,
                                                      rules_alerts_text):
        rows = [CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW] * 10  # 30 records, 6 batches of 5
        path = write_dataset(tmp_path / "d.csv", rows)
        for point in ("after_sink", "after_checkpoint"):
            for crash_seq in range(6):
                sink = tmp_path / f"alerts_{point}_{crash_seq}.jsonl"
                cp = tmp_path / f"cp_{point}_{crash_seq}"

                def hook(p, s, point=point, crash_seq=crash_seq):
                    if p == point and s == crash_seq:
                        raise SimulatedCrash(f"{point}@{s}")

                with pytest.raises(SimulatedCrash):
                    run_pipeline(path, sink, cp, batch_size=5, rules=alert_rules,
                                 rules_text=rules_alerts_text, crash_hook=hook)
                run_pipeline(path, sink, cp, batch_size=5, rules=alert_rules,
                             rules_text=rules_alerts_text)

                events = strip_ts(read_sink(sink))
                by_seq = {}
                for e in events:
                    by_seq.setdefault(e["batch"], []).append(e)
                # every batch delivered at least once
                assert set(by_seq) == set(range(6))
                # duplicates only as whole batches: per batch, the event list
                # is either one copy or two identical copies
                for seq, batch_events in by_seq.items():
                    n = len(batch_events)
                    uniques = [dict(t) for t in {tuple(sorted(e.items(),
                               key=lambda kv: (kv[0], str(kv[1]))))
                               for e in map(_hashable, batch_events)}]
                    assert n % len(uniques) == 0, (point, crash_seq, seq)
                    copies = n // len(uniques)
                    assert copies in (1, 2), (point, crash_seq, seq)
                    if point == "after_sink" and seq == crash_seq:
                        assert copies == 2  # the batch in the failure window

    def test_fingerprint_change_refuses_resume(self, dataset_file, tmp_path,
                                               alert_rules, rules_alerts_text):
        sink = tmp_path / "alerts.jsonl"
        cp = tmp_path / "cp"

        def crash_early(point, seq):
            if point == "after_checkpoint" and seq == 2:
                raise SimulatedCrash("crash")

        with pytest.raises(SimulatedCrash):
            run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                         rules_text=rules_alerts_text, crash_hook=crash_early)
        with pytest.raises(BadCheckpoint):
            run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                         rules_text=rules_alerts_text + "\n# changed\n")

    def test_source_change_refuses_resume(self, dataset_file, tmp_path):
        sink = tmp_path / "alerts.jsonl"
        cp = tmp_path / "cp"
        other = write_dataset(tmp_path / "other.csv", [CALM_ROW] * 25)
        run_pipeline(other, sink, cp, batch_size=5)
        with pytest.raises(BadCheckpoint):
            run_pipeline(dataset_file, sink, cp)


def _hashable(event):
    out = dict(event)
    out["offsets"] = tuple(out["offsets"])
    return out


class TestFactEncoding:
    def test_record_fact_shape(self):
        rec = ingest.parse_record_fields(TRIGGER_ROW.split(","))
        codes = fwi.compute_codes(rec)
        cls = fwi.classify(codes)
        facts = stream.record_facts(7, codes, cls)
        names = {f.predicate for f in facts}
        assert "IgnitionPotential_extremely_easy" in names
        assert "DmcClass_difficult_and_extensive" in names
        assert "hasDc" in names
        individual = rules.Individual("rec_7")
        assert all(f.args[0] == individual for f in facts)

    def test_label_predicates_replace_every_non_alphanumeric(self):
        bands = fwi.ClassBands(
            dict(fwi.DEFAULT_BANDS.bands,
                 dc_class=[(100, "calm"), (math.inf, "très-grim / 2")]), [])
        rec = ingest.parse_record_fields(HIGH_DC_ROW.split(","))
        codes = fwi.compute_codes(rec)
        for _ in range(2):
            facts = stream.record_facts(3, codes, fwi.classify(codes, bands))
            assert rules.Atom("DcClass_très_grim___2",
                              (rules.Individual("rec_3"),)) in facts

    def test_rule_over_numeric_code_fact(self, alert_rules):
        events = batch_evaluate(batch_of([HIGH_DC_ROW]), rules=alert_rules)
        drought = [e for e in events if e.rule == "deep_drought_watch"]
        assert drought and drought[0].offsets == (0,)


class TestRecordFormats:
    """The exact text of the three stream record formats."""

    def test_alert_line(self):
        event = stream.AlertEvent(3, "RULE", "FireTrigger", None, (40, 41),
                                  "trigger_alert", 1700000000123)
        assert event.to_json() == (
            '{"batch": 3, "kind": "RULE", "offsets": [40, 41], '
            '"rule": "trigger_alert", "severity": "FireTrigger", '
            '"ts_ms": 1700000000123, "value": null}')

    def test_stats_line_sorts_alert_kinds(self):
        stats = stream.PipelineStats(records_in=517, batches_out=26, duration_ms=12.5)
        for kind in ("RULE", "FWI", "BUI", "DC_MOPUP"):
            stats.alerts_by_kind[kind] = len(kind)
        assert stats.to_json() == (
            '{"alerts_by_kind": {"BUI": 3, "DC_MOPUP": 8, "FWI": 3, "RULE": 4}, '
            '"batches_out": 26, "duration_ms": 12.5, "records_in": 517}')

    def test_checkpoint_file(self, tmp_path):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("file:data.csv", 25, 517, "ab" * 32))
        assert path.read_text(encoding="utf-8") == (
            '{"batch_seq": 25, "fingerprint": "' + "ab" * 32 + '", '
            '"offset": 517, "source_id": "file:data.csv"}\n'
            "2a95081014cb86c2dfdb4428ad5b7a08bcf21ea3785fe2886f8517a624d0af54\n")
