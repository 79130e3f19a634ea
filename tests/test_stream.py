import gc
import hashlib
import io
import json
import math
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from firedss import data_path, fwi, ingest, rules, stream
from firedss.stream import (
    BadCheckpoint, Batch, Checkpoint, CorruptCheckpoint, IoError,
    SimulatedCrash, StaleCheckpoint, StreamError, batch_evaluate,
    checkpoint_load, checkpoint_save, cut_batches, open_source, parse_source,
    run_pipeline,
)

from oracles import naive_saturate

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area"
TRIGGER_ROW = "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0"
CALM_ROW = "4,5,jan,tue,30.0,2.0,10.0,0.5,5.0,80,2.0,0.0,0.0"
HIGH_DC_ROW = "7,4,aug,sun,81.6,56.7,665.6,1.9,21.2,70,6.7,0.0,11.16"


def write_dataset(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def records_of(*rows):
    return list(ingest.iter_records(rows, header=False))


def batch_of(rows, seq=0, start_offset=0):
    return Batch(seq, tuple(enumerate(records_of(*rows), start_offset)))


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
        assert records == records_of(TRIGGER_ROW, CALM_ROW)

    def test_unopenable_sink_closes_the_socket_listener(self, tmp_path):
        sink = tmp_path / "no-such-dir" / "alerts.jsonl"
        with pytest.raises(IoError, match="^cannot open sink "):
            run_pipeline("socket:127.0.0.1:0", sink)
        gc.collect()        # a listener left open warns by here, which fails the test

    def test_a_failed_socket_run_frees_its_port_while_the_error_is_held(self, tmp_path):
        listener_probe = socket.socket()
        listener_probe.bind(("127.0.0.1", 0))
        port = listener_probe.getsockname()[1]
        listener_probe.close()
        inf_fwi_row = TRIGGER_ROW.replace(",8.5,", ",1e308,")

        def feed():     # run_pipeline binds the port after this thread starts
            deadline = time.monotonic() + 10
            while True:
                try:
                    client = socket.create_connection(("127.0.0.1", port))
                    break
                except ConnectionRefusedError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            with client:
                client.sendall((inf_fwi_row + "\n").encode())

        t = threading.Thread(target=feed)
        t.start()
        with pytest.raises(stream.BatchEvaluationError, match="fwi_class value inf") as caught:
            run_pipeline(f"socket:127.0.0.1:{port}", tmp_path / "alerts.jsonl", batch_size=1)
        t.join(timeout=10)
        assert not t.is_alive()
        # the traceback holds run_pipeline's frame; a listener still open there
        # makes this bind fail with EADDRINUSE
        socket.create_server(("127.0.0.1", port)).close()
        assert (caught.value.batch_seq, caught.value.offset) == (0, 0)

    def test_a_live_source_reads_no_record_past_the_batch_it_cuts(self, tmp_path):
        # the client sends one batch and keeps the connection open: the
        # batch's alerts must be written before more input comes
        listener_probe = socket.socket()
        listener_probe.bind(("127.0.0.1", 0))
        port = listener_probe.getsockname()[1]
        listener_probe.close()
        sink, outcome = tmp_path / "alerts.jsonl", {}
        rows = [TRIGGER_ROW, CALM_ROW, HIGH_DC_ROW, CALM_ROW, TRIGGER_ROW]

        def serve():
            try:
                outcome["stats"] = run_pipeline(f"socket:127.0.0.1:{port}", sink, batch_size=5)
            except Exception as exc:
                outcome["error"] = exc

        server = threading.Thread(target=serve)
        server.start()
        deadline = time.monotonic() + 10
        while True:     # run_pipeline binds the port after the thread starts
            try:
                client = socket.create_connection(("127.0.0.1", port))
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        with client:
            client.sendall("".join(row + "\n" for row in rows).encode())
            deadline = time.monotonic() + 10
            while (not sink.exists() or sink.read_text().count("\n") < 6) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            written = sink.read_text() if sink.exists() else ""
        server.join(timeout=10)
        assert not server.is_alive() and "error" not in outcome
        assert strip_ts(json.loads(line) for line in written.splitlines()) == \
            strip_ts(json.loads(e.to_json()) for e in batch_evaluate(batch_of(rows)))
        assert (outcome["stats"].records_in, outcome["stats"].batches_out) == (5, 1)


# bytes that CSV splitting, line ends and UTF-8 decoding treat specially
_SPLICE_PIECES = st.sampled_from([b",", b'"', b"\r", b"\n", b"\r\n", b" ", b"-", b"e9",
                                  b"\xef\xbb\xbf", b"\xc3\xa9", b"\xe2\x82", b"\xff"])


def _outcome(pairs):
    """The (offset, record) pairs that `pairs` gives, then its error's type
    and text (None, None if it ends); any other exception escapes."""
    got = []
    try:
        for pair in pairs:
            got.append(pair)
    except (ingest.DatasetError, IoError) as exc:
        return got, type(exc), str(exc)
    return got, None, None


class TestInputEdges:
    """Random bytes spliced into the bundled table's rows: a file and stdin
    are read by the one UTF-8 line reader, so they give the same records and
    then the same error, which is a DatasetError or an IoError."""

    LINES = data_path("forestfires_synthetic.csv").read_bytes().splitlines(keepends=True)[:31]

    @given(st.integers(0, 10 ** 6),
           st.one_of(st.binary(min_size=1, max_size=6),
                     st.lists(_SPLICE_PIECES, min_size=1, max_size=4).map(b"".join)),
           st.booleans(), st.sampled_from([1, 7]))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_a_file_and_stdin_give_the_same_records_then_the_same_error(
            self, tmp_path_factory, where, spliced, overwrite, block):
        head, body = self.LINES[0], b"".join(self.LINES[1:])
        where %= len(body) + 1
        data = head + body[:where] + spliced + body[where + overwrite * len(spliced):]
        path = tmp_path_factory.getbasetemp() / "spliced.csv"
        path.write_bytes(data)
        from_file = _outcome(open_source(str(path), block=block))
        with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
            from_stdin = _outcome(open_source("-", block=block))
        records, error, text = from_file
        assert from_stdin == (records, error,
                              text and text.replace(f"cannot read {path}:", "cannot read stdin:"))
        if error is IoError:    # the first bad byte in the whole input, by its line
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            line = data.count(b"\n", 0, whole.value.start) + 1
            assert text == f"cannot read {path}: line {line}: {whole.value}"


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

    def test_rate_at_the_minimum_accepted_and_the_next_float_below_refused(self):
        # parse only: a replay at this rate waits threading.TIMEOUT_MAX per record
        least = stream._MIN_RATE
        assert parse_source(f"x.csv?rate={least!r}").rate == least
        below = math.nextafter(least, 0.0)
        with pytest.raises(StreamError, match="at least"):
            parse_source(f"x.csv?rate={below!r}")

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

    def test_a_plain_list_of_45_pairs_at_size_20(self):
        pairs = list(enumerate(records_of(*[CALM_ROW, TRIGGER_ROW] * 22, CALM_ROW)))
        batches = list(cut_batches(pairs, 20))
        assert [len(b) for b in batches] == [20, 20, 5]
        assert [b.is_final for b in batches] == [False, False, True]
        assert [b.seq for b in batches] == [0, 1, 2]
        assert [pair for b in batches for pair in b.records] == pairs

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

    def test_resave_of_the_same_batch_accepted(self, tmp_path):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("s", 5, 120, "f"))
        checkpoint_save(path, Checkpoint("s", 5, 121, "f"))
        assert checkpoint_load(path) == Checkpoint("s", 5, 121, "f")
        checkpoint_save(path, Checkpoint("s", 5, 122, "f"), Checkpoint("s", 5, 121, "f"))
        assert checkpoint_load(path) == Checkpoint("s", 5, 122, "f")

    def test_save_checks_the_previous_checkpoint_without_reading(self, tmp_path,
                                                                 monkeypatch):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("s", 5, 120, "f"))
        monkeypatch.setattr(stream, "checkpoint_load", None)    # must not be called
        with pytest.raises(StaleCheckpoint, match="from batch 7 to 6"):
            checkpoint_save(path, Checkpoint("s", 6, 140, "f"), Checkpoint("s", 7, 160, "f"))
        checkpoint_save(path, Checkpoint("s", 6, 140, "f"), Checkpoint("s", 5, 120, "f"))
        assert checkpoint_load(path) == Checkpoint("s", 6, 140, "f")

    def test_save_without_previous_overwrites_a_corrupt_file(self, tmp_path):
        path = tmp_path / "cp"
        path.write_bytes(b"not a checkpoint\n" * 8)
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)
        cp = Checkpoint("s", 0, 20, "f")
        checkpoint_save(path, cp)
        assert checkpoint_load(path) == cp
        assert path.read_bytes().count(b"\n") == 2

    def test_load_of_a_directory_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError) as caught:
            checkpoint_load(tmp_path)
        assert str(caught.value).startswith(f"cannot read checkpoint {tmp_path}: ")

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

    @staticmethod
    def _file_bytes(cp):
        body = json.dumps(cp._asdict(), sort_keys=True)
        return f"{body}\n{hashlib.sha256(body.encode()).hexdigest()}\n".encode()

    def test_save_over_a_checkpoint_renames_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("file:data.csv", 24, 500, "ab" * 32))

        def rename(*args):
            raise AssertionError(f"renamed {args}")

        monkeypatch.setattr(os, "replace", rename)
        monkeypatch.setattr(os, "rename", rename)
        cp = Checkpoint("file:data.csv", 25, 517, "ab" * 32)
        checkpoint_save(path, cp)
        assert path.read_bytes() == self._file_bytes(cp)

    def test_shorter_body_over_a_longer_one_is_byte_exact(self, tmp_path):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("file:" + "x" * 300, 5, 120, "f" * 64))
        cp = Checkpoint("s", 6, 140, "f")
        checkpoint_save(path, cp)
        assert path.read_bytes() == self._file_bytes(cp)

    def test_bytes_after_the_hash_line_are_ignored(self, tmp_path):
        # what a kill between the in-place write and its truncate leaves
        path = tmp_path / "cp"
        old = self._file_bytes(Checkpoint("file:" + "x" * 300, 5, 120, "f" * 64))
        new = self._file_bytes(Checkpoint("s", 6, 140, "f"))
        path.write_bytes(new + old[len(new):])
        assert checkpoint_load(path) == Checkpoint("s", 6, 140, "f")

    def test_first_save_leaves_no_temp_file(self, tmp_path):
        checkpoint_save(tmp_path / "cp", Checkpoint("s", 0, 20, "f"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cp"]

    def test_short_write_is_an_io_error(self, tmp_path, monkeypatch):
        path = tmp_path / "cp"
        checkpoint_save(path, Checkpoint("s", 0, 20, "f"))
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, at: pwrite(fd, data[:-1], at))
        with pytest.raises(IoError, match=f"short write to checkpoint {path}"):
            checkpoint_save(path, Checkpoint("s", 1, 40, "f"))

    def test_non_utf8_file_is_corrupt_and_named(self, tmp_path):
        path = tmp_path / "cp"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(CorruptCheckpoint) as err:
            checkpoint_load(path)
        assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")

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

    def test_duration_lies_inside_the_callers_own_interval(self, tmp_path):
        path = write_dataset(tmp_path / "d.csv", [CALM_ROW, TRIGGER_ROW] * 10)
        started = time.perf_counter()
        stats = run_pipeline(path, tmp_path / "alerts.jsonl", batch_size=5)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert 0.0 <= stats.duration_ms <= elapsed_ms

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

    def test_checkpoint_is_read_once_per_run(self, dataset_file, tmp_path, monkeypatch,
                                             alert_rules, rules_alerts_text):
        loads = []
        load = stream.checkpoint_load

        def counting(path):
            loads.append(path)
            return load(path)

        def crash(point, seq):
            if point == "after_checkpoint" and seq == 10:
                raise SimulatedCrash("crash")

        monkeypatch.setattr(stream, "checkpoint_load", counting)
        sink, cp = tmp_path / "alerts.jsonl", tmp_path / "cp"
        with pytest.raises(SimulatedCrash):
            run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                         rules_text=rules_alerts_text, crash_hook=crash)
        assert loads == []                  # a fresh run reads none
        stats = run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                             rules_text=rules_alerts_text)
        assert loads == [cp]                # a resumed run reads it once
        assert stats.batches_out == 15
        assert load(cp) == Checkpoint(f"file:{dataset_file}", 25, 517,
                                      stream.config_fingerprint(rules_alerts_text))

    def test_source_change_refuses_resume(self, dataset_file, tmp_path):
        sink = tmp_path / "alerts.jsonl"
        cp = tmp_path / "cp"
        other = write_dataset(tmp_path / "other.csv", [CALM_ROW] * 25)
        run_pipeline(other, sink, cp, batch_size=5)
        with pytest.raises(BadCheckpoint):
            run_pipeline(dataset_file, sink, cp)

    @pytest.mark.parametrize("fragment, checkpointed", [
        ('{"batch": 4, "kind": "FFMC_IGN', 3),
        ('{"batch": 4, "offsets": [' + "7, " * 3000, 3),    # longer than one read
        ('{"batch": 0, "kind": "FFMC_IGN', None),           # the whole sink is torn
    ], ids=["short", "long", "whole-sink"])
    def test_resume_cuts_a_torn_last_sink_line(self, tmp_path, alert_rules,
                                               rules_alerts_text, fragment, checkpointed):
        path = write_dataset(tmp_path / "d.csv", [CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW] * 10)
        reference, sink, cp = (tmp_path / "reference.jsonl", tmp_path / "alerts.jsonl",
                               tmp_path / "cp")
        run_pipeline(path, reference, batch_size=5, rules=alert_rules,
                     rules_text=rules_alerts_text)

        def crash(point, seq):
            if point == "after_checkpoint" and seq == checkpointed:
                raise SimulatedCrash("crash")

        if checkpointed is not None:
            with pytest.raises(SimulatedCrash):
                run_pipeline(path, sink, cp, batch_size=5, rules=alert_rules,
                             rules_text=rules_alerts_text, crash_hook=crash)
        with open(sink, "a", encoding="utf-8") as fh:
            fh.write(fragment)      # what a kill during the next batch's write leaves
        run_pipeline(path, sink, cp, batch_size=5, rules=alert_rules,
                     rules_text=rules_alerts_text)
        assert sink.read_text(encoding="utf-8").endswith("\n")
        assert strip_ts(read_sink(sink)) == strip_ts(read_sink(reference))

    @pytest.mark.parametrize("crash_at, copies, torn", [
        (("after_checkpoint", 10), 1, 0),   # a partial copy goes
        (("after_sink", 11), 2, 0),         # a whole copy stays, the partial one goes
        (("after_checkpoint", 10), 1, 20),  # a partial copy and its torn last line go
    ], ids=["partial", "whole-and-partial", "partial-and-torn"])
    def test_resume_cuts_a_partial_batch_to_whole_copies(
            self, dataset_file, tmp_path, alert_rules, rules_alerts_text, crash_at, copies,
            torn):
        reference, sink, cp = (tmp_path / "reference.jsonl", tmp_path / "alerts.jsonl",
                               tmp_path / "cp")
        run_pipeline(dataset_file, reference, rules=alert_rules, rules_text=rules_alerts_text)
        lines = reference.read_text(encoding="utf-8").splitlines(keepends=True)
        batch_11 = [line for line in lines if json.loads(line)["batch"] == 11]
        assert len(batch_11) > 12

        def crash(point, seq):
            if (point, seq) == crash_at:
                raise SimulatedCrash("crash")

        with pytest.raises(SimulatedCrash):
            run_pipeline(dataset_file, sink, cp, rules=alert_rules,
                         rules_text=rules_alerts_text, crash_hook=crash)
        assert checkpoint_load(cp).batch_seq == 10
        with open(sink, "a", encoding="utf-8") as fh:
            # what a kill during a multi-page write of batch 11 leaves
            fh.writelines(batch_11[:12])
            fh.write(batch_11[12][:torn])
        run_pipeline(dataset_file, sink, cp, rules=alert_rules, rules_text=rules_alerts_text)
        events = strip_ts(read_sink(reference))
        expected = ([e for e in events if e["batch"] < 11]
                    + [e for e in events if e["batch"] == 11] * copies
                    + [e for e in events if e["batch"] > 11])
        assert strip_ts(read_sink(sink)) == expected

    @pytest.mark.parametrize("head", ["", '{"batch": 2, "kind": "RULE"}\n'],
                             ids=["batch-only", "after-another-batch"])
    def test_partial_batch_cut_reads_back_past_one_read(self, tmp_path, head):
        line = '{"batch": 3, "kind": "RULE", "offsets": [' + "7, " * 2000 + "7]}\n"
        sink = tmp_path / "alerts.jsonl"
        sink.write_text(head + line * 25, encoding="utf-8")     # about 150 KB
        tail = stream._cut_sink(sink, 3)
        assert tail == [len(line)] * 25
        os.truncate(sink, sink.stat().st_size - sum(tail[-(25 % 10):]))
        assert sink.read_text(encoding="utf-8") == head + line * 20

    def test_rules_without_their_text_are_refused_with_a_checkpoint(
            self, dataset_file, tmp_path, alert_rules):
        # the fingerprint is built from the text, so rules without it would
        # resume under any other rule set
        torn, fresh, cp = tmp_path / "torn.jsonl", tmp_path / "fresh.jsonl", tmp_path / "cp"
        torn.write_text('{"batch": 0, "kind": "FFMC_IGN', encoding="utf-8")
        for sink in (torn, fresh):
            with pytest.raises(StreamError, match="rules' text"):
                run_pipeline(dataset_file, sink, cp, rules=alert_rules)
        assert torn.read_text(encoding="utf-8") == '{"batch": 0, "kind": "FFMC_IGN'
        assert not fresh.exists() and not cp.exists()
        assert run_pipeline(dataset_file, fresh, rules=alert_rules).batches_out == 26

    def test_resume_from_stdin_keeps_a_partial_batch(self, tmp_path, monkeypatch,
                                                     alert_rules, rules_alerts_text):
        # stdin need not replay the records whose alerts a kill cut short, so
        # the alerts already delivered stay
        rows = [CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW] * 10
        reference, sink, cp = (tmp_path / "reference.jsonl", tmp_path / "alerts.jsonl",
                               tmp_path / "cp")

        def run(sink, cp=None, rows=rows, crash_hook=None):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(
                ("\n".join(rows) + "\n").encode())))
            run_pipeline("-", sink, cp, batch_size=5, rules=alert_rules,
                         rules_text=rules_alerts_text, crash_hook=crash_hook)

        def crash(point, seq):
            if point == "after_checkpoint" and seq == 2:
                raise SimulatedCrash("crash")

        run(reference)
        batch_3 = [line for line in reference.read_text(encoding="utf-8").splitlines(
            keepends=True) if json.loads(line)["batch"] == 3]
        with pytest.raises(SimulatedCrash):
            run(sink, cp, crash_hook=crash)
        with open(sink, "a", encoding="utf-8") as fh:
            fh.writelines(batch_3[:3])
        run(sink, cp, rows[15:])
        got = [e for e in strip_ts(read_sink(sink)) if e["batch"] == 3]
        assert got == strip_ts(json.loads(line) for line in batch_3[:3] + batch_3)


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
class TestRealKill:
    """`python -m firedss stream` run as a child, SIGKILLed at seeded delays
    and resumed from its checkpoint until one run ends unkilled."""

    def test_at_least_once_under_sigkill(self, tmp_path, dataset_text):
        header, *rows = dataset_text.splitlines()
        data = tmp_path / "replica.csv"
        data.write_text("\n".join([header] + rows * 10) + "\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(stream.__file__).parents[1]))

        def start(sink, cp):
            return subprocess.Popen(
                [sys.executable, "-m", "firedss", "stream", "--dataset", str(data),
                 "--rules", str(data_path("fwi_alerts.rules")),
                 "--sink", str(sink), "--checkpoint", str(cp)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)

        def finish(child):
            _, err = child.communicate(timeout=60)
            assert child.returncode in (0, -signal.SIGKILL), err
            return child.returncode == 0

        def batches(sink):
            """Sink events without ts_ms, by batch; every line whole JSON."""
            text = sink.read_text(encoding="utf-8")
            assert text.endswith("\n")
            events = [json.loads(line) for line in text.splitlines()]
            assert [e["batch"] for e in events] == sorted(e["batch"] for e in events)
            by_batch = {}
            for event in events:
                del event["ts_ms"]
                by_batch.setdefault(event["batch"], []).append(event)
            return by_batch

        def first_write(child, sink, size):
            """Wait until the child has grown the sink past size, or has ended."""
            while child.poll() is None and not (sink.exists() and sink.stat().st_size > size):
                time.sleep(0.001)

        ref_sink, ref_cp = tmp_path / "reference.jsonl", tmp_path / "reference.cp"
        began = time.perf_counter()
        child = start(ref_sink, ref_cp)
        first_write(child, ref_sink, 0)
        startup = time.perf_counter() - began
        assert finish(child)
        wall = time.perf_counter() - began
        reference = batches(ref_sink)

        def check(sink, cp, kills):
            got = batches(sink)
            assert got.keys() == reference.keys()
            replays = 0
            for seq, events in got.items():
                copies, rest = divmod(len(events), len(reference[seq]))
                assert rest == 0 and events == reference[seq] * copies, seq
                replays += copies - 1
            # a kill replays at most the one batch between its sink write and
            # its checkpoint, so two kills in a row may give it three copies
            assert replays <= kills
            assert cp.read_bytes() == ref_cp.read_bytes()
            assert not Path(f"{cp}.tmp").exists()

        rng = random.Random(16)
        sink, cp = tmp_path / "alerts.jsonl", tmp_path / "cp"
        kills = mid_run = episode_kills = 0
        for attempt in range(60):
            if kills >= 20 and mid_run >= kills / 3:
                break
            size = sink.stat().st_size if sink.exists() else 0
            child = start(sink, cp)
            # the draw is stratified: one attempt in three kills during
            # start-up, the others mid-run, timed from this child's own
            # first sink write, so the share of kills that land mid-run
            # depends on neither the host's speed nor the share of the
            # child's wall time that start-up takes
            if attempt % 3 == 0:
                delay = rng.uniform(0, startup)
            else:
                delay = rng.uniform(0, wall - startup)
                first_write(child, sink, size)
            try:
                child.wait(timeout=delay)
            except subprocess.TimeoutExpired:
                child.kill()
            if finish(child):               # it ended unkilled: start afresh
                check(sink, cp, episode_kills)
                sink.unlink()
                cp.unlink()
                episode_kills = 0
                continue
            kills += 1
            episode_kills += 1
            # mid-run: killed after it wrote to the sink, not while starting
            mid_run += sink.exists() and sink.stat().st_size > size
        assert finish(start(sink, cp))
        check(sink, cp, episode_kills)
        assert kills >= 20
        assert mid_run >= kills / 3, (mid_run, kills)


def _hashable(event):
    out = dict(event)
    out["offsets"] = tuple(out["offsets"])
    return out


class TestFactEncoding:
    def test_record_fact_shape(self):
        (rec,) = records_of(TRIGGER_ROW)
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
        (rec,) = records_of(HIGH_DC_ROW)
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

    @pytest.mark.parametrize("event", [
        (0, "FFMC_IGNITION", "moderately easy", 85.1, (3, 17), None, 0),
        (12, "DC_MOPUP", "très-grim / 2", 1e300, (), None, -5),
        (7, "FWI", "extreme", math.inf, (1,), None, 1),
        (7, "FWI", "low", -math.inf, (1,), None, 1),
        (7, "BUI", "low", math.nan, (1,), None, 1),
        (7, "BUI", "low", 2, (1,), None, 1),
        (3, "RULE", 'a"b\\c\u2028', None, (40, 41), "r\x00", 1700000000123),
    ])
    def test_alert_line_is_json_dumps_with_sorted_keys(self, event):
        alert = stream.AlertEvent(*event)
        fields = dict(zip(("batch", "kind", "severity", "value", "offsets", "rule",
                           "ts_ms"), event))
        assert alert.to_json() == json.dumps(fields, sort_keys=True)

    def test_alert_is_a_tuple_with_named_fields(self):
        event = stream.AlertEvent(3, "RULE", "FireTrigger", None, (40, 41),
                                  "trigger_alert", 1700000000123)
        assert isinstance(event, tuple)
        assert (event.batch, event.kind, event.severity, event.value, event.offsets,
                event.rule, event.ts_ms) == tuple(event)
        assert pickle.loads(pickle.dumps(event)) == event
        assert repr(event) == (
            "AlertEvent(batch=3, kind='RULE', severity='FireTrigger', value=None, "
            "offsets=(40, 41), rule='trigger_alert', ts_ms=1700000000123)")

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


class TestBatchPathParity:
    """What the batch path must keep however it encodes records: offsets of
    RULE alerts, the errors of out-of-range codes, and the facts it
    saturates."""

    BUI_INF_ROW = "8,6,aug,mon,92.3,1e300,1e308,8.5,24.1,27,3.1,0.0,0.0"
    FWI_INF_ROW = "8,6,aug,mon,92.3,88.9,495.6,1e308,24.1,27,3.1,0.0,0.0"
    BOTH_INF_ROW = "8,6,aug,mon,92.3,1e300,1e308,1e308,24.1,27,3.1,0.0,0.0"

    def test_head_constant_rec_n_yields_offset_n(self, dataset_text, rules_alerts_text):
        rs = rules.parse_rules(rules_alerts_text + "rule near: when fireTrigger(?r) "
                               "then assert near(?r, rec_3)\n")
        batch = next(cut_batches(open_source_text(dataset_text), 20))
        # rec_3 need not be a record of the batch
        late = Batch(0, tuple((o + 100, r) for o, r in batch.records))
        for b, shift in ((batch, 0), (late, 100)):
            events = batch_evaluate(b, rules=rs)
            fired = sorted(e.offsets for e in events if e.rule == "fire_trigger")
            near = sorted(e.offsets for e in events if e.rule == "near")
            assert (10 + shift,) in fired
            assert near == [(o, 3) for o, in fired]

    @pytest.mark.parametrize("name, offsets", [
        ("rec_7", (7,)), ("rec_0", (0,)), ("rec_1_0", ()), ("rec_007", ()), ("rec_00", ()),
    ])
    def test_only_a_canonical_rec_n_gives_an_offset(self, rules_alerts_text, name, offsets):
        # record 10's individual is rec_10 and record 7's is rec_7
        rs = rules.parse_rules(rules_alerts_text + "rule tag: when fireTrigger(?r) "
                               f"then assert reviewed({name})\n")
        events = batch_evaluate(batch_of([TRIGGER_ROW], start_offset=100), rules=rs)
        assert [e.offsets for e in events if e.rule == "tag"] == [offsets]

    @staticmethod
    def _bands(*trigger):
        return fwi.ClassBands(fwi.DEFAULT_BANDS.bands, trigger)

    @pytest.mark.parametrize("row, trigger, error, message", [
        # every code of every record is checked, in alert order, whatever the
        # trigger, and the first one out of range names its record
        (BUI_INF_ROW, [("bui_class", "high")], stream.BatchEvaluationError,
         "batch 4, offset 1: bui_class value inf not finite and >= 0"),
        (FWI_INF_ROW, [("fwi_class", "low"), ("bui_class", "high")],
         stream.BatchEvaluationError,
         "batch 4, offset 1: fwi_class value inf not finite and >= 0"),
        (BOTH_INF_ROW, [("fwi_class", "low"), ("bui_class", "high")],
         stream.BatchEvaluationError,
         "batch 4, offset 1: bui_class value inf not finite and >= 0"),
        (BUI_INF_ROW, [("fwi_class", "low"), ("bui_class", "high")],
         stream.BatchEvaluationError,
         "batch 4, offset 1: bui_class value inf not finite and >= 0"),
        (BUI_INF_ROW, [("dc_class", "easy")], stream.BatchEvaluationError,
         "batch 4, offset 1: bui_class value inf not finite and >= 0"),
        (FWI_INF_ROW, [], stream.BatchEvaluationError,
         "batch 4, offset 1: fwi_class value inf not finite and >= 0"),
    ], ids=["bui-in-trigger", "fwi-first-in-trigger", "both-fwi-first-in-trigger",
            "bui-skipped-by-trigger", "bui-not-in-trigger", "fwi-no-trigger"])
    def test_out_of_range_codes_raise_as_before(self, row, trigger, error, message,
                                                alert_rules):
        batch = batch_of([CALM_ROW, row, TRIGGER_ROW], seq=4)
        with pytest.raises(error) as caught:
            batch_evaluate(batch, self._bands(*trigger), alert_rules)
        assert type(caught.value) is error
        assert str(caught.value) == message
        if error is stream.BatchEvaluationError:
            assert caught.value.offset == 1

    def test_out_of_range_labelled_code_names_its_record(self, alert_rules):
        (calm, trigger) = records_of(CALM_ROW, TRIGGER_ROW)
        bad = trigger._replace(ffmc=math.nan)
        batch = Batch(2, ((40, calm), (41, bad)))
        with pytest.raises(stream.BatchEvaluationError) as caught:
            batch_evaluate(batch, rules=alert_rules)
        assert (caught.value.batch_seq, caught.value.offset) == (2, 41)
        assert str(caught.value) == (
            "batch 2, offset 41: ignition_potential value nan not finite and >= 0")

    def test_rule_type_clash_names_the_batch_and_its_first_record(self, dataset_text):
        rows = dataset_text.split("\n")[1:4]
        batch = batch_of(rows, seq=4, start_offset=40)
        clash = rules.parse_rules(
            "rule clash: when hasDc(?r, ?dc), lessThan(?r, 5) then assert X(?r)")
        with pytest.raises(stream.BatchEvaluationError) as caught:
            batch_evaluate(batch, rules=clash)
        assert str(caught.value) == (
            "batch 4, offset 40: rule clash: lessThan applied to individual rec_40 "
            "(bindings {?dc=573.5, ?r=rec_40})")

    def test_bui_past_its_equation_names_its_record(self, alert_rules):
        row = "8,6,aug,mon,92.3,1e308,1e308,8.5,24.1,27,3.1,0.0,0.0"
        with pytest.raises(stream.BatchEvaluationError) as caught:
            batch_evaluate(batch_of([CALM_ROW, row], seq=3), rules=alert_rules)
        assert str(caught.value) == (
            "batch 3, offset 1: dmc 1e+308 too large for the BUI equation")

    def test_overflowing_mean_names_the_first_record(self, alert_rules):
        # each DC is in range, and so is their max; their sum is not finite
        row = "8,6,aug,mon,92.3,1.0,1e308,8.5,24.1,27,3.1,0.0,0.0"
        batch = batch_of([row, row], seq=5, start_offset=7)
        assert batch_evaluate(batch, rules=alert_rules, aggregate="max")[2].value == 1e308
        with pytest.raises(stream.BatchEvaluationError) as caught:
            batch_evaluate(batch, rules=alert_rules, aggregate="mean")
        assert (caught.value.batch_seq, caught.value.offset) == (5, 7)
        assert str(caught.value) == (
            "batch 5, offset 7: dc_class value inf not finite and >= 0")

    @staticmethod
    def _reference(batch, bands, rs, aggregate, saturate=None):
        """The batch path as it was before one-pass records: fwi.classify and
        record_facts per record, offsets parsed back from rec_<n>; each code
        of each record, and each aggregate, classified first. The facts of
        the whole batch are saturated by rules.evaluate, or by `saturate`,
        which returns (facts, {derived fact: Derivation}) as
        oracles.naive_saturate does."""
        per_record = []
        for offset, record in batch.records:
            try:
                codes = fwi.compute_codes(record)
                for _, quantity, _, _ in stream._ALERT_QUANTITIES:
                    bands.classify_value(quantity, getattr(codes, fwi.QUANTITIES[quantity]))
                per_record.append((offset, codes, fwi.classify(codes, bands)))
            except fwi.OutOfRange as exc:
                raise stream.BatchEvaluationError(batch.seq, offset, exc) from None
        events = []
        for kind, quantity, _, _ in stream._ALERT_QUANTITIES:
            values = [(getattr(c, fwi.QUANTITIES[quantity]), o) for o, c, _ in per_record]
            if aggregate == "max":
                agg = max(v for v, _ in values)
                offsets = tuple(o for v, o in values if v == agg)
            else:
                agg = sum(v for v, _ in values) / len(values)
                offsets = tuple(o for _, o in values)
            try:
                severity = bands.classify_value(quantity, agg)
            except fwi.OutOfRange as exc:
                raise stream.BatchEvaluationError(batch.seq, offsets[0], exc) from None
            events.append((kind, severity, agg, offsets, None))
        facts = [f for o, c, cls in per_record for f in stream.record_facts(o, c, cls)]
        if saturate is None:
            out = rules.evaluate(rs, rules.FactBase(facts))
            made = {fact: out.derivations[fact].rule for fact in out.derived()}
        else:
            made = {fact: d.rule for fact, d in saturate(rs, facts)[1].items()}
        for fact in sorted(made, key=rules.format_atom):
            offsets = tuple(int(a.name[4:]) for a in fact.args
                            if isinstance(a, rules.Individual) and a.name.startswith("rec_"))
            events.append(("RULE", fact.predicate, None, offsets, made[fact]))
        return events

    def test_random_batches_match_the_reference(self, dataset_text, rules_alerts_text):
        rs = rules.parse_rules(rules_alerts_text + "rule near: when mopUpNeeded(?r) "
                               "then assert near(?r, rec_3)\n")
        rows = dataset_text.splitlines()[1:]
        extreme = [self.BUI_INF_ROW, self.FWI_INF_ROW, self.BOTH_INF_ROW]
        choices = [(q, label) for q in fwi.QUANTITIES for label in
                   fwi.DEFAULT_BANDS.labels(q)]
        rng = random.Random(12)
        outcomes = Counter()
        for case in range(150):
            bands = self._bands(*rng.sample(choices, rng.randint(0, 3)))
            batch = batch_of([rng.choice(extreme if rng.random() < 0.05 else rows)
                              for _ in range(rng.randint(1, 8))],
                             seq=case, start_offset=rng.randint(0, 30))
            aggregate = rng.choice(["max", "mean"])
            try:
                expected = self._reference(batch, bands, rs, aggregate)
            except stream.BatchEvaluationError as exc:
                with pytest.raises(type(exc)) as caught:
                    batch_evaluate(batch, bands, rs, aggregate)
                assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
                outcomes[type(exc).__name__] += 1
                continue
            got = batch_evaluate(batch, bands, rs, aggregate)
            assert [(e.kind, e.severity, e.value, e.offsets, e.rule) for e in got] == expected
            assert {e.batch for e in got} == {case}
            outcomes["alerts"] += 1
        assert set(outcomes) == {"alerts", "BatchEvaluationError"}

    # dc_class has a label that no rule names, and spread_rate none that one does
    _NAMING_BANDS = fwi.ClassBands(dict(
        fwi.DEFAULT_BANDS.bands,
        dc_class=[(100, "calm"), (300, "a-b"), (math.inf, "très-grim / 2")],
        spread_rate=[(4, "a b"), (math.inf, "a+b")]), [("dc_class", "a-b")])

    @staticmethod
    def _handed(monkeypatch, batch, bands, rs):
        """The facts of each rules.evaluate call that batch_evaluate makes."""
        handed = []
        evaluate = rules.evaluate

        def recording(rs, facts):
            handed.append(list(facts.facts))
            return evaluate(rs, facts)

        monkeypatch.setattr(rules, "evaluate", recording)
        batch_evaluate(batch, bands, rs)
        return handed

    @staticmethod
    def _named_facts(batch, bands, rs):
        """Per record, its record_facts whose predicate a rule body or head names."""
        named = {atom.predicate for rule in rs for atom in rule.positive_atoms() + rule.head}
        out = []
        for offset, record in batch.records:
            codes = fwi.compute_codes(record)
            out.append([f for f in stream.record_facts(offset, codes, fwi.classify(codes, bands))
                        if f.predicate in named])
        return out

    def test_saturated_facts_are_the_named_record_facts(self, monkeypatch, rules_alerts_text):
        # a rule set that is not record local hands the rules the record
        # facts whose predicate a rule body or head names, in record_facts
        # order, and no others, in one call per batch
        rs = rules.parse_rules(rules_alerts_text + "rule pair: when fireTrigger(?r), "
                               "mopUpNeeded(?s) then assert pair(?r)\n")
        assert stream._encoding(self._NAMING_BANDS, rs).tests is None
        batch = batch_of([CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW, CALM_ROW], start_offset=9)
        handed = self._handed(monkeypatch, batch, self._NAMING_BANDS, rs)
        expected = [f for facts in self._named_facts(batch, self._NAMING_BANDS, rs) for f in facts]
        assert handed == [expected]
        # these bands have no DcClass_difficult_and_extensive or SpreadRate_fast
        assert {f.predicate for f in expected} == {
            "DmcClass_difficult_and_extensive", "IgnitionPotential_extremely_easy", "hasDc"}

    def test_record_local_rules_saturate_each_signature_once(self, monkeypatch, alert_rules):
        # each call is handed one record's named facts, in record_facts
        # order: those of the first record of each distinct signature, which
        # here is its named labels and whether its DC is at least 600
        assert stream._encoding(self._NAMING_BANDS, alert_rules).tests is not None
        rows = [CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW, CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW]
        batch = batch_of(rows, start_offset=9)
        handed = self._handed(monkeypatch, batch, self._NAMING_BANDS, alert_rules)
        firsts = {}
        for facts in self._named_facts(batch, self._NAMING_BANDS, alert_rules):
            signature = (frozenset(f.predicate for f in facts if len(f.args) == 1),
                         tuple(f.args[1].value >= 600 for f in facts if f.predicate == "hasDc"))
            firsts.setdefault(signature, facts)
        assert handed == list(firsts.values())
        assert [{f.args[0] for f in facts} for facts in handed] == [
            {rules.Individual(f"rec_{o}")} for o in (9, 10, 11)]
        # the records after the first of each signature take their alerts
        # from the memo, as saturating the whole batch gives them
        got = [(e.kind, e.severity, e.value, e.offsets, e.rule)
               for e in batch_evaluate(batch, self._NAMING_BANDS, alert_rules) if e.kind == "RULE"]
        assert got == [e for e in self._reference(batch, self._NAMING_BANDS, alert_rules, "max")
                       if e[0] == "RULE"]
        assert {e[3] for e in got} == {(11,), (14,)}     # record 14 from the memo

    def test_head_that_asserts_an_input_label_alerts_only_where_it_is_new(self):
        # no body reads DmcClass_*: the records that carry the label already
        # must not see it derived
        label = "DmcClass_" + fwi.DEFAULT_BANDS.labels("dmc_class")[-1].replace(" ", "_")
        rs = rules.parse_rules(f"rule echo: when hasDc(?r, ?dc) then assert {label}(?r)\n")
        batch = batch_of([CALM_ROW, TRIGGER_ROW, HIGH_DC_ROW, CALM_ROW], start_offset=9)
        events = [e for e in batch_evaluate(batch, rules=rs) if e.kind == "RULE"]
        carrying = {o for o, record in batch.records
                    if label in {f.predicate for f in stream.record_facts(
                        o, fwi.compute_codes(record),
                        fwi.classify(fwi.compute_codes(record)))}}
        assert carrying and len(carrying) < len(batch)
        # RULE alerts come in the order of the facts' text: rec_12 before rec_9
        assert [(e.severity, e.offsets, e.rule) for e in events] == [
            (label, (o,), "echo") for o, _ in sorted(batch.records, key=lambda r: f"rec_{r[0]}")
            if o not in carrying]

    # the predicates that records carry, one no record has, and two that
    # only heads make; every binary predicate holds (individual, number)
    _UNARY = tuple(stream._label_predicate(prefix, label)
                   for _, quantity, _, prefix in stream._ALERT_QUANTITIES if prefix
                   for label in fwi.DEFAULT_BANDS.labels(quantity)) + ("Ghost", "Flag")
    _BINARY = tuple(predicate for _, _, predicate, _ in stream._ALERT_QUANTITIES) + (
        "hasGhost", "rel")

    @classmethod
    def _random_program(cls, rng):
        """Rule text of 1-4 random safe rules: bodies of 1-3 atoms and at
        most one comparison of a bound number, heads of 1-2 atoms over the
        body's variables, often of a predicate that records carry."""
        lines = []
        for n in range(rng.randint(1, 4)):
            body, individuals, numbers = [], [], []
            for _ in range(rng.randint(1, 3)):
                subject = rng.choice(["?r", "?r", "?s", "rec_1"])
                if subject.startswith("?"):
                    individuals.append(subject)
                if rng.random() < 0.5:
                    body.append(f"{rng.choice(cls._UNARY)}({subject})")
                else:
                    number = rng.choice(["?v", "?w"])
                    numbers.append(number)
                    body.append(f"{rng.choice(cls._BINARY)}({subject}, {number})")
            if numbers and rng.random() < 0.5:
                op = rng.choice(rules.BUILTIN_OPS)
                body.append(f"{op}({rng.choice(numbers)}, {rng.choice([0, 5, 60, 90, 600])})")
            heads = []
            for _ in range(rng.randint(1, 2)):
                subject = rng.choice(individuals or ["rec_3"] + ["rec_2"])
                if numbers and rng.random() < 0.5:
                    heads.append(f"{rng.choice(cls._BINARY)}({subject}, {rng.choice(numbers)})")
                else:
                    heads.append(f"{rng.choice(cls._UNARY)}({subject})")
            lines.append(f"rule r{n}: when {', '.join(body)} then assert {', '.join(heads)}")
        return "\n".join(lines) + "\n"

    def test_random_programs_derive_as_over_all_record_facts(self, dataset_text):
        rows = dataset_text.splitlines()[1:]
        rng = random.Random(28)
        derived = Counter()
        for case in range(240):
            rs = rules.parse_rules(self._random_program(rng))
            batch = batch_of([rng.choice(rows) for _ in range(rng.randint(1, 6))],
                             seq=case, start_offset=rng.randint(0, 4))
            expected = [e for e in self._reference(batch, fwi.DEFAULT_BANDS, rs, "max")
                        if e[0] == "RULE"]
            got = [(e.kind, e.severity, e.value, e.offsets, e.rule)
                   for e in batch_evaluate(batch, rules=rs) if e.kind == "RULE"]
            assert got == expected, rs
            derived["some" if got else "none"] += 1
            derived["input head"] += any(a.predicate in self._UNARY[:-2] + self._BINARY[:-2]
                                         for rule in rs for a in rule.head)
        assert derived["some"] >= 80 and derived["none"] >= 20 and derived["input head"] >= 100


_CODE_PREDICATES = tuple(predicate for _, _, predicate, _ in stream._ALERT_QUANTITIES)


def _code_values(rows):
    """Per quantity in alert order, the code values of `rows`."""
    columns = [[] for _ in _CODE_PREDICATES]
    for record in records_of(*rows):
        codes = fwi.compute_codes(record)
        for column, (_, quantity, _, _) in zip(columns, stream._ALERT_QUANTITIES):
            column.append(float(getattr(codes, fwi.QUANTITIES[quantity])))
    return columns


class TestRecordLocalDifferential:
    """batch_evaluate against the whole batch's record_facts saturated by
    oracles.naive_saturate, for random record-local programs (one
    saturation per record signature) and programs that join two records
    (one saturation per batch), under random bands."""

    EXTREME = [TestBatchPathParity.BUI_INF_ROW, TestBatchPathParity.FWI_INF_ROW,
               "8,6,aug,mon,92.3,1.0,1e308,8.5,24.1,27,3.1,0.0,0.0"]   # a mean past the range
    _VOCABULARY = ("low", "a-b", "a b", "high", "très grim", "x")

    @classmethod
    def _random_bands(cls, rng, columns):
        """Bands of 1-4 labels per quantity, bounds drawn from `columns` and
        labels from a vocabulary in which "a-b" and "a b" are one predicate."""
        bands = {}
        for (_, quantity, _, _), column in zip(stream._ALERT_QUANTITIES, columns):
            values = sorted({v for v in column if v > 0})
            uppers = sorted(rng.sample(values, rng.randint(0, min(3, len(values)))))
            bands[quantity] = [(u, rng.choice(cls._VOCABULARY)) for u in uppers + [math.inf]]
        return fwi.ClassBands(bands, [])

    @staticmethod
    def _local_rules(rng, labels, derived, columns):
        """1-5 record-local rules: bodies of 1-3 label, derived or code
        atoms, code values compared 0-2 times with a value that a record of
        the batch has, in either order; heads of 1-2 derived or input labels."""
        out = []
        for n in range(rng.randint(1, 5)):
            record = rules.Variable(rng.choice("rx"))
            body = []
            for i in range(rng.randint(1, 3)):
                if rng.random() < 0.55:
                    body.append(rules.Atom(rng.choice(labels + derived), (record,)))
                    continue
                k = rng.randrange(len(_CODE_PREDICATES))
                value = rules.Variable(f"v{i}")
                body.append(rules.Atom(_CODE_PREDICATES[k], (record, value)))
                for _ in range(rng.choice([0, 1, 1, 2])):
                    constant = rules.Num(rng.choice(columns[k]))
                    body.append(rules.Builtin(rng.choice(rules.BUILTIN_OPS), (
                        (value, constant) if rng.random() < 0.5 else (constant, value))))
            heads = tuple(rules.Atom(rng.choice(derived if rng.random() < 0.7 else labels),
                                     (record,)) for _ in range(rng.randint(1, 2)))
            out.append(rules.RuleDef(f"r{n}", tuple(body), heads))
        return out

    @staticmethod
    def _joining_rule(rng, labels, derived):
        """A rule that joins two records: two record variables, one code
        value shared by two records, or two code values compared."""
        r, s = rules.Variable("r"), rules.Variable("s")
        a, b = rules.Variable("a"), rules.Variable("b")
        first, second = rng.sample(_CODE_PREDICATES, 2)
        body = rng.choice([
            (rules.Atom(rng.choice(labels + derived), (r,)),
             rules.Atom(rng.choice(labels + derived), (s,))),
            (rules.Atom(first, (r, a)), rules.Atom(first, (s, a))),
            (rules.Atom(first, (r, a)), rules.Atom(second, (s, b)),
             rules.Builtin(rng.choice(rules.BUILTIN_OPS), (a, b))),
        ])
        return rules.RuleDef("join", body, (rules.Atom(rng.choice(derived), (rng.choice([r, s]),)),))

    def _check_random_cases(self, dataset_text, seed, cases, start_offset):
        """Run `cases` seeded cases, each batch starting at
        start_offset(rng, its length); returns what the cases covered."""
        rows = dataset_text.splitlines()[1:]
        everything = _code_values(rows)
        rng = random.Random(seed)
        seen = Counter()
        for case in range(cases):
            bands = self._random_bands(rng, everything)
            labels = [stream._label_predicate(prefix, label)
                      for _, quantity, _, prefix in stream._ALERT_QUANTITIES if prefix
                      for label in bands.labels(quantity)]
            derived = [f"D{i}" for i in range(4)]
            picked = [rng.choice(rows) for _ in range(rng.randint(1, 30))]
            program = self._local_rules(rng, labels, derived, _code_values(picked))
            local = rng.random() < 0.75
            if not local:
                program.insert(rng.randint(0, len(program)), self._joining_rule(rng, labels, derived))
            rs = rules.RuleSet(program)
            assert (stream._encoding(bands, rs).tests is not None) == local, program
            if rng.random() < 0.1:
                picked[rng.randrange(len(picked))] = rng.choice(self.EXTREME)
            batch = batch_of(picked, seq=case, start_offset=start_offset(rng, len(picked)))
            aggregate = rng.choice(["max", "mean"])
            try:
                expected = TestBatchPathParity._reference(batch, bands, rs, aggregate,
                                                          naive_saturate)
            except stream.BatchEvaluationError as exc:
                with pytest.raises(stream.BatchEvaluationError) as caught:
                    batch_evaluate(batch, bands, rs, aggregate)
                assert str(caught.value) == str(exc)
                seen["error"] += 1
                continue
            got = batch_evaluate(batch, bands, rs, aggregate)
            assert [(e.kind, e.severity, e.value, e.offsets, e.rule) for e in got] == expected, \
                program
            rule_alerts = sum(e.kind == "RULE" for e in got)
            seen["local" if local else "joining"] += 1
            seen[f"{'local' if local else 'joining'} alerts"] += rule_alerts > 0
            seen["input head alerts"] += any(e.kind == "RULE" and e.severity in labels
                                             for e in got)
            seen["records"] += len(batch)
            rule_offsets = [(e.severity, e.offsets) for e in got if e.kind == "RULE"]
            seen["text order is not number order"] += rule_offsets != sorted(rule_offsets)
        return seen

    def test_random_programs_match_naive_saturation_of_the_batch(self, dataset_text):
        seen = self._check_random_cases(dataset_text, 31, 320,
                                        lambda rng, n: rng.randint(0, 50))
        assert seen["local alerts"] >= 120 and seen["joining alerts"] >= 30, seen
        assert seen["input head alerts"] >= 60 and seen["error"] >= 8, seen

    def test_batches_whose_offsets_gain_a_digit(self, dataset_text):
        # each batch holds 9 and 10, 99 and 100 or 999 and 1000 (one record:
        # the offset before), where the offsets' text order (rec_10 before
        # rec_9) is not their number order
        def start_offset(rng, n):
            return rng.choice((10, 100, 1000)) - rng.randint(1, max(1, n - 1))

        seen = self._check_random_cases(dataset_text, 32, 160, start_offset)
        assert seen["local alerts"] >= 60 and seen["joining alerts"] >= 15, seen
        assert seen["text order is not number order"] >= 60 and seen["error"] >= 4, seen
    

class TestRecordLocality:
    """Which rule sets batch_evaluate saturates once per record signature
    (record local) and which over the whole batch."""

    LOCAL = [
        "rule a: when DcClass_difficult_and_extensive(?r) then assert a(?r)",
        "rule a: when hasDc(?r, ?dc), greaterThanOrEqual(?dc, 600) then assert a(?r)\n"
        "rule b: when a(?x), hasDmc(?x, ?v), lessThan(40, ?v), notEqual(?v, 50.5) "
        "then assert b(?x), DmcClass_easy(?x)",
        "rule a: when hasFwi(?r, ?v), hasIsi(?r, ?w) then assert a(?r)",
        "rule a: when Ghost(?r) then assert a(?r)",
        "rule a: when hasDc(?r) then assert hasDc(?r)",    # unary, so not a code atom
    ]
    NON_LOCAL = {
        "shared code variable": "hasDc(?r, ?v), hasDmc(?r, ?v) then assert a(?r)",
        "code variable in a label atom": "hasDc(?r, ?v), Ghost(?v) then assert a(?r)",
        "record variable as a code": "hasDc(?r, ?r) then assert a(?r)",
        "two record variables": "Ghost(?r), Ghost(?s) then assert a(?r)",
        "code atom of another variable": "Ghost(?r), hasDc(?s, ?v) then assert a(?r)",
        "code atom of a constant individual": "Ghost(?r), hasDc(rec_1, ?v) then assert a(?r)",
        "constant individual in the body": "Ghost(?r), Ghost(rec_1) then assert a(?r)",
        "constant individual first": "hasDc(rec_1, ?v) then assert a(rec_1)",
        "constant individual in the head": "Ghost(?r) then assert a(rec_3)",
        "binary head": "hasDc(?r, ?v) then assert near(?r, ?v)",
        "builtin between two code variables":
            "hasDc(?r, ?a), hasDmc(?r, ?b), greaterThan(?a, ?b) then assert a(?r)",
        "builtin between two numbers": "hasDc(?r, ?v), greaterThan(2, 1) then assert a(?r)",
        "Str builtin argument": 'hasDc(?r, ?v), equal(?v, "600") then assert a(?r)',
        "Bool builtin argument": "hasDc(?r, ?v), equal(true, ?v) then assert a(?r)",
        "individual builtin argument": "hasDc(?r, ?v), notEqual(?v, rec_1) then assert a(?r)",
        "record variable in a builtin": "hasDc(?r, ?v), lessThan(?r, 5) then assert a(?r)",
        "constant in a code position": "hasDc(?r, 600) then assert a(?r)",
        "binary atom of no code": "rel(?r, ?v) then assert a(?r)",
    }

    @staticmethod
    def _calls(monkeypatch, batch, rs, bands=fwi.DEFAULT_BANDS):
        calls = []
        evaluate = rules.evaluate

        def counting(rs, facts):
            calls.append(len(facts))
            return evaluate(rs, facts)

        monkeypatch.setattr(rules, "evaluate", counting)
        try:
            batch_evaluate(batch, bands, rs)
        except stream.BatchEvaluationError:     # a clashing builtin fails in its one call
            pass
        return calls

    @pytest.mark.parametrize("text", LOCAL)
    def test_record_local_sets_saturate_once_per_signature(self, monkeypatch, text):
        rs = rules.parse_rules(text)
        assert stream._encoding(fwi.DEFAULT_BANDS, rs).tests is not None
        batch = batch_of([CALM_ROW, TRIGGER_ROW, CALM_ROW, HIGH_DC_ROW, TRIGGER_ROW])
        assert 1 <= len(self._calls(monkeypatch, batch, rs)) <= 3

    def test_the_memo_lasts_as_long_as_the_bands_and_rules(self, monkeypatch,
                                                           rules_alerts_text):
        # a later call with the same pair saturates only the signatures that
        # no call has met (here HIGH_DC_ROW's); other bands or rules start afresh
        rs = rules.parse_rules(rules_alerts_text)
        first = batch_of([CALM_ROW, TRIGGER_ROW, CALM_ROW])
        second = batch_of([TRIGGER_ROW, HIGH_DC_ROW, CALM_ROW, HIGH_DC_ROW], seq=1,
                          start_offset=3)
        assert len(self._calls(monkeypatch, first, rs)) == 2
        assert len(self._calls(monkeypatch, second, rs)) == 1
        assert self._calls(monkeypatch, second, rs) == []
        fresh = rules.parse_rules(rules_alerts_text)
        assert len(self._calls(monkeypatch, second, fresh)) == 3
        bands = fwi.ClassBands(fwi.DEFAULT_BANDS.bands, fwi.DEFAULT_BANDS.trigger)
        assert len(self._calls(monkeypatch, second, rs, bands)) == 3
        monkeypatch.undo()
        assert [e[:6] for e in batch_evaluate(second, rules=rs)] == [
            e[:6] for e in batch_evaluate(second, rules=fresh)]
        # the pair's entry goes when its rules are collected
        gc.collect()
        held, rules_ref = len(stream._ENCODINGS), weakref.ref(rs)
        del rs
        gc.collect()
        assert rules_ref() is None and len(stream._ENCODINGS) == held - 1

    @pytest.mark.parametrize("body", NON_LOCAL.values(), ids=NON_LOCAL.keys())
    def test_other_sets_saturate_the_whole_batch(self, monkeypatch, body):
        rs = rules.parse_rules("rule mop_up: when DcClass_difficult_and_extensive(?r) "
                               f"then assert mopUp(?r)\nrule odd: when {body}")
        assert stream._encoding(fwi.DEFAULT_BANDS, rs).tests is None
        batch = batch_of([CALM_ROW, TRIGGER_ROW, CALM_ROW, HIGH_DC_ROW, TRIGGER_ROW])
        assert len(self._calls(monkeypatch, batch, rs)) == 1

    def test_a_rule_without_body_atoms_is_not_record_local(self):
        rule = rules.RuleDef("bare", (rules.Builtin("lessThan", (rules.Num(1), rules.Num(2))),),
                             (rules.Atom("a", (rules.Individual("rec_0"),)),))
        rs = rules.RuleSet([rule])
        assert stream._encoding(fwi.DEFAULT_BANDS, rs).tests is None
        events = batch_evaluate(batch_of([CALM_ROW]), rules=rs)
        assert [(e.severity, e.offsets, e.rule) for e in events if e.kind == "RULE"] == [
            ("a", (0,), "bare")]

    @pytest.mark.parametrize("builtin, cause", [
        ('greaterThan(?dc, "x")', 'greaterThan requires numbers, got 573.5 / "x"'),
        ("equal(true, ?dc)", "equal on mismatched kinds true / 573.5"),
    ])
    def test_a_clash_is_raised_as_before(self, dataset_text, builtin, cause):
        rows = dataset_text.split("\n")[1:4]
        clash = rules.parse_rules(f"rule clash: when hasDc(?r, ?dc), {builtin} then assert X(?r)")
        with pytest.raises(stream.BatchEvaluationError) as caught:
            batch_evaluate(batch_of(rows, seq=4, start_offset=40), rules=clash)
        assert str(caught.value) == (
            f"batch 4, offset 40: rule clash: {cause} (bindings {{?dc=573.5, ?r=rec_40}})")


class TestCheckpointBody:
    @pytest.mark.parametrize("source_id", [
        'file:a "quoted" name.csv', "file:C:\\data\\x.csv", "file:\x00\x07\x1f\n\r\t\x7f.csv",
        "file:données/日本/\U0001f525.csv", "file:\udcff.csv", "socket:[::1]:9999", "stdin:"])
    def test_body_is_json_dumps_with_sorted_keys(self, tmp_path, source_id):
        path = tmp_path / "stream.ckpt"
        for seq in (3, 4):      # a new file, then one written in place
            cp = Checkpoint(source_id, seq, 20 * seq + 20, hashlib.sha256(b"x").hexdigest())
            checkpoint_save(path, cp)
            body, digest, end = path.read_text(encoding="utf-8").split("\n")
            assert body == json.dumps(cp._asdict(), sort_keys=True)
            assert digest == hashlib.sha256(body.encode("utf-8")).hexdigest() and end == ""
            assert checkpoint_load(path) == cp
