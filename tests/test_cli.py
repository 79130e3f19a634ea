import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import firedss
from firedss import cli, data_path, rules, stream


HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area"
ROW = "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_csv(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text(HEADER + "\n" + ROW + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def dataset_csv(tmp_path, dataset_text):
    p = tmp_path / "data.csv"
    p.write_text(dataset_text, encoding="utf-8")
    return str(p)


class TestConvert:
    def test_dataset_to_ntriples(self, capsys, tmp_path, dataset_csv):
        out = tmp_path / "out.nt"
        code, stdout, _ = run(capsys, "convert", dataset_csv, str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 6721

    def test_output_in_a_missing_directory_exits_1(self, capsys, tmp_path, small_csv):
        out = tmp_path / "no-such-dir" / "out.nt"
        code, stdout, err = run(capsys, "convert", small_csv, str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"firedss: error: cannot write {out}: ")

    def test_rdfxml_output(self, capsys, tmp_path, small_csv):
        out = tmp_path / "out.rdf"
        code, _, _ = run(capsys, "convert", small_csv, str(out), "--format", "rdfxml")
        assert code == 0
        assert out.read_text().startswith("<?xml")

    def test_missing_input_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "convert", str(tmp_path / "nope.csv"),
                           str(tmp_path / "o.nt"))
        assert code == 1
        assert "nope.csv" in err

    def test_non_utf8_input_is_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"X,Y\xff")
        code, _, err = run(capsys, "convert", str(bad), str(tmp_path / "o.nt"))
        assert code == 1
        assert err == (f"firedss: error: cannot read {bad}: line 1: 'utf-8' codec can't "
                       "decode byte 0xff in position 3: invalid start byte\n")

    @pytest.mark.parametrize("char", '<>"{}|^`\\')
    def test_namespace_outside_iriref_exits_1(self, capsys, tmp_path, small_csv, char):
        out = tmp_path / "o.nt"
        code, _, err = run(capsys, "convert", small_csv, str(out),
                           "--namespace", f"http://e/a{char}b#")
        assert code == 1 and "not an absolute IRI" in err
        assert not out.exists()

    def test_namespace_of_non_utf8_bytes_exits_1_without_traceback(self, tmp_path, small_csv):
        # argv bytes that are not UTF-8 arrive as lone surrogates ('\udcff')
        out = tmp_path / "o.nt"
        env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "firedss", "convert", small_csv, str(out),
             "--namespace", b"http://e/\xff#"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr and "not an absolute IRI" in done.stderr
        assert not out.exists()

    def test_unknown_format_is_usage_error(self, tmp_path, small_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["convert", small_csv, str(tmp_path / "o.x"), "--format", "bogus"])
        assert exc.value.code == 2

    def test_oversized_cell_exits_1_without_traceback(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text(HEADER + "\n" + ROW + "\n"
                       + ROW.replace(",aug,", ',"' + "a" * 200_000 + '",') + "\n",
                       encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "firedss", "convert", str(big), str(tmp_path / "o.nt")],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "line 3: field larger than field limit" in done.stderr


class TestPreprocess:
    def test_ops_applied_in_order(self, capsys, tmp_path, dataset_csv):
        out = tmp_path / "out.csv"
        prov = tmp_path / "prov.json"
        code, _, _ = run(capsys, "preprocess", dataset_csv, str(out),
                         "--op", "log1p_area", "--op", "zscore=FFMC,DMC",
                         "--op", "onehot=month,day",
                         "--provenance", str(prov))
        assert code == 0
        steps = [s["name"] for s in json.loads(prov.read_text())["steps"]]
        assert steps == ["parse", "log1p", "zscore", "one_hot"]
        header = out.read_text().splitlines()[0]
        assert "month=aug" in header and len(header.split(",")) == 30

    def test_resample_deterministic_with_seed(self, capsys, tmp_path, dataset_csv):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run(capsys, "preprocess", dataset_csv, str(out),
                             "--op", "resample=area:undersample", "--seed", "5")
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ordinal_maps_month_and_day_to_calendar_ordinals(self, capsys, tmp_path,
                                                             dataset_csv):
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "preprocess", dataset_csv, str(out), "--op", "ordinal")
        assert code == 0
        header, first, *rest = out.read_text().splitlines()
        assert header == HEADER
        assert first.split(",")[:4] == ["3", "7", "8", "3"]     # 3,7,aug,wed
        assert {int(line.split(",")[2]) for line in rest} <= set(range(1, 13))
        assert {int(line.split(",")[3]) for line in rest} <= set(range(1, 8))

    def test_iqr_filter_drops_the_rows_outside_the_fences(self, capsys, tmp_path,
                                                          dataset_csv):
        out, prov = tmp_path / "out.csv", tmp_path / "prov.json"
        code, stdout, _ = run(capsys, "preprocess", dataset_csv, str(out),
                              "--op", "filter=area:iqr:1.5", "--provenance", str(prov))
        assert (code, stdout) == (0, f"454 rows, 13 columns -> {out}\n")
        assert json.loads(prov.read_text())["steps"][-1] == {
            "column": "area", "method": "iqr", "name": "filter_outliers", "removed": 63}
        areas = sorted(float(line.rsplit(",", 1)[1])
                       for line in Path(dataset_csv).read_text().splitlines()[1:])
        q1, q3 = np.percentile(areas, [25.0, 75.0])
        low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        kept = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
        assert kept and all(low <= a <= high for a in kept)
        assert len(kept) == sum(low <= a <= high for a in areas)

    @pytest.mark.parametrize("op, usage", [
        ("filter=", "filter needs filter=<column>[:<method>[:<threshold>]]"),
        ("resample=", "resample needs resample=<column>[:<strategy>]"),
    ])
    def test_op_without_a_column_exits_1_with_its_usage(self, capsys, tmp_path,
                                                        dataset_csv, op, usage):
        out = tmp_path / "o.csv"
        code, _, err = run(capsys, "preprocess", dataset_csv, str(out), "--op", op)
        assert (code, err) == (1, f"firedss: error: {usage}\n")
        assert not out.exists()

    def test_unknown_op(self, capsys, tmp_path, dataset_csv):
        code, _, err = run(capsys, "preprocess", dataset_csv,
                           str(tmp_path / "o.csv"), "--op", "fourier")
        assert code == 1 and "fourier" in err


class TestStream:
    def test_full_run_with_flags(self, capsys, tmp_path, dataset_csv):
        sink = tmp_path / "alerts.jsonl"
        code, stdout, _ = run(capsys, "stream", "--dataset", dataset_csv,
                              "--sink", str(sink),
                              "--rules", str(data_path("fwi_alerts.rules")),
                              "--checkpoint", str(tmp_path / "cp"))
        assert code == 0
        stats = json.loads(stdout)
        assert stats["records_in"] == 517 and stats["batches_out"] == 26
        assert {json.loads(l)["batch"] for l in sink.read_text().splitlines()} == set(range(26))

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_rule_file_line_ends_keep_the_checkpoint_fingerprint(self, capsys, tmp_path,
                                                                 small_csv, end):
        lf_text = data_path("fwi_alerts.rules").read_text(encoding="utf-8")
        copy = tmp_path / "alerts.rules"
        copy.write_bytes(lf_text.replace("\n", end).encode("utf-8"))
        fingerprints = []
        for i, rules_path in enumerate((data_path("fwi_alerts.rules"), copy)):
            checkpoint = tmp_path / f"cp{i}"
            code, _, _ = run(capsys, "stream", "--dataset", small_csv, "--rules", str(rules_path),
                             "--sink", str(tmp_path / f"alerts{i}.jsonl"),
                             "--checkpoint", str(checkpoint))
            assert code == 0
            fingerprints.append(stream.checkpoint_load(checkpoint).fingerprint)
        assert fingerprints == [stream.config_fingerprint(lf_text)] * 2

    def test_config_file_supplies_defaults_flags_win(self, capsys, tmp_path,
                                                     dataset_csv):
        sink_cfg = tmp_path / "from_config.jsonl"
        sink_flag = tmp_path / "from_flag.jsonl"
        config = tmp_path / "firedss.conf"
        config.write_text(
            f"dataset = {dataset_csv}\n"
            f"sink = {sink_cfg}\n"
            "batch_size = 100\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "--config", str(config), "stream")
        assert code == 0
        assert json.loads(stdout)["batches_out"] == 6  # 5x100 + 17
        assert sink_cfg.exists()

        code, stdout, _ = run(capsys, "--config", str(config), "stream",
                              "--sink", str(sink_flag), "--batch-size", "20")
        assert code == 0
        assert json.loads(stdout)["batches_out"] == 26
        assert sink_flag.exists()

    def test_missing_sink_is_error(self, capsys, dataset_csv):
        code, _, err = run(capsys, "stream", "--dataset", dataset_csv)
        assert code == 1 and "sink" in err

    @pytest.mark.parametrize("rate", ["0", "-1", "nan", "abc"])
    def test_bad_rate_exits_1_without_a_sink(self, capsys, tmp_path, small_csv, rate):
        sink = tmp_path / "alerts.jsonl"
        code, _, err = run(capsys, "stream", "--dataset", f"file:{small_csv}?rate={rate}",
                           "--sink", str(sink))
        assert code == 1 and "rate must be a number > 0" in err
        assert not sink.exists()

    def test_rate_below_the_sleep_range_exits_1_without_a_sink(self, capsys, tmp_path,
                                                               small_csv):
        sink = tmp_path / "alerts.jsonl"
        code, stdout, err = run(capsys, "stream", "--dataset",
                                f"file:{small_csv}?rate=1e-300", "--sink", str(sink))
        assert (code, stdout) == (1, "")
        assert err == "firedss: error: rate must be at least 1.08e-10, got '1e-300'\n"
        assert not sink.exists()

    @pytest.mark.parametrize("config_text, flags, message", [
        ("", ["--batch-size", "0"], "batch size must be >= 1, got 0"),
        ("", ["--batch-size", "-3"], "batch size must be >= 1, got -3"),
        ("aggregate = median\n", [], "unknown aggregate: median"),
    ], ids=["batch-size-0", "batch-size-negative", "aggregate-median"])
    def test_bad_batch_setting_exits_1_without_a_sink(self, capsys, tmp_path, config_text,
                                                      flags, message):
        config = tmp_path / "c.conf"
        config.write_text(config_text, encoding="utf-8")
        sink = tmp_path / "alerts.jsonl"
        code, stdout, err = run(capsys, "--config", str(config), "stream", "--dataset",
                                str(data_path("forestfires_synthetic.csv")),
                                "--sink", str(sink), *flags)
        assert (code, stdout) == (1, "")
        assert err == f"firedss: error: {message}\n"
        assert not sink.exists()

    def test_bad_batch_size_leaves_a_torn_sink_as_it_was(self, capsys, tmp_path, small_csv):
        sink = tmp_path / "alerts.jsonl"
        torn = b'{"batch": 0, "kind": "DC_MOPUP"}\n{"batch": 1, "ki'
        sink.write_bytes(torn)
        code, _, err = run(capsys, "stream", "--dataset", small_csv, "--sink", str(sink),
                           "--batch-size", "0")
        assert code == 1 and err == "firedss: error: batch size must be >= 1, got 0\n"
        assert sink.read_bytes() == torn

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_exits_1_without_binding(self, capsys, tmp_path, port):
        sink = tmp_path / "alerts.jsonl"
        code, stdout, err = run(capsys, "stream", "--dataset", f"socket:127.0.0.1:{port}",
                                "--sink", str(sink))
        assert (code, stdout) == (1, "")
        assert err == (f"firedss: error: cannot bind socket:127.0.0.1:{port}: "
                       f"port must be 0-65535, got {port}\n")
        assert not sink.exists()

    def test_checkpoint_body_of_the_wrong_type_exits_1_without_traceback(
            self, tmp_path, small_csv):
        checkpoint = tmp_path / "cp"
        body = "[]"
        checkpoint.write_text(body + "\n" + hashlib.sha256(body.encode()).hexdigest() + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "firedss", "stream", "--dataset", small_csv,
             "--sink", str(tmp_path / "alerts.jsonl"), "--checkpoint", str(checkpoint)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "body is not a JSON object" in done.stderr

    def test_non_utf8_checkpoint_exits_1_naming_it_without_a_sink(self, capsys, tmp_path,
                                                                   dataset_csv):
        checkpoint, sink = tmp_path / "cp", tmp_path / "alerts.jsonl"
        checkpoint.write_bytes(b"\xff\xfe\n")
        code, stdout, err = run(capsys, "stream", "--dataset", dataset_csv,
                                "--sink", str(sink), "--checkpoint", str(checkpoint))
        assert (code, stdout) == (1, "")
        assert err == (f"firedss: error: {checkpoint}: 'utf-8' codec can't decode byte "
                       "0xff in position 0: invalid start byte\n")
        assert not sink.exists()

    def test_short_checkpoint_write_exits_1_with_one_error_line(self, capsys, tmp_path,
                                                               dataset_csv, monkeypatch):
        checkpoint = tmp_path / "cp"
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, at: pwrite(fd, data[:-1], at))
        code, stdout, err = run(capsys, "stream", "--dataset", dataset_csv,
                                "--sink", str(tmp_path / "alerts.jsonl"),
                                "--checkpoint", str(checkpoint))
        assert (code, stdout) == (1, "")
        assert err == f"firedss: error: short write to checkpoint {checkpoint}\n"

    def test_zero_byte_file_exits_1(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "stream", "--dataset", str(empty),
                           "--sink", str(tmp_path / "alerts.jsonl"))
        assert code == 1 and "missing column" in err

    @pytest.mark.parametrize("rows, flags, cause", [
        (["8,6,aug,mon,92.3,1e308,1e308,8.5,24.1,27,3.1,0.0,0.0"], [],
         "dmc 1e+308 too large for the BUI equation"),
        (["8,6,aug,mon,92.3,88.9,495.6,1e308,24.1,27,3.1,0.0,0.0"], [],
         "fwi_class value inf not finite and >= 0"),
        (["8,6,aug,mon,92.3,1.0,1e308,8.5,24.1,27,3.1,0.0,0.0"] * 2, ["--aggregate", "mean"],
         "dc_class value inf not finite and >= 0"),
        (["8,6,aug,mon,92.3,88.9,495.6,1e308,24.1,27,3.1,0.0,0.0",
          "8,6,aug,mon,92.3,1e308,1e308,8.5,24.1,27,3.1,0.0,0.0"], [],
         "fwi_class value inf not finite and >= 0"),
    ], ids=["bui-overflow", "isi-1e308", "mean-overflow", "band-before-a-later-code-error"])
    def test_codes_past_the_float_range_name_the_record(self, capsys, tmp_path, rows,
                                                        flags, cause):
        data = tmp_path / "extreme.csv"
        data.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "stream", "--dataset", str(data),
                           "--sink", str(tmp_path / "alerts.jsonl"), *flags)
        assert code == 1
        assert err == f"firedss: error: batch 0, offset 0: {cause}\n"

    @pytest.mark.parametrize("batch_size, lines", [("1", 12), ("5", 0), ("20", 0)])
    def test_a_bad_cell_is_reported_before_a_csv_error_after_it(self, capsys, tmp_path,
                                                                batch_size, lines):
        # line 4's cell, not line 6's oversized field, whatever the batch size;
        # with batch size 1 the two batches before it are written
        huge = ROW.replace(",aug,", ',"' + "a" * 200_000 + '",')
        data, sink = tmp_path / "order.csv", tmp_path / "alerts.jsonl"
        data.write_text("\n".join([HEADER, ROW, ROW, ROW.replace("92.3", "abc"), ROW, huge,
                                   ROW]) + "\n", encoding="utf-8")
        code, stdout, err = run(capsys, "stream", "--dataset", str(data), "--sink", str(sink),
                                "--batch-size", batch_size)
        assert (code, stdout) == (1, "")
        assert err == "firedss: error: line 4, column FFMC: cannot parse 'abc'\n"
        assert len(sink.read_text().splitlines()) == lines

    @pytest.mark.parametrize("bad, message", [
        (ROW.replace("aug", "a\xffg").encode("latin-1") + b"\n" + ROW.encode() + b"\n",
         "can't decode byte 0xff in position {}: invalid start byte"),
        (b"\xe2\x82", "can't decode bytes in position {}-{}: unexpected end of data"),
    ], ids=["bad-start-byte", "cut-sequence-at-the-end"])
    def test_non_utf8_dataset_exits_1_naming_the_file_and_the_line(self, capsys, tmp_path,
                                                                     bad, message):
        # the bad line lies past the decoder's first chunk; the position is
        # the byte's in the file
        data, sink = tmp_path / "bad.csv", tmp_path / "alerts.jsonl"
        good = ("\n".join([HEADER] + [ROW] * 200) + "\n").encode()
        data.write_bytes(good + bad)
        at = len(good) + bad.find(b"\xff") if b"\xff" in bad else len(good)
        code, stdout, err = run(capsys, "stream", "--dataset", str(data), "--sink", str(sink))
        assert (code, stdout) == (1, "")
        assert err == (f"firedss: error: cannot read {data}: line 202: 'utf-8' codec "
                       + message.format(at, at + 1) + "\n")

    @pytest.mark.parametrize("batch_size", ["20", "7"])
    def test_non_utf8_dataset_delivers_every_batch_before_the_bad_line(self, capsys, tmp_path,
                                                                       batch_size):
        # the decoder's 8 KB chunk that holds the bad byte on line 202 starts
        # on line 155; those lines' batches reach the sink as they do when
        # line 202 holds a bad cell
        good = "\n".join([HEADER] + [ROW] * 200) + "\n"
        bad_byte, bad_cell = tmp_path / "byte.csv", tmp_path / "cell.csv"
        bad_byte.write_bytes(good.encode() + ROW.replace("aug", "a\xffg").encode("latin-1")
                             + b"\n" + ROW.encode() + b"\n")
        bad_cell.write_text(good + ROW.replace("92.3", "abc") + "\n" + ROW + "\n")
        sinks = []
        for data, cause in [(bad_byte, f"cannot read {bad_byte}: line 202: 'utf-8' codec"),
                            (bad_cell, "line 202, column FFMC: cannot parse 'abc'")]:
            sink = tmp_path / f"{data.stem}.jsonl"
            code, stdout, err = run(capsys, "stream", "--dataset", str(data), "--sink",
                                    str(sink), "--batch-size", batch_size)
            assert (code, stdout) == (1, "")
            assert err.startswith(f"firedss: error: {cause}")
            sinks.append([{k: v for k, v in json.loads(line).items() if k != "ts_ms"}
                          for line in sink.read_text().splitlines()])
        assert len(sinks[0]) == 6 * (200 // int(batch_size))
        assert sinks[0] == sinks[1]

    @pytest.mark.parametrize("head, line", [(b"", 1), (b"\xef\xbb\xbf\n  \n\n", 4)],
                             ids=["first-line", "after-blank-lines"])
    def test_a_bad_byte_in_the_header_is_named(self, capsys, tmp_path, head, line):
        # the lines before it hold no header, so no record and no other error
        data, sink = tmp_path / "head.csv", tmp_path / "alerts.jsonl"
        data.write_bytes(head + HEADER.replace("month", "m\xffnth").encode("latin-1") + b"\n"
                         + ROW.encode() + b"\n")
        code, stdout, err = run(capsys, "stream", "--dataset", str(data), "--sink", str(sink))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"firedss: error: cannot read {data}: line {line}: 'utf-8' codec")
        assert sink.read_text() == ""

    @pytest.mark.parametrize("batch_size, lines", [("20", 54), ("1", 6 * 188)])
    def test_a_bad_cell_before_a_bad_byte_in_its_chunk_is_reported(self, capsys, tmp_path,
                                                                    batch_size, lines):
        # line 190 lies in the decoder's chunk that holds line 202's bad byte
        rows = [ROW] * 200
        rows[188] = ROW.replace("92.3", "abc")
        data, sink = tmp_path / "both.csv", tmp_path / "alerts.jsonl"
        data.write_bytes(("\n".join([HEADER] + rows) + "\n").encode()
                         + ROW.replace("aug", "a\xffg").encode("latin-1") + b"\n")
        code, stdout, err = run(capsys, "stream", "--dataset", str(data), "--sink", str(sink),
                                "--batch-size", batch_size)
        assert (code, stdout) == (1, "")
        assert err == "firedss: error: line 190, column FFMC: cannot parse 'abc'\n"
        assert len(sink.read_text().splitlines()) == lines

    def test_non_utf8_socket_input_names_the_source_and_delivers_the_batch_before(
            self, capsys, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        bad = ROW.replace("aug", "a\xffg").encode("latin-1")

        def feed():     # the stream binds the port after this thread starts
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
                client.sendall(ROW.encode() + b"\n" + bad + b"\n" + ROW.encode() + b"\n")

        data, expected = tmp_path / "one.csv", tmp_path / "one.jsonl"
        sink = tmp_path / "alerts.jsonl"
        data.write_text(f"{HEADER}\n{ROW}\n", encoding="utf-8")
        assert run(capsys, "stream", "--dataset", str(data), "--sink", str(expected))[0] == 0
        feeder = threading.Thread(target=feed)
        feeder.start()
        code, stdout, err = run(capsys, "stream", "--dataset", f"socket:127.0.0.1:{port}",
                                "--sink", str(sink), "--batch-size", "1")
        feeder.join(timeout=10)
        at = len(ROW) + 1 + bad.find(b"\xff")
        assert (code, stdout) == (1, "")
        assert err == (f"firedss: error: cannot read socket:127.0.0.1:{port}: line 2: 'utf-8' "
                       f"codec can't decode byte 0xff in position {at}: invalid start byte\n")
        assert [_strip_ts(line) for line in sink.read_text().splitlines()] == \
            [_strip_ts(line) for line in expected.read_text().splitlines()]

    def test_lone_cr_line_ends_are_refused_as_convert_refuses_them(self, capsys, tmp_path):
        # CSV takes LF and CRLF line ends only, so a lone CR is the CSV
        # reader's to refuse, whichever command reads the file
        data = tmp_path / "cr.csv"
        data.write_bytes(f"{HEADER}\r{ROW}\r".encode())
        message = ("firedss: error: line 1: new-line character seen in unquoted field - "
                   "do you need to open the file in universal-newline mode?\n")
        for argv in (["convert", str(data), str(tmp_path / "o.nt")],
                     ["preprocess", str(data), str(tmp_path / "o.csv")],
                     ["stream", "--dataset", str(data), "--sink", str(tmp_path / "a.jsonl")]):
            assert run(capsys, *argv) == (1, "", message), argv

def _strip_ts(line):
    """A sink line's fields but ts_ms."""
    return {k: v for k, v in json.loads(line).items() if k != "ts_ms"}


def _stream_stdin(tmp_path, text):
    """Run `firedss stream --dataset -` in a child process fed ``text``."""
    env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
    sink = tmp_path / "stdin.jsonl"
    done = subprocess.run(
        [sys.executable, "-m", "firedss", "stream", "--dataset", "-",
         "--sink", str(sink), "--batch-size", "2"],
        input=text, capture_output=True, text=True, env=env, timeout=60)
    events = ([json.loads(line) for line in sink.read_text().splitlines()]
              if sink.exists() else [])
    for e in events:
        e.pop("ts_ms")
    return done, events


class TestStreamStdin:
    REORDERED = "AREA,x,y,MONTH,day,ffmc,dmc,dc,isi,TEMP,rh,wind,rain"
    REORDERED_ROW = "0.0,8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0"
    CALM = "4,5,jan,tue,30.0,2.0,10.0,0.5,5.0,80,2.0,0.0,0.0"
    CALM_REORDERED = "0.0,4,5,jan,tue,30.0,2.0,10.0,0.5,5.0,80,2.0,0.0"

    @pytest.mark.parametrize("text", [
        f"{HEADER}\n{ROW}\n{CALM}\n{ROW}\n",
        f"{REORDERED}\n{REORDERED_ROW}\n{CALM_REORDERED}\n{REORDERED_ROW}\n",
        f"{ROW}\n{CALM}\n{ROW}\n",
    ], ids=["header", "reordered_upper_header", "no_header"])
    def test_same_alerts_as_the_file(self, capsys, tmp_path, text):
        path = tmp_path / "three.csv"
        path.write_text(f"{HEADER}\n{ROW}\n{self.CALM}\n{ROW}\n", encoding="utf-8")
        file_sink = tmp_path / "file.jsonl"
        assert run(capsys, "stream", "--dataset", str(path), "--sink", str(file_sink),
                   "--batch-size", "2")[0] == 0
        expected = [json.loads(line) for line in file_sink.read_text().splitlines()]
        for e in expected:
            e.pop("ts_ms")

        done, events = _stream_stdin(tmp_path, text)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["records_in"] == 3
        assert events == expected

    def test_empty_stdin_is_zero_records(self, tmp_path):
        done, events = _stream_stdin(tmp_path, "")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["records_in"] == 0
        assert events == []

    def test_non_utf8_stdin_names_stdin_and_the_line(self, tmp_path):
        # stdin is read as bytes, as a file is: the bad byte is named, not
        # read into a cell
        env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
        sink = tmp_path / "stdin.jsonl"
        good = f"{HEADER}\n{ROW}\n".encode()
        bad = ROW.replace("aug", "a\xffg").encode("latin-1") + b"\n"
        done = subprocess.run(
            [sys.executable, "-m", "firedss", "stream", "--dataset", "-",
             "--sink", str(sink), "--batch-size", "1"],
            input=good + bad, capture_output=True, env=env, timeout=60)
        at = len(good) + bad.find(b"\xff")
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.decode() == (
            f"firedss: error: cannot read stdin: line 3: 'utf-8' codec can't decode "
            f"byte 0xff in position {at}: invalid start byte\n")
        assert len(sink.read_text().splitlines()) == 6


class TestQuery:
    def test_tsv_output(self, capsys):
        code, stdout, _ = run(capsys, "query",
                              str(data_path("regions_fixture.nt")),
                              str(data_path("hot_dry_regions.rq")))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "region\ttemperature\thumidity"
        assert len(lines) == 4
        assert "South Forest" not in stdout

    def test_json_output(self, capsys):
        code, stdout, _ = run(capsys, "query",
                              str(data_path("regions_fixture.nt")),
                              str(data_path("hot_dry_regions.rq")), "--json")
        data = json.loads(stdout)
        assert data["columns"] == ["region", "temperature", "humidity"]
        assert ["Pine Valley", "35", "25"] in data["rows"]

    def test_explain_prints_plan_then_same_table(self, capsys):
        args = ("query", str(data_path("regions_fixture.nt")),
                str(data_path("hot_dry_regions.rq")))
        _, plain, _ = run(capsys, *args)
        code, stdout, _ = run(capsys, *args, "--explain")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[:4] == [
            "# step 1: pattern 1 [?area http://www.w3.org/1999/02/22-rdf-syntax-ns#type "
            "http://example.org/forest#ForestArea] candidates=4 bindings=4",
            "# step 2: pattern 2 [?area http://example.org/forest#hasName ?region] "
            "candidates=4 bindings=4",
            "# step 3: pattern 3 [?area http://example.org/forest#hasTemperature "
            "?temperature] candidates=4 bindings=4",
            "# step 4: pattern 4 [?area http://example.org/forest#hasHumidity "
            "?humidity] candidates=4 bindings=4",
        ]
        assert "\n".join(lines[4:]) + "\n" == plain

    def test_explain_json_adds_plan_key_only(self, capsys):
        args = ("query", str(data_path("regions_fixture.nt")),
                str(data_path("hot_dry_regions.rq")), "--json")
        _, plain, _ = run(capsys, *args)
        _, stdout, _ = run(capsys, *args, "--explain")
        data = json.loads(stdout)
        assert data.pop("plan") == [
            {"pattern": n, "candidates": 4, "bindings": 4} for n in (1, 2, 3, 4)]
        assert data == json.loads(plain)

    def test_deeply_nested_filter_exits_1(self, capsys, tmp_path):
        q = tmp_path / "deep.rq"
        q.write_text("SELECT ?s WHERE { ?s <http://example.org/p> ?v . FILTER ("
                     + "(" * 2000 + "?v > 1" + ")" * 2000 + ") }", encoding="utf-8")
        code, stdout, err = run(capsys, "query", str(data_path("regions_fixture.nt")),
                                str(q))
        assert code == 1 and stdout == ""
        assert err.startswith("firedss: error: line 1, column ") and "nested deeper" in err

    @pytest.mark.parametrize("term, message", [
        ("nope:p", "line 2, column 6: unknown prefix 'nope'"),
        ("<p>", "line 2, column 6: not an absolute IRI: 'p'")], ids=["prefix", "relative"])
    def test_query_term_error_names_its_line_and_column(self, capsys, tmp_path, term, message):
        q = tmp_path / "q.rq"
        q.write_text(f"SELECT ?s WHERE {{\n  ?s {term} ?o }}\n", encoding="utf-8")
        code, stdout, err = run(capsys, "query", str(data_path("regions_fixture.nt")), str(q))
        assert (code, stdout, err) == (1, "", f"firedss: error: {message}\n")

    def test_bad_query_file(self, capsys, tmp_path):
        q = tmp_path / "bad.rq"
        q.write_text("SELECT WHERE {", encoding="utf-8")
        code, _, err = run(capsys, "query", str(data_path("regions_fixture.nt")),
                           str(q))
        assert code == 1 and err


class TestMetrics:
    def test_counts_input(self, capsys, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({
            "class_count": 10, "object_property_count": 2,
            "data_property_count": 2, "subclass_axiom_count": 3,
            "individual_count": 50, "classes_with_instances_count": 5,
            "axiom_count": 80}), encoding="utf-8")
        code, stdout, _ = run(capsys, "metrics", "--counts", str(counts))
        assert code == 0
        report = json.loads(stdout)
        assert report["metrics"]["score_kb"] == 105.0
        assert report["metrics"]["score_om"] == pytest.approx(40.4)
        assert "note" in report

    def test_graph_without_schema_vocabulary(self, capsys):
        code, stdout, _ = run(capsys, "metrics", "--graph",
                              str(data_path("regions_fixture.nt")))
        assert code == 0
        report = json.loads(stdout)
        assert report["counts"]["axiom_count"] == 16
        values = {k: v for k, v in report["metrics"].items() if k != "undefined"}
        assert len(values) == 8 and set(values.values()) == {None}
        assert set(report["metrics"]["undefined"]) == set(values)
        assert all(reason.startswith(f"{name}: ")
                   for name, reason in report["metrics"]["undefined"].items())

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "metrics")
        assert code == 1

    def test_a_bool_is_not_a_count(self, capsys, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"class_count": True}), encoding="utf-8")
        code, stdout, err = run(capsys, "metrics", "--counts", str(counts))
        assert (code, stdout) == (1, "")
        assert err == ("firedss: error: bad counts file: "
                       "class_count must be a non-negative integer, got True\n")

    def test_deeply_nested_counts_exit_1_without_traceback(self, capsys, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text("[" * 200_000, encoding="utf-8")
        code, stdout, err = run(capsys, "metrics", "--counts", str(counts))
        assert (code, stdout) == (1, "")
        assert err.startswith("firedss: error: bad counts file: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestRulesCheck:
    BIG_NUMBER_RULE = f"rule big: when hasDc(?r, ?d) then assert hasLimit(?r, {'9' * 400})\n"

    def test_bundled_rules_ok(self, capsys):
        code, stdout, _ = run(capsys, "rules-check",
                              str(data_path("tables_3_4_5.rules")))
        assert code == 0
        assert "18 rules OK" in stdout

    def test_unsafe_rule_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("rule b: when lessThan(?x, 1) then assert F(?x)\n")
        code, _, err = run(capsys, "rules-check", str(bad))
        assert code == 1 and "?x" in err

    def test_number_past_the_float_range_fails(self, capsys, tmp_path):
        bad = tmp_path / "big.rules"
        bad.write_text(self.BIG_NUMBER_RULE)
        code, _, err = run(capsys, "rules-check", str(bad))
        assert code == 1 and "line 1, column 55: number out of range" in err

    def test_stream_with_a_number_past_the_float_range_exits_1(self, tmp_path):
        bad = tmp_path / "big.rules"
        bad.write_text(self.BIG_NUMBER_RULE)
        env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "firedss", "stream",
             "--dataset", str(data_path("forestfires_synthetic.csv")), "--rules", str(bad),
             "--sink", str(tmp_path / "alerts.jsonl")],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "number out of range" in done.stderr

    @pytest.mark.parametrize("name", ["fwi_alerts.rules", "tables_3_4_5.rules"])
    def test_crlf_rule_file(self, capsys, tmp_path, name):
        crlf = tmp_path / name
        crlf.write_bytes(data_path(name).read_bytes().replace(b"\n", b"\r\n"))
        code, stdout, _ = run(capsys, "rules-check", str(crlf))
        _, lf_stdout, _ = run(capsys, "rules-check", str(data_path(name)))
        assert code == 0 and stdout == lf_stdout

    @pytest.mark.parametrize("name", ["fwi_alerts.rules", "tables_3_4_5.rules"])
    def test_lone_cr_rule_file_reads_as_the_library_reads_it(self, capsys, tmp_path, name):
        cr = tmp_path / name
        cr.write_bytes(data_path(name).read_bytes().replace(b"\n", b"\r"))
        code, stdout, _ = run(capsys, "rules-check", str(cr))
        _, lf_stdout, _ = run(capsys, "rules-check", str(data_path(name)))
        library = rules.parse_rules(cr.read_bytes().decode("utf-8"))
        assert code == 0 and stdout == lf_stdout
        assert stdout.endswith(f"\n{len(library)} rules OK\n")
        assert [line.split(":")[0] for line in stdout.splitlines()[:-1]] == \
            [rule.name for rule in library]


class TestRetrieve:
    def test_topk_output(self, capsys):
        code, stdout, _ = run(capsys, "retrieve", "drought code mop up",
                              "--corpus", str(data_path("corpus.jsonl")))
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 2
        score = float(lines[0].split("\t")[0])
        assert 0.0 <= score <= 1.0

    def test_without_a_corpus_exits_1(self, capsys):
        code, stdout, err = run(capsys, "retrieve", "drought code mop up")
        assert (code, stdout) == (1, "")
        assert err == "firedss: error: retrieve needs a corpus (flag or config)\n"

    def test_k_flag(self, capsys):
        code, stdout, _ = run(capsys, "retrieve", "helicopter terrain",
                              "--corpus", str(data_path("corpus.jsonl")), "-k", "5")
        assert len(stdout.splitlines()) == 5

    def test_golden_output_on_the_bundled_corpus(self, capsys):
        digest = hashlib.sha256()
        for query, k in (("drought code mop up", "1"), ("helicopter terrain", "3"),
                         ("fire weather index fwi extreme precaution action", "5"),
                         ("isi rate of spread fast precaution action", "22")):
            code, stdout, _ = run(capsys, "retrieve", query,
                                  "--corpus", str(data_path("corpus.jsonl")), "-k", k)
            assert code == 0
            digest.update(stdout.encode("utf-8"))
        assert digest.hexdigest() == (
            "289b33dd1b24d87d8a27fb1ae7a25081729126fc475446f795193dfc6a040681")

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_embed_dim_from_the_flag_or_the_config_file(self, capsys, tmp_path, via):
        corpus = str(data_path("corpus.jsonl"))
        argv = ["retrieve", "fire weather index fwi extreme precaution action", "-k", "3"]
        if via == "flag":
            argv += ["--corpus", corpus, "--embed-dim", "64"]
        else:
            config = tmp_path / "retrieve.conf"
            config.write_text(f"embed_dim = 64\ncorpus = {corpus}\n", encoding="utf-8")
            argv = ["--config", str(config)] + argv
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
            "3d1e743f7514039c251032e9ecf5a634c12cc25033b36483375b696e62da1f46")

    @pytest.mark.parametrize("corpus, query, message", [
        ('{"id": "a", "text": "ok"}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
         b"query", "corpus line 2"),
        ('{"id": "a", "text": "ok"}\n{"id": "a", "text": "again"}\n',
         b"query", "corpus line 2: duplicate document id 'a'"),
        ('{"id": "a", "text": "ok"}\n', b"\xff query", "not valid Unicode"),
        ('{"id": "a", "text": "ok"}\n{"id": "b\\ud800", "text": "query"}\n',
         b"query", "corpus line 2: document id is not valid Unicode"),
    ], ids=["deep-nesting", "duplicate-id", "non-utf8-query", "surrogate-id"])
    def test_bad_corpus_or_query_exits_1_without_traceback(self, tmp_path, corpus,
                                                            query, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(firedss.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable.encode(), b"-m", b"firedss", b"retrieve", query,
             b"--corpus", str(path).encode()],
            capture_output=True, env=env, timeout=60)
        stderr = done.stderr.decode("utf-8", "replace")
        assert done.returncode == 1
        assert "Traceback" not in stderr
        assert message in stderr


class TestEval:
    def test_identical_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("send the crews home", encoding="utf-8")
        b.write_text("send the crews home", encoding="utf-8")
        code, stdout, _ = run(capsys, "eval", str(a), str(b))
        assert code == 0
        assert json.loads(stdout) == {"precision": 1.0, "recall": 1.0, "f": 1.0}

    def test_worked_example(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("a b", encoding="utf-8")
        b.write_text("a c d", encoding="utf-8")
        code, stdout, _ = run(capsys, "eval", str(a), str(b))
        scores = json.loads(stdout)
        assert scores["precision"] == 0.5
        assert scores["recall"] == pytest.approx(1 / 3)
        assert scores["f"] == pytest.approx(0.4)


class TestBands:
    def test_print_defaults(self, capsys):
        code, stdout, _ = run(capsys, "bands", "print")
        assert code == 0
        assert "ignition_potential" in stdout and "trigger" in stdout

    def test_check_bundled_file(self, capsys):
        code, stdout, _ = run(capsys, "bands", "check", "--bands",
                              str(data_path("default.bands")))
        assert code == 0 and "OK" in stdout

    def test_check_without_bands_exits_1(self, capsys):
        code, stdout, err = run(capsys, "bands", "check")
        assert (code, stdout) == (1, "")
        assert err == "firedss: error: bands check needs --bands or a config entry\n"

    def test_check_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.bands"
        bad.write_text("dc_class = 300:a, 150:b, inf:c\n", encoding="utf-8")
        code, _, err = run(capsys, "bands", "check", "--bands", str(bad))
        assert code == 1

    def test_print_defaults_exact_text(self, capsys):
        _, stdout, _ = run(capsys, "bands", "print")
        assert stdout == (
            "bui_class = 40:low, 80:moderate, inf:high\n"
            "dc_class = 150:easy, 300:moderate, inf:difficult and extensive\n"
            "dmc_class = 20:easy, 40:moderate, inf:difficult and extensive\n"
            "fwi_class = 5:low, 15:moderate, 30:high, inf:extreme\n"
            "ignition_potential = 70:difficult, 80:possible, 90:moderately easy, "
            "inf:extremely easy\n"
            "spread_rate = 4:slow, 8:moderate, inf:fast\n"
            "trigger = dmc_class=difficult and extensive & "
            "dc_class=difficult and extensive\n")

    def test_printed_file_without_trigger_checks(self, capsys, tmp_path):
        untriggered = tmp_path / "untriggered.bands"
        untriggered.write_text("".join(
            line for line in data_path("default.bands").read_text().splitlines(True)
            if not line.startswith("trigger")), encoding="utf-8")
        code, stdout, _ = run(capsys, "bands", "print", "--bands", str(untriggered))
        assert code == 0 and stdout.endswith("\ntrigger = \n")
        printed = tmp_path / "printed.bands"
        printed.write_text(stdout, encoding="utf-8")
        code, stdout, _ = run(capsys, "bands", "check", "--bands", str(printed))
        assert code == 0 and "OK" in stdout

    def test_file_missing_a_quantity_fails_before_the_sink_opens(self, capsys, tmp_path,
                                                                 small_csv):
        partial = tmp_path / "partial.bands"
        partial.write_text("".join(
            line for line in data_path("default.bands").read_text().splitlines(True)
            if not line.startswith("bui_class")), encoding="utf-8")
        code, _, err = run(capsys, "bands", "check", "--bands", str(partial))
        assert code == 1 and "no bands for bui_class" in err
        sink = tmp_path / "alerts.jsonl"
        code, _, err = run(capsys, "stream", "--dataset", small_csv, "--sink", str(sink),
                           "--bands", str(partial))
        assert code == 1 and "no bands for bui_class" in err
        assert not sink.exists()


class TestDeterminism:
    def test_convert_byte_identical_across_runs(self, capsys, tmp_path, dataset_csv):
        blobs = []
        for name in ("a.nt", "b.nt"):
            out = tmp_path / name
            run(capsys, "convert", dataset_csv, str(out))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_query_output_identical_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            _, stdout, _ = run(capsys, "query",
                               str(data_path("regions_fixture.nt")),
                               str(data_path("hot_dry_regions.rq")))
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_stream_sink_identical_modulo_timestamp(self, capsys, tmp_path,
                                                    dataset_csv):
        payloads = []
        for name in ("s1.jsonl", "s2.jsonl"):
            sink = tmp_path / name
            code, _, _ = run(capsys, "stream", "--dataset", dataset_csv,
                             "--sink", str(sink),
                             "--rules", str(data_path("fwi_alerts.rules")))
            assert code == 0
            events = [json.loads(l) for l in sink.read_text().splitlines()]
            for e in events:
                e.pop("ts_ms")
            payloads.append(events)
        assert payloads[0] == payloads[1]


class TestConfigFile:
    def test_unknown_key_rejected(self, capsys, tmp_path, dataset_csv):
        config = tmp_path / "c.conf"
        config.write_text("dataset = x\nturbo = on\n", encoding="utf-8")
        code, _, err = run(capsys, "--config", str(config), "bands", "print")
        assert code == 1 and "turbo" in err

    @pytest.mark.parametrize("text, where", [
        ("dataset = x\nturbo = on\n", "2: unknown config key 'turbo'"),
        ("# head\nbatch_size\n", "2: expected 'key = value'"),
        ("seed = 1\n\nseed = 2  # again\n", "3: seed defined twice"),
        ("# run settings\x0c for the north grid\nbatch_size = 20\nturbo = on\n",
         "3: unknown config key 'turbo'"),
        ("# run settings\x0c for the north grid\r\nbatch_size = 20\r\nturbo = on\r\n",
         "3: unknown config key 'turbo'"),
    ], ids=["unknown-key", "no-equals", "repeated-key", "form-feed", "form-feed-crlf"])
    def test_errors_name_the_line(self, capsys, tmp_path, text, where):
        config = tmp_path / "c.conf"
        config.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "--config", str(config), "bands", "print")
        assert code == 1 and err == f"firedss: error: {config}:{where}\n"

    # int() would read '٢' (Arabic-Indic two) and '８' (fullwidth eight) as
    # digits and '1_0' as 10: a `batch_size = ٢` line streamed 259 batches
    @pytest.mark.parametrize("value", ["\u0662", "1_0", "x", "\uff18", "", "1.0"])
    @pytest.mark.parametrize("key", ["batch_size", "embed_dim", "seed"])
    def test_integer_setting_is_ascii_digits(self, capsys, tmp_path, key, value):
        config = tmp_path / "c.conf"
        config.write_text(f"# run settings\n{key} = {value}\n", encoding="utf-8")
        sink = tmp_path / "alerts.jsonl"
        code, stdout, err = run(capsys, "--config", str(config), "stream", "--dataset",
                                str(data_path("forestfires_synthetic.csv")),
                                "--sink", str(sink))
        assert (code, stdout) == (1, "")
        assert err == f"firedss: error: {config}:2: {key} must be an integer, got {value!r}\n"
        assert not sink.exists()

    @pytest.mark.parametrize("flag", ["--batch-size", "--seed", "--embed-dim", "-k"])
    @pytest.mark.parametrize("value", ["\u0662", "1_0", "x", "\uff18"])
    def test_integer_flag_is_ascii_digits(self, capsys, flag, value):
        command = {"--batch-size": ["stream"], "--seed": ["preprocess", "in", "out"]}.get(
            flag, ["retrieve", "query"])
        with pytest.raises(SystemExit) as exc:
            cli.main(command + [flag, value])
        assert exc.value.code == 2
        assert f"invalid integer: {value!r}" in capsys.readouterr().err

    def test_signed_integer_setting_is_read(self, capsys, tmp_path, small_csv):
        config = tmp_path / "c.conf"
        config.write_text("batch_size = +1\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "--config", str(config), "stream",
                              "--dataset", small_csv, "--sink", str(tmp_path / "s.jsonl"))
        assert code == 0 and json.loads(stdout)["batches_out"] == 1

    def test_non_utf8_config_is_named(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_bytes(b"batch_size = 20\n# \xff\n")
        code, _, err = run(capsys, "--config", str(config), "bands", "print")
        assert code == 1
        assert err == (f"firedss: error: cannot read {config}: line 2: 'utf-8' codec can't "
                       "decode byte 0xff in position 18: invalid start byte\n")

    def test_missing_config_is_named(self, capsys, tmp_path):
        config = tmp_path / "nope.conf"
        code, _, err = run(capsys, "--config", str(config), "bands", "print")
        assert code == 1
        assert err.startswith(f"firedss: error: cannot read {config}: [Errno 2] ")

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("# comment\n\nbatch_size = 20\n", encoding="utf-8")
        code, _, _ = run(capsys, "--config", str(config), "bands", "print")
        assert code == 0


class TestReadErrors:
    # the config reader's case is TestConfigFile.test_non_utf8_config_is_named
    @pytest.mark.parametrize("argv", [
        ["rules-check", "{path}"],
        ["bands", "check", "--bands", "{path}"],
        ["query", "{path}", str(data_path("hot_dry_regions.rq"))],
        ["retrieve", "fire", "--corpus", "{path}"],
    ], ids=["rules", "bands", "ntriples", "corpus"])
    def test_non_utf8_file_names_the_line(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_bytes(b"# one\n# two\n# \xff\n")
        code, stdout, err = run(capsys, *[a.format(path=path) for a in argv])
        assert (code, stdout) == (1, "")
        assert err == (f"firedss: error: cannot read {path}: line 3: 'utf-8' codec can't "
                       "decode byte 0xff in position 14: invalid start byte\n")


_BANDS = data_path("default.bands").read_text(encoding="utf-8")
_TRIGGER = "dmc_class=difficult and extensive & dc_class=difficult and extensive"
_TABLE = str(data_path("forestfires_synthetic.csv"))


class TestErrorPaths:
    """One case per error path of an input edge: exit 1 with its message and
    no file written; and one query form that is no error."""

    @pytest.mark.parametrize("files, argv, code, expected", [
        ({"b.bands": _BANDS.replace(_TRIGGER, "dmc_class")},
         ["bands", "check", "--bands", "b.bands"], 1, "line 9: bad trigger clause ' dmc_class'"),
        ({"b.bands": _BANDS.replace(_TRIGGER, "foo=bar")},
         ["bands", "check", "--bands", "b.bands"], 1,
         "line 9: trigger references unknown quantity foo"),
        ({"b.bands": _BANDS.replace("bui_class = ", "bui_class = 4:, ")},
         ["bands", "check", "--bands", "b.bands"], 1, "line 3: bui_class: empty label"),
        ({"g.nt": '<http://x/s> <http://x/p> "1"^^<http://x/dt> .\n'},
         ["query", "g.nt", str(data_path("hot_dry_regions.rq"))], 1,
         "line 1: unsupported datatype IRI 'http://x/dt'"),
        ({"g.nt": '<http://x/s> <http://x/p> "yes"^^<http://www.w3.org/2001/XMLSchema#boolean> .\n'},
         ["query", "g.nt", str(data_path("hot_dry_regions.rq"))], 1,
         "line 1: bad boolean lexical form: 'yes'"),
        ({}, ["convert", _TABLE, "t.rdf", "--format", "rdfxml", "--namespace", "urn:x:"], 1,
         "cannot write predicate 'urn:x:DC' as XML name"),
        ({}, ["retrieve", "fire", "--corpus", str(data_path("corpus.jsonl")), "-k", "0"], 1,
         "k must be >= 1, got 0"),
        ({"c.jsonl": '{"id": "a", "text": ""}\n'}, ["retrieve", "fire", "--corpus", "c.jsonl"],
         1, "corpus line 1: document 'a' has empty text"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "zscore=area", "--op", "log1p_area"], 1,
         "record 2: area -0.4623816308743384 < 0"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "zscore=month"], 1,
         "column month is categorical; zscore needs a numeric column"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "ordinal=FFMC"], 1,
         "column FFMC is numeric; ordinal needs the month or day column"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "filter=month"], 1,
         "column month is categorical; filter needs a numeric column"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "onehot=temp"], 1,
         "column temp is numeric; onehot needs a categorical month or day column"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "zscore=bogus"], 1,
         "unknown column: bogus"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "filter=FFMC:median"], 1,
         "unknown outlier method: median"),
        ({}, ["preprocess", _TABLE, "o.csv", "--op", "resample=month:bogus"], 1,
         "unknown resample strategy: bogus"),
        ({"q.rq": 'PREFIX ex: <http://example.org/forest#>\n'
                  'SELECT ?r WHERE { ?a ex:hasName ?r . FILTER (?r = "Oak Ridge") . }\n'},
         ["query", str(data_path("regions_fixture.nt")), "q.rq"], 0, "r\nOak Ridge\n"),
    ], ids=["trigger-without-label", "trigger-unknown-quantity", "empty-label",
            "unknown-datatype", "bad-boolean", "rdfxml-predicate", "k-zero", "empty-text",
            "log-of-negative-area", "zscore-categorical", "ordinal-numeric",
            "filter-categorical", "onehot-numeric", "zscore-unknown", "filter-method",
            "resample-strategy", "dot-after-filter"])
    def test_exit_code_and_message(self, capsys, tmp_path, monkeypatch, files, argv, code,
                                   expected):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        got, stdout, err = run(capsys, *argv)
        if code:
            assert (got, stdout, err) == (1, "", f"firedss: error: {expected}\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        else:
            assert (got, stdout, err) == (0, expected, "")
