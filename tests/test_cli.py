import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import firedss
from firedss import cli, data_path


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
        assert "row 1: field larger than field limit" in done.stderr


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

    def test_zero_byte_file_exits_1(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "stream", "--dataset", str(empty),
                           "--sink", str(tmp_path / "alerts.jsonl"))
        assert code == 1 and "missing column" in err


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
        assert err.startswith("firedss: error: at ") and "nested deeper" in err

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

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "metrics")
        assert code == 1


class TestRulesCheck:
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

    @pytest.mark.parametrize("name", ["fwi_alerts.rules", "tables_3_4_5.rules"])
    def test_crlf_rule_file(self, capsys, tmp_path, name):
        crlf = tmp_path / name
        crlf.write_bytes(data_path(name).read_bytes().replace(b"\n", b"\r\n"))
        code, stdout, _ = run(capsys, "rules-check", str(crlf))
        _, lf_stdout, _ = run(capsys, "rules-check", str(data_path(name)))
        assert code == 0 and stdout == lf_stdout


class TestRetrieve:
    def test_topk_output(self, capsys):
        code, stdout, _ = run(capsys, "retrieve", "drought code mop up",
                              "--corpus", str(data_path("corpus.jsonl")))
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 2
        score = float(lines[0].split("\t")[0])
        assert 0.0 <= score <= 1.0

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

    @pytest.mark.parametrize("corpus, query, message", [
        ('{"id": "a", "text": "ok"}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
         b"query", "corpus line 2"),
        ('{"id": "a", "text": "ok"}\n{"id": "a", "text": "again"}\n',
         b"query", "corpus line 2: duplicate document id 'a'"),
        ('{"id": "a", "text": "ok"}\n', b"\xff query", "not valid Unicode"),
    ], ids=["deep-nesting", "duplicate-id", "non-utf8-query"])
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

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("# comment\n\nbatch_size = 20\n", encoding="utf-8")
        code, _, _ = run(capsys, "--config", str(config), "bands", "print")
        assert code == 0
