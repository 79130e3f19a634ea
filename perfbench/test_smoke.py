"""Smoke test of the benchmark itself, at a tiny input size:

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric BENCHMARK.json lists and every
metric of its report, each with its unit, and pass its own output checks;
a deliberately corrupted program output must show up as failed operations.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402
from firedss import retrieval, semweb, stream  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}
STREAM = {"records_per_s": "1/s", "batch_p50_ms": "ms", "batch_tail_ms": "ms"}
REPORTED = {
    "stream_replica": STREAM,
    "stream_rule_chain": STREAM,
    "graph_query": {"queries_per_s": "1/s", "query_p50_ms": "ms", "query_tail_ms": "ms",
                    "convert_s": "s", "graph_load_s": "s", "query_scan_ms": "ms",
                    "query_join2_ms": "ms", "query_join3_ms": "ms",
                    "query_selective_ms": "ms"},
    "advise": {"alerts_per_s": "1/s", "advice_p50_ms": "ms", "advice_tail_ms": "ms"},
}


def _tiny(name, trace=0):
    return run.run(name, seed=7, seconds=0.2, trace=trace, sizes=workloads.TINY)


def test_benchmark_json_names_the_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    report, result = _tiny(name, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m: v["unit"] for m, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = report["workload_metrics"]
    assert {m: v["unit"] for m, v in named.items()} == {**REPORTED[name], **COMMON}
    assert named["failed_ratio"]["value"] == 0
    if trace:
        metrics = {m: v["value"] for m, v in result["metrics"].items()}
        assert 0 < metrics["trace.self_sum_ms"] <= metrics["trace.wall_ms"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt_sink(monkeypatch):
    to_json = stream.AlertEvent.to_json

    def wrong(self):
        text = to_json(self)
        return text.replace('"kind": "DC_MOPUP"', '"kind": "DC"') if self.batch == 0 else text
    monkeypatch.setattr(stream.AlertEvent, "to_json", wrong)


def _corrupt_rows(monkeypatch):
    execute = semweb.execute

    def extra_row(query, graph):
        table = execute(query, graph)
        bogus = (semweb.Iri("http://example.org/bogus"),) * len(table.columns)
        return semweb.ResultTable(table.columns, table.rows + (bogus,), table.type_clashes)
    monkeypatch.setattr(semweb, "execute", extra_row)


def _corrupt_top_k(monkeypatch):
    search = retrieval.VectorIndex.search

    def reversed_hits(self, query_text, k=2, query_fingerprint=None):
        return search(self, query_text, k, query_fingerprint)[::-1]
    monkeypatch.setattr(retrieval.VectorIndex, "search", reversed_hits)


@pytest.mark.parametrize(("name", "corrupt"), [
    ("stream_replica", _corrupt_sink),
    ("stream_rule_chain", _corrupt_sink),
    ("graph_query", _corrupt_rows),
    ("advise", _corrupt_top_k),
])
def test_corrupted_output_raises_failed_ratio(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    report, result = _tiny(name)
    assert result["failed"] > 0 and not result["correct"]
    assert report["workload_metrics"]["failed_ratio"]["value"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 201))) == (95.0, 190)
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail(list(range(1, 12))) == (100.0, 11)


def test_lap_clock_scales_segments_and_leaves_unprobed_ones_raw():
    import speed
    unprobed = speed.LapClock("table", 0)
    unprobed.start()
    unprobed.lap()
    assert unprobed.raw == unprobed.scaled == unprobed.net
    for kind in speed.ROUNDS:
        clock = speed.LapClock(kind, 4)
        clock.start()
        sum(range(20000))
        clock.lap()
        assert clock.raw[0] > 0 and clock.scaled[0] > 0
        assert clock.net[0] <= clock.scaled[0]
