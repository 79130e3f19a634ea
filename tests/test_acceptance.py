"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (visible even under pytest capture) and enforcing its
runtime budget.

Run with: pytest tests/test_acceptance.py -v
"""

import json
import random
import sys
import time
from contextlib import contextmanager

import pytest

from firedss import cli, data_path, data_text, fwi, ingest, metrics, retrieval
from firedss import rules as rules_mod
from firedss import semweb, stream

import oracles


def _say(line):
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number, name, budget_s=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _say(f"criterion {number:2d} FAIL  {name}")
        raise
    elapsed = time.perf_counter() - started
    if budget_s is not None and elapsed > budget_s:
        _say(f"criterion {number:2d} FAIL  {name} (took {elapsed:.2f}s > {budget_s}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s > {budget_s}s")
    _say(f"criterion {number:2d} PASS  {name} ({elapsed:.2f}s)")


REFERENCE_ROWS = [
    (92.3, 88.9, 495.6, 8.5, "extremely easy", "difficult and extensive",
     "difficult and extensive", "fast"),
    (94.4, 146.0, 614.7, 11.3, "extremely easy", "difficult and extensive",
     "difficult and extensive", "fast"),
    (81.6, 56.7, 665.6, 1.9, "moderately easy", "difficult and extensive",
     "difficult and extensive", "slow"),
    (81.6, 56.7, 665.6, 1.9, "moderately easy", "difficult and extensive",
     "difficult and extensive", "slow"),
    (81.6, 56.7, 665.6, 1.9, "moderately easy", "difficult and extensive",
     "difficult and extensive", "slow"),
]


def test_criterion_1_reference_row_labels():
    with criterion(1, "reference-row label reproduction (5 rows, exact)", 1.0):
        for ffmc_v, dmc_v, dc_v, isi_v, ign, dmc_lab, dc_lab, spread in REFERENCE_ROWS:
            codes = fwi.FwiCodes(ffmc_v, dmc_v, dc_v, isi_v,
                                 fwi.bui(dmc_v, dc_v), 0.0)
            got = fwi.classify(codes, fwi.DEFAULT_BANDS)
            assert got.ignition_potential == ign
            assert got.dmc_class == dmc_lab
            assert got.dc_class == dc_lab
            assert got.spread_rate == spread
            assert got.fire_trigger is True


def test_criterion_2_region_query_reproduction():
    with criterion(2, "region query over 4-region fixture (3 exact rows)", 1.0):
        graph = semweb.parse_ntriples(data_text("regions_fixture.nt"))
        query = semweb.parse_query(data_text("hot_dry_regions.rq"))
        result = semweb.execute(query, graph)
        rows = [tuple(semweb.format_cell(c) for c in row) for row in result.rows]
        assert sorted(rows) == sorted([
            ("Pine Valley", "35", "25"),
            ("Oak Ridge", "34", "20"),
            ("Maple Hill", "32", "29")])
        assert all(r[0] != "South Forest" for r in rows)


def test_criterion_3_rule_boundary_suite():
    with criterion(3, "18-rule fire/guard suite with boundary semantics", 1.0):
        from test_rules import _guard_violating_facts, _minimal_facts
        ruleset = rules_mod.parse_rules(data_text("tables_3_4_5.rules"))
        assert len(ruleset) == 18
        for rule in ruleset:
            facts, _ = _minimal_facts(rule)
            fired = rules_mod.evaluate(rules_mod.RuleSet([rule]),
                                       rules_mod.FactBase(facts))
            assert fired.derived(), f"{rule.name} must fire on its minimal facts"
            blocked = rules_mod.evaluate(rules_mod.RuleSet([rule]),
                                         rules_mod.FactBase(_guard_violating_facts(rule)))
            assert not blocked.derived(), f"{rule.name} fired through a violated guard"

        ind = rules_mod.Individual
        num = rules_mod.Num
        atom = lambda p, *a: rules_mod.Atom(p, tuple(a))

        # risk boundary 0.5 inclusive
        base = rules_mod.FactBase([atom("PreventiveAction", ind("a")),
                                   atom("hasScenario", ind("a"), ind("s")),
                                   atom("hasIgnitionRisk", ind("s"), num(0.5))])
        assert atom("reduceIgnitionRisk", ind("a")) in rules_mod.evaluate(ruleset, base)

        # burned-area boundary 1000 inclusive
        base = rules_mod.FactBase([atom("PreventiveAction", ind("a")),
                                   atom("hasScenario", ind("a"), ind("s")),
                                   atom("hasBurnedArea", ind("s"), num(1000))])
        assert atom("limitBurnedArea", ind("a")) in rules_mod.evaluate(ruleset, base)

        # capacity boundary 5000 strict
        base = rules_mod.FactBase([atom("WaterTanker", ind("v")),
                                   atom("hasWaterCapacity", ind("v"), num(5000))])
        assert atom("deployMultipleVehicles", ind("v")) not in \
            rules_mod.evaluate(ruleset, base)


def test_criterion_4_fwi_numerical_oracle():
    with criterion(4, "index chain vs independent oracle (1e5 samples, 1e-4)", 30.0):
        rng = random.Random(20240804)
        n = 100_000
        for _ in range(n):
            temp = rng.uniform(-15, 45)
            rh = rng.uniform(0, 100)
            wind = rng.uniform(0, 90)
            rain = rng.uniform(0, 60) if rng.random() < 0.5 else 0.0
            month = rng.randint(1, 12)
            w = fwi.FwiInputs(temp=temp, rh=rh, wind=wind, rain=rain, month=month)

            prev_f = rng.uniform(0, 101)
            got_f = fwi.update_ffmc(prev_f, w)
            assert abs(got_f - oracles.ref_ffmc(prev_f, temp, rh, wind, rain)) < 1e-4

            prev_d = rng.uniform(0, 400)
            got_d = fwi.update_dmc(prev_d, w)
            assert abs(got_d - oracles.ref_dmc(prev_d, temp, rh, rain, month)) < 1e-4

            prev_c = rng.uniform(0, 1000)
            got_c = fwi.update_dc(prev_c, w)
            assert abs(got_c - oracles.ref_dc(prev_c, temp, rain, month)) < 1e-4

            f = rng.uniform(0, 101)
            assert abs(fwi.isi(f, wind) - oracles.ref_isi(f, wind)) < 1e-4
            d, c = rng.uniform(0, 400), rng.uniform(0, 1000)
            assert abs(fwi.bui(d, c) - oracles.ref_bui(d, c)) < 1e-4
            i, b = rng.uniform(0, 40), rng.uniform(0, 300)
            assert abs(fwi.fwi(i, b) - oracles.ref_fwi(i, b)) < 1e-4

        # reference startup chain
        startup = fwi.FwiInputs(temp=17, rh=42, wind=25, rain=0, month=4)
        f = fwi.update_ffmc(85.0, startup)
        d = fwi.update_dmc(6.0, startup)
        c = fwi.update_dc(15.0, startup)
        i = fwi.isi(f, 25.0)
        b = fwi.bui(d, c)
        z = fwi.fwi(i, b)
        assert abs(f - 87.69) < 0.02
        assert abs(i - 10.85) < 0.02
        assert abs(b - 8.49) < 0.02
        assert abs(z - 10.09) < 0.02


def test_criterion_5_stream_arithmetic_and_fault_tolerance(tmp_path):
    with criterion(5, "batch arithmetic, crash/resume at-least-once, determinism", 10.0):
        dataset = str(data_path("forestfires_synthetic.csv"))
        rules_text = data_text("fwi_alerts.rules")
        ruleset = rules_mod.parse_rules(rules_text)

        # 517 records -> 25 full batches + final 17
        batches = list(stream.cut_batches(stream.open_source(dataset), 20))
        assert len(batches) == 26
        assert [len(b) for b in batches] == [20] * 25 + [17]

        # crash injection at every instrumented point of a 6-batch replay
        rows = data_text("forestfires_synthetic.csv").splitlines()
        small = tmp_path / "small.csv"
        small.write_text("\n".join(rows[:1 + 110]) + "\n", encoding="utf-8")
        for point in ("after_sink", "after_checkpoint"):
            for crash_seq in range(6):
                sink = tmp_path / f"a_{point}_{crash_seq}.jsonl"
                cp = tmp_path / f"c_{point}_{crash_seq}"

                def hook(p, s, point=point, crash_seq=crash_seq):
                    if p == point and s == crash_seq:
                        raise stream.SimulatedCrash(f"{point}@{s}")

                with pytest.raises(stream.SimulatedCrash):
                    stream.run_pipeline(str(small), sink, cp, batch_size=20,
                                        rules=ruleset, rules_text=rules_text,
                                        crash_hook=hook)
                stream.run_pipeline(str(small), sink, cp, batch_size=20,
                                    rules=ruleset, rules_text=rules_text)
                events = [json.loads(l) for l in sink.read_text().splitlines()]
                for e in events:
                    e.pop("ts_ms")
                    e["offsets"] = tuple(e["offsets"])
                by_seq = {}
                for e in events:
                    by_seq.setdefault(e["batch"], []).append(e)
                assert set(by_seq) == set(range(6))  # at least once
                for seq, evs in by_seq.items():
                    uniq = {tuple(sorted(e.items())) for e in evs}
                    assert len(evs) % len(uniq) == 0
                    copies = len(evs) // len(uniq)
                    assert copies in (1, 2)  # whole-batch duplicates only

        # unthrottled replay determinism modulo the timestamp field
        payloads = []
        for name in ("d1.jsonl", "d2.jsonl"):
            sink = tmp_path / name
            stream.run_pipeline(dataset, sink, rules=ruleset, rules_text=rules_text)
            events = [json.loads(l) for l in sink.read_text().splitlines()]
            for e in events:
                e.pop("ts_ms")
            payloads.append(events)
        assert payloads[0] == payloads[1]


def test_criterion_6_semantic_web_properties():
    with criterion(6, "N-Triples round trip + 1000 query cases vs brute force", 60.0):
        from test_semweb import _random_query, random_graph

        rng = random.Random(20240806)
        # round-trip identity, sizes up to 10^4
        for size in (0, 1, 50, 1000, 10_000):
            g = random_graph(rng, size, n_subjects=300, n_predicates=40,
                             n_objects=500)
            assert semweb.parse_ntriples(semweb.serialize(g, "ntriples")) == g

        mismatches = 0
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 200))
            q = _random_query(rng)
            got = semweb.execute(q, g)
            want_cols, want_rows = oracles.brute_force_query(q, g)
            if got.columns != want_cols or list(got.rows) != want_rows:
                mismatches += 1
        assert mismatches == 0


def test_criterion_7_metric_formulas():
    with criterion(7, "metric formulas vs arithmetic oracle (1e4 summaries)"):
        rng = random.Random(20240807)
        for _ in range(10_000):
            c = rng.randint(1, 2000)
            s = metrics.OntologySummary(
                class_count=c,
                object_property_count=rng.randint(0, 800),
                data_property_count=rng.randint(0, 500),
                subclass_axiom_count=rng.randint(0, 3000),
                individual_count=rng.randint(0, 4000),
                classes_with_instances_count=rng.randint(0, c),
                axiom_count=rng.randint(0, 9000))
            want = oracles.ref_metrics(
                s.class_count, s.object_property_count, s.data_property_count,
                s.subclass_axiom_count, s.individual_count,
                s.classes_with_instances_count, s.axiom_count)
            for name, fn in (("relationship_richness", metrics.relationship_richness),
                             ("attribute_richness", metrics.attribute_richness),
                             ("class_richness", metrics.class_richness),
                             ("average_population", metrics.average_population),
                             ("class_relation_ratio", metrics.class_relation_ratio),
                             ("axiom_class_ratio", metrics.axiom_class_ratio),
                             ("score_om", metrics.score_om),
                             ("score_kb", metrics.score_kb)):
                if want[name] is None:
                    with pytest.raises(metrics.DivisionByZero):
                        fn(s)
                    continue
                got = fn(s)
                assert got == pytest.approx(want[name], rel=1e-12)
                if name in ("relationship_richness", "class_richness"):
                    assert 0.0 <= got <= 1.0
                if name == "score_kb":
                    assert got >= 100.0

        # published-table values are NOT reproduction targets; the report
        # carries the documenting footer
        report = metrics.report(metrics.OntologySummary(
            class_count=1007, object_property_count=454, data_property_count=198,
            subclass_axiom_count=2129, individual_count=587,
            classes_with_instances_count=587, axiom_count=5897))
        assert report["metrics"]["attribute_richness"] != pytest.approx(0.9019, abs=1e-4)
        assert report["metrics"]["score_kb"] >= 100.0
        assert report["note"]


def test_criterion_8_retrieval_properties():
    with criterion(8, "top-k vs brute force (sizes 1-500), P/R/F exactness", 30.0):
        from test_retrieval import random_index, random_text

        rng = random.Random(20240808)
        sizes = [1, 2, 3, 7, 40, 160, 500]
        for size in sizes:
            idx = random_index(rng, size)
            for _ in range(3):
                query = random_text(rng)
                k = rng.randint(1, 8)
                got = idx.search(query, k=k)
                qv = retrieval.embed(query, idx.config)
                want = oracles.brute_force_topk(
                    list(qv), [list(v) for v in idx._vectors],
                    [d.id for d in idx.docs], k)
                assert [d.id for d, _ in got] == [doc_id for _, doc_id in want]
                assert len(got) == min(k, size)

        # cosine self-similarity
        for _ in range(50):
            v = retrieval.embed(random_text(rng))
            assert abs(retrieval.cosine(v, v) - 1.0) <= 1e-9

        # default k is the two-document retrieval
        idx = random_index(rng, 10)
        assert len(idx.search("any query")) == 2

        # P/R/F exact cases
        assert retrieval.prf_scores("same text", "same text") == \
            retrieval.EvalScores(1.0, 1.0, 1.0)
        scores = retrieval.prf_scores("a b", "a c d")
        assert scores.precision == 0.5
        assert scores.recall == pytest.approx(1 / 3, abs=1e-15)
        assert scores.f_measure == pytest.approx(0.4, abs=1e-15)


def test_criterion_9_correlation_analysis():
    with criterion(9, "dataset correlation matrix vs two-pass oracle (78 pairs)", 5.0):
        d = ingest.ordinal_encode(ingest.parse_dataset(
            data_text("forestfires_synthetic.csv")))
        cm = ingest.correlation_matrix(d)
        pairs = list(cm.pairs())
        assert len(pairs) == 78
        for a, b, got in pairs:
            want = oracles.two_pass_pearson(
                [float(v) for v in d.column(a)], [float(v) for v in d.column(b)])
            assert got == pytest.approx(want, abs=1e-9), (a, b)
        # qualitative signs are reported, never asserted
        for name in ("temp", "RH", "wind", "rain"):
            value = cm.value(name, "area")
            _say(f"    correlation {name} vs area: {value:+.4f} (reported only)")


def test_criterion_10_end_to_end_budget(tmp_path, capsys):
    with criterion(10, "convert + stream + query end-to-end under 5 s", 5.0):
        dataset = str(data_path("forestfires_synthetic.csv"))
        nt = tmp_path / "out.nt"
        assert cli.main(["convert", dataset, str(nt)]) == 0
        sink = tmp_path / "alerts.jsonl"
        assert cli.main(["stream", "--dataset", dataset, "--sink", str(sink),
                         "--rules", str(data_path("fwi_alerts.rules")),
                         "--checkpoint", str(tmp_path / "cp")]) == 0
        assert cli.main(["query", str(data_path("regions_fixture.nt")),
                         str(data_path("hot_dry_regions.rq"))]) == 0
        capsys.readouterr()
        assert len(nt.read_text().splitlines()) == 6721
        assert len({json.loads(l)["batch"] for l in sink.read_text().splitlines()}) == 26
