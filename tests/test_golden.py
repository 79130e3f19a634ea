"""Golden digests of the stream, convert and query outputs on the bundled data.

Each digest was recorded from a run of the same commands and pins the
outputs byte for byte: the alert sink with ``ts_ms`` masked, the stats line
with ``duration_ms`` masked, the checkpoint file, the derivation tree of
every RULE alert of one batch, the N-Triples and RDF-XML of the bundled
table, and the printed rows, plans and type clashes of two queries.
"""

import hashlib
import json

import pytest

from firedss import cli, data_path, data_text, fwi, rules, stream


def chain_text(links):
    """Single-atom rules rooted at DcClass_difficult_and_extensive, written
    last link first, so rule-order saturation needs one round per link."""
    return "".join(
        f"rule link{k}: when "
        f"{'DcClass_difficult_and_extensive' if k == 1 else f'Stage{k - 1}'}(?r) "
        f"then assert Stage{k}(?r)\n" for k in range(links, 0, -1))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _masked(line, field):
    obj = json.loads(line)
    obj[field] = 0
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("rules_name, links, batch_size, digests", [
    ("fwi_alerts.rules", 0, 20,
     ("55e9c5e7c8fac33f20235426f1c712ba63a2e018657758a0e3fe278dfdd4e2e0",
      "a5c3ca8ca8640c25d735286786c0156cf328e5aaf192333ca771c2878e170509",
      "432f8d0b49a05acc226eb8b17e6b927304aae75a170b1aa517e6b8ec45c5c8b4")),
    ("fwi_alerts.rules", 0, 7,
     ("544d9e2d154332c97637ea413afb00b7b34e8c1307b6757daa86225a2dca4c7b",
      "58118ec1a8f6be95ba8715f4f58fce98a55578116e132e4064856500816dc0a9",
      "f1cbc2fb760e9d1eeaaa72ac4dcbd7d9a4e84adc7f6da2f65ab8062e79dfc6eb")),
    ("tables_3_4_5.rules", 0, 20,
     ("428f523d0d6f8a541e8023d3013fefaeb06b9d39d3bdcb03de2cb8d498e2eb6e",
      "7ed25397fd7bb82289413c61552f59ab7eb76aa40621ade178ed0ba2f217b6f6",
      "1f051eee6f246dd181dfd30ffeb9fa28dc3391150b0b91ee0557af36827dde05")),
    ("tables_3_4_5.rules", 0, 7,
     ("f2f6b6547595da977ec61caf26e6be3b4a004ff6448caf46cf088259af78c1e1",
      "9a52ceabc52406b3f760c75c863af97e137e5d8b6fb7513ec3f4f23072ba72e8",
      "efe88ac9d4b5da3a5bae03f89ca2f9524705fdbb21fe26f94c4b0949a8363f25")),
    ("fwi_alerts.rules", 21, 25,
     ("a20bf30bde10046437dcd09688d216fea7ef617889c485ad595b244de2cf5a3e",
      "4eaac8fe8240778b8d48928b9e0b23a94b2220e6217e24803aad7a444b0c909d",
      "9217fdf1a138b340a6916af50312afaec8f33ebaba47c751a3b4af9b654eaa0e")),
])
def test_stream_outputs_on_the_bundled_table(capsys, tmp_path, monkeypatch,
                                             rules_name, links, batch_size, digests):
    monkeypatch.chdir(tmp_path)     # relative paths: the checkpoint names its source
    (tmp_path / "data.csv").write_text(data_text("forestfires_synthetic.csv"),
                                       encoding="utf-8")
    (tmp_path / "alerts.rules").write_text(data_text(rules_name) + chain_text(links),
                                           encoding="utf-8")
    code = cli.main(["stream", "--dataset", "data.csv", "--sink", "sink.jsonl",
                     "--rules", "alerts.rules", "--checkpoint", "cp",
                     "--batch-size", str(batch_size)])
    stdout = capsys.readouterr().out
    assert code == 0
    sink = [_masked(line, "ts_ms")
            for line in (tmp_path / "sink.jsonl").read_text(encoding="utf-8").splitlines()]
    got = (_sha("\n".join(sink)), _sha(_masked(stdout, "duration_ms")),
           _sha((tmp_path / "cp").read_text(encoding="utf-8")))
    assert got == digests


def test_explain_trees_of_one_batch():
    """Rule, bindings and premises of every node of the derivation tree of
    each RULE alert of batch 5 (batch size 25, alert rules + 21-link chain)."""
    rs = rules.parse_rules(data_text("fwi_alerts.rules") + chain_text(21))
    source = stream.open_source(str(data_path("forestfires_synthetic.csv")))
    batch = next(b for b in stream.cut_batches(source, 25) if b.seq == 5)
    facts = []
    for offset, record in batch.records:
        codes = fwi.compute_codes(record)
        facts.extend(stream.record_facts(offset, codes, fwi.classify(codes)))
    saturated = rules.evaluate(rs, rules.FactBase(facts))
    lines = []
    for fact in sorted(saturated.derived(), key=rules.format_atom):
        stack = [(0, rules.explain(saturated, fact))]
        while stack:
            depth, node = stack.pop()
            lines.append(f"{depth} {rules.format_atom(node.fact)} {node.rule} "
                         f"{rules.format_bindings(dict(node.bindings))}")
            stack.extend((depth + 1, child) for child in reversed(node.children))
    assert len(saturated.derived()) == 571
    assert _sha("\n".join(lines)) == \
        "2b9ad6c972156a18290d5cb30cc8c4497d8f0c562ff28ae1473c29e5f1094af9"


BUNDLED_TABLE_QUERY = """\
PREFIX ds: <http://example.org/forestfires#>
SELECT ?r ?t ?h ?m WHERE {
  ?r ds:temp ?t . ?r ds:RH ?h . ?r ds:month ?m . ?r ds:wind ?w . ?r ds:day "sun" .
  FILTER ((?t > 20.5 && ?h <= 40) || ?w = 4.9 || ?m > 3)
}
"""


def _stdout(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt, digest", [
    ("ntriples", "c2a60090074e438c2f6b4d8ac212a8361f2131e257543c911d3e5c4a49e03cc3"),
    ("rdfxml", "0efcc6799aa243357fb83f7e66ffe249125c593ade9694dcce46be5206c5937a"),
])
def test_convert_of_the_bundled_table(capsys, tmp_path, fmt, digest):
    out = tmp_path / "table.out"
    _stdout(capsys, ["convert", str(data_path("forestfires_synthetic.csv")), str(out),
                     "--format", fmt])
    assert _sha(out.read_text(encoding="utf-8")) == digest


@pytest.mark.parametrize("flags, digest", [
    ((), "6f1a404a03ca0467c9af962c2e3fe0608c1fbad5fa6bb56d42753e52c5cfa8e6"),
    (("--json",), "da0feee75ecebedbcdd60a5afd1a9944731f2d6d82b644b2ebb12609e0eabbe7"),
    (("--explain",), "dc7fc71afc1056f23e351ca34a3cad56ad67f9eb802ae38626282e8698fc9985"),
    (("--json", "--explain"), "850be875c0969d89fd5681f06747c2c4e42a0c614710126c469def838f6d9c65"),
])
def test_query_of_the_region_fixture(capsys, flags, digest):
    out = _stdout(capsys, ["query", str(data_path("regions_fixture.nt")),
                           str(data_path("hot_dry_regions.rq")), *flags])
    assert _sha(out) == digest


@pytest.mark.parametrize("flags, digest", [
    (("--explain",), "1be239d84c0fc4484b644f7dddc0bc642155eca693f16d455bafff41ed8d5512"),
    (("--json", "--explain"), "95db3a785fcb3fb44b6761b02bc74b5c7ce5a0c17500bdf847604d74f1d1fa7e"),
])
def test_filter_query_of_the_converted_table(capsys, tmp_path, flags, digest):
    """Five patterns, the selective one first in the plan, and a FILTER whose
    string-against-number comparison is a type clash on every binding."""
    graph, query = tmp_path / "table.nt", tmp_path / "q.rq"
    _stdout(capsys, ["convert", str(data_path("forestfires_synthetic.csv")), str(graph)])
    query.write_text(BUNDLED_TABLE_QUERY, encoding="utf-8")
    out = _stdout(capsys, ["query", str(graph), str(query), *flags])
    assert _sha(out) == digest
