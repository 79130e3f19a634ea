"""Convert tabular records to RDF, query them, and show a query plan.

Run: python demos/demo_semweb.py
"""

from firedss import data_text, ingest, semweb

# Tabular rows become one triple per cell under a chosen namespace.
dataset = ingest.parse_dataset(data_text("forestfires_synthetic.csv"))
graph = semweb.csv_to_graph(dataset, "http://example.org/forestfires#")
print(f"{len(dataset)} rows x {len(dataset.schema)} columns "
      f"-> {len(graph)} triples")

nt = semweb.serialize(graph, "ntriples")
print("\nfirst three canonical N-Triples lines:")
for line in nt.splitlines()[:3]:
    print(f"  {line}")

# Round trip is identity: the serialization is the interchange format.
assert semweb.parse_ntriples(nt) == graph

# Query the converted data directly.
hot_cells = semweb.parse_query("""
PREFIX ff: <http://example.org/forestfires#>
SELECT ?row ?t ?dc WHERE {
  ?row ff:temp ?t .
  ?row ff:DC ?dc .
  FILTER (?t > 30 && ?dc > 700)
}
""")
result = semweb.execute(hot_cells, graph)
print(f"\nhot high-drought rows: {len(result.rows)}")
for row in result.rows[:5]:
    print("  " + "\t".join(semweb.format_cell(c) for c in row))

# The bundled region fixture reproduces a known three-row answer.
regions = semweb.parse_ntriples(data_text("regions_fixture.nt"))
query = semweb.parse_query(data_text("hot_dry_regions.rq"))
table = semweb.execute(query, regions)
print("\nhot dry regions (temperature > 30, humidity < 30):")
print("  " + "\t".join(table.columns))
for row in table.rows:
    print("  " + "\t".join(semweb.format_cell(c) for c in row))

# The plan lists the patterns in the order the join ran them, with the
# candidate triples each one scanned and the bindings it left.
print("\nquery plan:")
for step, (i, candidates, n) in enumerate(table.plan, 1):
    print(f"  step {step}: pattern {i + 1} candidates={candidates} bindings={n}")
