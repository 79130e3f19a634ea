"""Ontology schema metrics: from explicit counts and from an annotated graph.

Run: python demos/demo_metrics.py
"""

import json

from firedss import metrics, semweb
from firedss.semweb import Graph, Iri, Triple

# From explicit counts (the usual path: counts come from an ontology editor).
counts = metrics.OntologySummary(
    class_count=1007, object_property_count=454, data_property_count=198,
    subclass_axiom_count=2129, individual_count=587,
    classes_with_instances_count=587, axiom_count=5897)
print("metrics report for a 1007-class forest ontology's counts:")
print(json.dumps(metrics.report(counts), indent=2, sort_keys=True))

# From a graph annotated with the schema vocabulary.
EX = "http://example.org/demo#"
rdf_type = Iri(semweb.RDF_TYPE)
g = Graph(
    [Triple(Iri(EX + name), rdf_type, metrics.OWL_CLASS)
     for name in ("Sensor", "TemperatureSensor", "Zone")]
    + [Triple(Iri(EX + "TemperatureSensor"), metrics.RDFS_SUBCLASS_OF, Iri(EX + "Sensor")),
       Triple(Iri(EX + "locatedIn"), rdf_type, metrics.OWL_OBJECT_PROPERTY),
       Triple(Iri(EX + "hasReading"), rdf_type, metrics.OWL_DATATYPE_PROPERTY)]
    + [Triple(Iri(EX + f"t{k}"), rdf_type, Iri(EX + "TemperatureSensor")) for k in range(4)]
    + [Triple(Iri(EX + "z1"), rdf_type, Iri(EX + "Zone"))])

summary = metrics.summarize(g)
print("\nsummarized from a micro-graph:")
print(f"  {summary}")
values = metrics.report(summary)["metrics"]
print(f"  relationship richness {values['relationship_richness']:.4f}")
print(f"  class richness        {values['class_richness']:.4f}")
print(f"  average population    {values['average_population']:.4f}")
print(f"  knowledge-base score  {values['score_kb']:.4f}")
