"""Ontology schema metrics and composite quality scores.

Works either from explicit counts (an :class:`OntologySummary`) or from a
graph annotated with the standard schema vocabulary (owl:Class,
owl:ObjectProperty, owl:DatatypeProperty, rdfs:subClassOf, rdf:type).

The formulas are implemented exactly as printed in their source equations.
Property totals are read as: property_total = object + data properties
(used by relationship richness and the model score's |Prop|), while the
model score's relation term counts object properties only and attribute
richness counts data properties only.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .semweb import Graph, Iri, RDF_TYPE

RDFS_SUBCLASS_OF = Iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
OWL_CLASS = Iri("http://www.w3.org/2002/07/owl#Class")
OWL_OBJECT_PROPERTY = Iri("http://www.w3.org/2002/07/owl#ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri("http://www.w3.org/2002/07/owl#DatatypeProperty")

REPORT_NOTE = (
    "Metrics follow the printed formulas applied to the supplied counts; "
    "previously published score tables for other ontologies are not "
    "reproduction targets."
)


class DivisionByZero(ArithmeticError):
    def __init__(self, metric, reason):
        super().__init__(f"{metric}: {reason}")
        self.metric = metric


@dataclass(frozen=True)
class OntologySummary:
    class_count: int = 0
    object_property_count: int = 0
    data_property_count: int = 0
    subclass_axiom_count: int = 0
    individual_count: int = 0
    classes_with_instances_count: int = 0
    axiom_count: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if type(value) is not int or value < 0:    # a bool is not a count
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.classes_with_instances_count > self.class_count:
            raise ValueError("classes_with_instances_count exceeds class_count")

    @property
    def property_total(self):
        return self.object_property_count + self.data_property_count


def summarize(g: Graph) -> OntologySummary:
    """Count schema vocabulary usage by exact pattern matching.

    Individuals are subjects typed by a declared class; graphs without the
    vocabulary (e.g. plain tabular conversions) yield zero counts.
    axiom_count is the plain triple count.
    """
    rdf_type = Iri(RDF_TYPE)
    classes = set()
    object_properties = set()
    data_properties = set()
    subclass_axioms = 0
    typed = {}
    for t in g.triples:
        if t.predicate == rdf_type:
            if t.object == OWL_CLASS:
                classes.add(t.subject)
            elif t.object == OWL_OBJECT_PROPERTY:
                object_properties.add(t.subject)
            elif t.object == OWL_DATATYPE_PROPERTY:
                data_properties.add(t.subject)
            else:
                typed.setdefault(t.subject, set()).add(t.object)
        elif t.predicate == RDFS_SUBCLASS_OF:
            subclass_axioms += 1

    individuals = set()
    instantiated = set()
    for subject, types in typed.items():
        declared = types & classes
        if declared:
            individuals.add(subject)
            instantiated |= declared

    return OntologySummary(
        class_count=len(classes),
        object_property_count=len(object_properties),
        data_property_count=len(data_properties),
        subclass_axiom_count=subclass_axioms,
        individual_count=len(individuals),
        classes_with_instances_count=len(instantiated),
        axiom_count=len(g),
    )


def relationship_richness(s: OntologySummary) -> float:
    """Properties over subclass axioms plus properties; in [0, 1]."""
    denom = s.subclass_axiom_count + s.property_total
    if denom == 0:
        raise DivisionByZero("relationship_richness",
                             "no subclass axioms and no properties")
    return s.property_total / denom


def attribute_richness(s: OntologySummary) -> float:
    """Data properties per class."""
    if s.class_count == 0:
        raise DivisionByZero("attribute_richness", "class_count is 0")
    return s.data_property_count / s.class_count


def class_richness(s: OntologySummary) -> float:
    """Instantiated classes over all classes; in [0, 1]."""
    if s.class_count == 0:
        raise DivisionByZero("class_richness", "class_count is 0")
    return s.classes_with_instances_count / s.class_count


def average_population(s: OntologySummary) -> float:
    """Individuals per class."""
    if s.class_count == 0:
        raise DivisionByZero("average_population", "class_count is 0")
    return s.individual_count / s.class_count


def class_relation_ratio(s: OntologySummary) -> float:
    """Classes over subclass axioms plus object properties (interpretation:
    no printed equation exists for this ratio)."""
    denom = s.subclass_axiom_count + s.object_property_count
    if denom == 0:
        raise DivisionByZero("class_relation_ratio",
                             "no subclass axioms and no object properties")
    return s.class_count / denom


def axiom_class_ratio(s: OntologySummary) -> float:
    """Axioms per class (interpretation: no printed equation exists)."""
    if s.class_count == 0:
        raise DivisionByZero("axiom_class_ratio", "class_count is 0")
    return s.axiom_count / s.class_count


def score_om(s: OntologySummary) -> float:
    """Ontology-model score, computed exactly as written:
    ((rel*class*100) + (subclass+rel)*prop) / ((subclass+rel)*class)."""
    rel = s.object_property_count
    denom_axis = s.subclass_axiom_count + rel
    if s.class_count == 0 or denom_axis == 0:
        raise DivisionByZero("score_om", "class_count or subclass+relation total is 0")
    numerator = rel * s.class_count * 100 + denom_axis * s.property_total
    return numerator / (denom_axis * s.class_count)


def score_kb(s: OntologySummary) -> float:
    """Knowledge-base score: (class*100 + individuals) / class; >= 100 by
    construction whenever classes exist."""
    if s.class_count == 0:
        raise DivisionByZero("score_kb", "class_count is 0")
    return (s.class_count * 100 + s.individual_count) / s.class_count


# (name, function) for every metric, in report order
_METRICS = tuple((fn.__name__, fn) for fn in (
    relationship_richness, attribute_richness, class_richness,
    average_population, class_relation_ratio, axiom_class_ratio,
    score_om, score_kb))


def report(s: OntologySummary) -> dict:
    """JSON-ready report: counts, every metric that is defined for the
    counts (undefined ones are reported as null with the reason), and the
    footer note."""
    values = {}
    for name, fn in _METRICS:
        try:
            values[name] = fn(s)
        except DivisionByZero as exc:
            values[name] = None
            values.setdefault("undefined", {})[name] = str(exc)
    return {"counts": asdict(s), "metrics": values, "note": REPORT_NOTE}
