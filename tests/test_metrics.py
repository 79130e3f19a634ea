import random

import pytest
from hypothesis import given, settings, strategies as st

from firedss import metrics, semweb
from firedss.metrics import DivisionByZero, OntologySummary
from firedss.semweb import Graph, Iri, Literal, Triple

from oracles import ref_metrics

EX = "http://example.org/onto#"

# counts published for the 1007-class forest ontology, used as a fixture
FOREST_COUNTS = OntologySummary(
    class_count=1007, object_property_count=454, data_property_count=198,
    subclass_axiom_count=2129, individual_count=587,
    classes_with_instances_count=587, axiom_count=5897)


def summary(rng):
    c = rng.randint(1, 2000)
    return OntologySummary(
        class_count=c,
        object_property_count=rng.randint(0, 800),
        data_property_count=rng.randint(0, 500),
        subclass_axiom_count=rng.randint(0, 3000),
        individual_count=rng.randint(0, 4000),
        classes_with_instances_count=rng.randint(0, c),
        axiom_count=rng.randint(0, 9000))


class TestSummarize:
    def test_empty_graph(self):
        s = metrics.summarize(Graph())
        assert s == OntologySummary()

    def test_micro_ontology(self):
        rdf_type = Iri(semweb.RDF_TYPE)
        g = Graph(
            [Triple(Iri(EX + name), rdf_type, metrics.OWL_CLASS) for name in ("A", "B")]
            + [Triple(Iri(EX + "B"), metrics.RDFS_SUBCLASS_OF, Iri(EX + "A"))]
            + [Triple(Iri(EX + f"ind{k}"), rdf_type, Iri(EX + "A")) for k in range(3)]
            + [Triple(Iri(EX + "rel"), rdf_type, metrics.OWL_OBJECT_PROPERTY),
               Triple(Iri(EX + "attr"), rdf_type, metrics.OWL_DATATYPE_PROPERTY)])
        s = metrics.summarize(g)
        assert s.class_count == 2
        assert s.subclass_axiom_count == 1
        assert s.individual_count == 3
        assert s.classes_with_instances_count == 1
        assert s.object_property_count == 1
        assert s.data_property_count == 1
        assert s.axiom_count == len(g)

    def test_tabular_graph_has_no_schema(self, dataset_text):
        from firedss import ingest
        d = ingest.parse_dataset(dataset_text)
        small = ingest.Dataset(d.schema, d.rows[:5], d.provenance)
        s = metrics.summarize(semweb.csv_to_graph(small, EX))
        assert s.class_count == 0 and s.individual_count == 0

    def test_untyped_subjects_are_not_individuals(self):
        g = Graph([Triple(Iri(EX + "A"), Iri(semweb.RDF_TYPE), metrics.OWL_CLASS),
                   Triple(Iri(EX + "x"), Iri(EX + "p"), Literal("1", "integer"))])
        s = metrics.summarize(g)
        assert s.individual_count == 0


class TestFormulas:
    def test_relationship_richness_direct(self):
        s = OntologySummary(class_count=1, object_property_count=2,
                            data_property_count=1, subclass_axiom_count=1)
        assert metrics.relationship_richness(s) == 0.75

    def test_relationship_richness_boundaries(self):
        all_props = OntologySummary(class_count=1, object_property_count=3)
        assert metrics.relationship_richness(all_props) == 1.0
        all_sub = OntologySummary(class_count=1, subclass_axiom_count=5)
        assert metrics.relationship_richness(all_sub) == 0.0

    def test_attribute_richness(self):
        s = OntologySummary(class_count=2, data_property_count=4)
        assert metrics.attribute_richness(s) == 2.0
        assert metrics.attribute_richness(OntologySummary(class_count=2)) == 0.0

    def test_attribute_richness_forest_counts(self):
        assert metrics.attribute_richness(FOREST_COUNTS) == pytest.approx(
            198 / 1007, abs=1e-12)
        # the printed table value (0.9019) is not reachable from the counts

    def test_class_richness(self):
        s = OntologySummary(class_count=4, classes_with_instances_count=2)
        assert metrics.class_richness(s) == 0.5
        assert metrics.class_richness(OntologySummary(class_count=4)) == 0.0
        full = OntologySummary(class_count=4, classes_with_instances_count=4)
        assert metrics.class_richness(full) == 1.0

    def test_average_population(self):
        assert metrics.average_population(FOREST_COUNTS) == pytest.approx(
            587 / 1007, abs=1e-12)
        assert metrics.average_population(
            OntologySummary(class_count=1, individual_count=10)) == 10.0

    def test_score_om_direct(self):
        s = OntologySummary(class_count=10, object_property_count=2,
                            data_property_count=2, subclass_axiom_count=3)
        assert metrics.score_om(s) == pytest.approx(2020 / 50, abs=1e-12)

    def test_score_om_zero_relations(self):
        s = OntologySummary(class_count=5, subclass_axiom_count=1)
        assert metrics.score_om(s) == 0.0

    def test_score_kb_direct(self):
        s = OntologySummary(class_count=10, individual_count=50)
        assert metrics.score_kb(s) == 105.0
        assert metrics.score_kb(OntologySummary(class_count=10)) == 100.0

    def test_score_kb_forest_counts(self):
        assert metrics.score_kb(FOREST_COUNTS) == pytest.approx(
            (1007 * 100 + 587) / 1007, abs=1e-12)
        # >= 100 by construction; the printed 95.02 is arithmetically unreachable

    def test_division_by_zero_reported(self):
        with pytest.raises(DivisionByZero):
            metrics.relationship_richness(OntologySummary(class_count=1))
        with pytest.raises(DivisionByZero):
            metrics.attribute_richness(OntologySummary())


class TestOracleEquivalence:
    def test_matches_arithmetic_oracle(self):
        rng = random.Random(20240810)
        for _ in range(10_000):
            s = summary(rng)
            want = ref_metrics(s.class_count, s.object_property_count,
                               s.data_property_count, s.subclass_axiom_count,
                               s.individual_count, s.classes_with_instances_count,
                               s.axiom_count)
            for name, fn in (("relationship_richness", metrics.relationship_richness),
                             ("attribute_richness", metrics.attribute_richness),
                             ("class_richness", metrics.class_richness),
                             ("average_population", metrics.average_population),
                             ("class_relation_ratio", metrics.class_relation_ratio),
                             ("axiom_class_ratio", metrics.axiom_class_ratio),
                             ("score_om", metrics.score_om),
                             ("score_kb", metrics.score_kb)):
                if want[name] is None:
                    with pytest.raises(DivisionByZero):
                        fn(s)
                else:
                    assert fn(s) == pytest.approx(want[name], rel=1e-12), name


class TestInvariants:
    @given(st.integers(1, 5000), st.integers(0, 2000), st.integers(0, 2000),
           st.integers(0, 5000), st.integers(0, 10000))
    @settings(max_examples=300, deadline=None)
    def test_richness_bounds(self, c, op, dp, sc, ind):
        s = OntologySummary(class_count=c, object_property_count=op,
                            data_property_count=dp, subclass_axiom_count=sc,
                            individual_count=ind,
                            classes_with_instances_count=min(ind, c))
        if sc + op + dp > 0:
            assert 0.0 <= metrics.relationship_richness(s) <= 1.0
        assert 0.0 <= metrics.class_richness(s) <= 1.0
        assert metrics.score_kb(s) >= 100.0

    def test_summary_validation(self):
        with pytest.raises(ValueError):
            OntologySummary(class_count=-1)
        with pytest.raises(ValueError):
            OntologySummary(class_count=1, classes_with_instances_count=2)
        with pytest.raises(ValueError, match="class_count .* got True"):
            OntologySummary(class_count=True)


class TestReport:
    def test_report_shape_and_footer(self):
        rep = metrics.report(FOREST_COUNTS)
        assert rep["counts"]["class_count"] == 1007
        assert rep["metrics"]["score_kb"] >= 100.0
        assert rep["note"] == metrics.REPORT_NOTE

    def test_report_marks_undefined_metrics(self):
        rep = metrics.report(OntologySummary(class_count=3))
        assert rep["metrics"]["relationship_richness"] is None
        assert "relationship_richness" in rep["metrics"]["undefined"]

    def test_summarize_then_metrics_end_to_end(self):
        rdf_type = Iri(semweb.RDF_TYPE)
        g = Graph(
            [Triple(Iri(EX + name), rdf_type, metrics.OWL_CLASS) for name in "ABCD"]
            + [Triple(Iri(EX + sub), metrics.RDFS_SUBCLASS_OF, Iri(EX + "A")) for sub in "BC"]
            + [Triple(Iri(EX + prop), rdf_type, metrics.OWL_OBJECT_PROPERTY)
               for prop in ("p1", "p2")]
            + [Triple(Iri(EX + "d1"), rdf_type, metrics.OWL_DATATYPE_PROPERTY)]
            + [Triple(Iri(EX + f"i{k}"), rdf_type, Iri(EX + ("A" if k < 4 else "B")))
               for k in range(6)])
        s = metrics.summarize(g)
        # hand-computed: prop=3, subclass=2, classes=4, cwi=2, ind=6, axioms=15
        assert metrics.relationship_richness(s) == pytest.approx(3 / 5)
        assert metrics.attribute_richness(s) == pytest.approx(1 / 4)
        assert metrics.class_richness(s) == pytest.approx(2 / 4)
        assert metrics.average_population(s) == pytest.approx(6 / 4)
        assert metrics.score_om(s) == pytest.approx((2 * 4 * 100 + 4 * 3) / (4 * 4))
        assert metrics.score_kb(s) == pytest.approx((400 + 6) / 4)
