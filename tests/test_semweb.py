import copy
import pickle
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firedss import ingest, rules, semweb
from firedss.semweb import (
    BoolExpr, Comparison, Graph, GraphError, Iri, Literal, NTriplesSyntaxError,
    Query, QuerySyntaxError, TriplePattern, Triple, UnboundVariable,
    UnknownPrefix, Var, csv_to_graph, execute, parse_ntriples, parse_query,
    serialize,
)

from oracles import brute_force_clashes, brute_force_query

EX = "http://example.org/t#"


def iri(local):
    return Iri(EX + local)


# where str.splitlines breaks a line besides "\n" and "\r"
UNICODE_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# absolute IRIs of N-Triples IRIREF characters, and literals of arbitrary
# text in each datatype's lexical space
IRIS = st.builds(
    lambda scheme, rest: Iri(f"{scheme}:{rest}"),
    st.from_regex(r"[A-Za-z][A-Za-z0-9+.-]*", fullmatch=True),
    st.text(st.characters(min_codepoint=0x21, exclude_characters='<>"{}|^`\\'), min_size=1))
LITERALS = st.one_of(
    st.builds(Literal, st.text(), st.just("string")),
    st.builds(Literal, st.from_regex(r"[+-]?[0-9]+", fullmatch=True), st.just("integer")),
    st.builds(Literal, st.from_regex(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)", fullmatch=True),
              st.just("decimal")),
    st.builds(Literal, st.sampled_from(["true", "false"]), st.just("boolean")))

DECIMAL_POOL = ("0.5", "3.25", "7.0", "11.75", "19.5", "33.125")


def random_graph(rng, n_triples, n_subjects=8, n_predicates=5, n_objects=8):
    # literal pools are small on purpose: a dense term vocabulary both keeps
    # the enumeration oracle tractable and produces non-trivial joins
    triples = []
    for _ in range(n_triples):
        s = iri(f"s{rng.randrange(n_subjects)}")
        p = iri(f"p{rng.randrange(n_predicates)}")
        roll = rng.random()
        if roll < 0.45:
            o = iri(f"o{rng.randrange(n_objects)}")
        elif roll < 0.75:
            o = Literal(str(rng.randrange(0, 14)), "integer")
        elif roll < 0.9:
            o = Literal(rng.choice(DECIMAL_POOL), "decimal")
        else:
            o = Literal(rng.choice(["alpha", "beta", "gamma", "del\"ta", "e\\f"]),
                        "string")
        triples.append(Triple(s, p, o))
    return Graph(triples, {"ex": EX})


class TestTerms:
    """IRIs and literals are tagged-tuple terms of the rule language's term
    model, and triples and patterns (subject, predicate, object) tuples, that
    keep the constructors, fields, repr, ordering and pickling of plain value
    classes."""

    def test_fields_and_repr(self):
        lit = Literal("1.5", "decimal")
        t = Triple(iri("s"), iri("p"), lit)
        assert (iri("s").value, lit.lexical, lit.datatype) == (EX + "s", "1.5", "decimal")
        assert (t.subject, t.predicate, t.object) == (iri("s"), iri("p"), lit)
        assert Literal("a").datatype == "string" and Var("x").name == "x"
        assert repr(iri("s")) == f"Iri(value='{EX}s')"
        assert repr(lit) == "Literal(lexical='1.5', datatype='decimal')"
        assert repr(t) == (f"Triple(subject=Iri(value='{EX}s'), predicate=Iri(value='{EX}p'), "
                           "object=Literal(lexical='1.5', datatype='decimal'))")
        assert repr(TriplePattern(Var("s"), iri("p"), Var("o"))) == (
            f"TriplePattern(subject=Variable(name='s'), predicate=Iri(value='{EX}p'), "
            "object=Variable(name='o'))")
        assert not hasattr(iri("s"), "lexical") and not hasattr(lit, "value")

    def test_terms_are_immutable(self):
        for value, field in ((iri("s"), "value"), (Literal("a"), "lexical"),
                             (Triple(iri("s"), iri("p"), iri("o")), "object"), (Var("x"), "name")):
            with pytest.raises(AttributeError):
                setattr(value, field, "other")

    @pytest.mark.parametrize("value", [
        iri("s"), Literal("a"), Literal("-0.5", "decimal"), Literal("7", "integer"),
        Literal("true", "boolean"), Var("x"), Triple(iri("s"), iri("p"), Literal("2", "integer")),
        TriplePattern(Var("s"), iri("p"), Literal("x")),
    ], ids=repr)
    def test_pickle_and_copy_round_trip(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is type(value) and repr(back) == repr(value)
        for back in (copy.copy(value), copy.deepcopy(value)):
            assert back == value and type(back) is type(value)

    def test_sort_order(self):
        assert sorted([iri("b"), iri("a2"), iri("a")]) == [iri("a"), iri("a2"), iri("b")]
        literals = [Literal("1", "integer"), Literal("b"), Literal("1", "decimal"), Literal("0")]
        assert sorted(literals) == [Literal("0"), Literal("1", "decimal"),
                                    Literal("1", "integer"), Literal("b")]
        with pytest.raises(TypeError):
            sorted([iri("a"), Literal("a")])

    def test_kinds_never_compare_equal(self):
        assert Iri(EX + "a") != Literal(EX + "a")
        assert Literal("1", "integer") != Literal("1.0", "decimal")
        assert Literal("1", "integer") != Literal("1", "decimal")
        assert Literal("a") != rules.Str("a") and Literal("true", "boolean") != rules.Bool(True)
        assert len({Iri(EX + "a"), Literal(EX + "a"), rules.Str(EX + "a")}) == 3

    def test_one_variable_kind(self):
        assert Var is rules.Variable
        assert Var("x") == rules.Variable("x") and Var("x") != rules.Individual("x")
        rule = rules.parse_rules("rule r: when P(?x) then assert Q(?x)").rules[0]
        assert rule.body[0].args[0] == Var("x")


class TestCsvToGraph:
    def test_triple_count_is_rows_times_columns(self, dataset_text):
        d = ingest.parse_dataset(dataset_text)
        g = csv_to_graph(d, EX)
        assert len(g) == len(d) * 13 == 6721

    def test_cell_mapping(self):
        d = ingest.parse_dataset(
            "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area\n"
            "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0\n")
        g = csv_to_graph(d, EX)
        assert Triple(iri("row0"), iri("X"), Literal("8", "integer")) in g
        assert Triple(iri("row0"), iri("month"), Literal("aug", "string")) in g
        assert Triple(iri("row0"), iri("FFMC"), Literal("92.3", "decimal")) in g

    def test_empty_dataset(self):
        d = ingest.parse_dataset("X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area\n")
        g = csv_to_graph(d, EX)
        assert len(g) == 0 and g.prefixes

    def test_row_iri_is_checked_once_per_table(self):
        # "urn" + ":x" is an absolute IRI, "urn" + "row0" has no scheme
        schema = [ingest.Column(":x", "numeric")]
        with pytest.raises(GraphError, match="not an absolute IRI: 'urnrow0'"):
            csv_to_graph(ingest.Dataset(schema, [(1.5,), (2,)]), "urn")
        g = csv_to_graph(ingest.Dataset(schema, []), "urn")
        assert len(g) == 0 and g.prefixes == {"ds": "urn"}

    def test_triple_count_invariant_random(self):
        rng = random.Random(4)
        for _ in range(5):
            rows = rng.randint(0, 9)
            text = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area\n" + "".join(
                "4,5,jul,fri,90.0,30.0,200.0,5.0,20.0,40,4.0,0.0,1.5\n"
                for _ in range(rows))
            assert len(csv_to_graph(ingest.parse_dataset(text), EX)) == rows * 13


class TestNTriples:
    def test_empty_graph(self):
        assert serialize(Graph(), "ntriples") == ""

    def test_single_triple_line(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        text = serialize(g, "ntriples")
        assert text.count("\n") == 1 and text.rstrip().endswith(".")

    def test_canonical_ordering(self):
        g = Graph([Triple(iri("b"), iri("p"), Literal("2", "integer")),
                   Triple(iri("a"), iri("p"), Literal("1", "integer"))])
        lines = serialize(g, "ntriples").splitlines()
        assert lines == sorted(lines)

    def test_roundtrip_random_graphs(self):
        rng = random.Random(99)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 300))
            assert parse_ntriples(serialize(g, "ntriples")) == g

    def test_roundtrip_large(self):
        rng = random.Random(5)
        g = random_graph(rng, 10_000, n_subjects=300, n_predicates=40, n_objects=500)
        assert parse_ntriples(serialize(g, "ntriples")) == g

    def test_duplicate_lines_collapse(self):
        line = f'<{EX}s> <{EX}p> <{EX}o> .'
        g = parse_ntriples(line + "\n" + line + "\n")
        assert len(g) == 1

    def test_missing_dot(self):
        with pytest.raises(NTriplesSyntaxError) as err:
            parse_ntriples(f"<{EX}s> <{EX}p> <{EX}o>\n")
        assert err.value.line == 1

    def test_escape_roundtrip(self):
        tricky = 'a "quoted"\nline\twith \\ stuff'
        g = Graph([Triple(iri("s"), iri("p"), Literal(tricky, "string"))])
        back = parse_ntriples(serialize(g, "ntriples"))
        (t,) = back.triples
        assert t.object.lexical == tricky

    def test_escaped_literal_line(self):
        # every character that N-Triples escapes, and a non-ASCII one written raw
        g = Graph([Triple(iri("s"), iri("p"), Literal('a\\b"c\nd\re\tf\u00e9', "string"))])
        written = r'a\\b\"c\nd\re\tf' + "\u00e9"
        line = f'<{EX}s> <{EX}p> "{written}"^^<{semweb.XSD}string> .\n'
        assert serialize(g, "ntriples") == line
        assert parse_ntriples(line) == g

    @pytest.mark.parametrize("escape", [r"\q", r"\u0041"])
    def test_bad_escape_is_rejected(self, escape):
        lexical = f"x{escape}y"
        with pytest.raises(NTriplesSyntaxError) as err:
            parse_ntriples(f'<{EX}s> <{EX}p> "{lexical}" .\n')
        assert str(err.value) == f"line 1: bad escape {escape[:2]!r}"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.builds(Triple, IRIS, IRIS, st.one_of(IRIS, LITERALS)), max_size=6))
    def test_roundtrip_arbitrary_iris_and_literals(self, triples):
        g = Graph(triples)
        assert parse_ntriples(serialize(g, "ntriples")) == g

    @pytest.mark.parametrize("char", UNICODE_LINE_BREAKS)
    def test_only_lf_ends_a_line(self, char):
        g = Graph([Triple(iri("s"), iri("p"), Literal(f"a{char}b")),
                   Triple(iri("s"), iri("q"), Literal("c"))])
        assert parse_ntriples(serialize(g, "ntriples")) == g

    @pytest.mark.parametrize("char", '<>"{}|^`\\ \t\n\x00\udcff')
    def test_iri_outside_iriref_is_rejected(self, char):
        for value in (f"{EX}a{char}b", EX + char):
            with pytest.raises(GraphError, match="not an absolute IRI"):
                Iri(value)

    def test_unicode_whitespace_between_terms_is_a_syntax_error(self):
        with pytest.raises(NTriplesSyntaxError) as err:
            parse_ntriples('<http://a/s>　<http://a/p>\x0c<http://a/o> .\n')
        assert err.value.line == 1

    @pytest.mark.parametrize("char", "\x0b\x0c\x1c\x85\xa0 　")
    def test_only_space_and_tab_stand_around_a_line_and_between_its_terms(self, char):
        good = f"<{EX}s> <{EX}p> <{EX}o> ."
        for line in (f"<{EX}s>{char}<{EX}p> <{EX}o> .", f"<{EX}s> <{EX}p> <{EX}o>{char}.",
                     f"{char}{good}", f"{good}{char}", char):
            with pytest.raises(NTriplesSyntaxError) as err:
                parse_ntriples(f"{good}\n{line}\n")
            assert err.value.line == 2

    def test_spaces_tabs_and_crlf_are_taken(self):
        text = (f" \t<{EX}s>\t<{EX}p>  <{EX}o> \t. \r\n\t\r\n"
                f"<{EX}s> <{EX}p> <{EX}o2> .\r\n")
        assert parse_ntriples(text) == Graph([Triple(iri("s"), iri("p"), iri("o")),
                                              Triple(iri("s"), iri("p"), iri("o2"))])

    def test_a_lone_cr_ends_a_line(self, regions_graph_text):
        # as N-Triples' EOL, [#xD#xA]+; the bundled graph once failed with
        # "line 1: malformed triple"
        assert parse_ntriples(regions_graph_text.replace("\n", "\r")) == \
            parse_ntriples(regions_graph_text)
        with pytest.raises(NTriplesSyntaxError, match=r"^line 3: malformed triple$"):
            parse_ntriples(f"<{EX}s> <{EX}p> <{EX}o> .\r# c\r<{EX}s> <{EX}p> .\r")

    def test_a_raw_cr_in_a_literal_ends_its_line(self):
        # N-Triples excludes #xD from a literal; "\\r" is its escape
        with pytest.raises(NTriplesSyntaxError, match=r"^line 1: missing terminal '\.'$"):
            parse_ntriples(f'<{EX}s> <{EX}p> "a\rb" .\n')

    def test_untyped_literal_reads_as_string(self):
        g = parse_ntriples(f'<{EX}s> <{EX}p> "plain" .\n')
        (t,) = g.triples
        assert t.object == Literal("plain", "string")


    @pytest.mark.parametrize("place", ["subject", "predicate", "object"])
    def test_invalid_iri_on_several_lines_fails_on_its_first(self, place):
        # each IRI text is checked once, on the line where it first occurs;
        # the valid IRIs around it are met again and again
        bad = "<not-an-iri>"
        terms = {"subject": f"<{EX}s>", "predicate": f"<{EX}p>", "object": f"<{EX}o>"}
        good = " ".join(terms.values()) + " ."
        terms[place] = bad
        line = " ".join(terms.values()) + " ."
        text = "\n".join([good, good, "", line, good, line, line]) + "\n"
        with pytest.raises(NTriplesSyntaxError) as err:
            parse_ntriples(text)
        assert (err.value.line, err.value.reason) == (4, "not an absolute IRI: 'not-an-iri'")

    def test_equal_iri_texts_share_one_term(self):
        first, second = parse_ntriples(f"<{EX}s> <{EX}p> <{EX}s> .\n"
                                       f"<{EX}s> <{EX}q> <{EX}o> .\n").triples
        assert first.subject is first.object is second.subject

    @pytest.mark.parametrize("written, lexical", [
        (r"a\nb", "a\nb"), (r"say \"hi\"", 'say "hi"'), (r"back\\slash", "back\\slash")],
        ids=["newline", "quote", "backslash"])
    def test_escaped_literal_after_many_plain_ones(self, written, lexical):
        lines = [f'<{EX}s{k}> <{EX}p> "plain {k}"^^<{semweb.XSD}string> .' for k in range(500)]
        lines.append(f'<{EX}t> <{EX}p> "{written}"^^<{semweb.XSD}string> .')
        text = "\n".join(sorted(lines)) + "\n"
        g = parse_ntriples(text)
        assert Triple(iri("t"), iri("p"), Literal(lexical)) in g
        assert len(g) == 501 and serialize(g) == text


class TestXsdLexicalSpaces:
    """Numeric literals take only the XSD 1.1 lexical spaces, and
    `literal_for` writes floats without an exponent."""

    @pytest.mark.parametrize("lexical,datatype", [
        ("nan", "decimal"), ("inf", "decimal"), ("-Infinity", "decimal"),
        ("1e5", "decimal"), ("1E5", "decimal"), (" 3", "decimal"), ("3 ", "decimal"),
        ("1_0", "decimal"), (".", "decimal"), ("", "decimal"), ("+-1", "decimal"),
        ("1.2.3", "decimal"), ("\u0663", "decimal"),
        (" 3", "integer"), ("1_000", "integer"), ("\u0663", "integer"),
        ("1.0", "integer"), ("1e3", "integer"), ("", "integer"), ("-", "integer"),
    ])
    def test_outside_the_lexical_space_is_rejected(self, lexical, datatype):
        with pytest.raises(GraphError, match=f"bad {datatype} lexical form"):
            Literal(lexical, datatype)

    @pytest.mark.parametrize("lexical,datatype,value", [
        ("3", "decimal", 3.0), ("+3.", "decimal", 3.0), ("-.5", "decimal", -0.5),
        ("0012.50", "decimal", 12.5), ("+7", "integer", 7), ("-007", "integer", -7),
    ])
    def test_inside_the_lexical_space_is_accepted(self, lexical, datatype, value):
        number = {"integer": int, "decimal": float}[datatype]
        assert number(Literal(lexical, datatype).lexical) == value

    @pytest.mark.parametrize("value,lexical", [
        (1e-07, "0.0000001"), (-2.5e-10, "-0.00000000025"),
        (1e16, "10000000000000000"), (1.5e22, "15" + "0" * 21),
        (92.3, "92.3"), (7.0, "7.0"), (-0.0, "-0.0"),
    ])
    def test_literal_for_writes_no_exponent(self, value, lexical):
        literal = semweb.literal_for(value)
        assert literal == Literal(lexical, "decimal")
        assert float(literal.lexical) == value

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_literal_for_rejects_non_finite_floats(self, value):
        with pytest.raises(GraphError):
            semweb.literal_for(value)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(),
                     st.integers(min_value=-10**400, max_value=10**400)))
    def test_literal_for_builds_only_checked_literals(self, value):
        literal = semweb.literal_for(value)
        assert semweb._NUMERIC_LEXICAL[literal.datatype].fullmatch(literal.lexical)
        checked = Literal(literal.lexical, literal.datatype)
        assert literal == checked and type(literal) is Literal
        assert type(literal.lexical) is str

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.text())
    def test_literal_for_keeps_any_text(self, value):
        assert semweb.literal_for(value) == Literal(value, "string")

    class Count(int):
        def __str__(self):
            return "many"

    class Ratio(float):
        def __repr__(self):
            return "half"

    class Whole(int):
        pass

    class Real(float):
        pass

    class Name(str):
        pass

    @pytest.mark.parametrize("value,literal", [
        (True, Literal("true", "boolean")), (False, Literal("false", "boolean")),
        (Whole(5), Literal("5", "integer")), (Real(0.5), Literal("0.5", "decimal")),
        (Name("aug"), Literal("aug")), (None, Literal("None")),
    ], ids=repr)
    def test_literal_for_other_types_keep_the_checked_result(self, value, literal):
        got = semweb.literal_for(value)
        assert got == literal and type(got.lexical) is str

    @pytest.mark.parametrize("value,message", [
        (Count(3), "bad integer lexical form: 'many'"),
        (Ratio(0.5), "bad decimal lexical form: 'half'"),
    ], ids=repr)
    def test_literal_for_other_types_keep_the_checked_error(self, value, message):
        with pytest.raises(GraphError, match=re.escape(message)):
            semweb.literal_for(value)

    def test_literal_for_numpy_float_takes_the_checked_path(self):
        # numpy 2 writes np.float64(0.5), outside the decimal space; numpy 1
        # writes 0.5
        value = np.float64(0.5)
        try:
            expected = Literal(repr(value), "decimal")
        except GraphError as exc:
            with pytest.raises(GraphError, match=re.escape(str(exc))):
                semweb.literal_for(value)
        else:
            assert semweb.literal_for(value) == expected

    def test_integer_past_the_int_string_digit_limit(self):
        digits = "1" * 5000
        xsd = semweb.XSD
        g = parse_ntriples(f'<{EX}big> <{EX}p> "{digits}"^^<{xsd}integer> .\n'
                           f'<{EX}small> <{EX}p> "7"^^<{xsd}integer> .\n'
                           f'<{EX}half> <{EX}p> "2.5"^^<{xsd}decimal> .\n')
        q = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER (?v > 5) }}")
        result = execute(q, g)
        assert set(result.rows) == {(iri("big"),), (iri("small"),)}
        assert result.type_clashes == 0

    @pytest.mark.parametrize("small, large", [
        ("1" * 400, "2" * 400), ("0.1", "0.10000000000000000001"), ("-3", "-2.99999999999999999999"),
    ], ids=["past-the-float-range", "past-17-digits", "integer-and-decimal"])
    def test_decimals_compare_by_their_exact_values(self, small, large):
        a, b = Literal(small, "decimal"), Literal(large, "decimal")
        x, y = semweb._key(a), semweb._key(b)
        assert not semweb._compare("=", x, y) and semweb._compare("!=", x, y)
        assert semweb._compare("<", x, y) and semweb._compare(">", y, x)
        g = Graph([Triple(iri("s"), iri("p"), b)])
        q = parse_query(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v . FILTER (?v = {small}) }}")
        assert execute(q, g).rows == ()

    def test_ntriples_with_an_exponent_decimal_is_a_syntax_error(self):
        with pytest.raises(NTriplesSyntaxError) as err:
            parse_ntriples(f'<{EX}s> <{EX}p> "1e5"^^<{semweb.XSD}decimal> .\n')
        assert err.value.line == 1

    def test_query_number_with_non_ascii_digits_is_a_syntax_error(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o . FILTER(?o > \u0663) }")


class TestRdfXml:
    def test_well_formed_and_complete(self, dataset_text):
        d = ingest.parse_dataset(dataset_text)
        small = ingest.Dataset(d.schema, d.rows[:7], d.provenance)
        g = csv_to_graph(small, EX)
        text = serialize(g, "rdfxml")
        import xml.dom.minidom as minidom
        dom = minidom.parseString(text)
        assert len(dom.getElementsByTagName("rdf:Description")) == 7

    def test_iri_objects_use_resource(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        assert 'rdf:resource="http://example.org/t#o"' in serialize(g, "rdfxml")

    def test_unknown_format_rejected(self):
        with pytest.raises(GraphError):
            serialize(Graph(), "turtle")


@pytest.mark.parametrize("place", ["subject", "predicate"])
@pytest.mark.parametrize("format", ["ntriples", "rdfxml"])
def test_literal_subject_or_predicate_is_refused(place, format):
    # beside a good triple, RDF-XML's sort would compare an Iri with the
    # Literal; alone, the Literal's missing `value` would be read
    terms = {"subject": iri("s"), "predicate": iri("p"), "object": iri("o")}
    terms[place] = Literal("a")
    g = Graph([Triple(iri("s"), iri("p"), iri("o")), Triple(*terms.values())])
    with pytest.raises(GraphError, match=re.escape(repr(Literal("a")))):
        serialize(g, format)
    with pytest.raises(GraphError, match=re.escape(repr(Literal("a")))):
        serialize(Graph([Triple(*terms.values())]), format)


@pytest.mark.parametrize("lexical", [5, 5.0, None, b"5", ["5"]])
@pytest.mark.parametrize("datatype", ["string", "integer", "decimal", "boolean"])
def test_lexical_form_that_is_not_text_is_refused(lexical, datatype):
    with pytest.raises(GraphError, match=re.escape(f"{datatype} lexical form is not text: "
                                                   f"{lexical!r}")):
        Literal(lexical, datatype)


@pytest.mark.parametrize("obj", ["x", "", 5, None, (), ("a",), (semweb.Iri,),
                                 rules.Str("v"), rules.Individual("rec_1")],
                         ids=["text", "empty-text", "int", "none", "empty-tuple", "1-tuple",
                              "bare-kind", "rule-string", "rule-individual"])
@pytest.mark.parametrize("format", ["ntriples", "rdfxml"])
def test_object_that_is_not_a_term_is_refused_by_name(obj, format):
    # beside a good triple and alone
    bad = Triple(iri("s"), iri("p"), obj)
    for g in (Graph([Triple(iri("s"), iri("p"), iri("o")), bad]), Graph([bad])):
        with pytest.raises(GraphError, match=re.escape(f"not an RDF term: {obj!r}")):
            serialize(g, format)


REGION_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ex: <http://example.org/forest#>
SELECT ?region ?temperature ?humidity WHERE {
  ?area rdf:type ex:ForestArea .
  ?area ex:hasName ?region .
  ?area ex:hasTemperature ?temperature .
  ?area ex:hasHumidity ?humidity .
  FILTER (?temperature > 30 && ?humidity < 30)
}
"""


PRINTED_REGION_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ex: <http://example.org/forest#>
SELECT ?region ?temperature ?humidity WHERE {
  ?region rdf:type ex:ForestArea .
  ?region ex:hasTemperature ?temperature .
  ?region ex:hasHumidity ?humidity .
  FILTER (?temperature > 30 && ?humidity < 30)
}
"""


class TestParseQuery:
    def test_region_query_shape(self):
        q = parse_query(REGION_QUERY)
        assert q.select == ("region", "temperature", "humidity")
        assert len(q.patterns) == 4
        f = q.filter
        assert isinstance(f, BoolExpr) and f.op == "&&"
        assert isinstance(f.left, Comparison) and f.left.op == ">"
        assert f.left.right == Literal("30", "integer")

    def test_printed_form_shape(self):
        # the three-pattern form binding ?region as the pattern subject
        q = parse_query(PRINTED_REGION_QUERY)
        assert q.select == ("region", "temperature", "humidity")
        assert len(q.patterns) == 3
        assert isinstance(q.filter, BoolExpr)

    def test_printed_form_returns_region_resources(self):
        # executed as printed, ?region binds to the region IRIs; the dry
        # region is still excluded by the filter
        result = execute(parse_query(PRINTED_REGION_QUERY), region_fixture_graph())
        subjects = {row[0].value.rsplit("#", 1)[1] for row in result.rows}
        assert subjects == {"PineValley", "OakRidge", "MapleHill"}

    def test_type_abbreviation(self):
        q = parse_query("PREFIX ex: <http://example.org/t#>\n"
                        "SELECT ?x WHERE { ?x a ex:ForestArea . }")
        assert q.patterns[0].predicate == Iri(semweb.RDF_TYPE)

    def test_select_star(self):
        q = parse_query(f"SELECT * WHERE {{ ?x <{EX}p> ?y . }}")
        assert q.select is None

    def test_filter_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y . FILTER (?z > 3) }}")

    def test_projection_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            parse_query(f"SELECT ?q WHERE {{ ?x <{EX}p> ?y . }}")

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefix):
            parse_query("SELECT ?x WHERE { ?x nope:p ?y . }")

    def test_syntax_error_position(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?x WHERE { ?x ")

    @pytest.mark.parametrize("token, literal", [
        ("-12", Literal("-12", "integer")),
        ("3.5", Literal("3.5", "decimal")),
        ('"a \\"b\\""', Literal('a "b"', "string")),
        ("true", Literal("true", "boolean")),
    ])
    def test_literal_same_in_object_and_filter(self, token, literal):
        q = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}p> {token} . "
                        f"?s <{EX}q> ?v . FILTER (?v = {token}) }}")
        assert q.patterns[0].object == literal
        assert q.filter.right == literal

    @pytest.mark.parametrize("escape", [r"\q", r"\u0041"])
    def test_bad_escape_in_string_literal(self, escape):
        head = f'SELECT ?s WHERE {{\n ?s <{EX}p> "x'
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(f'{head}{escape}y" . }}')
        column = len(head) - head.index("\n")
        assert str(err.value) == f"line 2, column {column}: bad escape {escape[:2]!r}"

    @pytest.mark.parametrize("text, message", [
        (f"SELECT ?s WHERE {{ ?s <{EX}p> . }}", "expected object term"),
        (f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER (?v > <{EX}o>) }}",
         "expected filter operand"),
    ])
    def test_literal_error_texts(self, text, message):
        with pytest.raises(QuerySyntaxError, match=message):
            parse_query(text)

    @pytest.mark.parametrize("depth", [semweb.MAX_FILTER_DEPTH + 1, 2000, 100_000])
    def test_deep_filter_parentheses_rejected(self, depth):
        head = f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER ("
        text = head + "(" * depth + "?v > 1" + ")" * depth + ") }"
        with pytest.raises(QuerySyntaxError) as info:
            parse_query(text)
        assert (info.value.line, info.value.column) == (1, len(head) + semweb.MAX_FILTER_DEPTH + 1)

    def test_filter_parentheses_at_limit_accepted(self):
        depth = semweb.MAX_FILTER_DEPTH
        text = (f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER ("
                + "(" * depth + "?v > 1" + ")" * depth + ") }")
        g = Graph([Triple(iri("s"), iri("p"), Literal("2", "integer"))])
        assert len(execute(parse_query(text), g)) == 1

    @pytest.mark.parametrize("joiner", [" && ", " || ", ") FILTER ("])
    def test_long_filter_chains_rejected(self, joiner):
        limit = semweb.MAX_FILTER_OPERATORS
        head = f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER ("
        leaf = "?v > 1"
        g = Graph([Triple(iri("s"), iri("p"), Literal("2", "integer"))])
        at_limit = head + joiner.join([leaf] * (limit + 1)) + ") }"
        assert len(execute(parse_query(at_limit), g)) == 1
        with pytest.raises(QuerySyntaxError) as info:
            parse_query(head + joiner.join([leaf] * 3000) + ") }")
        operator_offset = joiner.index(joiner.strip(" ()"))
        assert (info.value.line, info.value.column) == (
            1, len(head) + limit * len(leaf + joiner) + len(leaf) + operator_offset + 1)


def region_fixture_graph():
    ns = "http://example.org/forest#"
    rows = [("PineValley", "Pine Valley", 35, 25), ("OakRidge", "Oak Ridge", 34, 20),
            ("MapleHill", "Maple Hill", 32, 29), ("SouthForest", "South Forest", 28, 32)]
    triples = []
    for local, name, t, h in rows:
        s = Iri(ns + local)
        triples += [Triple(s, Iri(semweb.RDF_TYPE), Iri(ns + "ForestArea")),
                    Triple(s, Iri(ns + "hasName"), Literal(name, "string")),
                    Triple(s, Iri(ns + "hasTemperature"), Literal(str(t), "integer")),
                    Triple(s, Iri(ns + "hasHumidity"), Literal(str(h), "integer"))]
    return Graph(triples, {"ex": ns})


class TestExecute:
    def test_region_fixture_rows(self):
        result = execute(parse_query(REGION_QUERY), region_fixture_graph())
        cells = [tuple(semweb.format_cell(c) for c in row) for row in result.rows]
        assert cells == [("Maple Hill", "32", "29"),
                         ("Oak Ridge", "34", "20"),
                         ("Pine Valley", "35", "25")]

    def test_fixture_files_agree(self, regions_graph_text, regions_query_text):
        g = parse_ntriples(regions_graph_text)
        result = execute(parse_query(regions_query_text), g)
        names = {semweb.format_cell(r[0]) for r in result.rows}
        assert names == {"Pine Valley", "Oak Ridge", "Maple Hill"}

    def test_empty_graph_gives_no_rows(self):
        assert len(execute(parse_query(REGION_QUERY), Graph())) == 0

    def test_tautological_filter_is_neutral(self):
        g = region_fixture_graph()
        plain = parse_query("PREFIX ex: <http://example.org/forest#>\n"
                            "SELECT ?r ?t WHERE { ?r ex:hasTemperature ?t . }")
        guarded = parse_query("PREFIX ex: <http://example.org/forest#>\n"
                              "SELECT ?r ?t WHERE { ?r ex:hasTemperature ?t . "
                              "FILTER (?t <= ?t) }")
        assert execute(plain, g).rows == execute(guarded, g).rows

    def test_iri_comparison_rejects_binding(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o")),
                   Triple(iri("s"), iri("q"), Literal("5", "integer"))])
        q = parse_query(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v . FILTER (?v > 1) }}")
        result = execute(q, g)
        assert len(result.rows) == 0 and result.type_clashes == 1

    def test_numeric_coercion_across_integer_and_decimal(self):
        g = Graph([Triple(iri("s"), iri("p"), Literal("2.5", "decimal"))])
        q = parse_query(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v . FILTER (?v > 2) }}")
        assert len(execute(q, g)) == 1

    def test_repeated_variable_pattern(self):
        g = Graph([Triple(iri("a"), iri("p"), iri("a")),
                   Triple(iri("a"), iri("p"), iri("b")),
                   Triple(iri("b"), iri("q"), iri("b"))])
        q = parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p> ?x }}")
        assert execute(q, g).rows == ((iri("a"),),)
        q = parse_query(f"SELECT ?x ?p WHERE {{ ?x ?p ?x }}")
        assert execute(q, g).rows == ((iri("a"), iri("p")), (iri("b"), iri("q")))

    def test_literal_subject_matches_nothing(self):
        g = Graph([Triple(iri("s"), iri("p"), Literal("5", "integer")),
                   Triple(iri("s"), iri("q"), iri("o"))])
        lit = Literal("5", "integer")
        for pattern in (TriplePattern(lit, iri("p"), Var("o")),
                        TriplePattern(lit, Var("p"), Var("o"))):
            q = Query({}, ("o",), (pattern,), None)
            assert execute(q, g).rows == ()
        # a variable bound to a literal, then used as a subject, joins nothing
        q = parse_query(f"SELECT ?v ?w WHERE {{ ?s <{EX}p> ?v . ?v ?p ?w }}")
        assert execute(q, g).rows == ()

    def test_plan_runs_most_bound_pattern_first(self):
        g = region_fixture_graph()
        q = parse_query("PREFIX ex: <http://example.org/forest#>\n"
                        "SELECT ?r ?t WHERE { ?r ex:hasTemperature ?t . "
                        "?r ex:hasName \"Oak Ridge\" }")
        result = execute(q, g)
        assert result.plan == ((1, 1, 1), (0, 1, 1))
        assert [semweb.format_cell(c) for c in result.rows[0]] == [
            "http://example.org/forest#OakRidge", "34"]
        empty = execute(parse_query(
            "PREFIX ex: <http://example.org/forest#>\n"
            "SELECT ?r WHERE { ?r ex:hasTemperature ?t . ?r ex:nothing ?x . "
            "?r ex:hasName ?n }"), g)
        assert empty.plan == ((0, 4, 4), (1, 0, 0))

    def test_plan_candidates_are_the_triples_the_probe_admits(
            self, regions_graph_text, regions_query_text, dataset_text):
        regions = parse_ntriples(regions_graph_text)
        table = csv_to_graph(ingest.parse_dataset(dataset_text), EX)
        # the last query scans: its one pattern has no bound position
        for q, g in ((parse_query(regions_query_text), regions),
                     (parse_query(f"SELECT ?r ?t ?h WHERE {{ ?r <{EX}temp> ?t . "
                                  f'?r <{EX}RH> ?h . ?r <{EX}month> "aug" }}'), table),
                     (parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }"), regions)):
            result = execute(q, g)
            assert len(result.plan) == len(q.patterns) and len(result) > 0
            # replayed by brute force in plan order: a step's candidates are,
            # per binding so far, the triples that agree with its pattern at
            # the positions a constant or an earlier step's variable fixes
            partial = [{}]
            for i, candidates, out in result.plan:
                pattern, tried, extended = q.patterns[i], 0, []
                for binding in partial:
                    fixed = [(k, binding[t.name] if isinstance(t, Var) else t)
                             for k, t in enumerate(pattern)
                             if not isinstance(t, Var) or t.name in binding]
                    for triple in g.triples:
                        if all(triple[k] == term for k, term in fixed):
                            tried += 1
                            new = dict(binding)
                            if all(new.setdefault(t.name, v) == v
                                   for t, v in zip(pattern, triple) if isinstance(t, Var)):
                                extended.append(new)
                assert (candidates, out) == (tried, len(extended))
                partial = extended

    def test_select_star_lists_the_variables_in_pattern_order(self, regions_graph_text):
        result = execute(parse_query("SELECT * WHERE { ?s ?p ?o . ?s ?q ?v }"),
                         parse_ntriples(regions_graph_text))
        assert result.columns == ("s", "p", "o", "q", "v")
        assert len(result.rows) == 64

    @pytest.mark.parametrize("condition, names, clashes", [
        ('?n < "Oak Ridge"', ["Maple Hill"], 0),
        ("?n > 3", [], 4),
    ], ids=["string-order", "string-vs-number"])
    def test_string_comparison(self, regions_graph_text, condition, names, clashes):
        q = parse_query("PREFIX ex: <http://example.org/forest#>\n"
                        f"SELECT ?n WHERE {{ ?r ex:hasName ?n . FILTER ({condition}) }}")
        result = execute(q, parse_ntriples(regions_graph_text))
        assert [semweb.format_cell(row[0]) for row in result.rows] == names
        assert result.type_clashes == clashes

    def test_join_commutativity(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_graph(rng, 60)
            q = _random_query(rng)
            base = execute(q, g).rows
            for perm in _pattern_permutations(q):
                assert execute(perm, g).rows == base

    def test_projection_soundness(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, 50)
            q = _random_query(rng, always_select_all=True)
            result = execute(q, g)
            for row in result.rows:
                binding = dict(zip(result.columns, row))
                for p in q.patterns:
                    s = binding.get(p.subject.name) if isinstance(p.subject, Var) else p.subject
                    pr = binding.get(p.predicate.name) if isinstance(p.predicate, Var) else p.predicate
                    o = binding.get(p.object.name) if isinstance(p.object, Var) else p.object
                    assert Triple(s, pr, o) in g.triples


def _pattern_permutations(q):
    import itertools
    out = []
    for perm in itertools.permutations(q.patterns):
        out.append(Query(q.prefixes, q.select, tuple(perm), q.filter))
    return out


def _random_query(rng, always_select_all=False):
    """Small random BGP queries over the random_graph vocabulary."""
    var_names = ["a", "b", "c"]
    n_patterns = rng.randint(1, 3)
    patterns = []
    used = set()

    def term(position):
        roll = rng.random()
        if roll < 0.55:
            name = rng.choice(var_names)
            used.add(name)
            return Var(name)
        if position == "s":
            return iri(f"s{rng.randrange(8)}")
        if position == "p":
            return iri(f"p{rng.randrange(5)}")
        if rng.random() < 0.5:
            return iri(f"o{rng.randrange(8)}")
        return Literal(str(rng.randrange(0, 40)), "integer")

    for _ in range(n_patterns):
        patterns.append(TriplePattern(term("s"), term("p"), term("o")))
    if not used:
        patterns[0] = TriplePattern(Var("a"), patterns[0].predicate, patterns[0].object)
        used.add("a")

    filter_expr = None
    if rng.random() < 0.6:
        name = rng.choice(sorted(used))
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        left = Var(name)
        right = Literal(str(rng.randrange(0, 40)), "integer")
        filter_expr = Comparison(op, left, right)
        if rng.random() < 0.4:
            other = rng.choice(sorted(used))
            second = Comparison(rng.choice(["<", ">"]), Var(other),
                                Literal(str(rng.randrange(0, 40)), "integer"))
            filter_expr = BoolExpr(rng.choice(["&&", "||"]), filter_expr, second)

    select = tuple(sorted(used)) if always_select_all else \
        tuple(sorted(rng.sample(sorted(used), rng.randint(1, len(used)))))
    return Query({"ex": EX}, select, tuple(patterns), filter_expr)


def _random_cross_query(rng):
    """A small random graph and a query whose second pattern shares no
    variable with its first, so the join pairs every binding of the first
    with the second's matches: half the time the second is three new
    variables, whose triples are taken as they are, else it has a constant
    predicate. A third pattern, if any, may share a variable with either.
    Graphs stay tiny: the oracle enumerates every assignment of graph terms
    to up to four variables."""
    objects = [iri("o0"), iri("o1"), Literal("1", "integer"), Literal("2.5", "decimal"),
               Literal("x")]
    triples = [Triple(iri(f"s{rng.randrange(3)}"), iri(f"p{rng.randrange(2)}"),
                      rng.choice(objects)) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.5:
        first = TriplePattern(Var("a"), iri(f"p{rng.randrange(2)}"), rng.choice(objects))
        second = TriplePattern(Var("b"), Var("c"), Var("d"))
    else:
        first = TriplePattern(Var("a"), iri(f"p{rng.randrange(2)}"), Var("b"))
        second = TriplePattern(Var("c"), iri(f"p{rng.randrange(2)}"), Var("d"))
    patterns = [first, second]
    used = sorted({t.name for p in patterns for t in p if isinstance(t, Var)})
    if rng.random() < 0.3:
        patterns.append(TriplePattern(Var(rng.choice(used)), iri(f"p{rng.randrange(2)}"),
                                      Var(rng.choice(used))))
    filter_expr = None
    if rng.random() < 0.5:
        filter_expr = Comparison(rng.choice(["<", ">=", "=", "!="]), Var(rng.choice(used)),
                                 Literal(str(rng.randrange(0, 4)), "integer"))
    select = tuple(sorted(rng.sample(used, rng.randint(1, len(used)))))
    return Graph(triples), Query({"ex": EX}, select, tuple(patterns), filter_expr)


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = random.Random(20240815)
        for case in range(300):
            g = random_graph(rng, rng.randint(1, 200))
            q = _random_query(rng)
            got = execute(q, g)
            want_cols, want_rows = brute_force_query(q, g)
            assert got.columns == want_cols
            assert list(got.rows) == want_rows, f"case {case}"
            assert got.type_clashes == brute_force_clashes(q, g), f"case {case}"

    def test_pattern_of_new_variables_only_crosses_the_bindings(self):
        g = Graph([Triple(iri("s0"), iri("p"), iri("o0")),
                   Triple(iri("s1"), iri("p"), Literal("1", "integer")),
                   Triple(iri("s0"), iri("q"), iri("o1")),
                   Triple(iri("s1"), iri("q"), Literal("x")),
                   Triple(iri("o0"), iri("r"), iri("s1"))])
        for text, plan in (
                # a variable predicate: each binding meets every triple
                ("SELECT ?a ?b ?c ?d ?e WHERE { ?a ex:p ?b . ?c ?d ?e }",
                 ((0, 2, 2), (1, 10, 10))),
                # two partitions: each p binding meets every q triple
                ("SELECT ?a ?b ?c ?d WHERE { ?a ex:p ?b . ?c ex:q ?d }",
                 ((0, 2, 2), (1, 4, 4)))):
            q = parse_query(f"PREFIX ex: <{EX}>\n" + text)
            got = execute(q, g)
            assert (got.columns, list(got.rows)) == brute_force_query(q, g)
            assert got.plan == plan

    def test_random_cross_products_match_brute_force(self):
        rng = random.Random(2611)
        answered = 0
        for case in range(300):
            g, q = _random_cross_query(rng)
            got = execute(q, g)
            want_cols, want_rows = brute_force_query(q, g)
            assert got.columns == want_cols
            assert list(got.rows) == want_rows, f"case {case}"
            assert got.type_clashes == brute_force_clashes(q, g), f"case {case}"
            answered += bool(got.rows)
        assert answered > 50

    @pytest.mark.parametrize("close, exact", [
        ("0.1000000000000000055511151231257827", "0.1"),
        ("1" * 400 + ".0", "1" * 399 + "0.0"),
    ], ids=["one-ulp", "past-float-range"])
    def test_decimals_compare_exactly(self, close, exact):
        # both values of a pair read as the same float, so an oracle that
        # compares floats would return both rows
        g = Graph([Triple(iri("a"), iri("v"), Literal(close, "decimal")),
                   Triple(iri("b"), iri("v"), Literal(exact, "decimal"))])
        q = parse_query(f"PREFIX ex: <{EX}>\n"
                        f"SELECT ?s WHERE {{ ?s ex:v ?v . FILTER (?v = {exact}) }}")
        assert list(execute(q, g).rows) == [(iri("b"),)]
        assert brute_force_query(q, g) == (("s",), [(iri("b"),)])


class TestConcurrentReads:
    def test_shared_graph_queries_from_many_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        g = region_fixture_graph()
        q = parse_query(REGION_QUERY)
        reference = execute(q, g).rows
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: execute(q, g).rows, range(64)))
        assert all(rows == reference for rows in results)

    def test_threads_race_on_first_query_of_fresh_graph(self):
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        q = parse_query(REGION_QUERY)
        reference = execute(q, region_fixture_graph()).rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = region_fixture_graph()
                start = threading.Barrier(8, timeout=10)

                def first_query(_):
                    start.wait()
                    return execute(q, g).rows

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(first_query, n) for n in range(8)]
                    results = [f.result(timeout=30) for f in futures]
                assert all(rows == reference for rows in results)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_race_on_first_query_of_a_larger_graph(self):
        # indexes of 1,316 triples take long enough to file that racing
        # threads would file a shared one twice if it were stored before it
        # was filed: the plan's candidate counts would double
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        q = parse_query(REGION_QUERY)
        ns = "http://example.org/forest#"
        more = [Triple(Iri(ns + f"Area{k}"), Iri(ns + name), value) for k in range(300)
                for name, value in (("hasName", Literal(f"Area {k}")),
                                    ("hasTemperature", Literal("31", "integer")),
                                    ("hasHumidity", Literal("12", "integer")))]
        more += [Triple(t.subject, Iri(semweb.RDF_TYPE), Iri(ns + "ForestArea"))
                 for t in more[::3]]
        triples = list(region_fixture_graph().triples) + more
        reference = execute(q, Graph(triples))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                g = Graph(triples)
                start = threading.Barrier(8, timeout=10)

                def first_query(_):
                    start.wait()
                    return execute(q, g)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(first_query, n) for n in range(8)]
                    results = [f.result(timeout=60) for f in futures]
                assert all((r.rows, r.plan) == (reference.rows, reference.plan)
                           for r in results)
        finally:
            sys.setswitchinterval(interval)


    def test_threads_race_on_the_first_partition_steps_of_a_fresh_graph(self, dataset_text):
        # each thread's first queries make the partition map and the
        # partition indexes: a scan, probes on (s, p) and on (p, o), and a
        # variable-predicate step; every thread must get the rows and plans
        # of a single-threaded run
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        queries = [parse_query(f"PREFIX ds: <{EX}>\n" + text) for text in (
            "SELECT ?r ?t WHERE { ?r ds:temp ?t . FILTER (?t > 25) }",
            "SELECT ?r ?t ?h WHERE { ?r ds:temp ?t . ?r ds:RH ?h . FILTER (?h < 30) }",
            'SELECT ?r ?w WHERE { ?r ds:month "aug" . ?r ds:day "sun" . ?r ds:wind ?w }',
            "SELECT ?p ?v WHERE { ?r ds:month \"jan\" . ?r ?p ?v }")]
        triples = list(csv_to_graph(ingest.parse_dataset(dataset_text), EX).triples)
        reference = [(r.rows, r.plan) for r in (execute(q, Graph(triples)) for q in queries)]
        assert all(rows for rows, _ in reference)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                g = Graph(triples)
                start = threading.Barrier(8, timeout=10)

                def first_queries(n):
                    start.wait()
                    # each thread starts at another query
                    order = queries[n % 4:] + queries[:n % 4]
                    results = {id(q): execute(q, g) for q in order}
                    return [(results[id(q)].rows, results[id(q)].plan) for q in queries]

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(first_queries, n) for n in range(8)]
                    results = [f.result(timeout=60) for f in futures]
                assert all(r == reference for r in results)
        finally:
            sys.setswitchinterval(interval)


class TestTiming:
    def test_dataset_query_budget(self, dataset_text):
        d = ingest.parse_dataset(dataset_text)
        g = csv_to_graph(d, EX)
        query = parse_query(f"SELECT ?r ?t WHERE {{ ?r <{EX}temp> ?t . "
                            f"FILTER (?t > 25) }}")
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            execute(query, g)
            samples.append((time.perf_counter() - start) * 1000.0)
        assert min(samples) < 100.0
