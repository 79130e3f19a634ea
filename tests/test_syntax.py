"""The rule, fact and query front ends: every error path pinned, and
arbitrary text failing only with the module's own exceptions; and the
`key = value` reader of config and band files."""

import pytest
from hypothesis import given, settings, strategies as st

from firedss._syntax import key_values
from firedss.rules import (
    Atom, Individual, RuleError, RuleSyntaxError, Str, UnknownBuiltin, format_atom, parse_facts,
    parse_rules,
)
from firedss.semweb import (
    GraphError, QuerySyntaxError, UnboundVariable, UnknownPrefix, parse_query,
)

FILTER_HEAD = "SELECT ?s WHERE { ?s <http://example.org/t#p> ?v . FILTER ("
DEEP = FILTER_HEAD + "(" * 65 + "?v > 1" + ")" * 65 + ") }"
CHAIN = FILTER_HEAD + " && ".join(["?v > 1"] * 258) + ") }"

# (parser, text, exception type, str(exception), where): `where` is
# (line, column) for RuleSyntaxError and QuerySyntaxError and None for the
# rest. One case per error path of each parser.
MALFORMED = [
    (parse_rules, "rule r: when A(?x) $ then assert B(?x)",
     RuleSyntaxError, "line 1, column 20: unexpected character '$'", (1, 20)),
    (parse_rules, "when A(?x) then assert B(?x)",
     RuleSyntaxError, "line 1, column 1: expected 'rule', found 'when'", (1, 1)),
    (parse_rules, "rule : when A(?x) then assert B(?x)",
     RuleSyntaxError, "line 1, column 6: expected ident, found ':'", (1, 6)),
    (parse_rules, "rule when: A(?x) -> B(?x)",
     RuleSyntaxError, "line 1, column 10: expected rule name, found ':'", (1, 10)),
    (parse_rules, "rule r when A(?x) then assert B(?x)",
     RuleSyntaxError, "line 1, column 8: expected :, found 'when'", (1, 8)),
    (parse_rules, "rule r: when A(?x) assert B(?x)",
     RuleSyntaxError, "line 1, column 20: expected 'then', found 'assert'", (1, 20)),
    (parse_rules, "rule r: when A(?x) then B(?x)",
     RuleSyntaxError, "line 1, column 25: expected 'assert', found 'B'", (1, 25)),
    (parse_rules, "rule r: A(?x), B(?x) -> C(?x)",
     RuleSyntaxError, "line 1, column 14: expected '^' or '->', found ','", (1, 14)),
    (parse_rules, "rule r: when then(?x) then assert B(?x)",
     RuleSyntaxError, "line 1, column 18: expected atom, found '('", (1, 18)),
    (parse_rules, "rule r: when A ?x then assert B(?x)",
     RuleSyntaxError, "line 1, column 16: expected (, found '?x'", (1, 16)),
    (parse_rules, "rule r: when P(?x, ?y, ?z) then assert Q(?x)",
     RuleSyntaxError, "line 1, column 22: expected ), found ','", (1, 22)),
    (parse_rules, "rule r: when A(,) then assert B(?x)",
     RuleSyntaxError, "line 1, column 16: expected term, found ','", (1, 16)),
    (parse_rules, "rule r: when A(when) then assert B(?x)",
     RuleSyntaxError, "line 1, column 16: expected term, found 'when'", (1, 16)),
    (parse_rules, 'rule r: when A("abc) then assert B(?x)',
     RuleSyntaxError, 'line 1, column 16: unexpected character \'"\'', (1, 16)),
    (parse_rules, "rule r: when A(?x) then assert",
     RuleSyntaxError, "line 1, column 31: expected ident, found 'end of input'", (1, 31)),
    (parse_rules, "rule r: when A(?x), lessThan(?x) then assert B(?x)",
     RuleSyntaxError, 'line 1, column 21: builtin lessThan takes 2 arguments', (1, 21)),
    (parse_rules, "rule r: when A(?x),\n  hasV(?x, ?v), swrlb:pow(?v, 2) then assert B(?x)",
     UnknownBuiltin, 'line 2: swrlb:pow', None),
    (parse_rules, "rule r: when ex:A(?x) then assert B(?x)",
     RuleSyntaxError, "line 1, column 14: unexpected namespaced predicate 'ex:A'", (1, 14)),
    (parse_rules, "rule a: when A(?x) then assert B(?x)\r\nrule b: when A(?x) then assert C(?x) %\r\n",
     RuleSyntaxError, "line 2, column 38: unexpected character '%'", (2, 38)),
    (parse_rules, "rule a: when A(?x) then assert B(?x)\r\n# note\r\n  rule b when",
     RuleSyntaxError, "line 3, column 10: expected :, found 'when'", (3, 10)),
    (parse_rules, "rule r: when A(?x)\nthen assert B(?x) -> C(?x)",
     RuleSyntaxError, "line 2, column 19: expected 'rule', found '->'", (2, 19)),
    (parse_rules, "rule a: when A(?x) then assert B(?x)\n\n%",
     RuleSyntaxError, "line 3, column 1: unexpected character '%'", (3, 1)),
    (parse_rules, "rule r: when A(?x)\n  then assert hasLimit(?x, " + "9" * 400 + ")",
     RuleSyntaxError, "line 2, column 28: number out of range", (2, 28)),
    (parse_rules, "rule r: when A(?x)\n  then assert hasLimit(?x, 0." + "0" * 400 + "1)",
     RuleSyntaxError, "line 2, column 28: number out of range", (2, 28)),
    (parse_facts, "A(a)\n\nB(?x)\n",
     RuleSyntaxError, "line 3, column 1: not a ground atom: 'B(?x)'", (3, 1)),
    (parse_facts, "lessThan(1, 2)",
     RuleSyntaxError, "line 1, column 1: not a ground atom: 'lessThan(1, 2)'", (1, 1)),
    (parse_facts, "A(a)\nA(x) B(y)\n",
     RuleSyntaxError, "line 2, column 6: expected end of line, found 'B'", (2, 6)),
    (parse_facts, "A(a)\r\n\r\nB(b) $\r\n",
     RuleSyntaxError, "line 3, column 6: unexpected character '$'", (3, 6)),
    (parse_facts, "A(a)\nns:A(x)\n",
     RuleSyntaxError, "line 2, column 1: unexpected namespaced predicate 'ns:A'", (2, 1)),
    (parse_facts, "A(a)\nA(x\n",
     RuleSyntaxError, "line 2, column 4: expected ), found 'end of input'", (2, 4)),
    (parse_facts, "A(a)\nhasV(a, -1" + "0" * 400 + ".5)",
     RuleSyntaxError, "line 2, column 9: number out of range", (2, 9)),
    (parse_facts, "A(a)\nhasV(a, -0." + "0" * 400 + "1)",
     RuleSyntaxError, "line 2, column 9: number out of range", (2, 9)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o . } $",
     QuerySyntaxError, "line 1, column 32: unexpected character '$'", (1, 32)),
    (parse_query, "PREFIX ex <http://example.org/t#> SELECT ?x WHERE { ?x ?p ?o }",
     QuerySyntaxError, "line 1, column 8: expected a prefix name ending in ':'", (1, 8)),
    (parse_query, "PREFIX ex: ex:a SELECT ?x WHERE { ?x ?p ?o }",
     QuerySyntaxError, 'line 1, column 12: expected <iri> after prefix name', (1, 12)),
    (parse_query, "ASK { ?x ?p ?o }",
     QuerySyntaxError, "line 1, column 1: expected SELECT, found 'ASK'", (1, 1)),
    (parse_query, "SELECT WHERE { ?x ?p ?o }",
     QuerySyntaxError, "line 1, column 8: expected variable list or *, found 'WHERE'", (1, 8)),
    (parse_query, "SELECT ?x { ?x ?p ?o }",
     QuerySyntaxError, "line 1, column 11: expected WHERE, found '{'", (1, 11)),
    (parse_query, "SELECT ?x WHERE ?x ?p ?o",
     QuerySyntaxError, "line 1, column 17: expected '{', found '?x'", (1, 17)),
    (parse_query, "SELECT ?x WHERE { a ?p ?o }",
     QuerySyntaxError, "line 1, column 19: expected subject term, found 'a'", (1, 19)),
    (parse_query, "SELECT ?x WHERE { ?x ?p",
     QuerySyntaxError, "line 1, column 24: expected object term, found 'end of input'", (1, 24)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o } }",
     QuerySyntaxError, "line 1, column 30: expected end of query, found '}'", (1, 30)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER ?o > 1 }",
     QuerySyntaxError, "line 1, column 35: expected '(', found '?o'", (1, 35)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o > 1 }",
     QuerySyntaxError, "line 1, column 43: expected ')', found '}'", (1, 43)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o) }",
     QuerySyntaxError, "line 1, column 38: expected comparison operator, found ')'", (1, 38)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o > <http://example.org/t#o>) }",
     QuerySyntaxError,
     "line 1, column 41: expected filter operand, found '<http://example.org/t#o>'", (1, 41)),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o > \u0663) }",
     QuerySyntaxError, "line 1, column 41: unexpected character '\u0663'", (1, 41)),
    (parse_query, "SELECT ?x WHERE {\r\n  ?x nope:p ?o }",
     UnknownPrefix, "line 2, column 6: unknown prefix 'nope'", (2, 6)),
    (parse_query, "SELECT ?q WHERE { ?x ?p ?o }",
     UnboundVariable, 'projected variable ?q not in any pattern', None),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?z > 1) }",
     UnboundVariable, 'filter variable ?z not in any pattern', None),
    (parse_query, "SELECT ?x WHERE { ?x <p> ?o }",
     QuerySyntaxError, "line 1, column 22: not an absolute IRI: 'p'", (1, 22)),
    (parse_query, "PREFIX ex: <rel/>\nSELECT ?x WHERE { ?x ex:p ?o }",
     QuerySyntaxError, "line 2, column 22: not an absolute IRI: 'rel/p'", (2, 22)),
    (parse_query, DEEP,
     QuerySyntaxError, 'line 1, column 124: FILTER parentheses nested deeper than 64', (1, 124)),
    (parse_query, CHAIN,
     QuerySyntaxError, "line 1, column 2627: more than 256 '&&'/'||' operators in FILTER", (1, 2627)),
    (parse_rules, 'rule r: when A(?x)\n  then assert hasName(?x, "a\\nb\\qc")',
     RuleSyntaxError, "line 2, column 32: bad escape '\\\\q'", (2, 32)),
    (parse_query, "SELECT ?x WHERE {\r\n  ?x <http://example.org/t#p> ?o } $",
     QuerySyntaxError, "line 2, column 36: unexpected character '$'", (2, 36)),
    (parse_query, 'SELECT ?x WHERE {\n  ?x ?p "\\t\\u0041" }',
     QuerySyntaxError, "line 2, column 12: bad escape '\\\\u'", (2, 12)),
]


def _where(exc):
    if isinstance(exc, (RuleSyntaxError, QuerySyntaxError)):
        return exc.line, exc.column
    return None


@pytest.mark.parametrize("parse, text, kind, message, where", MALFORMED)
def test_malformed_input_error(parse, text, kind, message, where):
    with pytest.raises(GraphError if parse is parse_query else RuleError) as info:
        parse(text)
    assert (type(info.value), str(info.value), _where(info.value)) == (kind, message, where)


RULES = ("rule r1: when A(?x), hasV(?x, ?v), lessThan(?v, 5) then assert B(?x)\n"
         'rule r2: A(?x) ^ hasN(?x, "s") -> C(?x, true)  # c\r\n')
FACTS = 'A(a)\nhasV(a, -2.5)\n\nhasN(a, "q \\"x\\"")  # c\n'
QUERY = ("PREFIX ex: <http://example.org/t#>\nSELECT ?s WHERE { ?s a ex:C . ?s ex:p ?v . "
         'FILTER ((?v > 1 && ?v != 2.5) || ?v = "s") }')
FRAGMENTS = [
    "rule", "r1", ":", "when", "then", "assert", "A", "(", ")", ",", "^", "->", "?x",
    "1", "-2.5", '"s"', '"', "\\", "lessThan(?x, 1)", "swrlb:lessThan", "swrlb:pow",
    "ex:A", "true", "# c", "PREFIX", "ex:", "<p>", "SELECT", "WHERE", "{", "}", ".",
    "*", "a", "FILTER", "&&", "||", ">", "!=", " ", "\n", "\r\n", "\r", "\t", "",
    "$", "\u0663", "\u00e9", "\x0b", "\u2028",
]


@st.composite
def edits(draw, seed):
    """The seed text under a few cuts and fragment insertions."""
    text = seed
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 8))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at + cut:]
    return text


def _inside(exc, lines):
    return 1 <= exc.line <= len(lines) and 1 <= exc.column <= len(lines[exc.line - 1]) + 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edits(RULES), edits(FACTS), edits(QUERY))
def test_arbitrary_text_fails_only_with_the_front_end_errors(rule_text, fact_text, query):
    """Each parser gets text edited from its own seed and from the others'."""
    for text in (rule_text, fact_text, query):
        for parse in (parse_rules, parse_facts):
            try:
                parse(text)
            except RuleSyntaxError as exc:
                assert _inside(exc, text.split("\n")), (exc.line, exc.column)
            except RuleError:
                pass
        try:
            parse_query(text)
        except QuerySyntaxError as exc:
            assert _inside(exc, text.split("\n")), (exc.line, exc.column)
        except GraphError:
            pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(), st.text())
def test_a_formatted_string_fact_parses_back_to_itself(name, value):
    """format_atom writes a Str with the shared escapes, which parse_facts
    decodes: a newline, a quote or a backslash in any text comes back."""
    fact = Atom("hasName", (Individual("a"), Str(name + "\\n\n" + value)))
    assert list(parse_facts(format_atom(fact)).facts) == [fact]


def test_key_values_skips_comments_and_rejects_repeats():
    def fail(lineno, message):
        return ValueError(f"{lineno}: {message}")
    text = "# head\na = 1  # note\n\n  b=x=y  \nc = \n"
    assert list(key_values(text, fail)) == [(2, "a", " 1"), (4, "b", "x=y"), (5, "c", "")]
    with pytest.raises(ValueError, match="^3: a defined twice$"):
        list(key_values("a = 1\nb = 2\n a=3", fail))
    with pytest.raises(ValueError, match="^2: expected 'key = value'$"):
        list(key_values("a = 1\nb # = 2", fail))


def test_a_comment_ends_at_a_lone_cr():
    rule_text = ("# alerts\rrule a: when A(?x) then assert B(?x)  # one\r"
                 "rule b: when B(?x) then assert C(?x)\r")
    assert parse_rules(rule_text).rules == parse_rules(rule_text.replace("\r", "\n")).rules
    query = "SELECT ?s # the subjects\rWHERE { ?s <http://example.org/t#p> ?v }"
    assert parse_query(query) == parse_query(query.replace("\r", "\n"))
