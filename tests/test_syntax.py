"""The rule, fact and query front ends: every error path pinned, and
arbitrary text failing only with the module's own exceptions."""

import pytest
from hypothesis import given, settings, strategies as st

from firedss.rules import (
    RuleError, RuleSyntaxError, UnknownBuiltin, parse_facts, parse_rules,
)
from firedss.semweb import (
    GraphError, QuerySyntaxError, UnboundVariable, UnknownPrefix, parse_query,
)

FILTER_HEAD = "SELECT ?s WHERE { ?s <http://example.org/t#p> ?v . FILTER ("
DEEP = FILTER_HEAD + "(" * 65 + "?v > 1" + ")" * 65 + ") }"
CHAIN = FILTER_HEAD + " && ".join(["?v > 1"] * 258) + ") }"

# (parser, text, exception type, str(exception), where): `where` is
# (line, column) for RuleSyntaxError, the offset for QuerySyntaxError and
# None for the rest. One case per error path of each parser.
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
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o . } $",
     QuerySyntaxError, "at 31: unexpected character '$'", 31),
    (parse_query, "PREFIX ex <http://example.org/t#> SELECT ?x WHERE { ?x ?p ?o }",
     QuerySyntaxError, "at 7: expected a prefix name ending in ':'", 7),
    (parse_query, "PREFIX ex: ex:a SELECT ?x WHERE { ?x ?p ?o }",
     QuerySyntaxError, 'at 11: expected <iri> after prefix name', 11),
    (parse_query, "ASK { ?x ?p ?o }",
     QuerySyntaxError, "at 0: expected SELECT, found 'ASK'", 0),
    (parse_query, "SELECT WHERE { ?x ?p ?o }",
     QuerySyntaxError, "at 7: expected variable list or *, found 'WHERE'", 7),
    (parse_query, "SELECT ?x { ?x ?p ?o }",
     QuerySyntaxError, "at 10: expected WHERE, found '{'", 10),
    (parse_query, "SELECT ?x WHERE ?x ?p ?o",
     QuerySyntaxError, "at 16: expected '{', found '?x'", 16),
    (parse_query, "SELECT ?x WHERE { a ?p ?o }",
     QuerySyntaxError, "at 18: expected subject term, found 'a'", 18),
    (parse_query, "SELECT ?x WHERE { ?x ?p",
     QuerySyntaxError, "at 23: expected object term, found 'end of input'", 23),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o } }",
     QuerySyntaxError, "at 29: expected end of query, found '}'", 29),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER ?o > 1 }",
     QuerySyntaxError, "at 34: expected '(', found '?o'", 34),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o > 1 }",
     QuerySyntaxError, "at 42: expected ')', found '}'", 42),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o) }",
     QuerySyntaxError, "at 37: expected comparison operator, found ')'", 37),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o > <http://example.org/t#o>) }",
     QuerySyntaxError, "at 40: expected filter operand, found '<http://example.org/t#o>'", 40),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?o > \u0663) }",
     QuerySyntaxError, "at 40: unexpected character '\u0663'", 40),
    (parse_query, "SELECT ?x WHERE {\r\n  ?x nope:p ?o }",
     UnknownPrefix, 'nope', None),
    (parse_query, "SELECT ?q WHERE { ?x ?p ?o }",
     UnboundVariable, 'projected variable ?q not in any pattern', None),
    (parse_query, "SELECT ?x WHERE { ?x ?p ?o FILTER (?z > 1) }",
     UnboundVariable, 'filter variable ?z not in any pattern', None),
    (parse_query, "SELECT ?x WHERE { ?x <p> ?o }",
     GraphError, "not an absolute IRI: 'p'", None),
    (parse_query, DEEP,
     QuerySyntaxError, 'at 123: FILTER parentheses nested deeper than 64', 123),
    (parse_query, CHAIN,
     QuerySyntaxError, "at 2626: more than 256 '&&'/'||' operators in FILTER", 2626),
]


def _where(exc):
    if isinstance(exc, RuleSyntaxError):
        return exc.line, exc.column
    if isinstance(exc, QuerySyntaxError):
        return exc.position
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
        for parse, lines in ((parse_rules, text.split("\n")),
                             (parse_facts, text.splitlines())):
            try:
                parse(text)
            except RuleSyntaxError as exc:
                assert _inside(exc, lines), (exc.line, exc.column)
            except RuleError:
                pass
        try:
            parse_query(text)
        except GraphError:
            pass
