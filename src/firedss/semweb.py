"""RDF triples, tabular-to-graph conversion, and a SPARQL-subset engine.

The graph model is deliberately small: IRIs, typed literals (integer,
decimal, string, boolean), and set-semantics triples with a prefix map.
It shares the rule language's term model (`firedss._terms`): `Iri` and
`Literal` are tagged-tuple term kinds, `Var` is the one variable kind, and
a triple or triple pattern is the tuple (subject, predicate, object), and
queries run the rules' join (`firedss._terms.join`) through the same
position index, their patterns compiled to slot form per call in the
order the join runs them. A pattern with a constant predicate runs on that
predicate's partition of the graph (vertical partitioning), one with a
variable predicate on the whole graph. `parse_ntriples` makes one `Iri`
per distinct IRI text. Queries cover the fragment `SELECT ... WHERE {
patterns . FILTER (...) }` with comparison filters joined by && and ||.
Result rows are returned in a canonical order so query output is stable
across runs.
"""

from __future__ import annotations

import decimal
import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass

from ._syntax import Cursor, escape, lf, token_pattern, unescape
from ._terms import (COMPARISONS, PositionIndex, Term, Variable, bound_positions,
                     compile_patterns, grounder, join, variables)

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"

DATATYPE_IRIS = {
    "integer": XSD + "integer",
    "decimal": XSD + "decimal",
    "string": XSD + "string",
    "boolean": XSD + "boolean",
}


class GraphError(ValueError):
    pass


class NTriplesSyntaxError(GraphError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class QuerySyntaxError(GraphError):
    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnboundVariable(GraphError):
    pass


class UnknownPrefix(QuerySyntaxError):
    def __init__(self, line, column, prefix):
        super().__init__(line, column, f"unknown prefix {prefix!r}")
        self.prefix = prefix


# an absolute IRI whose characters may all stand raw in an N-Triples IRIREF
# (no lone surrogates, which UTF-8 cannot write)
_IRI_OK = re.compile(r'[A-Za-z][A-Za-z0-9+.-]*:[^\x00-\x20<>"{}|^`\\\ud800-\udfff]+')


class Iri(Term):
    __slots__ = ()
    _fields = ("value",)
    value = property(operator.itemgetter(1))

    def __new__(cls, value):
        if not _IRI_OK.fullmatch(value):
            raise GraphError(f"not an absolute IRI: {value!r}")
        return tuple.__new__(cls, (cls, value))


# The XSD lexical spaces, matched as text: an int() check would reject
# integers past CPython's int-string digit limit.
_NUMERIC_LEXICAL = {"integer": re.compile(r"[+-]?[0-9]+"),
                    "decimal": re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")}

# datatype -> the test of its lexical space; None for string, whose
# lexical space is any text
_LEXICAL_SPACES = {**{dt: rx.fullmatch for dt, rx in _NUMERIC_LEXICAL.items()},
                   "boolean": ("true", "false").__contains__, "string": None}


class Literal(Term):
    __slots__ = ()
    _fields = ("lexical", "datatype")
    lexical = property(operator.itemgetter(1))
    datatype = property(operator.itemgetter(2))

    def __new__(cls, lexical, datatype="string"):
        if datatype not in _LEXICAL_SPACES:
            raise GraphError(f"unsupported datatype: {datatype}")
        if not isinstance(lexical, str):
            raise GraphError(f"{datatype} lexical form is not text: {lexical!r}")
        in_space = _LEXICAL_SPACES[datatype]
        if in_space is not None and not in_space(lexical):
            raise GraphError(f"bad {datatype} lexical form: {lexical!r}")
        return tuple.__new__(cls, (cls, lexical, datatype))


# builds a term or a Triple from the tuple of its items without the class's
# own Python-level __new__, and so without its checks
_new = tuple.__new__

# the exact types whose lexical form `literal_for` writes inside its
# datatype's lexical space
_BUILT_IN = (int, float, str)


def literal_for(value) -> Literal:
    """Map a Python value onto the closest typed literal.

    Each literal is checked once. For an exact `int`, `float` or `str` the
    check is the construction: `str` of an int is an XSD integer, `repr` of
    a finite float, written without its exponent, an XSD decimal, and any
    text a string, so the `Literal` is built without the constructor's
    checks. Any other value (a `bool`, a numpy scalar, a subclass, whose
    `str` or `repr` may be anything) goes through the checked `Literal`."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise GraphError(f"no xsd:decimal for {value!r}")
        lexical, datatype = repr(value), "decimal"
        if "e" in lexical:      # the same digits, written without an exponent
            lexical = format(decimal.Decimal(lexical), "f")
    elif isinstance(value, bool):
        return Literal("true" if value else "false", "boolean")
    elif isinstance(value, int):
        lexical, datatype = str(value), "integer"
    else:
        lexical, datatype = str(value), "string"
    if type(value) in _BUILT_IN:
        return _new(Literal, (Literal, lexical, datatype))
    return Literal(lexical, datatype)


class Triple(namedtuple("Triple", "subject predicate object")):
    """The tuple (subject, predicate, object) of terms."""
    __slots__ = ()


class _Memo(dict):
    """key -> make(key), made on the first lookup of the key and kept."""
    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Graph:
    """Set of triples plus a prefix map, both given when it is made and
    fixed after. `triples` is a read-only set-like view over a dict, which
    also answers `in`; `_listed` is the tuple of the triples in first-seen
    order, which steps with a variable predicate scan or probe. Steps with
    a constant predicate run on that predicate's partition instead: the
    tuple of its triples in the same order. Queries share the partitions
    and the position indexes of these tuples."""

    def __init__(self, triples=(), prefixes=None):
        self._triples = dict.fromkeys(triples)
        self._listed = tuple(self._triples)
        self.prefixes = dict(prefixes or {})
        self._partitions = None
        self._indexes = {}

    @property
    def triples(self):
        return self._triples.keys()

    def _partition(self, predicate):
        """The tuple of the triples with `predicate`, in first-seen order.
        The map of all partitions is made whole on first use before it is
        stored, so threads that race to make it only read a whole one."""
        partitions = self._partitions
        if partitions is None:
            lists = {}
            for t in self._listed:
                lists.setdefault(t[1], []).append(t)
            partitions = self._partitions = {p: tuple(ts) for p, ts in lists.items()}
        return partitions.get(predicate, ())

    def _index(self, positions, predicate=None):
        """The position index on `positions` of the whole triple tuple, or
        of `predicate`'s partition, filed whole on first use before it is
        stored; threads that race to make it all get the stored one and
        only read it."""
        index = self._indexes.get((predicate, positions))
        if index is None:
            facts = self._listed if predicate is None else self._partition(predicate)
            index = self._indexes.setdefault((predicate, positions),
                                             PositionIndex(facts, positions))
        return index

    def __len__(self):
        return len(self._triples)

    def __contains__(self, triple):
        return triple in self._triples

    def __eq__(self, other):
        return isinstance(other, Graph) and self.triples == other.triples

    def terms(self):
        return {term for t in self.triples for term in t}


def csv_to_graph(dataset, base) -> Graph:
    """One triple per (row, column): subject <base>row<i>,
    predicate <base><column>, object typed from the cell value
    (int -> integer, float -> decimal, token -> string).

    Each predicate IRI is checked once per table, and the subject IRI
    once, as <base>row0, if the table has rows: `row<i>` adds only ASCII
    letters and digits after <base>, so it cannot change whether the IRI
    is valid. Each cell's literal is checked as `literal_for` says."""
    base = base.value if isinstance(base, Iri) else base
    predicates = [Iri(base + col.name) for col in dataset.schema]
    if dataset.rows:
        Iri(f"{base}row0")      # raises GraphError if no row IRI is valid
    triples = []
    for i, row in enumerate(dataset.rows):
        subject = _new(Iri, (Iri, f"{base}row{i}"))
        triples += [_new(Triple, (subject, p, literal_for(v))) for p, v in zip(predicates, row)]
    return Graph(triples, {"ds": base})


# --- serialization -----------------------------------------------------------

def _term_nt(term):
    """`term` in N-Triples. Only a string's lexical form is escaped: the
    lexical spaces of the other datatypes hold no character to escape.
    An object without the items of an `Iri` or a `Literal` (a text, a rule
    term, None) raises GraphError naming it."""
    try:
        if term[0] is Iri:
            return f"<{term[1]}>"
        lexical = escape(term[1]) if term[2] == "string" else term[1]
        return f'"{lexical}"^^<{DATATYPE_IRIS[term[2]]}>'
    except (TypeError, IndexError, KeyError, AttributeError):
        raise GraphError(f"not an RDF term: {term!r}") from None


def _iri_text(term):
    """The text of a subject or predicate, which must be an IRI."""
    if term[0] is not Iri:
        raise GraphError(f"subject or predicate is not an IRI: {term!r}")
    return term[1]


def serialize(g: Graph, format="ntriples") -> str:
    """Serialize a graph: canonical N-Triples (sorted lines) or RDF-XML.

    A subject or predicate that is not an IRI raises `GraphError`. Each
    distinct subject and predicate is checked and written once; each
    object is written once per triple, its lexical form escaped only if
    it is a string (see `_term_nt`)."""
    if format == "ntriples":
        nt = _Memo(lambda t: f"<{_iri_text(t)}>")     # subjects and predicates repeat
        lines = sorted([f"{nt[s]} {nt[p]} {_term_nt(o)} ." for s, p, o in g.triples])
        return "\n".join(lines) + ("\n" if lines else "")
    if format == "rdfxml":
        return _serialize_rdfxml(g)
    raise GraphError(f"unknown serialization format: {format}")


def _split_iri(iri: str):
    cut = max(iri.rfind("#"), iri.rfind("/"))
    if cut <= 0 or cut == len(iri) - 1:
        return None
    local = iri[cut + 1:]
    if not re.match(r"^[A-Za-z_][A-Za-z0-9_.-]*$", local):
        return None
    return iri[:cut + 1], local


def _xml_escape(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _serialize_rdfxml(g: Graph) -> str:
    namespaces = {"rdf": RDF_NS}
    iri_to_prefix = {RDF_NS: "rdf"}
    for prefix, iri in sorted(g.prefixes.items()):
        if iri not in iri_to_prefix and prefix != "rdf":
            namespaces[prefix] = iri
            iri_to_prefix[iri] = prefix
    counter = 0

    def qname(iri):
        nonlocal counter
        parts = _split_iri(iri)
        if parts is None:
            raise GraphError(f"cannot write predicate {iri!r} as XML name")
        ns, local = parts
        if ns not in iri_to_prefix:
            counter += 1
            while f"ns{counter}" in namespaces:
                counter += 1
            namespaces[f"ns{counter}"] = ns
            iri_to_prefix[ns] = f"ns{counter}"
        return f"{iri_to_prefix[ns]}:{local}"

    text = _Memo(_iri_text)         # subjects and predicates repeat
    by_subject = {}
    for t in sorted(g.triples, key=lambda t: (text[t[0]], text[t[1]], _term_nt(t[2]))):
        by_subject.setdefault(t.subject, []).append(t)

    body = []
    for subject in sorted(by_subject):
        body.append(f'  <rdf:Description rdf:about="{_xml_escape(subject.value)}">')
        for t in by_subject[subject]:
            name = qname(t.predicate.value)
            if isinstance(t.object, Iri):
                body.append(f'    <{name} rdf:resource="{_xml_escape(t.object.value)}"/>')
            else:
                dt = DATATYPE_IRIS[t.object.datatype]
                body.append(f'    <{name} rdf:datatype="{dt}">'
                            f"{_xml_escape(t.object.lexical)}</{name}>")
        body.append("  </rdf:Description>")

    attrs = "".join(f'\n    xmlns:{p}="{_xml_escape(iri)}"'
                    for p, iri in sorted(namespaces.items()))
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f"<rdf:RDF{attrs}>\n" + "\n".join(body) + "\n</rdf:RDF>\n")


# a line of one triple: spaces and tabs, the N-Triples whitespace, between
# its terms and around it. A literal's text is runs of plain characters
# between escapes, which the regex engine takes a run at a time.
_NT_LINE = re.compile(
    r'[ \t]*<(?P<s>[^>]+)>[ \t]+<(?P<p>[^>]+)>[ \t]+'
    r'(?:<(?P<o_iri>[^>]+)>|"(?P<o_lex>[^"\\]*(?:\\.[^"\\]*)*)"'
    r'(?:\^\^<(?P<o_dt>[^>]+)>)?)[ \t]*\.[ \t]*')

# datatype IRI (None for an untyped literal, a string) -> the datatype and
# the test of its lexical space
_LITERAL_KINDS = {None: ("string", None),
                  **{iri: (dt, _LEXICAL_SPACES[dt]) for dt, iri in DATATYPE_IRIS.items()}}


def _literal_error(_, message):
    return GraphError(message)


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples as produced by serialize(); duplicate lines collapse.
    Spaces and tabs may stand around a line and between its terms; no
    other whitespace is taken. A line is stripped and tested for a blank
    or a comment only when it is not a triple.

    Each distinct IRI text is checked and made into an `Iri` once. Each
    literal is checked once: its datatype IRI is looked up, and its
    lexical form tested against that datatype's lexical space."""
    iris = _Memo(Iri)
    triples = []
    for lineno, raw in enumerate(lf(text).split("\n"), 1):
        m = _NT_LINE.fullmatch(raw)
        if m is None:
            line = raw.strip(" \t")
            if not line or line.startswith("#"):
                continue
            reason = "missing terminal '.'" if not line.endswith(".") else "malformed triple"
            raise NTriplesSyntaxError(lineno, reason)
        s, p, o_iri, lex, dt_iri = m.groups()
        try:
            subject = iris[s]
            predicate = iris[p]
            if o_iri is not None:
                obj = iris[o_iri]
            else:
                if "\\" in lex:
                    lex = unescape(lex, _literal_error)
                kind = _LITERAL_KINDS.get(dt_iri)
                if kind is None:
                    raise GraphError(f"unsupported datatype IRI {dt_iri!r}")
                datatype, in_space = kind
                if in_space is not None and not in_space(lex):
                    raise GraphError(f"bad {datatype} lexical form: {lex!r}")
                obj = _new(Literal, (Literal, lex, datatype))
        except GraphError as exc:
            raise NTriplesSyntaxError(lineno, str(exc)) from None
        triples.append(_new(Triple, (subject, predicate, obj)))
    return Graph(triples)


# --- query AST and parser ----------------------------------------------------

Var = Variable


class TriplePattern(Triple):
    """A triple whose terms may be variables."""
    __slots__ = ()


@dataclass(frozen=True)
class Comparison:
    op: str                     # < <= > >= = !=
    left: object                # Var or Literal
    right: object


@dataclass(frozen=True)
class BoolExpr:
    op: str                     # "&&" or "||"
    left: object
    right: object


@dataclass(frozen=True)
class Query:
    prefixes: dict
    select: tuple | None        # None means SELECT *
    patterns: tuple
    filter: object              # Comparison | BoolExpr | None

    def pattern_variables(self):
        return set().union(*map(variables, self.patterns))


_Q_TOKEN = token_pattern(r"""
  | (?P<iri><[^<>\s]*>)
  | (?P<op>&&|\|\||!=|<=|>=|=|<|>)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<pname_ns>[A-Za-z_][A-Za-z0-9_-]*:)
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}().*,])
""")


# Bounds that keep the recursive parser and the recursive filter
# evaluation well inside the interpreter's recursion limit.
MAX_FILTER_DEPTH = 64
MAX_FILTER_OPERATORS = 256


class _QueryParser(Cursor):
    pattern = _Q_TOKEN
    syntax_error = QuerySyntaxError

    def __init__(self, text):
        super().__init__(text)
        self.prefixes = {}
        self.depth = 0              # open FILTER parentheses
        self.operators = 0          # BoolExpr nodes built so far

    def keyword(self, word):
        kind, text, _ = self.peek()
        return kind == "keyword" and text.upper() == word

    def expect_keyword(self, word):
        if not self.keyword(word):
            self.error(word)
        return self.next()

    def expect_punct(self, char):
        if not self.at("punct", char):
            self.error(repr(char))
        return self.next()

    def parse(self):
        while self.keyword("PREFIX"):
            self.next()
            kind, text, pos = self.next()
            if kind != "pname_ns":
                raise self.fail(pos, "expected a prefix name ending in ':'")
            prefix = text[:-1]
            kind, iri_text, pos = self.next()
            if kind != "iri":
                raise self.fail(pos, "expected <iri> after prefix name")
            self.prefixes[prefix] = iri_text[1:-1]

        self.expect_keyword("SELECT")
        select = None
        if self.at("punct", "*"):
            self.next()
        else:
            names = []
            while self.at("var"):
                names.append(self.next()[1][1:])
            if not names:
                self.error("variable list or *")
            select = tuple(names)

        self.expect_keyword("WHERE")
        self.expect_punct("{")
        patterns = []
        filter_expr = None
        while True:
            kind, text, pos = self.peek()
            if kind == "punct" and text == "}":
                self.next()
                break
            if kind == "keyword" and text.upper() == "FILTER":
                self.next()
                self.expect_punct("(")
                expr = self.parse_or()
                self.expect_punct(")")
                filter_expr = expr if filter_expr is None else \
                    self.bool_expr("&&", filter_expr, expr, pos)
                if self.at("punct", "."):
                    self.next()
                continue
            patterns.append(self.parse_pattern())
            if self.at("punct", "."):
                self.next()
        if not self.at("eof"):
            self.error("end of query")

        query = Query(dict(self.prefixes), select, tuple(patterns), filter_expr)
        bound = query.pattern_variables()
        for name in (query.select or ()):
            if name not in bound:
                raise UnboundVariable(f"projected variable ?{name} not in any pattern")
        if filter_expr is not None:
            for name in _filter_variables(filter_expr):
                if name not in bound:
                    raise UnboundVariable(f"filter variable ?{name} not in any pattern")
        return query

    def parse_pattern(self):
        s = self.parse_term(position="subject")
        p = self.parse_term(position="predicate")
        o = self.parse_term(position="object")
        return TriplePattern(s, p, o)

    def parse_term(self, position):
        kind, text, pos = self.peek()
        if kind == "var":
            self.next()
            return Var(text[1:])
        if kind == "iri":
            self.next()
            return self.iri(text[1:-1], pos)
        if kind == "pname":
            self.next()
            prefix, local = text.split(":", 1)
            if prefix not in self.prefixes:
                raise UnknownPrefix(*self.line_column(pos), prefix)
            return self.iri(self.prefixes[prefix] + local, pos)
        if kind == "keyword" and text == "a" and position == "predicate":
            self.next()
            return Iri(RDF_TYPE)
        literal = self.parse_literal()
        if literal is None:
            self.error(f"{position} term")
        return literal

    def iri(self, value, pos):
        """The Iri of `value`, written at offset `pos`; a relative IRI is a
        syntax error there."""
        try:
            return Iri(value)
        except GraphError as exc:
            raise self.fail(pos, str(exc)) from None

    def bool_expr(self, op, left, right, pos):
        self.operators += 1
        if self.operators > MAX_FILTER_OPERATORS:
            raise self.fail(
                pos, f"more than {MAX_FILTER_OPERATORS} '&&'/'||' operators in FILTER")
        return BoolExpr(op, left, right)

    def parse_or(self):
        left = self.parse_and()
        while self.at("op", "||"):
            pos = self.next()[2]
            left = self.bool_expr("||", left, self.parse_and(), pos)
        return left

    def parse_and(self):
        left = self.parse_primary()
        while self.at("op", "&&"):
            pos = self.next()[2]
            left = self.bool_expr("&&", left, self.parse_primary(), pos)
        return left

    def parse_primary(self):
        kind, text, pos = self.peek()
        if kind == "punct" and text == "(":
            if self.depth == MAX_FILTER_DEPTH:
                raise self.fail(
                    pos, f"FILTER parentheses nested deeper than {MAX_FILTER_DEPTH}")
            self.next()
            self.depth += 1
            expr = self.parse_or()
            self.depth -= 1
            self.expect_punct(")")
            return expr
        left = self.parse_operand()
        kind, op, pos = self.peek()
        if kind != "op" or op in ("&&", "||"):
            self.error("comparison operator")
        self.next()
        right = self.parse_operand()
        return Comparison(op, left, right)

    def parse_operand(self):
        kind, text, pos = self.peek()
        if kind == "var":
            self.next()
            return Var(text[1:])
        literal = self.parse_literal()
        if literal is None:
            self.error("filter operand")
        return literal

    def parse_literal(self):
        """The number, string or boolean literal at the cursor, else None."""
        kind, text, _ = self.peek()
        if kind == "string":
            return Literal(self.string(), "string")
        if kind == "number":
            literal = Literal(text, "decimal" if "." in text else "integer")
        elif kind == "keyword" and text in ("true", "false"):
            literal = Literal(text, "boolean")
        else:
            return None
        self.next()
        return literal


def _filter_variables(expr):
    if isinstance(expr, BoolExpr):
        return _filter_variables(expr.left) | _filter_variables(expr.right)
    return variables((expr.left, expr.right))


def parse_query(text: str) -> Query:
    """Parse a SPARQL-subset query: PREFIX / SELECT / WHERE / FILTER."""
    return _QueryParser(text).parse()


# --- execution ---------------------------------------------------------------

def _key(term):
    """What a FILTER compares `term` by: ("number", its exact Decimal) for
    an integer or decimal, (datatype, lexical form) for another literal,
    None for an IRI."""
    if term[0] is Iri:
        return None
    if term[2] in _NUMERIC_LEXICAL:
        return "number", decimal.Decimal(term[1])
    return term[2], term[1]


def _compare(op, x, y):
    """Compare two `_key`s: numbers by their exact values, strings, and
    booleans only for (in)equality; None if their kinds cannot be
    compared."""
    if x is None or y is None or x[0] != y[0] or (x[0] == "boolean" and op not in ("=", "!=")):
        return None
    return COMPARISONS[op](x[1], y[1])


def _filter_plan(expr, slots):
    """`expr` as nested (op, left, right) tuples: two plans for && and ||;
    for a comparison, per operand the slot (an int) of a variable or the
    `_key` of a constant, so each constant is read once per query."""
    if isinstance(expr, BoolExpr):
        return expr.op, _filter_plan(expr.left, slots), _filter_plan(expr.right, slots)
    return expr.op, *[slots[t.name] if isinstance(t, Var) else _key(t)
                      for t in (expr.left, expr.right)]


def _eval_filter(plan, binding, clashes):
    """Whether `binding` passes a `_filter_plan`. Both sides of && and ||
    run, so each comparison whose kinds cannot be compared counts one
    clash, and is false."""
    op, left, right = plan
    if op == "&&" or op == "||":
        a = _eval_filter(left, binding, clashes)
        b = _eval_filter(right, binding, clashes)
        return (a and b) if op == "&&" else (a or b)
    result = _compare(op, _key(binding[left]) if type(left) is int else left,
                      _key(binding[right]) if type(right) is int else right)
    if result is None:
        clashes[0] += 1
        return False
    return result


@dataclass(frozen=True)
class ResultTable:
    """Query answer. `plan` has one (pattern index, candidates, bindings out)
    entry per pattern in the order the join ran them; it stops early at the
    first pattern that left no bindings."""
    columns: tuple
    rows: tuple
    type_clashes: int = 0
    plan: tuple = ()

    def __len__(self):
        return len(self.rows)


def execute(q: Query, g: Graph) -> ResultTable:
    """Natural join of pattern matches, filter, project, deduplicate.

    Patterns run most-bound first: each step takes the remaining pattern
    with the most positions fixed by a constant or an already-bound
    variable (ties in query order), and looks its candidates up in the
    graph index on exactly those positions; a step with a constant
    predicate looks them up in that predicate's partition, the same
    triples in the same order. The patterns are compiled to slot form in
    that order and `_terms.join` runs them, as it runs rule bodies. The
    multiset of full bindings does not depend on that order.

    A filter comparison over incompatible kinds (IRI vs number, string vs
    decimal) evaluates as false instead of aborting the query; each such
    clash is counted on the result, and a binding whose filter comes out
    false is rejected. Rows come back in canonical lexicographic order.
    """
    order, bound = [], set()
    remaining = list(enumerate(q.patterns))
    while remaining:
        step = max(remaining, key=lambda item: len(bound_positions(item[1], bound)))
        remaining.remove(step)
        order.append(step[0])
        bound |= variables(step[1])
    slots, matches = compile_patterns([q.patterns[i] for i in order])
    steps = []
    for i, match in zip(order, matches):
        predicate = q.patterns[i][1]
        if predicate[0] is Var:
            facts = g._listed
            index = g._index(match.positions) if match.positions else None
        else:
            # every triple of the partition has the predicate, so only a
            # further bound position needs an index
            facts = g._partition(predicate)
            index = g._index(match.positions, predicate) if match.positions != (1,) else None
        steps.append((match, facts, 0, len(facts), index))
    bindings, counts = join(steps)
    plan = tuple([(i, *count) for i, count in zip(order, counts)])

    clashes = [0]
    if q.filter is not None:
        test = _filter_plan(q.filter, slots)
        bindings = [b for b in bindings if _eval_filter(test, b, clashes)]

    if q.select is None:
        columns = tuple(dict.fromkeys(t[1] for p in q.patterns for t in p if t[0] is Var))
    else:
        columns = q.select

    rows = set(map(grounder([Var(name) for name in columns], slots), bindings))
    ordered = tuple(sorted(rows, key=lambda row: tuple(_term_nt(c) for c in row)))
    return ResultTable(columns, ordered, clashes[0], plan)


def format_cell(term) -> str:
    """Human-readable cell rendering for tables: IRIs bare, literals lexical."""
    return term[1]
