"""RDF triples, tabular-to-graph conversion, and a SPARQL-subset engine.

The graph model is deliberately small: IRIs, typed literals (integer,
decimal, string, boolean), and set-semantics triples with a prefix map.
Queries cover the fragment `SELECT ... WHERE { patterns . FILTER (...) }`
with comparison filters joined by && and ||. Result rows are returned in
a canonical order so query output is stable across runs.
"""

from __future__ import annotations

import decimal
import math
import operator
import re
from dataclasses import dataclass

from ._syntax import Cursor, tokenize

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"

DATATYPE_IRIS = {
    "integer": XSD + "integer",
    "decimal": XSD + "decimal",
    "string": XSD + "string",
    "boolean": XSD + "boolean",
}
_IRI_TO_DATATYPE = {v: k for k, v in DATATYPE_IRIS.items()}


class GraphError(ValueError):
    pass


class NTriplesSyntaxError(GraphError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class QuerySyntaxError(GraphError):
    def __init__(self, position, message):
        super().__init__(f"at {position}: {message}")
        self.position = position


class UnboundVariable(GraphError):
    pass


class UnknownPrefix(GraphError):
    pass


# an absolute IRI whose characters may all stand raw in an N-Triples IRIREF
_IRI_OK = re.compile(r'[A-Za-z][A-Za-z0-9+.-]*:[^\x00-\x20<>"{}|^`\\]+')


@dataclass(frozen=True, order=True)
class Iri:
    value: str

    def __post_init__(self):
        if not _IRI_OK.fullmatch(self.value):
            raise GraphError(f"not an absolute IRI: {self.value!r}")


# The XSD lexical spaces, matched as text: an int() check would reject
# integers past CPython's int-string digit limit.
_NUMERIC_LEXICAL = {"integer": re.compile(r"[+-]?[0-9]+"),
                    "decimal": re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")}


@dataclass(frozen=True, order=True)
class Literal:
    lexical: str
    datatype: str = "string"

    def __post_init__(self):
        if self.datatype not in DATATYPE_IRIS:
            raise GraphError(f"unsupported datatype: {self.datatype}")
        if self.datatype in _NUMERIC_LEXICAL:
            if not _NUMERIC_LEXICAL[self.datatype].fullmatch(self.lexical):
                raise GraphError(f"bad {self.datatype} lexical form: {self.lexical!r}")
        elif self.datatype == "boolean" and self.lexical not in ("true", "false"):
            raise GraphError(f"bad boolean lexical form: {self.lexical!r}")

    def numeric_value(self):
        """The number of an integer or decimal literal, else None. An integer
        past the int-string digit limit comes back as an exact Decimal."""
        if self.datatype == "integer":
            try:
                return int(self.lexical)
            except ValueError:
                return decimal.Decimal(self.lexical)
        if self.datatype == "decimal":
            return float(self.lexical)
        return None


def literal_for(value) -> Literal:
    """Map a Python value onto the closest typed literal."""
    if isinstance(value, bool):
        return Literal("true" if value else "false", "boolean")
    if isinstance(value, int):
        return Literal(str(value), "integer")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise GraphError(f"no xsd:decimal for {value!r}")
        text = repr(value)
        if "e" in text:         # the same digits, written without an exponent
            text = format(decimal.Decimal(text), "f")
        return Literal(text, "decimal")
    return Literal(str(value), "string")


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Iri | Literal


_POSITIONS = ("subject", "predicate", "object")


class Graph:
    """Set of triples plus a prefix map. Treated as immutable once built:
    queries share its lookup indexes, which `add` drops."""

    def __init__(self, triples=(), prefixes=None):
        self.triples = set(triples)
        self.prefixes = dict(prefixes or {})
        self._indexes = {}

    def add(self, triple: Triple):
        self.triples.add(triple)
        self._indexes = {}

    def _index(self, positions):
        """Triples grouped by their terms at `positions` (a tuple of
        `_POSITIONS` names), built on first use. Threads racing on the
        first build each build an equal dict and store it whole."""
        index = self._indexes.get(positions)
        if index is None:
            # keys are tuples, as execute builds them; attrgetter makes
            # them in C, which halves the build time of a Python loop
            if len(positions) > 1:
                key = operator.attrgetter(*positions)
            elif positions:
                term = operator.attrgetter(positions[0])
                key = lambda t: (term(t),)
            else:
                key = lambda t: ()
            index = {}
            for t in self.triples:
                index.setdefault(key(t), []).append(t)
            self._indexes[positions] = index
        return index

    def bind(self, prefix, iri):
        self.prefixes[prefix] = iri if isinstance(iri, str) else iri.value

    def __len__(self):
        return len(self.triples)

    def __contains__(self, triple):
        return triple in self.triples

    def __eq__(self, other):
        return isinstance(other, Graph) and self.triples == other.triples

    def terms(self):
        out = set()
        for t in self.triples:
            out.add(t.subject)
            out.add(t.predicate)
            out.add(t.object)
        return out


def csv_to_graph(dataset, base, row_prefix="row") -> Graph:
    """One triple per (row, column): subject <base><row_prefix><i>,
    predicate <base><column>, object typed from the cell value
    (int -> integer, float -> decimal, token -> string)."""
    base = base.value if isinstance(base, Iri) else base
    g = Graph()
    g.bind("ds", base)
    predicates = [Iri(base + col.name) for col in dataset.schema]
    for i, row in enumerate(dataset.rows):
        subject = Iri(f"{base}{row_prefix}{i}")
        for predicate, value in zip(predicates, row):
            g.add(Triple(subject, predicate, literal_for(value)))
    return g


# --- serialization -----------------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape(text):
    return "".join(_ESCAPES.get(c, c) for c in text)


def _term_nt(term):
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{_escape(term.lexical)}"^^<{DATATYPE_IRIS[term.datatype]}>'


def serialize(g: Graph, format="ntriples") -> str:
    """Serialize a graph: canonical N-Triples (sorted lines) or RDF-XML."""
    if format == "ntriples":
        lines = sorted(
            f"{_term_nt(t.subject)} {_term_nt(t.predicate)} {_term_nt(t.object)} ."
            for t in g.triples)
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

    by_subject = {}
    for t in sorted(g.triples, key=lambda t: (t.subject, t.predicate, _term_nt(t.object))):
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


_NT_LINE = re.compile(
    r'^<(?P<s>[^>]+)>\s+<(?P<p>[^>]+)>\s+'
    r'(?:<(?P<o_iri>[^>]+)>|"(?P<o_lex>(?:[^"\\]|\\.)*)"'
    r'(?:\^\^<(?P<o_dt>[^>]+)>)?)\s*\.\s*$')


def _unescape(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _UNESCAPES:
                raise GraphError(f"bad escape in literal: {text!r}")
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _interned(iris, value):
    """One Iri object per distinct IRI in a document: index and set
    lookups then find equal terms by identity, without calling __eq__."""
    iri = iris.get(value)
    if iri is None:
        iri = iris[value] = Iri(value)
    return iri


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples as produced by serialize(); duplicate lines collapse."""
    g = Graph()
    iris = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _NT_LINE.match(line)
        if m is None:
            reason = "missing terminal '.'" if not line.endswith(".") else "malformed triple"
            raise NTriplesSyntaxError(lineno, reason)
        try:
            subject = _interned(iris, m.group("s"))
            predicate = _interned(iris, m.group("p"))
            if m.group("o_iri") is not None:
                obj = _interned(iris, m.group("o_iri"))
            else:
                lex = _unescape(m.group("o_lex"))
                dt_iri = m.group("o_dt")
                if dt_iri is None:
                    datatype = "string"
                else:
                    datatype = _IRI_TO_DATATYPE.get(dt_iri)
                    if datatype is None:
                        raise GraphError(f"unsupported datatype IRI {dt_iri!r}")
                obj = Literal(lex, datatype)
        except GraphError as exc:
            raise NTriplesSyntaxError(lineno, str(exc)) from None
        g.add(Triple(subject, predicate, obj))
    return g


# --- query AST and parser ----------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TriplePattern:
    subject: object
    predicate: object
    object: object

    def variables(self):
        return {t.name for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Var)}


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
        out = set()
        for p in self.patterns:
            out |= p.variables()
        return out


_Q_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<var>\?[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>&&|\|\||!=|<=|>=|=|<|>)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<pname_ns>[A-Za-z_][A-Za-z0-9_-]*:)
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}().*,])
""", re.VERBOSE)


# Bounds that keep the recursive parser and the recursive filter
# evaluation well inside the interpreter's recursion limit.
MAX_FILTER_DEPTH = 64
MAX_FILTER_OPERATORS = 256


class _QueryParser(Cursor):
    fail = staticmethod(QuerySyntaxError)

    def __init__(self, text):
        super().__init__(tokenize(_Q_TOKEN, text, self.fail))
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
                raise QuerySyntaxError(pos, "expected a prefix name ending in ':'")
            prefix = text[:-1]
            kind, iri_text, pos = self.next()
            if kind != "iri":
                raise QuerySyntaxError(pos, "expected <iri> after prefix name")
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
            return Iri(text[1:-1])
        if kind == "pname":
            self.next()
            prefix, local = text.split(":", 1)
            if prefix not in self.prefixes:
                raise UnknownPrefix(prefix)
            return Iri(self.prefixes[prefix] + local)
        if kind == "keyword" and text == "a" and position == "predicate":
            self.next()
            return Iri(RDF_TYPE)
        literal = self.parse_literal()
        if literal is None:
            self.error(f"{position} term")
        return literal

    def bool_expr(self, op, left, right, pos):
        self.operators += 1
        if self.operators > MAX_FILTER_OPERATORS:
            raise QuerySyntaxError(
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
                raise QuerySyntaxError(
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
        if kind == "number":
            literal = Literal(text, "decimal" if "." in text else "integer")
        elif kind == "string":
            literal = Literal(_unescape(text[1:-1]), "string")
        elif kind == "keyword" and text in ("true", "false"):
            literal = Literal(text, "boolean")
        else:
            return None
        self.next()
        return literal


def _filter_variables(expr):
    if isinstance(expr, BoolExpr):
        return _filter_variables(expr.left) | _filter_variables(expr.right)
    out = set()
    for side in (expr.left, expr.right):
        if isinstance(side, Var):
            out.add(side.name)
    return out


def parse_query(text: str) -> Query:
    """Parse a SPARQL-subset query: PREFIX / SELECT / WHERE / FILTER."""
    return _QueryParser(text).parse()


# --- execution ---------------------------------------------------------------

COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge, "=": operator.eq, "!=": operator.ne}


class _RejectBinding(Exception):
    """Filter comparison over incompatible kinds: drop the binding."""


def _compare(op, a, b):
    if isinstance(a, Iri) or isinstance(b, Iri):
        raise _RejectBinding
    an, bn = a.numeric_value(), b.numeric_value()
    if an is not None and bn is not None:
        x, y = an, bn
    elif a.datatype == "string" and b.datatype == "string":
        x, y = a.lexical, b.lexical
    elif a.datatype == "boolean" and b.datatype == "boolean":
        if op in ("=", "!="):
            x, y = a.lexical, b.lexical
        else:
            raise _RejectBinding
    else:
        raise _RejectBinding
    return COMPARISONS[op](x, y)


def _eval_filter(expr, binding, clashes):
    if isinstance(expr, BoolExpr):
        left = _eval_filter(expr.left, binding, clashes)
        right = _eval_filter(expr.right, binding, clashes)
        return (left and right) if expr.op == "&&" else (left or right)
    left = binding[expr.left.name] if isinstance(expr.left, Var) else expr.left
    right = binding[expr.right.name] if isinstance(expr.right, Var) else expr.right
    try:
        return _compare(expr.op, left, right)
    except _RejectBinding:
        clashes[0] += 1
        return False


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


def _match_pattern(pattern, triple, binding):
    out = dict(binding)
    for pat, val in ((pattern.subject, triple.subject),
                     (pattern.predicate, triple.predicate),
                     (pattern.object, triple.object)):
        if isinstance(pat, Var):
            bound = out.get(pat.name)
            if bound is None:
                out[pat.name] = val
            elif bound != val:
                return None
        elif pat != val:
            return None
    return out


def execute(q: Query, g: Graph) -> ResultTable:
    """Natural join of pattern matches, filter, project, deduplicate.

    Patterns run most-bound first: each step takes the remaining pattern
    with the most positions fixed by a constant or an already-bound
    variable (ties in query order), and looks its candidates up in the
    graph index on exactly those positions. The multiset of full bindings
    does not depend on that order.

    A filter comparison over incompatible kinds (IRI vs number, string vs
    decimal) evaluates as false instead of aborting the query; each such
    clash is counted on the result, and a binding whose filter comes out
    false is rejected. Rows come back in canonical lexicographic order.
    """
    bindings = [{}]
    bound = set()
    remaining = list(enumerate(q.patterns))
    plan = []
    while remaining and bindings:
        step = max(remaining, key=lambda item: len(_bound_slots(item[1], bound)))
        remaining.remove(step)
        i, pattern = step
        slots = _bound_slots(pattern, bound)
        index = g._index(tuple(name for name, _ in slots))
        nxt = []
        candidates = 0
        for b in bindings:
            key = tuple([b[t.name] if isinstance(t, Var) else t for _, t in slots])
            matches = index.get(key, ())
            candidates += len(matches)
            for triple in matches:
                m = _match_pattern(pattern, triple, b)
                if m is not None:
                    nxt.append(m)
        bindings = nxt
        bound |= pattern.variables()
        plan.append((i, candidates, len(bindings)))

    clashes = [0]
    if q.filter is not None:
        bindings = [b for b in bindings if _eval_filter(q.filter, b, clashes)]

    if q.select is None:
        seen = []
        columns = tuple(n for p in q.patterns for n in _pattern_var_order(p, seen))
    else:
        columns = q.select

    rows = {tuple(b[name] for name in columns) for b in bindings}
    ordered = tuple(sorted(rows, key=lambda row: tuple(_term_nt(c) for c in row)))
    return ResultTable(columns, ordered, clashes[0], tuple(plan))


def _bound_slots(pattern, bound):
    """(position name, term) for each position that a constant or a
    variable in `bound` fixes."""
    return [(name, t) for name, t in zip(
        _POSITIONS, (pattern.subject, pattern.predicate, pattern.object))
        if not isinstance(t, Var) or t.name in bound]


def _pattern_var_order(pattern, seen):
    out = []
    for t in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(t, Var) and t.name not in seen:
            seen.append(t.name)
            out.append(t.name)
    return out


def format_cell(term) -> str:
    """Human-readable cell rendering for tables: IRIs bare, literals lexical."""
    if isinstance(term, Iri):
        return term.value
    return term.lexical
