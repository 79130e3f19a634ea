"""Horn-clause rule DSL and forward-chaining fact saturation.

Rules are written one per statement, `#` starts a comment:

    rule r1: when PreventiveAction(?a), hasScenario(?a, ?s),
                  hasIgnitionRisk(?s, ?r), lessThanOrEqual(?r, 0.5)
             then assert reduceIgnitionRisk(?a)

The caret/arrow surface form is accepted in the clause as well
(`rule r1: A(?x) ^ B(?x, 3) -> C(?x)`), and comparison builtins may carry
a `swrlb:` prefix. Atoms are unary (class membership) or binary (property);
heads never invent new individuals, so saturation always terminates.
Evaluation runs to the least fixpoint and records one derivation per
derived fact for explanation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .semweb import COMPARISONS


class RuleError(ValueError):
    pass


class RuleSyntaxError(RuleError):
    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class UnsafeVariable(RuleError):
    def __init__(self, rule, variable):
        super().__init__(
            f"rule {rule}: variable ?{variable} not bound by a non-builtin body atom")
        self.rule = rule
        self.variable = variable


class UnknownBuiltin(RuleError):
    pass


class DuplicateRuleName(RuleError):
    pass


class TypeClash(RuleError):
    def __init__(self, message, rule=None, bindings=None):
        if rule is not None:
            message = f"rule {rule}: {message} (bindings {format_bindings(bindings or {})})"
        super().__init__(message)
        self.rule = rule
        self.bindings = bindings


class UnknownFact(RuleError):
    pass


# --- terms and atoms ---------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Individual:
    name: str


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Bool:
    value: bool


def is_ground(term):
    return not isinstance(term, Variable)


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise RuleError(f"{self.predicate}: atoms take 1 or 2 arguments")

    def variables(self):
        return {a.name for a in self.args if isinstance(a, Variable)}

    def ground(self):
        return all(is_ground(a) for a in self.args)


_BUILTIN_COMPARISONS = {name: COMPARISONS[symbol] for name, symbol in (
    ("lessThan", "<"), ("lessThanOrEqual", "<="), ("greaterThan", ">"),
    ("greaterThanOrEqual", ">="), ("equal", "="), ("notEqual", "!="))}
BUILTIN_OPS = tuple(_BUILTIN_COMPARISONS)


@dataclass(frozen=True)
class Builtin:
    op: str
    args: tuple

    def variables(self):
        return {a.name for a in self.args if isinstance(a, Variable)}


@dataclass(frozen=True)
class RuleDef:
    name: str
    body: tuple      # Atoms and Builtins
    head: tuple      # Atoms

    def positive_atoms(self):
        return tuple(a for a in self.body if isinstance(a, Atom))

    def builtins(self):
        return tuple(b for b in self.body if isinstance(b, Builtin))


class RuleSet:
    def __init__(self, rules):
        self.rules = tuple(rules)
        self.by_name = {}
        for r in self.rules:
            if r.name in self.by_name:
                raise DuplicateRuleName(r.name)
            self.by_name[r.name] = r

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


@dataclass(frozen=True)
class Derivation:
    rule: str
    bindings: tuple    # sorted (?var, term) pairs
    premises: tuple    # ground Atoms matched by the positive body


class FactBase:
    """Set of ground atoms plus one derivation record per derived fact."""

    def __init__(self, facts=(), derivations=None):
        self.facts = frozenset(facts)
        self.derivations = dict(derivations or {})
        for f in self.facts:
            if not f.ground():
                raise RuleError(f"non-ground fact: {format_atom(f)}")

    def __contains__(self, atom):
        return atom in self.facts

    def __len__(self):
        return len(self.facts)

    def derived(self):
        return {f for f in self.facts if f in self.derivations}


# --- textual forms -----------------------------------------------------------

def format_term(term):
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Individual):
        return term.name
    if isinstance(term, Str):
        return '"' + term.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(term, Num):
        v = term.value
        return format(int(v), "d") if v == int(v) else repr(v)
    if isinstance(term, Bool):
        return "true" if term.value else "false"
    raise TypeError(f"not a term: {term!r}")


def format_atom(atom):
    args = ", ".join(format_term(a) for a in atom.args)
    return f"{atom.predicate}({args})"


def format_bindings(bindings):
    items = sorted(bindings.items())
    return "{" + ", ".join(f"?{k}={format_term(v)}" for k, v in items) + "}"


# --- parser ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)?)
  | (?P<var>\?[A-Za-z][A-Za-z0-9_]*)
  | (?P<punct>[():,^])
""", re.VERBOSE)

_KEYWORDS = {"rule", "when", "then", "assert"}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(line, pos - line_start + 1,
                                  f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, expected):
        tok = self.peek()
        found = tok.text or "end of input"
        raise RuleSyntaxError(tok.line, tok.column,
                              f"expected {expected}, found {found!r}")

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.error(text or kind)
        return self.next()

    def at_keyword(self, word):
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def parse_rules(self):
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self):
        if not self.at_keyword("rule"):
            self.error("'rule'")
        self.next()
        name_tok = self.expect("ident")
        if name_tok.text in _KEYWORDS:
            self.error("rule name")
        self.expect("punct", ":")
        if self.at_keyword("when"):
            self.next()
            body = self.parse_atom_list(",")
            if not self.at_keyword("then"):
                self.error("'then'")
            self.next()
            if not self.at_keyword("assert"):
                self.error("'assert'")
            self.next()
            head = self.parse_atom_list(",")
        else:
            body = self.parse_atom_list("^", stop_on_arrow=True)
            self.expect("arrow")
            head = self.parse_atom_list("^")
        head_atoms = []
        for a in head:
            if isinstance(a, Builtin):
                raise RuleSyntaxError(0, 0, f"rule {name_tok.text}: builtin in head")
            head_atoms.append(a)
        return RuleDef(name_tok.text, tuple(body), tuple(head_atoms))

    def parse_atom_list(self, separator, stop_on_arrow=False):
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == separator:
                self.next()
                atoms.append(self.parse_atom())
            else:
                break
        if stop_on_arrow and self.peek().kind != "arrow":
            self.error("'^' or '->'")
        return atoms

    def parse_atom(self):
        tok = self.expect("ident")
        name = tok.text
        if name in _KEYWORDS:
            self.error("atom")
        self.expect("punct", "(")
        args = [self.parse_term()]
        if self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            args.append(self.parse_term())
        self.expect("punct", ")")

        bare = name[6:] if name.startswith("swrlb:") else name
        if bare in BUILTIN_OPS:
            if len(args) != 2:
                raise RuleSyntaxError(tok.line, tok.column,
                                      f"builtin {bare} takes 2 arguments")
            return Builtin(bare, tuple(args))
        if name.startswith("swrlb:"):
            raise UnknownBuiltin(f"line {tok.line}: swrlb:{bare}")
        if ":" in name:
            raise RuleSyntaxError(tok.line, tok.column,
                                  f"unexpected namespaced predicate {name!r}")
        return Atom(name, tuple(args))

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return Variable(tok.text[1:])
        if tok.kind == "number":
            self.next()
            return Num(float(tok.text))
        if tok.kind == "string":
            self.next()
            raw = tok.text[1:-1]
            return Str(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return Bool(True)
            if tok.text == "false":
                self.next()
                return Bool(False)
            if tok.text in _KEYWORDS:
                self.error("term")
            self.next()
            return Individual(tok.text)
        self.error("term")


def _check_safety(rule: RuleDef):
    bound = set()
    for atom in rule.positive_atoms():
        bound |= atom.variables()
    for b in rule.builtins():
        for v in sorted(b.variables()):
            if v not in bound:
                raise UnsafeVariable(rule.name, v)
    for h in rule.head:
        for v in sorted(h.variables()):
            if v not in bound:
                raise UnsafeVariable(rule.name, v)


def parse_rules(text: str) -> RuleSet:
    """Parse rule text into a RuleSet, enforcing variable safety."""
    rules = _Parser(_tokenize(text)).parse_rules()
    for r in rules:
        _check_safety(r)
    return RuleSet(rules)


def parse_facts(text: str) -> FactBase:
    """Parse ground atoms, one per line, into a FactBase (test/demo helper)."""
    facts = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            parser = _Parser(_tokenize(line))
            if parser.peek().kind == "eof":
                continue  # blank or comment-only line
            atom = parser.parse_atom()
            if parser.peek().kind != "eof":
                parser.error("end of line")
        except RuleSyntaxError as exc:
            raise RuleSyntaxError(lineno, exc.column, exc.message) from None
        if isinstance(atom, Builtin) or not atom.ground():
            raise RuleSyntaxError(lineno, 1, f"not a ground atom: {line.strip()!r}")
        facts.append(atom)
    return FactBase(facts)


# --- evaluation --------------------------------------------------------------

def builtin_compare(op, a, b):
    """Evaluate one comparison builtin on two ground literal terms."""
    if isinstance(a, Num) and isinstance(b, Num):
        return _BUILTIN_COMPARISONS[op](a.value, b.value)
    if op in ("equal", "notEqual"):
        if (isinstance(a, Str) and isinstance(b, Str)) or \
                (isinstance(a, Bool) and isinstance(b, Bool)):
            return _BUILTIN_COMPARISONS[op](a.value, b.value)
        raise TypeClash(f"{op} on mismatched kinds "
                        f"{format_term(a)} / {format_term(b)}")
    raise TypeClash(f"{op} requires numbers, got "
                    f"{format_term(a)} / {format_term(b)}")


def _substitute(term, bindings):
    if isinstance(term, Variable):
        return bindings[term.name]
    return term


def _match_atom(pattern: Atom, fact: Atom, bindings):
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    out = dict(bindings)
    for p, f in zip(pattern.args, fact.args):
        if isinstance(p, Variable):
            bound = out.get(p.name)
            if bound is None:
                out[p.name] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


def _rule_bindings(rule: RuleDef, by_predicate):
    """All variable bindings satisfying the positive body atoms."""
    partial = [{}]
    for atom in rule.positive_atoms():
        candidates = by_predicate.get((atom.predicate, len(atom.args)), ())
        nxt = []
        for bindings in partial:
            for fact in candidates:
                m = _match_atom(atom, fact, bindings)
                if m is not None:
                    nxt.append(m)
        partial = nxt
        if not partial:
            return []
    return partial


def _passes_builtins(rule: RuleDef, bindings):
    for b in rule.builtins():
        args = [_substitute(t, bindings) for t in b.args]
        for a in args:
            if isinstance(a, Individual):
                raise TypeClash(f"{b.op} applied to individual {a.name}",
                                rule=rule.name, bindings=bindings)
        try:
            ok = builtin_compare(b.op, args[0], args[1])
        except TypeClash as exc:
            raise TypeClash(str(exc), rule=rule.name, bindings=bindings) from None
        if not ok:
            return False
    return True


def evaluate(rules: RuleSet, facts: FactBase) -> FactBase:
    """Saturate the fact base: least fixpoint of the rules over the facts.

    Heads cannot introduce new individuals, so the fixpoint exists and the
    result is independent of rule and fact ordering.
    """
    known = set(facts.facts)
    derivations = dict(facts.derivations)
    by_predicate = {}
    for f in known:
        by_predicate.setdefault((f.predicate, len(f.args)), []).append(f)

    changed = True
    while changed:
        changed = False
        for rule in rules:
            for bindings in _rule_bindings(rule, by_predicate):
                if not _passes_builtins(rule, bindings):
                    continue
                premises = tuple(
                    Atom(a.predicate, tuple(_substitute(t, bindings) for t in a.args))
                    for a in rule.positive_atoms())
                for h in rule.head:
                    fact = Atom(h.predicate,
                                tuple(_substitute(t, bindings) for t in h.args))
                    if fact in known:
                        continue
                    known.add(fact)
                    by_predicate.setdefault(
                        (fact.predicate, len(fact.args)), []).append(fact)
                    derivations[fact] = Derivation(
                        rule.name, tuple(sorted(bindings.items())), premises)
                    changed = True
    return FactBase(known, derivations)


@dataclass(frozen=True)
class DerivationTree:
    fact: Atom
    rule: str | None          # None for asserted leaves
    bindings: tuple
    children: tuple

    def leaves(self):
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node.fact)
        return tuple(out)


def explain(facts: FactBase, fact: Atom) -> DerivationTree:
    """Trace a fact back to asserted leaves, iteratively, one subtree per fact."""
    trees = {}                  # fact -> its tree; None while on the path being built
    stack = [fact]
    while stack:
        f = stack[-1]
        if trees.get(f) is not None:
            stack.pop()
            continue
        if f not in facts:
            raise UnknownFact(format_atom(f))
        deriv = facts.derivations.get(f) or Derivation(None, (), ())
        if any(p in trees and trees[p] is None for p in deriv.premises):
            raise RuleError(f"cyclic derivation of {format_atom(f)}")
        todo = [p for p in deriv.premises if p not in trees]
        trees[f] = None if todo else DerivationTree(
            f, deriv.rule, deriv.bindings, tuple(trees[p] for p in deriv.premises))
        stack.extend(todo)
    return trees[fact]
