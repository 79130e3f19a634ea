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
derived fact for explanation. It is semi-naive: rules run in rounds in
rule order, and each rule keeps one watermark per body atom, so a rule
joins only against facts that are new since it last ran.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._syntax import Cursor, tokenize
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


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple

    def variables(self):
        return {a.name for a in self.args if isinstance(a, Variable)}


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
    """Ground atoms, each once and in the caller's order, plus one
    derivation record per derived fact. `facts` is a set-like view of the
    atom -> None dict `_atoms`; the atoms are checked where text enters
    (`parse_rules`, `parse_facts`)."""

    def __init__(self, facts=(), derivations=None):
        self._atoms = dict.fromkeys(facts)
        self.facts = self._atoms.keys()
        self.derivations = dict(derivations or {})

    def __contains__(self, atom):
        return atom in self.facts

    def __len__(self):
        return len(self.facts)

    def derived(self):
        return self.derivations.keys()


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
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)?)
  | (?P<var>\?[A-Za-z][A-Za-z0-9_]*)
  | (?P<punct>[():,^])
""", re.VERBOSE)

_KEYWORDS = {"rule", "when", "then", "assert"}


class _Parser(Cursor):
    def __init__(self, text):
        self.text = text
        super().__init__(tokenize(_TOKEN_RE, text, self.fail))

    def line_column(self, pos):
        """1-based line and column of offset `pos`; only `\\n` ends a line."""
        text = self.text
        return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)

    def fail(self, pos, message):
        return RuleSyntaxError(*self.line_column(pos), message)

    def expect(self, kind, text=None):
        if not self.at(kind, text):
            self.error(text or kind)
        return self.next()

    def parse_rules(self):
        rules = []
        while not self.at("eof"):
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self):
        if not self.at("ident", "rule"):
            self.error("'rule'")
        self.next()
        name = self.expect("ident")[1]
        if name in _KEYWORDS:
            self.error("rule name")
        self.expect("punct", ":")
        if self.at("ident", "when"):
            self.next()
            separator = ","
            body = self.parse_atom_list(separator)
            if not self.at("ident", "then"):
                self.error("'then'")
            self.next()
            if not self.at("ident", "assert"):
                self.error("'assert'")
            self.next()
        else:
            separator = "^"
            body = self.parse_atom_list(separator, stop_on_arrow=True)
            self.expect("arrow")
        head_pos = self.peek()[2]
        head = self.parse_atom_list(separator)
        if any(isinstance(a, Builtin) for a in head):
            raise self.fail(head_pos, f"rule {name}: builtin in head")
        return RuleDef(name, tuple(body), tuple(head))

    def parse_atom_list(self, separator, stop_on_arrow=False):
        atoms = [self.parse_atom()]
        while self.at("punct", separator):
            self.next()
            atoms.append(self.parse_atom())
        if stop_on_arrow and not self.at("arrow"):
            self.error("'^' or '->'")
        return atoms

    def parse_atom(self):
        _, name, pos = self.expect("ident")
        if name in _KEYWORDS:
            self.error("atom")
        self.expect("punct", "(")
        args = [self.parse_term()]
        if self.at("punct", ","):
            self.next()
            args.append(self.parse_term())
        self.expect("punct", ")")

        bare = name[6:] if name.startswith("swrlb:") else name
        if bare in BUILTIN_OPS:
            if len(args) != 2:
                raise self.fail(pos, f"builtin {bare} takes 2 arguments")
            return Builtin(bare, tuple(args))
        if name.startswith("swrlb:"):
            raise UnknownBuiltin(f"line {self.line_column(pos)[0]}: swrlb:{bare}")
        if ":" in name:
            raise self.fail(pos, f"unexpected namespaced predicate {name!r}")
        return Atom(name, tuple(args))

    def parse_term(self):
        kind, text, _ = self.peek()
        if kind == "var":
            self.next()
            return Variable(text[1:])
        if kind == "number":
            self.next()
            return Num(float(text))
        if kind == "string":
            self.next()
            return Str(text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if kind == "ident":
            if text == "true":
                self.next()
                return Bool(True)
            if text == "false":
                self.next()
                return Bool(False)
            if text in _KEYWORDS:
                self.error("term")
            self.next()
            return Individual(text)
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
    rules = _Parser(text).parse_rules()
    for r in rules:
        _check_safety(r)
    return RuleSet(rules)


def parse_facts(text: str) -> FactBase:
    """Parse ground atoms, one per line, into a FactBase (test/demo helper)."""
    facts = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            parser = _Parser(line)
            if parser.at("eof"):
                continue  # blank or comment-only line
            atom = parser.parse_atom()
            if not parser.at("eof"):
                parser.error("end of line")
        except RuleSyntaxError as exc:
            raise RuleSyntaxError(lineno, exc.column, exc.message) from None
        if isinstance(atom, Builtin) or atom.variables():
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


def _join(atoms, lists, ranges):
    """Bindings satisfying the atoms in body order, atom k matched against
    lists[k][lo:hi] for its (lo, hi) in ranges."""
    partial = [{}]
    for atom, facts, (lo, hi) in zip(atoms, lists, ranges):
        nxt = []
        candidates = facts[lo:hi]
        for bindings in partial:
            for fact in candidates:
                m = _match_atom(atom, fact, bindings)
                if m is not None:
                    nxt.append(m)
        partial = nxt
        if not partial:
            break
    return partial


def _new_bindings(atoms, lists, seen, sizes):
    """Bindings of the atoms that use at least one fact past the watermarks
    `seen`, each once: for every atom i whose list grew, atoms before i
    range over their old prefix, atom i over its new facts and atoms after
    i over their list up to `sizes`."""
    out = []
    for i, (old, new) in enumerate(zip(seen, sizes)):
        if new > old:
            ranges = ([(0, s) for s in seen[:i]] + [(old, new)]
                      + [(0, s) for s in sizes[i + 1:]])
            out.extend(_join(atoms, lists, ranges))
    return out


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

    Semi-naive: rules run in rounds, in rule order, and a rule sees the
    facts derived earlier in its round. The fact lists per predicate only
    grow, and each rule keeps one watermark per body atom (how much of
    that atom's list it had seen when it last ran), so a rule joins only
    the bindings that use a fact new since then. A rule runs again only
    when a body list grew; a rule without body atoms runs once. Saturation
    stops after the first round that derives nothing. Each (round, rule)
    step derives the same new facts as re-joining everything would, so
    the rule credited for a fact is the same too.

    Heads cannot introduce new individuals, so the fixpoint exists and the
    fact set is independent of rule and fact ordering. The facts are kept
    in input order, so the recorded bindings and premises are the same in
    every process.
    """
    known = facts._atoms.copy()     # a dict copy reuses the stored hashes
    derivations = dict(facts.derivations)
    by_predicate = {}
    for f in known:
        by_predicate.setdefault((f.predicate, len(f.args)), []).append(f)
    bodies = [rule.positive_atoms() for rule in rules]
    lists = [[by_predicate.setdefault((a.predicate, len(a.args)), []) for a in atoms]
             for atoms in bodies]
    seen = [None] * len(bodies)     # None until the rule first runs

    changed = True
    while changed:
        changed = False
        for r, (rule, atoms) in enumerate(zip(rules, bodies)):
            sizes = list(map(len, lists[r]))
            if sizes == seen[r]:
                continue
            found = (_new_bindings(atoms, lists[r], seen[r] or [0] * len(atoms), sizes)
                     if atoms else [{}])
            seen[r] = sizes
            for bindings in found:
                if not _passes_builtins(rule, bindings):
                    continue
                premises = tuple(
                    Atom(a.predicate, tuple(_substitute(t, bindings) for t in a.args))
                    for a in atoms)
                for h in rule.head:
                    fact = Atom(h.predicate,
                                tuple(_substitute(t, bindings) for t in h.args))
                    if fact in known:
                        continue
                    known[fact] = None
                    by_predicate.setdefault(
                        (fact.predicate, len(fact.args)), []).append(fact)
                    derivations[fact] = Derivation(
                        rule.name, tuple(sorted(bindings.items())), premises)
                    changed = True
    return FactBase(known, derivations)


@dataclass(frozen=True, eq=False, repr=False)
class DerivationTree:
    """One node per fact; `explain` shares the subtree of a fact that is a
    premise more than once. Equality is structural and, like hashing and
    repr, never recurses, so chains thousands of steps deep are fine."""
    fact: Atom
    rule: str | None          # None for asserted leaves
    bindings: tuple
    children: tuple

    def _node(self):
        return (self.fact, self.rule, self.bindings, len(self.children))

    def __eq__(self, other):
        if not isinstance(other, DerivationTree):
            return NotImplemented
        compared = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            compared.add((id(a), id(b)))
            if a._node() != b._node():
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return hash(self._node())

    def __repr__(self):
        return (f"DerivationTree({format_atom(self.fact)}, rule={self.rule!r}, "
                f"bindings={format_bindings(dict(self.bindings))}, "
                f"children={len(self.children)})")

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
