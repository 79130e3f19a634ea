"""Horn-clause rule DSL and forward-chaining fact saturation.

Rules are written one per statement; a `#` comment runs to the line's end:

    rule r1: when PreventiveAction(?a), hasScenario(?a, ?s),
                  hasIgnitionRisk(?s, ?r), lessThanOrEqual(?r, 0.5)
             then assert reduceIgnitionRisk(?a)

The caret/arrow surface form is accepted in the clause as well
(`rule r1: A(?x) ^ B(?x, 3) -> C(?x)`), and comparison builtins may carry
a `swrlb:` prefix. Atoms are unary (class membership) or binary (property);
heads never invent new individuals, so saturation always terminates.
Evaluation runs to the least fixpoint and records per derived fact its
rule and bindings, from which its Derivation is built when it is read, for
explanation. It is semi-naive: rules run in rounds in rule order, each
rule keeps one watermark per body atom, so a rule joins only against
facts that are new since it last ran, and a new fact wakes only the rules
whose body uses its predicate. Each rule body is compiled once, on first
use, to slot form (`firedss._terms.compile_patterns`): its variables are
numbered by first occurrence, a binding is the tuple of their terms, and
heads and builtins are grounded by slot. Body atoms with bound arguments
are joined through per-position indexes of the fact lists, by the one
join (`firedss._terms.join`) that graph queries run too.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from ._syntax import Cursor, escape, lf, token_pattern
from ._terms import (COMPARISONS, PositionIndex, Variable, compile_patterns, ground, grounder,
                     join, term_class, variables)


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
#
# Terms are the (kind, value) tuples of firedss._terms, which also holds the
# one Variable kind, and an atom is the tuple (predicate, args): hot loops
# read atom[0] and atom[1] directly.

Individual = term_class("Individual", "name")
Str = term_class("Str", "value")
Num = term_class("Num", "value")
Bool = term_class("Bool", "value")


class Atom(namedtuple("Atom", "predicate args")):
    __slots__ = ()

    def variables(self):
        return variables(self[1])


# make_atom((predicate, args)) is Atom(predicate, args) without a Python-level call
make_atom = functools.partial(tuple.__new__, Atom)


_BUILTIN_COMPARISONS = {name: COMPARISONS[symbol] for name, symbol in (
    ("lessThan", "<"), ("lessThanOrEqual", "<="), ("greaterThan", ">"),
    ("greaterThanOrEqual", ">="), ("equal", "="), ("notEqual", "!="))}
BUILTIN_OPS = tuple(_BUILTIN_COMPARISONS)


@dataclass(frozen=True)
class Builtin:
    op: str
    args: tuple

    def variables(self):
        return variables(self.args)


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
    """Rules, all checked for variable safety and then for unique names."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        for r in self.rules:
            _check_safety(r)
        names = set()
        for r in self.rules:
            if r.name in names:
                raise DuplicateRuleName(r.name)
            names.add(r.name)

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getstate__(self):
        """The rules alone: a pickle or copy compiles its own plans on first use."""
        return {"rules": self.rules}

    @functools.cached_property
    def predicates(self):
        """The predicates that a rule body or head names. A fact of any
        other predicate joins no body and is asserted by no head, so it
        cannot change what `evaluate` derives."""
        return frozenset([atom[0] for rule in self.rules
                          for atom in rule.positive_atoms() + rule.head])

    @functools.cached_property
    def _compiled(self):
        """Per rule its name, positive atoms and variable names by slot
        (`firedss._terms.compile_patterns`), each body atom's (predicate,
        arity) key and Match, its builtins as (op, grounder of the args)
        and its head atoms as (predicate, key, grounder of the args); the
        trigger index, each body key in rule order -> its rules ascending;
        and the body predicates."""
        plans, triggers = [], {}
        for r, rule in enumerate(self.rules):
            atoms = rule.positive_atoms()
            slots, matches = compile_patterns([atom[1] for atom in atoms])
            keys = tuple([(atom[0], len(atom[1])) for atom in atoms])
            for key in keys:
                woken = triggers.setdefault(key, [])
                if not woken or woken[-1] != r:
                    woken.append(r)
            plans.append((rule.name, atoms, tuple(slots), keys, tuple(matches),
                          tuple([(b.op, grounder(b.args, slots)) for b in rule.builtins()]),
                          tuple([(a[0], (a[0], len(a[1])), grounder(a[1], slots))
                                 for a in rule.head])))
        return (tuple(plans), {key: tuple(rs) for key, rs in triggers.items()},
                frozenset(key[0] for key in triggers))


class Derivation(namedtuple("Derivation", "rule bindings premises")):
    """The rule name, its bindings as sorted (?var, term) pairs, and the
    ground Atoms that its positive body matched."""
    __slots__ = ()


class FactBase:
    """Ground atoms, each once and in the caller's order, plus one
    derivation record per derived fact. `facts` is a read-only set-like view
    of the atom -> None dict `_atoms`; the atoms are checked where text enters
    (`parse_rules`, `parse_facts`). `_made` maps each derived fact to a
    Derivation or to the raw (rule name, binding tuple, variable names by
    slot, body atoms) that `evaluate` stores, which `derivations` and
    `explain` replace in place by its Derivation when they first read it;
    `derived()` and `rule_of` build none. This is safe for threads sharing
    a RuleSet: the names and body atoms are those of the immutable
    `RuleSet._compiled`, each `evaluate` call owns its FactBase,
    and threads building one FactBase's derivations at once only replace
    values under existing keys, which never resizes the dict, with equal
    Derivations."""

    def __init__(self, facts=(), derivations=None):
        self._atoms = dict.fromkeys(facts)
        self._made = dict(derivations or {})

    @property
    def facts(self):
        return self._atoms.keys()

    @property
    def derivations(self):
        for fact in self._made:
            self._derivation(fact)
        return self._made

    def __contains__(self, atom):
        return atom in self._atoms

    def __len__(self):
        return len(self._atoms)

    def derived(self):
        return self._made.keys()

    def rule_of(self, fact):
        """The name of the rule that derived `fact`."""
        return self._made[fact][0]

    def _derivation(self, fact):
        """The Derivation of `fact`, built in place if raw; None if not derived."""
        made = self._made.get(fact)
        if made is not None and not isinstance(made, Derivation):
            rule, values, names, atoms = made
            bindings = dict(zip(names, values))
            made = self._made[fact] = Derivation(rule, tuple(sorted(bindings.items())), tuple(
                [make_atom((a[0], ground(a[1], bindings))) for a in atoms]))
        return made


# --- textual forms -----------------------------------------------------------

def format_term(term):
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Individual):
        return term.name
    if isinstance(term, Str):
        return f'"{escape(term.value)}"'
    if isinstance(term, Num):
        v = term.value
        return format(int(v), "d") if v == int(v) else repr(v)
    if isinstance(term, Bool):
        return "true" if term.value else "false"
    raise TypeError(f"not a term: {term!r}")


def format_atom(atom):
    return f"{atom[0]}({', '.join(map(format_term, atom[1]))})"


def format_bindings(bindings):
    items = sorted(bindings.items())
    return "{" + ", ".join(f"?{k}={format_term(v)}" for k, v in items) + "}"


# --- parser ------------------------------------------------------------------

_TOKEN_RE = token_pattern(r"""
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)?)
  | (?P<punct>[():,^])
""")

_KEYWORDS = {"rule", "when", "then", "assert"}


class _Parser(Cursor):
    pattern = _TOKEN_RE
    syntax_error = RuleSyntaxError

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
        kind, text, pos = self.peek()
        if kind == "var":
            self.next()
            return Variable(text[1:])
        if kind == "number":
            value = float(text)
            if not math.isfinite(value) or (value == 0 and text.strip("-0.")):
                raise self.fail(pos, "number out of range")
            self.next()
            return Num(value)
        if kind == "string":
            return Str(self.string())
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
    for part in rule.builtins() + rule.head:
        for v in sorted(part.variables()):
            if v not in bound:
                raise UnsafeVariable(rule.name, v)


def parse_rules(text: str) -> RuleSet:
    """Parse rule text into a RuleSet, which checks safety and unique names."""
    return RuleSet(_Parser(text).parse_rules())


def parse_facts(text: str) -> FactBase:
    """Parse ground atoms, one per line, into a FactBase (test/demo helper)."""
    facts = []
    for lineno, line in enumerate(lf(text).split("\n"), 1):
        parser = _Parser(line, lineno)
        if parser.at("eof"):
            continue  # blank or comment-only line
        atom = parser.parse_atom()
        if not parser.at("eof"):
            parser.error("end of line")
        if isinstance(atom, Builtin) or atom.variables():
            raise RuleSyntaxError(lineno, 1, f"not a ground atom: {line.strip()!r}")
        facts.append(atom)
    return FactBase(facts)


# --- evaluation --------------------------------------------------------------

def builtin_compare(op, a, b):
    """Evaluate one comparison builtin on two ground terms; individuals clash."""
    if a[0] is Num and b[0] is Num:
        return _BUILTIN_COMPARISONS[op](a[1], b[1])
    for term in (a, b):
        if term[0] is Individual:
            raise TypeClash(f"{op} applied to individual {term[1]}")
    if op in ("equal", "notEqual"):
        if a[0] is b[0] and a[0] in (Str, Bool):
            return _BUILTIN_COMPARISONS[op](a[1], b[1])
        raise TypeClash(f"{op} on mismatched kinds "
                        f"{format_term(a)} / {format_term(b)}")
    raise TypeClash(f"{op} requires numbers, got "
                    f"{format_term(a)} / {format_term(b)}")


def _new_bindings(plan, sizes):
    """Binding tuples of the rule's body atoms that use at least one fact
    past the watermarks `plan.seen`, each once: for every atom i whose list
    grew, atoms before i range over their old prefix, atom i over its new
    facts and atoms after i over their list up to `sizes`."""
    out = []
    seen = plan.seen
    for i, (old, new) in enumerate(zip(seen, sizes)):
        if new > old:
            ranges = ([(0, s) for s in seen[:i]] + [(old, new)]
                      + [(0, s) for s in sizes[i + 1:]])
            out += join([(match, facts, lo, hi, index) for match, facts, (lo, hi), index
                         in zip(plan.matches, plan.lists, ranges, plan.indexes)])[0]
    return out


def _passes_builtins(plan, binding):
    for op, args in plan.builtins:
        a, b = args(binding)
        try:
            ok = builtin_compare(op, a, b)
        except TypeClash as exc:
            raise TypeClash(str(exc), rule=plan.name,
                            bindings=dict(zip(plan.names, binding))) from None
        if not ok:
            return False
    return True


class _Plan:
    """One rule as one `evaluate` call runs it: its compiled part, per body
    atom its list of fact arguments and its position index (None to scan),
    per head atom its list (None if no body uses its key), and the
    watermarks of its last run."""

    __slots__ = ("name", "atoms", "names", "matches", "builtins", "heads", "lists",
                 "indexes", "seen")

    def __init__(self, compiled, by_key, indexes):
        self.name, self.atoms, self.names, keys, self.matches, self.builtins, heads = compiled
        self.lists = [by_key[key] for key in keys]
        self.indexes = []
        for key, match in zip(keys, self.matches):
            index = None
            if match.positions:
                index = indexes.get((key, match.positions))
                if index is None:
                    index = indexes[key, match.positions] = PositionIndex(
                        by_key[key], match.positions)
            self.indexes.append(index)
        self.heads = [(predicate, key, by_key.get(key), args) for predicate, key, args in heads]
        self.seen = [0] * len(self.atoms)


def _fire(plan, known, made):
    """One run of a rule: join the bindings that use a fact new since its
    last run and add each new head fact with its raw derivation record.
    Returns the (predicate, arity) keys of the lists that grew."""
    if plan.atoms:
        sizes = list(map(len, plan.lists))
        found = _new_bindings(plan, sizes)
        plan.seen = sizes
    else:
        found = [()]
    heads = plan.heads
    before = [0 if facts_of is None else len(facts_of) for _, _, facts_of, _ in heads]
    name, names, atoms = plan.name, plan.names, plan.atoms
    for binding in found:
        if plan.builtins and not _passes_builtins(plan, binding):
            continue
        for predicate, _, facts_of, args in heads:
            terms = args(binding)
            fact = make_atom((predicate, terms))
            if fact in known:
                continue
            known[fact] = None
            if facts_of is not None:
                facts_of.append(terms)
            made[fact] = (name, binding, names, atoms)
    return [key for (_, key, facts_of, _), n in zip(heads, before)
            if facts_of is not None and len(facts_of) > n]


def evaluate(rules: RuleSet, facts: FactBase) -> FactBase:
    """Saturate the fact base: least fixpoint of the rules over the facts.

    Semi-naive: rules run in rounds, in rule order, and a rule sees the
    facts derived earlier in its round. The lists of fact arguments per
    (predicate, arity) only grow, and each rule keeps one watermark per body atom (how
    much of that atom's list it had seen when it last ran), so a rule joins
    only the bindings that use a fact new since then. A body atom with
    constants or variables bound by the atoms before it takes its facts
    from an index of its list on those argument positions, bisected to the
    watermark range; the indexes are built lazily, once per call and
    (list, positions), and extended as the lists grow. Every rule runs in
    the first round. After that a rule runs only when a fact of its body
    predicates is new: a trigger index maps each (predicate, arity) to the
    rules whose body uses it, and a new fact wakes those later in rule
    order for this round and the others for the next. A rule without body
    atoms runs once. Saturation stops when a round wakes no rule for the
    next. Each (round, rule) step derives the same new facts as re-joining
    everything would, so the rule credited for a fact is the same too.

    What no fact changes is compiled once per RuleSet, on first use, and
    cached on it (`RuleSet._compiled`): each body in slot form, its
    variables numbered by first occurrence, so a binding is a tuple, a
    body atom of only new variables extends it by a fact's arguments as
    they are, and heads, builtins and index keys are grounded by slot. A
    call builds only the fact lists, the indexes and the watermarks, so
    calls and threads can share one RuleSet.

    Heads cannot introduce new individuals, so the fixpoint exists and the
    fact set is independent of rule and fact ordering. The facts are kept
    in input order, so the recorded bindings and premises are the same in
    every process. Per derived fact it stores the rule name, the binding
    tuple, the rule's variable names and its body atoms; FactBase builds
    the Derivation, with the same sorted bindings, when it is read.
    """
    known = facts._atoms.copy()     # a dict copy reuses the stored hashes
    made = dict(facts._made)
    compiled, triggers, predicates = rules._compiled
    by_key = {key: [] for key in triggers}  # argument lists of the body keys only
    indexes = {}
    plans = [_Plan(plan, by_key, indexes) for plan in compiled]
    for f in known:
        if f[0] in predicates:
            facts_of = by_key.get((f[0], len(f[1])))
            if facts_of is not None:
                facts_of.append(f[1])

    pending = list(range(len(plans)))
    while pending:
        heapify(pending)
        queued, later = set(pending), set()
        while pending:
            r = heappop(pending)
            for key in _fire(plans[r], known, made):
                for s in triggers.get(key, ()):
                    if s <= r:
                        later.add(s)
                    elif s not in queued:
                        queued.add(s)
                        heappush(pending, s)
        pending = list(later)
    return FactBase(known, made)


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
        deriv = facts._derivation(f) or Derivation(None, (), ())
        if any(p in trees and trees[p] is None for p in deriv.premises):
            raise RuleError(f"cyclic derivation of {format_atom(f)}")
        todo = [p for p in deriv.premises if p not in trees]
        trees[f] = None if todo else DerivationTree(
            f, deriv.rule, deriv.bindings, tuple(trees[p] for p in deriv.premises))
        stack.extend(todo)
    return trees[fact]
