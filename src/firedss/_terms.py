"""Terms, positional match, position index, the one join and the comparison
operators, shared by the rule language and the RDF graph model.

A term is the tuple (kind, *values), its kind being its own class, so
hashing and comparing terms runs no Python code, terms of different kinds
never compare equal, and hot loops read term[0] and term[1] directly. Atom
arguments and triples are plain tuples of terms: a pattern matches one
position by position, its variables binding to the terms they meet. A rule
body and a basic graph pattern are both conjunctive queries, which `join`
runs in the order and over the fact ranges that each engine chooses.
Rule comparison builtins and query FILTERs apply the one operator table
`COMPARISONS`, each engine deciding which kinds it compares.
"""

import sys
import threading
from bisect import bisect_left
from operator import eq, ge, gt, itemgetter, le, lt, ne

COMPARISONS = {"<": lt, "<=": le, ">": gt, ">=": ge, "=": eq, "!=": ne}


class Term(tuple):
    __slots__ = ()

    def __new__(cls, value):
        return tuple.__new__(cls, (cls, value))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"


def term_class(name, field):
    """A term kind of one value, read as the attribute `field`; like a
    namedtuple, it belongs to the module that calls this."""
    return type(name, (Term,), {"__slots__": (), "_fields": (field,),
                                field: property(itemgetter(1)),
                                "__module__": sys._getframe(1).f_globals["__name__"]})


Variable = term_class("Variable", "name")


def variables(terms):
    """The names of the variables among `terms`."""
    return {t[1] for t in terms if t[0] is Variable}


def bound_positions(terms, bound):
    """Positions of `terms` that a constant or a variable named in `bound` fixes."""
    return tuple([p for p, t in enumerate(terms) if t[0] is not Variable or t[1] in bound])


def ground(terms, bindings):
    return tuple([bindings[t[1]] if t[0] is Variable else t for t in terms])


def match(pattern, terms, bindings):
    """`bindings` extended so that `pattern` grounds to `terms` position by
    position, or None if it cannot."""
    out = dict(bindings)
    for p, t in zip(pattern, terms):
        if p[0] is Variable:
            bound = out.get(p[1])
            if bound is None:
                out[p[1]] = t
            elif bound != t:
                return None
        elif p != t:
            return None
    return out


class PositionIndex:
    """Ascending positions in one append-only list of term tuples by their
    terms at the positions `bound` (the term itself for one position, else
    their tuple). It catches up with the list at each lookup, under a lock,
    so threads can share it."""

    __slots__ = ("facts", "key_of", "positions", "done", "lock")

    def __init__(self, facts, bound):
        self.facts = facts
        self.key_of = itemgetter(*bound)
        self.positions = {}
        self.done = 0
        self.lock = threading.Lock()

    def between(self, terms, bindings, lo, hi):
        """Positions p with lo <= p < hi of the tuples whose key is `terms`
        grounded by `bindings`."""
        facts = self.facts
        if self.done < len(facts):
            with self.lock:
                positions, key_of, n = self.positions, self.key_of, len(facts)
                for p in range(self.done, n):
                    positions.setdefault(key_of(facts[p]), []).append(p)
                self.done = n
        key = ground(terms, bindings)
        found = self.positions.get(key[0] if len(key) == 1 else key)
        if found is None:
            return ()
        return found[bisect_left(found, lo):bisect_left(found, hi)]


def join(steps):
    """(bindings, counts): the bindings that satisfy the steps in turn. A
    step (pattern, facts, lo, hi, probe) matches the pattern against
    facts[p] for lo <= p < hi, and where probe is (index, terms) only at
    the positions that `index.between(terms, bindings, lo, hi)` returns.
    `counts` has one (candidates tried, bindings out) pair per step run;
    the join stops at the first step that leaves no binding."""
    partial = [{}]
    counts = []
    for pattern, facts, lo, hi, probe in steps:
        nxt = []
        tried = 0
        for bindings in partial:
            positions = range(lo, hi) if probe is None else probe[0].between(
                probe[1], bindings, lo, hi)
            tried += len(positions)
            for p in positions:
                m = match(pattern, facts[p], bindings)
                if m is not None:
                    nxt.append(m)
        counts.append((tried, len(nxt)))
        partial = nxt
        if not partial:
            break
    return partial, counts
