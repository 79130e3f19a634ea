"""Terms, slot-compiled patterns, the position index, the one join and the
comparison operators, shared by the rule language and the RDF graph model.

A term is the tuple (kind, *values), its kind being its own class, so
hashing and comparing terms runs no Python code, terms of different kinds
never compare equal, and hot loops read term[0] and term[1] directly. Atom
arguments and triples are plain tuples of terms. A rule body and a basic
graph pattern are both conjunctive queries: `compile_patterns` gives each
variable a slot by first occurrence in the order the engine chose, so a
binding is the tuple of the slots' terms, and `join` runs the compiled
patterns over the fact ranges that each engine chooses. A pattern whose
terms are all new variables in slot order extends a binding by a fact's
terms as they are; heads, builtins, index keys and rows are grounded by
slot (`grounder`). Rule comparison builtins and query FILTERs apply the one
operator table `COMPARISONS`, each engine deciding which kinds it compares.
"""

import sys
from bisect import bisect_left
from collections import namedtuple
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
    """`terms` grounded by the name -> term dict `bindings`."""
    return tuple([bindings[t[1]] if t[0] is Variable else t for t in terms])


def _picker(places):
    """The function from a tuple to the tuple of its items at `places`."""
    first = places[0]
    if list(places) == list(range(first, first + len(places))):
        return itemgetter(slice(first, first + len(places)))
    return itemgetter(*places)


def grounder(terms, slots):
    """The function from a binding tuple to `terms` grounded by it, as a
    tuple; `slots` maps each variable of `terms` to its slot."""
    terms = tuple(terms)
    constants = tuple([t for t in terms if t[0] is not Variable])
    if len(constants) == len(terms):
        return lambda binding: terms
    if not constants:
        return _picker([slots[t[1]] for t in terms])
    # the constants are read past the binding's end, from binding + constants
    places, c = [], -len(constants)
    for t in terms:
        if t[0] is Variable:
            places.append(slots[t[1]])
        else:
            places.append(c)
            c += 1
    pick = itemgetter(*places)
    return lambda binding: pick(binding + constants)


class Match(namedtuple("Match", "positions key same take")):
    """One pattern compiled against the slots bound before it. `positions`
    are its probe positions, those that a constant or an earlier pattern's
    variable fixes, and `key(binding)` their terms, the index key; the join
    takes its candidates from an index on them, so they match. `same` is
    None or the pair of functions that read, from a fact, the terms a
    variable repeated in the pattern meets and the terms at its first
    occurrence, which must be equal. `take` reads the new variables' terms
    from a fact: None if the pattern is all new variables in slot order
    (the fact's terms are taken as they are), () if it binds none."""
    __slots__ = ()


def compile_patterns(patterns):
    """(slots, matches): the slot form of the conjunctive query `patterns`,
    run in their order. `slots` maps each variable name to its slot, by
    first occurrence; a binding is the tuple of the slots' terms. One Match
    per pattern."""
    slots, matches = {}, []
    for pattern in patterns:
        bound = dict(slots)
        positions = bound_positions(pattern, bound)
        key = grounder([pattern[p] for p in positions], bound) if positions else None
        fresh, repeated, first = [], [], {}
        for p, t in enumerate(pattern):
            if t[0] is Variable and t[1] not in bound:
                if t[1] in first:
                    repeated.append((p, first[t[1]]))
                else:
                    first[t[1]] = p
                    slots[t[1]] = len(slots)
                    fresh.append(p)
        same = None
        if repeated:
            same = (_picker([p for p, _ in repeated]), _picker([q for _, q in repeated]))
        if positions or repeated:
            take = _picker(fresh) if fresh else ()
        else:
            take = None
        matches.append(Match(positions, key, same, take))
    return slots, matches


class PositionIndex:
    """Ascending positions in one append-only sequence of term tuples by the
    tuple of their terms at the positions `bound`: filed when it is made and
    caught up at a lookup after the sequence grows. Threads may share it once
    the sequence has stopped growing."""

    __slots__ = ("facts", "key_of", "positions", "done")

    def __init__(self, facts, bound):
        self.facts = facts
        self.key_of = _picker(bound)
        self.positions = {}
        self.done = 0
        self._catch_up()

    def _catch_up(self):
        positions, key_of, facts = self.positions, self.key_of, self.facts
        n = len(facts)
        for p in range(self.done, n):
            positions.setdefault(key_of(facts[p]), []).append(p)
        self.done = n

    def between(self, key, lo, hi):
        """The tuples at positions p with lo <= p < hi whose key is `key`,
        in position order."""
        facts = self.facts
        if self.done < len(facts):
            self._catch_up()
        found = self.positions.get(key)
        if found is None:
            return []
        return [facts[p] for p in found[bisect_left(found, lo):bisect_left(found, hi)]]


def join(steps):
    """(bindings, counts): the binding tuples that satisfy the steps in
    turn. A step (match, facts, lo, hi, index) matches a compiled pattern
    (see `compile_patterns`) against facts[p] for lo <= p < hi: all of them
    if it has no probe positions, else those that `index`, a PositionIndex
    of `facts` on its probe positions, files under the binding's key.
    `counts` has one (candidates tried, bindings out) pair per step run;
    the join stops at the first step that leaves no binding."""
    partial = [()]
    counts = []
    for (positions, key, same, take), facts, lo, hi, index in steps:
        nxt = []
        tried = 0
        for binding in partial:
            found = facts[lo:hi] if index is None else index.between(key(binding), lo, hi)
            tried += len(found)
            if same is not None:
                first, repeat = same
                found = [f for f in found if first(f) == repeat(f)]
            if take is None:
                nxt += [binding + f for f in found] if binding else found
            elif take:
                nxt += [binding + take(f) for f in found]
            else:
                nxt += [binding] * len(found)
        counts.append((tried, len(nxt)))
        partial = nxt
        if not partial:
            break
    return partial, counts
