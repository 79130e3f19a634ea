"""Independent reference implementations used only by the test suite.

Each oracle is written from scratch against the governing definition
(standard index equations, naive enumeration, textbook statistics) and
deliberately avoids sharing code or structure with the package modules
it checks.
"""

import decimal
import itertools
import math

from firedss import rules as R
from firedss import semweb as W

# --- fire-weather index chain: transcription of the standard daily equations ---

DAYLENGTH_DMC = {1: 6.5, 2: 7.5, 3: 9.0, 4: 12.8, 5: 13.9, 6: 13.9,
                 7: 12.4, 8: 10.9, 9: 9.4, 10: 8.0, 11: 7.0, 12: 6.0}
DAYLENGTH_DC = {1: -1.6, 2: -1.6, 3: -1.6, 4: 0.9, 5: 3.8, 6: 5.8,
                7: 6.4, 8: 5.0, 9: 2.4, 10: 0.4, 11: -1.6, 12: -1.6}


def ref_ffmc(f0, t, h, w, r):
    wmo = 147.2 * (101.0 - f0) / (59.5 + f0)
    if r > 0.5:
        rf = r - 0.5
        if wmo > 150.0:
            wmo = (wmo + 42.5 * rf * math.exp(-100.0 / (251.0 - wmo))
                   * (1.0 - math.exp(-6.93 / rf))
                   + 0.0015 * (wmo - 150.0) ** 2 * rf ** 0.5)
        else:
            wmo = (wmo + 42.5 * rf * math.exp(-100.0 / (251.0 - wmo))
                   * (1.0 - math.exp(-6.93 / rf)))
        if wmo > 250.0:
            wmo = 250.0
    ed = (0.942 * h ** 0.679 + 11.0 * math.exp((h - 100.0) / 10.0)
          + 0.18 * (21.1 - t) * (1.0 - 1.0 / math.exp(0.115 * h)))
    ew = (0.618 * h ** 0.753 + 10.0 * math.exp((h - 100.0) / 10.0)
          + 0.18 * (21.1 - t) * (1.0 - 1.0 / math.exp(0.115 * h)))
    if wmo < ed and wmo < ew:
        z = (0.424 * (1.0 - ((100.0 - h) / 100.0) ** 1.7)
             + 0.0694 * w ** 0.5 * (1.0 - ((100.0 - h) / 100.0) ** 8))
        x = z * 0.581 * math.exp(0.0365 * t)
        wm = ew - (ew - wmo) / 10.0 ** x
    elif wmo > ed:
        z = (0.424 * (1.0 - (h / 100.0) ** 1.7)
             + 0.0694 * w ** 0.5 * (1.0 - (h / 100.0) ** 8))
        x = z * 0.581 * math.exp(0.0365 * t)
        wm = ed + (wmo - ed) / 10.0 ** x
    else:
        wm = wmo
    out = 59.5 * (250.0 - wm) / (147.2 + wm)
    if out > 101.0:
        out = 101.0
    if out < 0.0:
        out = 0.0
    return out


def ref_dmc(p0, t, h, r, month):
    if t < -1.1:
        rk = 0.0
    else:
        rk = 1.894 * (t + 1.1) * (100.0 - h) * DAYLENGTH_DMC[month] * 1e-4
    if r <= 1.5:
        pr = p0
    else:
        rw = 0.92 * r - 1.27
        wmi = 20.0 + 280.0 / math.exp(0.023 * p0)
        if p0 <= 33.0:
            b = 100.0 / (0.5 + 0.3 * p0)
        elif p0 <= 65.0:
            b = 14.0 - 1.3 * math.log(p0)
        else:
            b = 6.2 * math.log(p0) - 17.2
        wmr = wmi + 1000.0 * rw / (48.77 + b * rw)
        pr = 43.43 * (5.6348 - math.log(wmr - 20.0))
    if pr < 0.0:
        pr = 0.0
    out = pr + rk
    return out if out > 0.0 else 0.0


def ref_dc(d0, t, r, month):
    if t < -2.8:
        t = -2.8
    pe = (0.36 * (t + 2.8) + DAYLENGTH_DC[month]) / 2.0
    if pe < 0.0:
        pe = 0.0
    if r > 2.8:
        rw = 0.83 * r - 1.27
        smi = 800.0 * math.exp(-d0 / 400.0)
        dr = d0 - 400.0 * math.log(1.0 + 3.937 * rw / smi)
        out = dr + pe if dr > 0.0 else pe
    else:
        out = d0 + pe
    return out if out > 0.0 else 0.0


def ref_isi(f, w):
    mo = 147.2 * (101.0 - f) / (59.5 + f)
    ff = 19.1152 * math.exp(-0.1386 * mo) * (1.0 + mo ** 5.31 / 49300000.0)
    return ff * math.exp(0.05039 * w)


def ref_bui(p, d):
    if p == 0.0:
        return 0.0
    if p <= 0.4 * d:
        out = 0.8 * p * d / (p + 0.4 * d)
    else:
        out = p - (1.0 - 0.8 * d / (p + 0.4 * d)) * (0.92 + (0.0114 * p) ** 1.7)
    return out if out > 0.0 else 0.0


def ref_fwi(i, b):
    if b <= 80.0:
        fd = 0.626 * b ** 0.809 + 2.0
    else:
        fd = 1000.0 / (25.0 + 108.64 * math.exp(-0.023 * b))
    bb = 0.1 * i * fd
    if bb <= 1.0:
        return bb
    return math.exp(2.72 * (0.434 * math.log(bb)) ** 0.647)


# --- Pearson correlation: textbook two-pass computation -------------------------

def two_pass_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return sxy / math.sqrt(sxx * syy)


# --- rule saturation: try every substitution until nothing changes --------------

def brute_force_saturate(ruleset, facts):
    known = set(facts)
    while True:
        added = set()
        for rule in ruleset:
            variables = sorted({v for a in rule.body for v in a.variables()}
                               | {v for h in rule.head for v in h.variables()})
            universe = {arg for f in known for arg in f.args}
            universe |= {a for atom in rule.body for a in atom.args
                         if not isinstance(a, R.Variable)}
            universe |= {a for atom in rule.head for a in atom.args
                         if not isinstance(a, R.Variable)}
            universe = sorted(universe, key=repr)
            for combo in itertools.product(universe, repeat=len(variables)):
                binding = dict(zip(variables, combo))

                def ground(term):
                    return binding[term.name] if isinstance(term, R.Variable) else term

                ok = True
                for item in rule.body:
                    if isinstance(item, R.Atom):
                        inst = R.Atom(item.predicate, tuple(ground(a) for a in item.args))
                        if inst not in known:
                            ok = False
                            break
                    else:
                        args = [ground(a) for a in item.args]
                        if not all(isinstance(a, (R.Num, R.Str, R.Bool)) for a in args):
                            ok = False
                            break
                        if not R.builtin_compare(item.op, args[0], args[1]):
                            ok = False
                            break
                if not ok:
                    continue
                for h in rule.head:
                    inst = R.Atom(h.predicate, tuple(ground(a) for a in h.args))
                    if inst not in known:
                        added.add(inst)
        if not added:
            return known
        known |= added


def naive_saturate(ruleset, facts):
    """Naive forward chaining in rounds: each rule, in rule order, re-joins
    its whole body against every fact known when it starts (facts derived
    earlier in the round included), until a round derives nothing. Returns
    (facts, {derived fact: Derivation}); the first rule to derive a fact is
    credited with it, under the first binding met when the facts are
    joined in input order."""
    known = dict.fromkeys(facts)
    derivations = {}
    by_key = {}
    for f in known:
        by_key.setdefault((f.predicate, len(f.args)), []).append(f)

    def ground(term, binding):
        return binding[term.name] if isinstance(term, R.Variable) else term

    def extend(pattern, fact, binding):
        out = dict(binding)
        for p, v in zip(pattern.args, fact.args):
            if isinstance(p, R.Variable):
                if out.setdefault(p.name, v) != v:
                    return None
            elif p != v:
                return None
        return out

    changed = True
    while changed:
        changed = False
        for rule in ruleset:
            atoms = [a for a in rule.body if isinstance(a, R.Atom)]
            partial = [{}]
            for atom in atoms:
                candidates = list(by_key.get((atom.predicate, len(atom.args)), ()))
                partial = [m for b in partial for f in candidates
                           if (m := extend(atom, f, b)) is not None]
            for binding in partial:
                if not all(R.builtin_compare(b.op, ground(b.args[0], binding),
                                             ground(b.args[1], binding))
                           for b in rule.body if isinstance(b, R.Builtin)):
                    continue
                premises = tuple(R.Atom(a.predicate,
                                        tuple(ground(t, binding) for t in a.args))
                                 for a in atoms)
                for h in rule.head:
                    fact = R.Atom(h.predicate, tuple(ground(t, binding) for t in h.args))
                    if fact in known:
                        continue
                    known[fact] = None
                    by_key.setdefault((fact.predicate, len(fact.args)), []).append(fact)
                    derivations[fact] = R.Derivation(
                        rule.name, tuple(sorted(binding.items())), premises)
                    changed = True
    return set(known), derivations


# --- query answering: enumerate all substitutions over graph terms --------------

def _brute_force_bindings(query, graph):
    """Every assignment of graph terms to the pattern variables under which
    each pattern instantiates to a triple of the graph."""
    variables = sorted(query.pattern_variables())
    index = {name: i for i, name in enumerate(variables)}
    terms = sorted(graph.terms(), key=W._term_nt)
    triple_set = {(t.subject, t.predicate, t.object) for t in graph.triples}

    # pattern positions precompiled to either a constant or a variable slot
    compiled = []
    for p in query.patterns:
        slots = []
        for term in (p.subject, p.predicate, p.object):
            if isinstance(term, W.Var):
                slots.append((True, index[term.name]))
            else:
                slots.append((False, term))
        compiled.append(slots)

    for combo in itertools.product(terms, repeat=len(variables)):
        ok = True
        for slots in compiled:
            s = combo[slots[0][1]] if slots[0][0] else slots[0][1]
            pr = combo[slots[1][1]] if slots[1][0] else slots[1][1]
            o = combo[slots[2][1]] if slots[2][0] else slots[2][1]
            if not isinstance(s, W.Iri) or not isinstance(pr, W.Iri) \
                    or (s, pr, o) not in triple_set:
                ok = False
                break
        if ok:
            yield dict(zip(variables, combo))


def brute_force_query(query, graph):
    matches = [b for b in _brute_force_bindings(query, graph)
               if query.filter is None or _filter_holds(query.filter, b)]
    columns = query.select
    rows = {tuple(b[name] for name in columns) for b in matches}
    return columns, sorted(rows, key=lambda row: tuple(W._term_nt(c) for c in row))


def brute_force_clashes(query, graph):
    """Comparison leaves over incompatible kinds, counted once per leaf on
    every full binding; both sides of && and || are visited."""
    if query.filter is None:
        return 0
    return sum(_leaf_clashes(query.filter, b)
               for b in _brute_force_bindings(query, graph))


def _leaf_clashes(expr, binding):
    if isinstance(expr, W.BoolExpr):
        return _leaf_clashes(expr.left, binding) + _leaf_clashes(expr.right, binding)
    sides = [binding[t.name] if isinstance(t, W.Var) else t for t in (expr.left, expr.right)]
    if any(isinstance(t, W.Iri) for t in sides):
        return 1
    kinds = {"integer" if t.datatype == "decimal" else t.datatype for t in sides}
    if len(kinds) == 2:
        return 1
    if kinds == {"boolean"} and expr.op not in ("=", "!="):
        return 1
    return 0


def _filter_holds(expr, binding):
    if isinstance(expr, W.BoolExpr):
        left = _filter_holds(expr.left, binding)
        right = _filter_holds(expr.right, binding)
        return (left and right) if expr.op == "&&" else (left or right)
    left = binding[expr.left.name] if isinstance(expr.left, W.Var) else expr.left
    right = binding[expr.right.name] if isinstance(expr.right, W.Var) else expr.right
    if isinstance(left, W.Iri) or isinstance(right, W.Iri):
        return False
    # integers and decimals compare as exact numbers, whatever their length
    lv, rv = (decimal.Decimal(t.lexical) if t.datatype in ("integer", "decimal")
              else None for t in (left, right))
    if lv is None or rv is None:
        if left.datatype == "string" and right.datatype == "string":
            lv, rv = left.lexical, right.lexical
        elif left.datatype == "boolean" and right.datatype == "boolean" \
                and expr.op in ("=", "!="):
            lv, rv = left.lexical, right.lexical
        else:
            return False
    if expr.op == "<":
        return lv < rv
    if expr.op == "<=":
        return lv <= rv
    if expr.op == ">":
        return lv > rv
    if expr.op == ">=":
        return lv >= rv
    if expr.op == "=":
        return lv == rv
    return lv != rv


# --- cosine ranking: plain arithmetic, no numpy ---------------------------------

def brute_force_topk(query_vector, doc_vectors, doc_ids, k):
    def cos(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return dot / (na * nb)

    scored = [(cos(query_vector, v), doc_id) for v, doc_id in zip(doc_vectors, doc_ids)]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored[:k]


# --- hashed trigram embedding: one gram at a time, plain integers ----------------

def fnv1a64(data):
    """FNV-1a 64 of a byte string: xor each byte in, then multiply by the
    prime, modulo 2**64."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2 ** 64
    return h


def ref_embedding(text, dimension, n=3):
    """The unit-norm bucket counts of a text's character n-grams, as a list
    of floats: lowercase, collapse whitespace runs to one space, take every
    n-character window (the whole text if shorter), bucket each by FNV-1a 64
    of its UTF-8 bytes modulo `dimension`. Empty text is the zero vector."""
    text = " ".join(text.lower().split())
    counts = [0] * dimension
    if text:
        grams = [text[i:i + n] for i in range(len(text) - n + 1)] or [text]
        for gram in grams:
            counts[fnv1a64(gram.encode("utf-8")) % dimension] += 1
    norm = math.sqrt(sum(c * c for c in counts)) or 1.0
    return [c / norm for c in counts]


# --- ontology metric formulas re-coded directly ----------------------------------

def ref_metrics(c, op, dp, sc, ind, cwi, ax):
    prop = op + dp
    out = {}
    out["relationship_richness"] = prop / (sc + prop) if sc + prop else None
    out["attribute_richness"] = dp / c if c else None
    out["class_richness"] = cwi / c if c else None
    out["average_population"] = ind / c if c else None
    out["class_relation_ratio"] = c / (sc + op) if sc + op else None
    out["axiom_class_ratio"] = ax / c if c else None
    if c and sc + op:
        out["score_om"] = (op * c * 100 + (sc + op) * prop) / ((sc + op) * c)
    else:
        out["score_om"] = None
    out["score_kb"] = (c * 100 + ind) / c if c else None
    return out
