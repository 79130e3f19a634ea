"""Slot edges of the one join: a variable repeated inside one atom or
triple pattern, constants in body and head atoms, Str and Bool constants,
one predicate at two arities and a rule with no positive atom, checked
against the independent oracles."""

import pytest

from firedss import rules, semweb
from firedss.rules import Atom, Bool, Builtin, FactBase, Individual, Num, RuleDef, Str, Variable
from firedss.semweb import Graph, Iri, Literal, Triple, execute, parse_query

from oracles import brute_force_query, naive_saturate


def ind(name):
    return Individual(name)


def atom(pred, *args):
    return Atom(pred, tuple(args))


# Every derived fact has one derivation in the step that first derives it,
# so the naive loop and evaluate record the same Derivation.
PROGRAMS = {
    "repeated-in-first-atom": (
        "rule refl: when p(?x, ?x) then assert Loop(?x)\n",
        "p(a, a)\np(a, b)\np(b, b)\np(c, a)\n"),
    "repeated-after-a-bound-atom": (
        "rule pair: when q(?z), p(?w, ?w) then assert Both(?z, ?w)\n"
        "rule back: when q(?z), p(?z, ?z) then assert Self(?z)\n",
        "q(a)\nq(c)\np(a, a)\np(b, a)\np(c, b)\n"),
    "repeated-across-three-positions": (
        "rule tri: when r(?x, ?y), r(?y, ?x), s(?x, ?x) then assert Tri(?y, ?x)\n",
        "r(a, b)\nr(b, a)\nr(c, c)\nr(a, c)\ns(a, a)\ns(b, a)\ns(c, c)\n"),
    "constants-in-body-and-head": (
        'rule named: when hasName(?x, "x y") then assert Named(?x, "ok \\" \\\\ (,+*")\n'
        "rule flagged: when flag(?x, true), val(?x, ?v) "
        "then assert Flagged(yes, ?v), Off(?x, false)\n"
        "rule cold: when val(?x, -1.5), flag(?x, ?f) then assert Cold(?f)\n"
        "rule fixed: when flag(b, ?f) then assert Mark(k, 2)\n",
        'hasName(a, "x y")\nhasName(b, "x  y")\nflag(a, true)\nflag(b, false)\n'
        "val(a, 1.5)\nval(b, -1.5)\nval(c, 2.5)\nflag(c, true)\n"),
    "one-predicate-at-two-arities": (
        "rule up: when P(?x), P(?x, ?y) then assert P(?y)\n"
        "rule down: when P(?x, ?x) then assert Q(?x, ?x)\n",
        "P(a)\nP(a, b)\nP(b, c)\nP(c, c)\nP(d, a)\n"),
}


def _assert_matches_naive_derivations(rs, base):
    out = rules.evaluate(rs, base)
    facts, derivations = naive_saturate(rs, base.facts)
    assert out.facts == facts
    assert {f: out.rule_of(f) for f in out.derived()} == {f: d.rule for f, d in derivations.items()}
    assert out.derivations == derivations
    return out


class TestRuleSlotEdges:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_matches_naive_facts_rules_and_derivations(self, name):
        text, facts = PROGRAMS[name]
        out = _assert_matches_naive_derivations(rules.parse_rules(text),
                                                rules.parse_facts(facts))
        assert len(out.derived()) > 0

    def test_a_repeated_variable_is_checked_against_the_fact(self):
        # p(c, a) leaves ?x at c on its first position and meets a on the second
        out = rules.evaluate(rules.parse_rules(PROGRAMS["repeated-in-first-atom"][0]),
                             rules.parse_facts(PROGRAMS["repeated-in-first-atom"][1]))
        assert set(out.derived()) == {atom("Loop", ind("a")), atom("Loop", ind("b"))}

    def test_rules_without_positive_atoms_built_in_code(self):
        rs = rules.RuleSet([
            RuleDef("check", (Builtin("lessThan", (Num(1.0), Num(2.0))),),
                    (atom("Const", ind("k"), Str("s")),)),
            RuleDef("fails", (Builtin("equal", (Bool(True), Bool(False))),),
                    (atom("Never", ind("k")),)),
            RuleDef("bare", (), (atom("Always", Bool(True)),)),
            RuleDef("next", (atom("Const", Variable("x"), Variable("y")),),
                    (atom("Seen", Variable("y"), Variable("x")),)),
        ])
        out = _assert_matches_naive_derivations(rs, FactBase())
        assert set(out.derived()) == {atom("Const", ind("k"), Str("s")),
                                      atom("Always", Bool(True)),
                                      atom("Seen", Str("s"), ind("k"))}
        assert out.derivations[atom("Seen", Str("s"), ind("k"))].bindings == (
            ("x", ind("k")), ("y", Str("s")))

    def test_type_clash_names_every_body_variable(self):
        rs = rules.parse_rules("rule clash: when v(?b, ?a), v(?a, ?b), lessThan(?a, 3) "
                               "then assert Low(?a)")
        with pytest.raises(rules.TypeClash) as caught:
            rules.evaluate(rs, rules.parse_facts("v(x, y)\nv(y, x)\n"))
        assert str(caught.value) == (
            "rule clash: lessThan applied to individual y (bindings {?a=y, ?b=x})")
        assert caught.value.bindings == {"a": ind("y"), "b": ind("x")}


class TestCompileStaysLazy:
    def test_parse_rules_leaves_the_plans_uncompiled(self):
        rs = rules.parse_rules(PROGRAMS["constants-in-body-and-head"][0])
        assert "_compiled" not in rs.__dict__
        rules.evaluate(rs, FactBase())
        assert "_compiled" in rs.__dict__


EX = "http://example.org/slots#"


def _graph():
    a, b, c = (Iri(EX + n) for n in "abc")
    p, q = Iri(EX + "p"), Iri(EX + "q")
    return Graph([Triple(a, p, a), Triple(a, p, b), Triple(b, q, a), Triple(b, p, b),
                  Triple(c, q, a), Triple(a, q, c), Triple(c, p, Literal("c")),
                  Triple(p, p, p), Triple(b, q, b)])


class TestQuerySlotEdges:
    @pytest.mark.parametrize("text", [
        "SELECT ?s ?p WHERE { ?s ?p ?s }",
        "SELECT ?s ?p ?o ?q WHERE { ?s ?p ?o . ?o ?q ?s }",
        "SELECT ?s WHERE { ?s ?s ?s }",
        f"SELECT ?s ?o WHERE {{ ?s <{EX}q> ?o . ?o <{EX}p> ?o }}",
    ])
    def test_matches_brute_force(self, text):
        q, g = parse_query(text), _graph()
        columns, rows = brute_force_query(q, g)
        result = execute(q, g)
        assert (result.columns, list(result.rows)) == (columns, rows)
        assert rows

    def test_a_repeated_variable_is_checked_against_the_triple(self):
        rows = execute(parse_query("SELECT ?s ?p WHERE { ?s ?p ?s }"), _graph()).rows
        assert [(semweb.format_cell(s), semweb.format_cell(p)) for s, p in rows] == [
            (EX + "a", EX + "p"), (EX + "b", EX + "p"), (EX + "b", EX + "q"),
            (EX + "p", EX + "p")]
