import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from firedss import data_text, rules
from firedss.rules import (
    Atom, Bool, DuplicateRuleName, FactBase, Individual, Num, RuleSyntaxError,
    Str, TypeClash, UnknownBuiltin, UnknownFact, UnsafeVariable, Variable,
)

from oracles import brute_force_saturate, naive_saturate

RISK_RULE = ("rule r1: when PreventiveAction(?a), hasScenario(?a,?s), "
             "hasIgnitionRisk(?s,?r), lessThanOrEqual(?r, 0.5) "
             "then assert reduceIgnitionRisk(?a)")


def ind(name):
    return Individual(name)


def atom(pred, *args):
    return Atom(pred, tuple(args))


class TestParser:
    def test_risk_rule_shape(self):
        rs = rules.parse_rules(RISK_RULE)
        assert len(rs) == 1
        rule = rs.rules[0]
        assert rule.name == "r1"
        assert len(rule.body) == 4
        assert len(rule.positive_atoms()) == 3
        assert len(rule.builtins()) == 1
        assert len(rule.head) == 1
        assert rule.head[0] == atom("reduceIgnitionRisk", Variable("a"))

    def test_empty_input(self):
        assert len(rules.parse_rules("")) == 0
        assert len(rules.parse_rules("# only a comment\n")) == 0

    def test_caret_arrow_form(self):
        rs = rules.parse_rules(
            'rule t: Zone(?z) ^ hasRiskLevel(?z, "High") -> deployOptimalDensity(?z, "OneBrigadePer5000Ha")')
        rule = rs.rules[0]
        assert len(rule.body) == 2 and len(rule.head) == 1
        assert rule.head[0].args[1] == Str("OneBrigadePer5000Ha")

    def test_swrlb_prefix_accepted(self):
        rs = rules.parse_rules(
            "rule t: when A(?x), hasV(?x, ?v), swrlb:lessThan(?v, 5000) then assert B(?x)")
        assert rs.rules[0].builtins()[0].op == "lessThan"

    def test_unknown_swrlb_builtin(self):
        with pytest.raises(UnknownBuiltin):
            rules.parse_rules(
                "rule t: when A(?x), hasV(?x, ?v), swrlb:pow(?v, 2) then assert B(?x)")

    def test_unsafe_head_variable(self):
        with pytest.raises(UnsafeVariable) as err:
            rules.parse_rules("rule bad: when A(?x) then assert B(?y)")
        assert err.value.variable == "y"

    def test_unsafe_builtin_variable(self):
        with pytest.raises(UnsafeVariable) as err:
            rules.parse_rules("rule bad: when lessThan(?x, 5) then assert Foo(?x)")
        assert err.value.variable == "x"

    def test_duplicate_rule_name(self):
        text = "rule a: when P(?x) then assert Q(?x)\nrule a: when Q(?x) then assert P(?x)"
        with pytest.raises(DuplicateRuleName):
            rules.parse_rules(text)

    def test_syntax_error_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            rules.parse_rules("rule broken: when P(?x then assert Q(?x)")
        assert err.value.line == 1

    def test_boolean_and_string_literals(self):
        rs = rules.parse_rules(
            'rule t: when Svc(?s), hasClearOrganization(?s, true), '
            'hasName(?s, "fire brigade") then assert ok(?s)')
        args = [a.args[1] for a in rs.rules[0].positive_atoms()[1:]]
        assert args == [Bool(True), Str("fire brigade")]

    @pytest.mark.parametrize("text, where", [
        ("rule t: when A(?x) then assert lessThan(?x, 1)", (1, 32)),
        ("rule t:\n  A(?x) ->\n  B(?x) ^ swrlb:lessThan(?x, 1)", (3, 3)),
    ])
    def test_builtin_in_head_names_where_the_head_starts(self, text, where):
        with pytest.raises(RuleSyntaxError, match="rule t: builtin in head") as err:
            rules.parse_rules(text)
        assert (err.value.line, err.value.column) == where

    @pytest.mark.parametrize("parse, text, where", [
        (rules.parse_rules, "rule t: when A(?x), hasV(?x, ?v),\n"
                            "    lessThan(?v, \u0663) then assert B(?x)", (2, 18)),
        (rules.parse_facts, "A(a)\nhasV(a, \u0663)", (2, 9)),
        (rules.parse_facts, "hasV(a, 1\u0663)", (1, 10)),
    ])
    def test_numbers_take_ascii_digits_only(self, parse, text, where):
        with pytest.raises(RuleSyntaxError, match="unexpected character '\u0663'") as err:
            parse(text)
        assert (err.value.line, err.value.column) == where

    def test_ternary_atom_rejected(self):
        with pytest.raises(RuleSyntaxError):
            rules.parse_rules("rule t: when P(?x, ?y, ?z) then assert Q(?x)")

    def test_bundled_tables_file(self, rules_tables_text):
        rs = rules.parse_rules(rules_tables_text)
        assert len(rs) == 18

    def test_bundled_alerts_file(self, rules_alerts_text):
        rs = rules.parse_rules(rules_alerts_text)
        assert "fire_trigger" in rs.by_name

    @pytest.mark.parametrize("name", ["fwi_alerts.rules", "tables_3_4_5.rules"])
    def test_crlf_file_parses_like_lf(self, name):
        text = data_text(name)
        assert rules.parse_rules(text.replace("\n", "\r\n")).rules == \
            rules.parse_rules(text).rules


class TestParseFacts:
    def test_one_ground_atom_per_line(self):
        base = rules.parse_facts('# situation\nA(x)\n\nhasRisk(x, 0.5)  # comment\n'
                                 '  \thasName(x, "a#b")\n')
        assert set(base.facts) == {atom("A", ind("x")), atom("hasRisk", ind("x"), Num(0.5)),
                                   atom("hasName", ind("x"), Str("a#b"))}

    @pytest.mark.parametrize("line", [
        "A(x) B(y)", "A(x), B(y)", "A(x))", "A(x) ^ B(y)", "A(?x)",
        "lessThan(1, 2)", "A(x", "A x", "ns:A(x)", "A(x) $",
    ])
    def test_bad_line_reports_its_number(self, line):
        with pytest.raises(RuleSyntaxError) as err:
            rules.parse_facts(f"A(a)\n\n{line}\nB(b)\n")
        assert err.value.line == 3


class TestBuiltinCompare:
    def test_inclusive_boundary(self):
        assert rules.builtin_compare("lessThanOrEqual", Num(1000), Num(1000)) is True

    def test_strict_boundary(self):
        assert rules.builtin_compare("lessThan", Num(5000), Num(5000)) is False

    def test_string_equality(self):
        assert rules.builtin_compare("equal", Str("Firefighting"), Str("Firefighting"))
        assert not rules.builtin_compare("equal", Str("Firefighting"), Str("firefighting"))

    def test_boolean_equality(self):
        assert rules.builtin_compare("notEqual", Bool(True), Bool(False))

    def test_numbers_compare_exactly(self):
        assert rules.builtin_compare("equal", Num(1000.0), Num(1000))
        assert not rules.builtin_compare("equal", Num(0.5), Num(0.5000001))

    def test_type_clash_on_order_of_strings(self):
        with pytest.raises(TypeClash):
            rules.builtin_compare("lessThan", Str("a"), Str("b"))

    def test_type_clash_on_mixed_kinds(self):
        with pytest.raises(TypeClash):
            rules.builtin_compare("equal", Str("5"), Num(5))


class TestEvaluate:
    def test_risk_rule_fires(self):
        rs = rules.parse_rules(RISK_RULE)
        base = FactBase([atom("PreventiveAction", ind("a1")),
                         atom("hasScenario", ind("a1"), ind("s1")),
                         atom("hasIgnitionRisk", ind("s1"), Num(0.4))])
        out = rules.evaluate(rs, base)
        assert atom("reduceIgnitionRisk", ind("a1")) in out

    def test_risk_rule_guard_blocks(self):
        rs = rules.parse_rules(RISK_RULE)
        base = FactBase([atom("PreventiveAction", ind("a1")),
                         atom("hasScenario", ind("a1"), ind("s1")),
                         atom("hasIgnitionRisk", ind("s1"), Num(0.6))])
        assert not rules.evaluate(rs, base).derived()

    def test_strict_capacity_rule(self, rules_tables_text):
        rs = rules.parse_rules(rules_tables_text)
        at_limit = FactBase([atom("WaterTanker", ind("v1")),
                             atom("hasWaterCapacity", ind("v1"), Num(5000))])
        assert not rules.evaluate(rs, at_limit).derived()
        below = FactBase([atom("WaterTanker", ind("v1")),
                          atom("hasWaterCapacity", ind("v1"), Num(4999))])
        assert atom("deployMultipleVehicles", ind("v1")) in rules.evaluate(rs, below)

    def test_monotone_superset(self):
        rs = rules.parse_rules(RISK_RULE)
        base = FactBase([atom("PreventiveAction", ind("a1"))])
        out = rules.evaluate(rs, base)
        assert base.facts <= out.facts

    def test_chained_derivation(self):
        rs = rules.parse_rules(
            "rule a: when P(?x) then assert Q(?x)\n"
            "rule b: when Q(?x) then assert R(?x)\n")
        out = rules.evaluate(rs, FactBase([atom("P", ind("n"))]))
        assert atom("R", ind("n")) in out

    def test_confluence_under_permutation(self):
        text = ("rule a: when P(?x), edge(?x, ?y) then assert P(?y)\n"
                "rule b: when P(?x), mark(?x) then assert Done(?x)\n"
                "rule c: when Done(?x) then assert P(?x)\n")
        rs = rules.parse_rules(text)
        base_facts = [atom("P", ind("n0")), atom("mark", ind("n2")),
                      atom("edge", ind("n0"), ind("n1")),
                      atom("edge", ind("n1"), ind("n2")),
                      atom("edge", ind("n2"), ind("n0"))]
        reference = None
        for perm in itertools.permutations(rs.rules):
            out = rules.evaluate(rules.RuleSet(perm), FactBase(base_facts))
            if reference is None:
                reference = out.facts
            assert out.facts == reference
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(base_facts)
            rng.shuffle(shuffled)
            assert rules.evaluate(rs, FactBase(shuffled)).facts == reference

    def test_type_clash_reports_rule_and_binding(self):
        rs = rules.parse_rules(
            "rule t: when hasV(?x, ?v), lessThan(?v, 5) then assert B(?x)")
        base = FactBase([atom("hasV", ind("a"), Str("high"))])
        with pytest.raises(TypeClash) as err:
            rules.evaluate(rs, base)
        assert "t" in str(err.value) and "high" in str(err.value)

    def test_head_constants_allowed(self):
        rs = rules.parse_rules(
            'rule t: when AdministrativeAuthority(?a), hasResponsibilityModel(?a, "IntegratedForester") '
            'then assert delegateResponsibility(?a, "ForestManagementServices")')
        base = FactBase([atom("AdministrativeAuthority", ind("auth")),
                         atom("hasResponsibilityModel", ind("auth"), Str("IntegratedForester"))])
        out = rules.evaluate(rs, base)
        assert atom("delegateResponsibility", ind("auth"),
                    Str("ForestManagementServices")) in out

    def test_termination_on_random_safe_rules(self):
        rng = random.Random(7)
        for _ in range(10):
            rs, base = _random_program(rng, n_individuals=20)
            out = rules.evaluate(rs, base)
            preds = {(f.predicate, len(f.args)) for f in out.facts}
            bound = 0
            terms = {a for f in out.facts for a in f.args}
            for _, arity in preds:
                bound += len(terms) ** arity
            assert len(out.facts) <= bound


def _random_program(rng, n_individuals=8):
    """Random type-consistent safe programs: unary class atoms, binary
    numeric-valued properties, numeric builtins only."""
    classes = ["C0", "C1", "C2"]
    props = ["p0", "p1"]
    nums = ["q0"]
    individuals = [ind(f"i{k}") for k in range(n_individuals)]

    facts = []
    for _ in range(rng.randint(3, 12)):
        kind = rng.random()
        if kind < 0.4:
            facts.append(atom(rng.choice(classes), rng.choice(individuals)))
        elif kind < 0.75:
            facts.append(atom(rng.choice(props), rng.choice(individuals),
                              rng.choice(individuals)))
        else:
            facts.append(atom(rng.choice(nums), rng.choice(individuals),
                              Num(float(rng.randint(0, 5)))))

    defs = []
    for r in range(rng.randint(1, 3)):
        body = []
        head_var = Variable("x")
        body.append(atom(rng.choice(classes), head_var))
        if rng.random() < 0.6:
            body.append(atom(rng.choice(props), head_var, Variable("y")))
            head_args = (Variable("y"),) if rng.random() < 0.5 else (head_var,)
        else:
            head_args = (head_var,)
        if rng.random() < 0.5:
            body.append(atom(rng.choice(nums), head_var, Variable("v")))
            body.append(rules.Builtin(
                rng.choice(rules.BUILTIN_OPS[:4]),
                (Variable("v"), Num(float(rng.randint(0, 5))))))
        defs.append(rules.RuleDef(f"r{r}", tuple(body),
                                  (atom(rng.choice(classes), *head_args),)))
    return rules.RuleSet(defs), FactBase(facts)


class TestOracleEquivalence:
    def test_matches_brute_force_on_small_programs(self):
        rng = random.Random(20240601)
        for case in range(40):
            rs, base = _random_program(rng, n_individuals=6)
            got = rules.evaluate(rs, base).facts
            want = brute_force_saturate(rs, base.facts)
            assert got == want, f"case {case}"


def _reversed_chain(links):
    """Single-atom rules P<k-1>(?x) -> P<k>(?x), last link first, so each
    round of rule-order saturation derives one more link."""
    return rules.parse_rules("".join(
        f"rule link{k}: when P{k - 1}(?x) then assert P{k}(?x)\n"
        for k in range(links, 0, -1)))


def _assert_matches_naive(rs, base):
    """Same facts as the brute-force oracle, and each derived fact credited
    to the rule that the naive round-by-round loop credits."""
    out = rules.evaluate(rs, base)
    assert out.facts == brute_force_saturate(rs, base.facts)
    facts, derivations = naive_saturate(rs, base.facts)
    assert out.facts == facts
    assert {f: d.rule for f, d in out.derivations.items()} == \
        {f: d.rule for f, d in derivations.items()}
    return out


class TestSemiNaive:
    def test_random_programs_match_brute_force_and_naive_credit(self):
        rng = random.Random(5150)
        for _ in range(60):
            _assert_matches_naive(*_random_program(rng, n_individuals=6))

    @pytest.mark.parametrize("extra", [
        "", "rule d: when edge(?x, ?y), Done(?y) then assert Done(?x)\n"])
    def test_every_rule_order_of_recursive_program(self, extra):
        # the program of test_confluence_under_permutation, and one more rule
        rs = rules.parse_rules(
            "rule a: when P(?x), edge(?x, ?y) then assert P(?y)\n"
            "rule b: when P(?x), mark(?x) then assert Done(?x)\n"
            "rule c: when Done(?x) then assert P(?x)\n" + extra)
        base = FactBase([atom("P", ind("n0")), atom("mark", ind("n2")),
                         atom("edge", ind("n0"), ind("n1")),
                         atom("edge", ind("n1"), ind("n2")),
                         atom("edge", ind("n2"), ind("n0"))])
        for perm in itertools.permutations(rs.rules):
            _assert_matches_naive(rules.RuleSet(perm), base)

    def test_reversed_chain(self):
        base = FactBase([atom("P0", ind("a")), atom("P0", ind("b"))])
        out = _assert_matches_naive(_reversed_chain(30), base)
        assert atom("P30", ind("b")) in out
        assert out.derivations == naive_saturate(_reversed_chain(30), base.facts)[1]

    @pytest.mark.parametrize("facts", [[], [atom("Q", ind("b"))]])
    def test_builtin_only_body_fires_once(self, facts):
        rs = rules.parse_rules(
            "rule q: when Q(?x) then assert R(?x)\n"
            "rule always: when lessThan(1, 2) then assert Always(a)\n"
            "rule never: when lessThan(2, 1) then assert Never(a)\n")
        out = _assert_matches_naive(rs, FactBase(facts))
        assert out.derived() == {atom("Always", ind("a"))} | {
            atom("R", f.args[0]) for f in facts}

    def test_self_join(self):
        rs = rules.parse_rules(
            "rule trans: when edge(?x, ?y), edge(?y, ?z) then assert edge(?x, ?z)")
        nodes = [ind(f"n{k}") for k in range(5)]
        base = FactBase([atom("edge", nodes[k], nodes[k + 1]) for k in range(4)]
                        + [atom("edge", nodes[4], nodes[2])])
        out = _assert_matches_naive(rs, base)
        assert {f for f in out.facts if f.args[0] == nodes[0]} == {
            atom("edge", nodes[0], n) for n in nodes[1:]}

    def test_head_feeds_its_own_body(self):
        rs = rules.parse_rules(
            "rule grow: when P(?x), next(?x, ?y) then assert P(?y)\n"
            "rule seed: when Start(?x) then assert P(?x)\n")
        nodes = [ind(f"n{k}") for k in range(12)]
        base = FactBase([atom("Start", nodes[0])]
                        + [atom("next", a, b) for a, b in zip(nodes, nodes[1:])])
        out = _assert_matches_naive(rs, base)
        assert {atom("P", n) for n in nodes} <= out.facts

    def test_type_clash_from_a_derived_fact_names_the_rule(self):
        # `check` runs before `make` in every round, so it meets the string
        # value only through the new facts of its second run
        rs = rules.parse_rules(
            "rule check: when hasV(?x, ?v), lessThan(?v, 5) then assert Low(?x)\n"
            'rule make: when Odd(?x) then assert hasV(?x, "high")\n')
        base = FactBase([atom("hasV", ind("a"), Num(1)), atom("Odd", ind("b"))])
        with pytest.raises(TypeClash, match=r"rule check: .*\?x=b"):
            rules.evaluate(rs, base)

    def test_each_body_binding_is_joined_exactly_once(self, monkeypatch):
        programs = [
            (rules.parse_rules("rule trans: when edge(?x, ?y), edge(?y, ?z) "
                               "then assert edge(?x, ?z)"),
             FactBase([atom("edge", ind(f"n{k}"), ind(f"n{(k + 1) % 5}"))
                       for k in range(5)])),
        ]
        rng = random.Random(99)
        programs += [_random_program(rng) for _ in range(20)]
        new_bindings = rules._new_bindings
        for rs, base in programs:
            joined = Counter()

            def recording(atoms, *args):
                found = new_bindings(atoms, *args)
                joined.update((atoms, tuple(sorted(b.items()))) for b in found)
                return found

            monkeypatch.setattr(rules, "_new_bindings", recording)
            out = rules.evaluate(rs, base)
            every = Counter()
            for atoms in (rule.positive_atoms() for rule in rs):
                for combo in itertools.product(*[
                        [f for f in out.facts if f.predicate == a.predicate]
                        for a in atoms]):
                    binding = {}
                    if all(binding.setdefault(p.name, v) == v if isinstance(p, Variable)
                           else p == v
                           for a, f in zip(atoms, combo) for p, v in zip(a.args, f.args)):
                        every[atoms, tuple(sorted(binding.items()))] += 1
            assert joined == every

    def test_later_rule_sees_facts_derived_earlier_in_the_round(self):
        # round 2: ab derives B(a), then bd sees it and derives D(a) before gd
        rs = rules.parse_rules(
            "rule ab: when A(?x) then assert B(?x)\n"
            "rule ca: when C(?x) then assert A(?x)\n"
            "rule bd: when B(?x) then assert D(?x)\n"
            "rule gd: when G(?x) then assert D(?x)\n"
            "rule hg: when H(?x) then assert G(?x)\n")
        out = _assert_matches_naive(rs, FactBase([atom("C", ind("a")),
                                                  atom("H", ind("a"))]))
        assert out.derivations[atom("D", ind("a"))].rule == "bd"

    @staticmethod
    def _match_calls(monkeypatch, rs, base):
        """Calls of the only match test while saturating: the join work."""
        calls = []
        match = rules._match_atom

        def counting(pattern, fact, bindings):
            calls.append(1)
            return match(pattern, fact, bindings)

        monkeypatch.setattr(rules, "_match_atom", counting)
        rules.evaluate(rs, base)
        monkeypatch.undo()
        return len(calls)

    def test_join_work_grows_linearly_on_reversed_chains(self, monkeypatch):
        base = FactBase([atom("P0", ind(f"i{k}")) for k in range(3)])
        work = {links: self._match_calls(monkeypatch, _reversed_chain(links), base)
                for links in (100, 200)}
        # the naive loop re-joins every rule each round: about 4x here
        assert work[200] <= 2.2 * work[100]

    def test_join_work_of_a_self_feeding_rule_is_delta_only(self, monkeypatch):
        rs = rules.parse_rules("rule grow: when P(?x), next(?x, ?y) then assert P(?y)")
        work = {}
        for n in (50, 100):
            nodes = [ind(f"n{k}") for k in range(n + 1)]
            base = FactBase([atom("P", nodes[0])]
                            + [atom("next", a, b) for a, b in zip(nodes, nodes[1:])])
            work[n] = self._match_calls(monkeypatch, rs, base)
        # one new P fact per run, each joined with every next fact: about 4x;
        # re-joining all P facts each run would be about 8x
        assert work[100] <= 4.4 * work[50]


class TestExplain:
    def setup_method(self):
        self.rs = rules.parse_rules(RISK_RULE)
        self.base = FactBase([atom("PreventiveAction", ind("a1")),
                              atom("hasScenario", ind("a1"), ind("s1")),
                              atom("hasIgnitionRisk", ind("s1"), Num(0.4))])
        self.out = rules.evaluate(self.rs, self.base)

    def test_derived_fact_tree(self):
        tree = rules.explain(self.out, atom("reduceIgnitionRisk", ind("a1")))
        assert tree.rule == "r1"
        bindings = dict(tree.bindings)
        assert bindings == {"a": ind("a1"), "s": ind("s1"), "r": Num(0.4)}
        assert set(tree.leaves()) == self.base.facts

    def test_asserted_fact_is_leaf(self):
        tree = rules.explain(self.out, atom("PreventiveAction", ind("a1")))
        assert tree.rule is None and tree.children == ()

    def test_unknown_fact(self):
        with pytest.raises(UnknownFact):
            rules.explain(self.out, atom("Nope", ind("a1")))

    def test_deep_chain_explains_without_recursion(self):
        chain = [atom(f"P{i}", ind("a")) for i in range(3001)]
        derivations = {fact: rules.Derivation(f"r{i}", (), (chain[i],))
                       for i, fact in enumerate(chain[1:])}
        tree = rules.explain(FactBase(chain, derivations), chain[-1])
        assert tree.rule == "r2999"
        assert tree.leaves() == (atom("P0", ind("a")),)

    def test_deep_tree_repr_eq_and_hash_do_not_recurse(self):
        def chain_tree(last_rule):
            chain = [atom(f"P{i}", ind("a")) for i in range(3001)]
            derivations = {fact: rules.Derivation(f"r{i}", (), (chain[i],))
                           for i, fact in enumerate(chain[1:])}
            derivations[chain[1]] = rules.Derivation(last_rule, (), (chain[0],))
            return rules.explain(FactBase(chain, derivations), chain[-1])

        tree, same, other = chain_tree("r0"), chain_tree("r0"), chain_tree("x")
        assert "P3000" in repr(tree)
        assert tree == same and hash(tree) == hash(same)
        assert tree != other
        assert tree.children[0] != other.children[0]
        assert len({tree, same, other}) == 2

    def test_shared_premise_has_one_subtree(self):
        a, b, c = atom("A", ind("x")), atom("B", ind("x")), atom("C", ind("x"))
        base = FactBase([a, b, c], {b: rules.Derivation("rb", (), (a,)),
                                    c: rules.Derivation("rc", (), (a, b))})
        tree = rules.explain(base, c)
        assert tree.children[0] is tree.children[1].children[0]
        assert tree.leaves() == (a, a)

    def test_cyclic_derivation_record_rejected(self):
        a, b = atom("A", ind("x")), atom("B", ind("x"))
        base = FactBase([a, b], {a: rules.Derivation("ra", (), (b,)),
                                 b: rules.Derivation("rb", (), (a,))})
        with pytest.raises(rules.RuleError, match="cyclic"):
            rules.explain(base, a)


_EXPLAIN_SCRIPT = """
from firedss import rules
rs = rules.parse_rules(
    "rule r: when P(?x, ?y) then assert Q(?x)\\n"
    "rule s: when Q(?x), P(?x, ?y) then assert R(?x)")
facts = rules.parse_facts("\\n".join(f"P(a, b{i})" for i in range(6)))
out = rules.evaluate(rs, facts)
stack = [rules.explain(out, rules.Atom("R", (rules.Individual("a"),)))]
while stack:
    node = stack.pop()
    print(rules.format_atom(node.fact), node.rule,
          rules.format_bindings(dict(node.bindings)))
    stack.extend(reversed(node.children))
"""


class TestProcessIndependence:
    def test_derivations_and_explain_trees_do_not_depend_on_the_hash_seed(self):
        env = dict(os.environ, PYTHONPATH=str(Path(rules.__file__).parents[1]))
        trees = set()
        for seed in range(1, 7):
            done = subprocess.run([sys.executable, "-c", _EXPLAIN_SCRIPT],
                                  env={**env, "PYTHONHASHSEED": str(seed)},
                                  capture_output=True, text=True, timeout=60, check=True)
            trees.add(done.stdout)
        assert trees == {"R(a) s {?x=a, ?y=b0}\n"
                         "Q(a) r {?x=a, ?y=b0}\n"
                         "P(a, b0) None {}\n"
                         "P(a, b0) None {}\n"}

    def test_fact_base_keeps_the_callers_order_once(self):
        a, b, c = atom("A", ind("x")), atom("B", ind("x")), atom("C", ind("x"))
        base = FactBase([c, a, c, b, a])
        assert list(base.facts) == [c, a, b]
        assert len(base) == 3 and base.facts == {a, b, c}


def _guard_violating_facts(rule):
    """Minimal fact base satisfying the positive body, then bend one builtin
    or one string constant so the rule must not fire."""
    facts, bindings = _minimal_facts(rule)
    if rule.builtins():
        b = rule.builtins()[0]
        # rebuild the numeric fact feeding the builtin with a failing value
        target = next(a for a in b.args if isinstance(a, Variable))
        bad = _failing_value(b)
        out = []
        for f in facts:
            args = tuple(bad if isinstance(v, Num) and bindings.get(target.name) == v
                         else v for v in f.args)
            out.append(Atom(f.predicate, args))
        return out
    # no builtin: violate a string/boolean constant guard
    out = []
    changed = False
    for f in facts:
        args = []
        for v in f.args:
            if not changed and isinstance(v, Str):
                args.append(Str(v.value + "_other"))
                changed = True
            elif not changed and isinstance(v, Bool):
                args.append(Bool(not v.value))
                changed = True
            else:
                args.append(v)
        out.append(Atom(f.predicate, tuple(args)))
    if not changed:
        # purely structural rule: drop one premise instead
        return out[1:]
    return out


def _failing_value(builtin):
    const = next(a for a in builtin.args if isinstance(a, Num)).value
    if builtin.op in ("lessThan", "lessThanOrEqual"):
        return Num(const + 1)
    if builtin.op in ("greaterThan", "greaterThanOrEqual"):
        return Num(const - 1)
    if builtin.op == "equal":
        return Num(const + 1)
    return Num(const)


def _minimal_facts(rule):
    """Ground the positive body with fresh individuals and builtin-satisfying
    numbers."""
    bindings = {}
    for b in rule.builtins():
        var = next(a for a in b.args if isinstance(a, Variable))
        const = next(a for a in b.args if isinstance(a, Num)).value
        if b.op in ("lessThan",):
            value = const - 1
        elif b.op in ("lessThanOrEqual", "greaterThanOrEqual", "equal"):
            value = const
        elif b.op == "greaterThan":
            value = const + 1
        else:
            value = const + 1
        bindings[var.name] = Num(float(value))
    facts = []
    for a in rule.positive_atoms():
        args = []
        for t in a.args:
            if isinstance(t, Variable):
                if t.name not in bindings:
                    bindings[t.name] = ind(f"{t.name}_0")
                args.append(bindings[t.name])
            else:
                args.append(t)
        facts.append(Atom(a.predicate, tuple(args)))
    return facts, bindings


class TestShippedRuleBoundaries:
    def test_every_rule_fires_on_minimal_facts(self, rules_tables_text):
        rs = rules.parse_rules(rules_tables_text)
        for rule in rs:
            facts, bindings = _minimal_facts(rule)
            out = rules.evaluate(rules.RuleSet([rule]), FactBase(facts))
            derived = out.derived()
            assert derived, f"{rule.name} did not fire"
            assert all(out.derivations[f].rule == rule.name for f in derived)

    def test_every_rule_respects_guard_violation(self, rules_tables_text):
        rs = rules.parse_rules(rules_tables_text)
        for rule in rs:
            facts = _guard_violating_facts(rule)
            out = rules.evaluate(rules.RuleSet([rule]), FactBase(facts))
            assert not out.derived(), f"{rule.name} fired through a violated guard"
