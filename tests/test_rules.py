import itertools
import random

import pytest

from firedss import rules
from firedss.rules import (
    Atom, Bool, DuplicateRuleName, FactBase, Individual, Num, RuleSyntaxError,
    Str, TypeClash, UnknownBuiltin, UnknownFact, UnsafeVariable, Variable,
)

from oracles import brute_force_saturate

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

    def test_ternary_atom_rejected(self):
        with pytest.raises(RuleSyntaxError):
            rules.parse_rules("rule t: when P(?x, ?y, ?z) then assert Q(?x)")

    def test_bundled_tables_file(self, rules_tables_text):
        rs = rules.parse_rules(rules_tables_text)
        assert len(rs) == 18

    def test_bundled_alerts_file(self, rules_alerts_text):
        rs = rules.parse_rules(rules_alerts_text)
        assert "fire_trigger" in rs.by_name


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
