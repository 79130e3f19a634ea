"""Checks that every RuleSet and every builtin comparison make, however
the rules and terms were built."""

import pytest

from firedss import rules
from firedss.rules import (
    Atom, Builtin, DuplicateRuleName, Individual, Num, RuleDef, RuleSet, Str,
    TypeClash, UnsafeVariable, Variable,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestRuleSetChecks:
    def test_code_built_unsafe_head_is_refused(self):
        bad = RuleDef("bad", (Atom("A", (X,)),), (Atom("B", (Y,)),))
        with pytest.raises(UnsafeVariable) as err:
            RuleSet([bad])
        assert str(err.value) == "rule bad: variable ?y not bound by a non-builtin body atom"

    def test_code_built_unsafe_builtin_is_refused(self):
        bad = RuleDef("bad", (Builtin("lessThan", (X, Num(5))),),
                      (Atom("Foo", (X,)),))
        with pytest.raises(UnsafeVariable) as err:
            RuleSet([bad])
        assert (err.value.rule, err.value.variable) == ("bad", "x")

    def test_safety_is_checked_before_names(self):
        ok = RuleDef("a", (Atom("P", (X,)),), (Atom("Q", (X,)),))
        unsafe = RuleDef("b", (Atom("P", (X,)),), (Atom("Q", (Z,)),))
        with pytest.raises(DuplicateRuleName):
            RuleSet([ok, ok])
        with pytest.raises(UnsafeVariable):
            RuleSet([ok, ok, unsafe])


class TestBuiltinCompareIndividuals:
    @pytest.mark.parametrize("op, a, b, name", [
        ("equal", Individual("a"), Individual("b"), "a"),
        ("notEqual", Str("x"), Individual("b"), "b"),
        ("lessThan", Num(1), Individual("c"), "c"),
        ("greaterThan", Individual("d"), Num(1), "d"),
    ])
    def test_individual_operand_clashes(self, op, a, b, name):
        with pytest.raises(TypeClash) as err:
            rules.builtin_compare(op, a, b)
        assert str(err.value) == f"{op} applied to individual {name}"
        assert err.value.rule is None
