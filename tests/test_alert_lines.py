"""The RULE alert order and the sink lines of the batch path, pinned to
their definitions on seeded random inputs: the order is that of
sorted(derived, key=rules.format_atom), and every line is
json.dumps(event._asdict(), sort_keys=True)."""

import json
import random

import pytest

from firedss import rules, stream
from firedss.rules import Atom, Bool, Derivation, FactBase, Individual, Num, Str
from firedss.stream import AlertEvent

STR_CHARS = ' "\\(,+*aZ_é'
PREDICATES = ("p", "p_", "pA", "P", "q", "pp")
NUMS = (-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 10.0, 1e-05, 123.25, -0.125)


def _term(rng, batch_offsets):
    kind = rng.randrange(6)
    if kind == 0:
        return Str("".join(rng.choice(STR_CHARS) for _ in range(rng.randrange(4))))
    if kind == 1:
        return Num(rng.choice(NUMS))
    if kind == 2:
        return Bool(rng.random() < 0.5)
    if kind == 3:
        return Individual(f"rec_{rng.choice(batch_offsets)}")
    # individuals outside the batch: other rec_ names, canonical or not
    return Individual(rng.choice(("rec_7", "rec_007", "rec_x", "a", "a b", "1", "rec_")))


def _derived(rng, batch_offsets):
    """A FactBase whose derived facts are random unary and binary atoms,
    each credited to a rule named after its place in derivation order."""
    made = {}
    for _ in range(rng.randrange(1, 60)):
        args = tuple(_term(rng, batch_offsets) for _ in range(rng.choice((1, 1, 2))))
        made.setdefault(Atom(rng.choice(PREDICATES), args), None)
    return FactBase(made, {fact: Derivation(f"r{i}", (), ()) for i, fact in enumerate(made)})


def _offsets_of(args):
    """The n of each argument rec_<n>, n in canonical decimal."""
    out = []
    for arg in args:
        if isinstance(arg, Individual) and arg.name.startswith("rec_"):
            digits = arg.name[4:]
            if digits.isdigit() and str(int(digits)) == digits:
                out.append(int(digits))
    return tuple(out)


class TestRuleAlertOrder:
    @pytest.mark.parametrize("seed", range(40))
    def test_order_and_offsets_are_those_of_format_atom(self, seed):
        rng = random.Random(seed)
        batch = list(range(rng.randrange(0, 50), 100, rng.randrange(5, 30)))
        saturated = _derived(rng, batch)
        table = {Individual(f"rec_{o}"): (f"rec_{o}", (o,)) for o in batch}
        events = stream._rule_alerts(saturated, table, 3, 17)
        expected = sorted(saturated.derived(), key=rules.format_atom)
        assert [e.rule for e in events] == [saturated.rule_of(f) for f in expected]
        assert events == [AlertEvent(3, "RULE", f.predicate, None, _offsets_of(f.args),
                                     saturated.rule_of(f), 17) for f in expected]

    def test_equal_texts_keep_derivation_order(self):
        facts = [Atom("p", (Individual("1"),)), Atom("p", (Num(1.0),)),
                 Atom("p", (Individual("true"),)), Atom("p", (Bool(True),))]
        saturated = FactBase(facts, {f: Derivation(f"r{i}", (), ()) for i, f in enumerate(facts)})
        assert [e.rule for e in stream._rule_alerts(saturated, {}, 0, 0)] == [
            "r0", "r1", "r2", "r3"]


def _random_event(rng, batch, ts_ms):
    names = ("a", "ä \"q\" \\", "φωτιά", "x\ny", "\x00", "rule  ", "snake_case")
    if rng.random() < 0.5:
        kind, rule, value = "RULE", rng.choice(names), None
    else:
        kind = rng.choice(("FFMC_IGNITION", "DMC", "DC_MOPUP", "FWI"))
        rule = None
        value = rng.choice((0.0, 3.0, 12.5, 1e-05, 2.5e300, -4.0, 600.0, 7.125))
    offsets = tuple(sorted(rng.sample(range(1000), rng.choice((0, 1, 1, 2, 5)))))
    return AlertEvent(batch, kind, rng.choice(names + ("extreme", "low")), value, offsets,
                      rule, ts_ms)


class TestSinkLines:
    @pytest.mark.parametrize("seed", range(20))
    def test_sink_text_and_to_json_are_json_dumps(self, seed):
        rng = random.Random(seed)
        events = []
        for batch in range(rng.randrange(1, 4)):
            ts_ms = rng.randrange(2 ** 41)
            events += [_random_event(rng, batch, ts_ms) for _ in range(rng.randrange(1, 40))]
        lines = [json.dumps(event._asdict(), sort_keys=True) for event in events]
        assert [event.to_json() for event in events] == lines
        assert stream.sink_text(events) == "".join(line + "\n" for line in lines)

    def test_empty_batch_writes_nothing(self):
        assert stream.sink_text([]) == ""
