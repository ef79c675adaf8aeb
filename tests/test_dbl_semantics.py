"""Formula evaluation over towers and sequent satisfaction."""

import itertools
import random

import pytest

from bayesalg.bayes import Tower
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element
from bayesalg.dbl import build_corpus
from bayesalg.dbl.semantics import Valuation, evaluate, holds, random_valuation
from bayesalg.dbl.syntax import (
    Bot, Cond, Impl, Var, atom_names, parse_formula, parse_sequent, subformulas)


def _tower(names="a,c,d"):
    return Tower(FiniteBooleanAlgebra.from_names(names))


def _assign(tower, **kwargs):
    algebra = tower.algebra(tower.top_index)
    return {name: parse_element(algebra, text) for name, text in kwargs.items()}


def test_conditional_value_matches_pair_construction():
    tower = _tower()
    v = _assign(tower, x="{a,c}", y="{a,d}")
    value = evaluate(tower, v, parse_formula("[x]y"))
    assert str(value) == "{(a,d),(d,a)}"


def test_implication_is_pointwise():
    tower = _tower()
    v = _assign(tower, x="{a,c}", y="{a,d}")
    value = evaluate(tower, v, parse_formula("x -> y"))
    assert value.atoms == parse_element(tower.top, "{a,d}").atoms


def test_operands_lift_through_growth():
    # x & [x]y forces x (stage 0) to meet a stage-1 value
    tower = _tower()
    v = Valuation(tower, _assign(tower, x="{a,c}", y="{a,d}"))
    left = v.value(parse_formula("x & [x]y"))
    right = v.value(parse_formula("x & y"))
    assert str(left) == "{(a,d)}"
    assert left == right


def test_self_conditioning_is_top():
    tower = _tower()
    v = _assign(tower, b="{a,c}")
    value = evaluate(tower, v, parse_formula("[b]b"))
    assert value == tower.top.top


def test_top_conditioning_is_identity():
    tower = _tower()
    v = _assign(tower, y="{a,d}")
    value = evaluate(tower, v, parse_formula("[T]y"))
    twin = _tower()
    expected = evaluate(twin, _assign(twin, y="{a,d}"), parse_formula("y"))
    assert str(value) == str(expected) == "{a,d}"


def test_bottom_conditioning_is_identity():
    tower = _tower()
    v = _assign(tower, y="{a,d}")
    assert str(evaluate(tower, v, parse_formula("[F]y"))) == "{a,d}"


def test_repeat_conditioning_idempotent_in_both_modes():
    for mode in ("auto", "fresh"):
        tower = _tower()
        v = Valuation(tower, _assign(tower, x="{a,c}", y="{a,d}"), mode=mode)
        assert v.value(parse_formula("[x][x]y <-> [x]y")) == tower.top.top, mode


def test_holds_is_per_member_not_join():
    tower = _tower("a,b")
    v = _assign(tower, x="{a}")
    # neither member evaluates to top although their join does
    assert not holds(tower, v, parse_sequent("x || ~x"))
    assert holds(tower, v, parse_sequent("x | ~x"))


def test_self_support_always_holds():
    rng = random.Random(3)
    algebra = FiniteBooleanAlgebra.from_names("a,b,c")
    s = parse_sequent("~x || [x]x")
    for _ in range(60):
        tower = Tower(algebra)
        v = random_valuation(algebra, {"x"}, rng)
        assert holds(tower, v, s)


def test_proper_element_does_not_hold():
    tower = _tower("a,b")
    assert not holds(tower, _assign(tower, x="{a}"), parse_sequent("x"))
    assert holds(tower, _assign(tower, x="{a,b}"), parse_sequent("x"))


def test_holds_leaves_the_tower_alone():
    tower = _tower()
    v = _assign(tower, x="{a,c}", y="{a,d}")
    holds(tower, v, parse_sequent("[x]y <-> y"))
    assert tower.top_index == 0


def test_missing_binding_and_foreign_element():
    tower = _tower()
    with pytest.raises(KeyError):
        evaluate(tower, {}, parse_formula("x"))
    other = FiniteBooleanAlgebra.from_names("p,q")
    with pytest.raises(ValueError):
        Valuation(tower, {"x": other.top})


def _unmemoised(tower, assignment, f, mode):
    """f evaluated by plain recursion, each occurrence anew, through
    Tower.push and Tower.conditional only."""
    if isinstance(f, Bot):
        return tower.push(tower.base.bottom, 0, tower.top_index)
    if isinstance(f, Var):
        return tower.push(assignment[f.name], 0, tower.top_index)
    first, second = (f.left, f.right) if isinstance(f, Impl) else (f.base, f.body)
    a = _unmemoised(tower, assignment, first, mode)
    stage = tower.top_index
    b = _unmemoised(tower, assignment, second, mode)
    a = tower.push(a, stage, tower.top_index)
    if isinstance(f, Impl):
        return ~a | b
    return tower.conditional(a, b, mode=mode)[0]


def _conditionals(sequent):
    return sum(isinstance(g, Cond) for f in sequent for g in subformulas(f))


def test_memo_agrees_with_unmemoised_evaluation_on_every_valuation():
    corpus = build_corpus()
    sequents = [parse_sequent("[x](y -> z) -> ([x]y -> [x]z)"),
                parse_sequent("[x]y -> (x -> y)"),
                parse_sequent("[x]~y <-> ~[x]y")]
    sequents += [d.conclusion for _, d in sorted(corpus.items())]
    conclusions = sorted({step.conclusion for d in corpus.values()
                          for step in d.steps} - set(sequents), key=repr)
    sequents += random.Random(24).sample(conclusions, 200)
    algebra = FiniteBooleanAlgebra.from_names("a,b")
    elements = [algebra.element_at(k) for k in range(algebra.size())]
    valuations = 0
    for sequent in sequents:
        names = sorted(set().union(*map(atom_names, sequent)))
        # mode "fresh" builds a stage per conditional occurrence, and atom
        # labels double in length per stage, so it runs on small sequents
        modes = ("auto", "fresh") if _conditionals(sequent) <= 12 else ("auto",)
        for values in itertools.product(elements, repeat=len(names)):
            assignment = dict(zip(names, values))
            valuations += 1
            for mode in modes:
                # per member in turn: its value's mask and the top after it
                memo = Tower(algebra)
                valuation = Valuation(memo, assignment, mode=mode)
                plain = Tower(algebra)
                assert [(valuation.value(f).mask, memo.top_index)
                        for f in sequent] == [
                    (_unmemoised(plain, assignment, f, mode).mask,
                     plain.top_index) for f in sequent], (
                    sequent, assignment, mode)
    assert valuations > 5000
