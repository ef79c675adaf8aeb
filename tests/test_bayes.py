"""Conditional extension towers: frozen small cases plus the law checker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bayesalg.bayes import (
    Tower,
    TowerGrowthError,
    cantor_pair,
    cantor_unpair,
    check_bayes_axioms,
)
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element


def three_atom_tower():
    return Tower(FiniteBooleanAlgebra.from_names("a,c,d"))


def test_first_extension_atoms_are_cross_pairs():
    tower = three_atom_tower()
    x = parse_element(tower.top, "{a,c}")
    stage = tower.extend(x)
    assert stage == 1
    assert tower.top.atoms == ("(a,d)", "(c,d)", "(d,a)", "(d,c)")
    assert tower.step(1).pairs == (("a", "d"), ("c", "d"), ("d", "a"), ("d", "c"))


def test_embedding_and_conditional_value():
    tower = three_atom_tower()
    base = tower.top
    x = parse_element(base, "{a,c}")
    y = parse_element(base, "{a,d}")
    value, stage = tower.conditional(x, y)
    assert stage == 1
    assert value == parse_element(tower.top, "{(a,d),(d,a)}")
    # the conditional sits outside the embedded copy of the base algebra
    assert tower.pull(value, 1, 0) is None
    assert tower.push(x, 0, 1) == parse_element(tower.top, "{(a,d),(c,d)}")
    assert tower.push(x & y, 0, 1) == tower.push(x, 0, 1) & value


def test_conditioning_on_degenerate_events_returns_y():
    tower = three_atom_tower()
    y = parse_element(tower.top, "{a,d}")
    assert tower.conditional(tower.top.bottom, y) == (y, 0)
    assert tower.conditional(tower.top.top, y) == (y, 0)
    with pytest.raises(ValueError):
        tower.extend(tower.top.bottom)


def test_immediate_reconditioning_is_an_atom_bijection():
    tower = three_atom_tower()
    tower.extend(parse_element(tower.algebra(0), "{a,c}"))
    lifted = tower.push(parse_element(tower.algebra(0), "{a,c}"), 0, 1)
    before = tower.top.atoms
    tower.extend(lifted)
    after = tower.top.atoms
    assert len(after) == len(before)
    pairs = tower.step(2).pairs
    assert {w for w, _ in pairs} == set(before)
    for (w, u) in pairs:
        assert tower.step(1).t[w] == u
    # and so does conditioning on the complement
    twin = tower.fork()
    twin.steps = twin.steps[:1]
    twin.extend(~lifted)
    assert len(twin.top.atoms) == len(before)


def test_fresh_growth_is_twice_the_side_product():
    for names, x_text in [("a,c", "{a}"), ("a,c,d", "{a}"), ("a,c,d,f", "{a,c}")]:
        tower = Tower(FiniteBooleanAlgebra.from_names(names))
        x = parse_element(tower.top, x_text)
        m = len(x.atoms)
        m2 = len(tower.top.atoms) - m
        tower.extend(x)
        assert len(tower.top.atoms) == 2 * m * m2


def test_shortcut_agrees_with_fresh_extension():
    tower = three_atom_tower()
    tower.extend(parse_element(tower.algebra(0), "{a,c}"))
    x = tower.push(parse_element(tower.algebra(0), "{a,c}"), 0, 1)
    y = tower.push(parse_element(tower.algebra(0), "{a,d}"), 0, 1)
    quick, stage = tower.conditional(x, y)
    assert stage == 1  # answered without growing
    fork = tower.fork()
    slow, deep = fork.conditional(x, y, mode="fresh")
    assert deep == 2
    assert fork.push(quick, 1, 2) == slow


def test_conditional_laws_hold_on_small_towers():
    tower = three_atom_tower()
    assert check_bayes_axioms(tower) == []
    tower.extend(parse_element(tower.top, "{a}"))
    assert check_bayes_axioms(tower) == []


SAMPLE_SCRIPT = """
import json
import random
from bayesalg.bayes import Tower, check_bayes_axioms
from bayesalg.boolalg import FiniteBooleanAlgebra

drawn = []
class Recording(random.Random):
    def randrange(self, *args):
        value = super().randrange(*args)
        drawn.append(value)
        return value

random.Random = Recording
tower = Tower(FiniteBooleanAlgebra.from_names("a,b,c,d,f,g,h,i,j"))
assert check_bayes_axioms(tower, sample_elements=3) == []
print(json.dumps(drawn))
"""


def test_law_check_sample_does_not_depend_on_string_hashing():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", SAMPLE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    # 3 x draws; y runs over the atoms, so nothing else is drawn
    assert len(runs[0]) == 3
    assert runs[0] == runs[1]


def test_growth_budget_is_enforced():
    tower = Tower(FiniteBooleanAlgebra.from_names("a,c,d,f"), max_atoms=6)
    with pytest.raises(TowerGrowthError):
        tower.extend(parse_element(tower.top, "{a,c}"))


def test_cantor_pairing_round_trip():
    assert cantor_unpair(4) == (1, 1)
    assert cantor_pair(0, 0) == 0
    for n in range(2000):
        i, j = cantor_unpair(n)
        assert cantor_pair(i, j) == n
        assert i <= n and j <= n


def test_json_round_trip_rebuilds_and_checks():
    tower = three_atom_tower()
    tower.extend(parse_element(tower.top, "{a,c}"))
    tower.extend(tower.push(parse_element(tower.algebra(0), "{a,c}"), 0, 1))
    data = tower.to_json()
    rebuilt = Tower.from_json(data)
    assert rebuilt.top.atoms == tower.top.atoms
    assert [s.prior_step for s in rebuilt.steps] == [None, 1]
    data["steps"][0]["atom_count"] = 99
    with pytest.raises(ValueError):
        Tower.from_json(data)


def test_describe_names_repeats():
    tower = three_atom_tower()
    tower.extend(parse_element(tower.top, "{a,c}"))
    tower.extend(~tower.push(parse_element(tower.algebra(0), "{a,c}"), 0, 1))
    text = tower.describe()
    assert "stage 0: 3 atoms" in text
    assert "repeats complement of stage 1" in text


def test_push_within_one_stage_is_the_identity_after_the_span_checks():
    tower = three_atom_tower()
    tower.extend(parse_element(tower.top, "{a,c}"))
    for stage in (0, 1):
        x = tower.algebra(stage).element_at(5)
        assert tower.push(x, stage, stage) == x
    with pytest.raises(ValueError, match="bad stage span 2..2"):
        tower.push(tower.top.top, 2, 2)
    with pytest.raises(ValueError, match="bad stage span -1..-1"):
        tower.push(tower.base.top, -1, -1)
    with pytest.raises(ValueError, match="different algebra"):
        tower.push(tower.base.top, 1, 1)
    other = FiniteBooleanAlgebra.from_names("a,b")
    with pytest.raises(ValueError, match="different algebra"):
        tower.push(other.top, 0, 0)
