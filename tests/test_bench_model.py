"""The tower against the benchmark's independent model, `bench/model.py`.

The model imports nothing from the package and builds towers of first
conditionings only, from the construction the README states. A
Hypothesis test grows a tower in both, then compares stage atoms, the
embeddings, `describe()`, fresh conditionals, and, for a step repeated
at the top, the shortcut value and the atom count of the repeat. A
second one extends distributions up such towers, with repeats added, and
compares the block rule with one read off the stages' pair labels.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from bayesalg.bayes import Tower, TowerGrowthError
from bayesalg.boolalg import FiniteBooleanAlgebra
from bayesalg.prob import base_distribution, extend_distribution, make_tangible, prob_of

_SPEC = importlib.util.spec_from_file_location(
    "bench_model", Path(__file__).resolve().parents[1] / "bench" / "model.py")
model_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(model_module)
TowerModel = model_module.TowerModel

_STAGE_LIMIT = 64  # atoms a conditioning may grow a stage to


def _subset(data, atoms, proper=False):
    """A drawn subset of atoms; nonempty and not all of them if proper."""
    low, high = (1, 2 ** len(atoms) - 2) if proper else (0, 2 ** len(atoms) - 1)
    mask = data.draw(st.integers(low, high))
    return frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)


def _grown(data):
    """A model and a tower of 2-4 base atoms and up to three first
    conditionings, grown alike."""
    base = [f"w{i}" for i in range(data.draw(st.integers(2, 4)))]
    model = TowerModel(base)
    tower = Tower(FiniteBooleanAlgebra(base))
    for _ in range(data.draw(st.integers(0, 3))):
        event = _subset(data, model.top, proper=True)
        inside = len(event)
        if not model.is_first(event) or \
                2 * inside * (len(model.top) - inside) > _STAGE_LIMIT:
            continue
        model.extend(event)
        tower.extend(tower.top.element(event))
    return model, tower


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tower_matches_the_bench_model(data):
    model, tower = _grown(data)
    for k, atoms in enumerate(model.stages):
        assert tower.algebra(k).atoms == tuple(atoms)
    assert tower.describe() == "\n".join(model.describe())
    for high in range(1, tower.top_index + 1):
        for low in range(high):
            x = _subset(data, model.stages[low])
            pushed = tower.push(tower.algebra(low).element(x), low, high)
            assert pushed.atoms == model.push(x, low, high)

    # a fresh conditional: x conditions on nothing the tower has seen
    x, y = _subset(data, model.top, proper=True), _subset(data, model.top)
    if model.is_first(x):
        fork = tower.fork()
        value, stage = fork.conditional(
            fork.top.element(x), fork.top.element(y), mode="fresh")
        expected = model.fresh_conditional(x, y)
        assert stage == tower.top_index + 1
        fresh_atoms, _ = model.fresh_stage(x)
        assert str(value) == "{" + ",".join(
            a for a in fresh_atoms if a in expected) + "}"

    # a repeat of step k at the top, with y from stage k, is read off below
    if tower.top_index:
        k = data.draw(st.integers(1, tower.top_index))
        negated = data.draw(st.booleans())
        x = model.push(model.events[k - 1], k - 1)
        if negated:
            x = model.complement(x)
        y_low = _subset(data, model.stages[k])
        y = model.push(y_low, k)
        top = tower.top
        fork = tower.fork()
        value, stage = fork.conditional(top.element(x), top.element(y))
        assert stage == tower.top_index
        assert value.atoms == model.repeat_conditional(k, negated, y_low)
        fork.extend(top.element(x))
        assert len(fork.top.atoms) == model.repeat_count(k)


def _components(label):
    """The labels (w, u) of the atoms a pair label ``(w,u)`` names."""
    depth = 0
    for i, c in enumerate(label):
        depth += (c == "(") - (c == ")")
        if c == "," and depth == 1:
            return label[1:i], label[i + 1:-1]
    raise AssertionError(f"{label!r} is not a pair label")


def _label_block_rule(atoms, lower):
    """Stage masses from the stage's own pair labels and the lower masses
    by label: (w, u) gets P(w) P(u) / P(block of w), the block of w being
    every u that some atom (w, u) of the stage pairs with it."""
    pairs = [_components(a) for a in atoms]
    block = {}
    for w, u in pairs:
        block[w] = block.get(w, 0) + lower[u]
    return {a: lower[w] * lower[u] / block[w] for a, (w, u) in zip(atoms, pairs)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_rule_matches_a_rule_read_from_pair_labels(data):
    _, tower = _grown(data)
    # repeats of an earlier step's event or its complement; extend refuses
    # one that would grow the top past the limit
    tower.max_atoms = _STAGE_LIMIT
    for _ in range(data.draw(st.integers(0, 2)) if tower.top_index else 0):
        k = data.draw(st.integers(1, tower.top_index))
        event = tower.push(tower.step(k).base, k - 1, tower.top_index)
        try:
            tower.extend(~event if data.draw(st.booleans()) else event)
        except TowerGrowthError:
            pass
    base = tower.algebra(0)
    # rational masses are strictly positive; Q(e) ones are made so
    mode = data.draw(st.sampled_from(["q", "uniform", "hahn_witness"]))
    weights = data.draw(st.lists(st.integers(0 if mode != "q" else 1, 9),
                                 min_size=len(base.atoms), max_size=len(base.atoms))
                        .filter(any))
    dist = base_distribution(base, [Fraction(w, sum(weights)) for w in weights])
    if mode != "q":
        dist = make_tangible(dist, mode)
    expected = {a: prob_of(dist, base.atom_element(a)) for a in base.atoms}
    for stage in range(1, tower.top_index + 1):
        expected = _label_block_rule(tower.algebra(stage).atoms, expected)
    lifted = extend_distribution(tower, dist)
    top = lifted.algebra
    assert [prob_of(lifted, top.atom_element(a)) for a in top.atoms] == [
        expected[a] for a in top.atoms]
