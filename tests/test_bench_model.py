"""The tower against the benchmark's independent model, `bench/model.py`.

The model imports nothing from the package and builds towers of first
conditionings only, from the construction the README states. A
Hypothesis test grows a tower in both, then compares stage atoms, the
embeddings, `describe()`, fresh conditionals, and, for a step repeated
at the top, the shortcut value and the atom count of the repeat.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings, strategies as st

from bayesalg.bayes import Tower
from bayesalg.boolalg import FiniteBooleanAlgebra

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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tower_matches_the_bench_model(data):
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
