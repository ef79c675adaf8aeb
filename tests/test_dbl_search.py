"""Refutation search over sampled valuations."""

import random

import pytest

from bayesalg.bayes import Tower
from bayesalg.dbl import search
from bayesalg.dbl.search import default_bases, search_counterexample
from bayesalg.dbl.semantics import holds, random_valuation
from bayesalg.dbl.syntax import atom_names, parse_sequent


def test_default_bases_have_two_or_three_atoms():
    sizes = [len(a.atoms) for a in default_bases()]
    assert len(sizes) >= 3
    assert all(n in (2, 3) for n in sizes)


def test_falsifies_unconditional_collapse():
    found = search_counterexample(parse_sequent("[x]y <-> y"))
    assert found is not None
    tower, valuation = found
    # certified: the reported valuation really refutes the sequent
    assert not holds(tower, valuation.assignment, parse_sequent("[x]y <-> y"))
    described = found.describe()
    assert set(described["assignment"]) == {"x", "y"}


def test_atomic_claim_is_refuted():
    assert search_counterexample(parse_sequent("x")) is not None


def test_axioms_survive_search():
    for text in (
        "[x]y -> (x -> y)",
        "[x](y -> z) -> ([x]y -> [x]z)",
        "[x]~y <-> ~[x]y",
        "~x || [x]x",
    ):
        assert search_counterexample(parse_sequent(text), samples=15) is None


def test_search_is_deterministic_per_seed():
    s = parse_sequent("[x]y <-> y")
    a = search_counterexample(s, seed=7)
    b = search_counterexample(s, seed=7)
    assert a is not None and b is not None
    assert a.describe() == b.describe()


def _search_every_draw(sequent, samples, seed):
    """The search with every drawn valuation evaluated, repeats included."""
    names = set().union(*(atom_names(f) for f in sequent))
    rng = random.Random(seed)
    for algebra in default_bases():
        for _ in range(samples):
            assignment = random_valuation(algebra, names, rng)
            if not holds(Tower(algebra), assignment, sequent):
                return algebra, assignment
    return None


@pytest.mark.parametrize("text, samples, seed", [
    ("[x]y -> (x -> y)", 15, 0),
    ("[x]~y <-> ~[x]y", 40, 3),
    ("~x || [x]x", 60, 1),
    ("x -> y || y -> x", 30, 5),
    ("[x]y <-> y", 40, 7),
    ("[x]y <-> y", 5, 11),
    ("x", 10, 2),
])
def test_search_skips_repeated_draws_without_changing_the_result(
        monkeypatch, text, samples, seed):
    sequent = parse_sequent(text)
    expected = _search_every_draw(sequent, samples, seed)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return holds(*args, **kwargs)

    monkeypatch.setattr(search, "holds", counted)
    found = search_counterexample(sequent, samples=samples, seed=seed)
    if expected is None:
        assert found is None
        # every draw of every base passed; each distinct one ran once
        assert len(calls) == len({frozenset(a.items()) for a in calls})
        assert len(calls) < 3 * samples
    else:
        algebra, assignment = expected
        assert found is not None
        assert found.tower.base == algebra
        assert found.valuation.assignment == assignment
        # the refuting draw ran twice: once sampled, once certified
        assert calls[-2:] == [assignment, assignment]
