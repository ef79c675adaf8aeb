"""Probability extension: frozen worked examples, null handling, the search."""

from fractions import Fraction

import pytest

from bayesalg.bayes import Tower
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element
from bayesalg.field import EPSILON, parse_scalar, valuation
from bayesalg.prob import (
    Distribution,
    NullEventError,
    base_distribution,
    distribution_from_json,
    distribution_to_json,
    extend_distribution,
    lewis_candidates,
    make_tangible,
    prob_of,
    standard_project,
    uniform_distribution,
    verify_conditional_law,
)


def worked_example(masses):
    tower = Tower(FiniteBooleanAlgebra.from_names("a,c,d"))
    dist = base_distribution(tower.top, masses)
    x = parse_element(tower.top, "{a,c}")
    y = parse_element(tower.top, "{a,d}")
    return tower, dist, x, y


def test_block_rule_masses_first_distribution():
    # The stages below fix only each block's total; the block rule is the
    # product-form completion of that split, and these masses freeze it.
    tower, dist, x, y = worked_example(["1/4", "1/4", "1/2"])
    tower.extend(x)
    lifted = extend_distribution(tower, dist)
    assert [str(lifted.masses[a]) for a in lifted.algebra.atoms] == [
        "1/4",
        "1/4",
        "1/4",
        "1/4",
    ]


def test_conditional_probability_is_quotient():
    for masses, expected in [
        (["1/4", "1/4", "1/2"], Fraction(1, 2)),
        (["1/6", "1/3", "1/2"], Fraction(1, 3)),
    ]:
        tower, dist, x, y = worked_example(masses)
        report = verify_conditional_law(tower, dist, x, y)
        assert report["product_matches"]
        assert report["marginals_preserved"]
        assert report["p_conditional"] == expected
        assert report["p_conditional"] == prob_of(dist, x & y) / prob_of(dist, x)


def test_no_base_element_works_for_both_distributions():
    tower, dist1, x, y = worked_example(["1/4", "1/4", "1/2"])
    dist2 = base_distribution(tower.top, ["1/6", "1/3", "1/2"])
    # each distribution alone leaves candidates; together they rule out all
    assert lewis_candidates(tower.top, x, y, [dist1]) == [
        parse_element(tower.top, "{a,c}"),
        parse_element(tower.top, "{d}"),
    ]
    assert lewis_candidates(tower.top, x, y, [dist1, dist2]) == []
    # while the extension element answers both at once
    for dist in (dist1, dist2):
        report = verify_conditional_law(tower.fork(), dist, x, y)
        assert report["product_matches"]
        assert report["independent_of_complement"]


def test_null_blocks_raise_unless_perturbed():
    tower, dist, x, y = worked_example(["1/2", "1/2", "0"])
    tower.extend(x)
    with pytest.raises(NullEventError):
        extend_distribution(tower, dist)
    lifted = extend_distribution(tower, dist, positivity="uniform")
    assert str(lifted.masses[("a", "d")]) == "(3 - e)/6"
    assert str(lifted.masses[("d", "a")]) == "e/6"


def test_epsilon_case_is_exact_and_projects_to_classical_values():
    tower, dist, x, y = worked_example(["1/2", "1/2", "0"])
    report = verify_conditional_law(tower, dist, x, y, positivity="uniform")
    assert report["product_matches"]
    assert report["marginals_preserved"]
    assert report["p_conditional"] == Fraction(1, 2)
    assert report["p_conditional_std"] == Fraction(1, 2)
    # the perturbed base itself extends exactly, then projects back
    fork = tower.fork()
    fork.extend(x)
    positive = make_tangible(dist, "uniform")
    lifted = extend_distribution(fork, positive)
    assert prob_of(lifted, fork.push(x, 0, 1)) == prob_of(positive, x)
    classical = standard_project(lifted)
    assert prob_of(classical, lifted.algebra.top) == 1
    assert classical.masses[("a", "d")] == Fraction(1, 2)
    assert classical.masses[("d", "a")] == 0


def test_hahn_witness_separates_null_atoms():
    algebra = FiniteBooleanAlgebra.from_names("a,c,d")
    dist = base_distribution(algebra, ["1", "0", "0"])
    witnessed = make_tangible(dist, "hahn_witness")
    assert witnessed.is_strictly_positive()
    vals = [valuation(witnessed.masses[a]) for a in algebra.atoms]
    assert vals == [0, 2, 3]
    # witness mass of the i-th atom (i = 1..3) is e^i / (e + e^2 + e^3)
    e = EPSILON
    denom = e + e * e + e * e * e
    powers = [e, e * e, e * e * e]
    for atom, mass, power in zip(algebra.atoms, dist.masses.values(), powers):
        assert witnessed.masses[atom] == (1 - e) * mass + e * (power / denom)
    with pytest.raises(ValueError):
        make_tangible(witnessed)


def test_reconditioning_keeps_the_distribution():
    tower, dist, x, y = worked_example(["1/4", "1/4", "1/2"])
    tower.extend(x)
    tower.extend(tower.push(x, 0, 1))
    stage1 = extend_distribution(tower, dist, 1)
    stage2 = extend_distribution(tower, stage1, 2)
    for (w, u) in stage2.algebra.atoms:
        assert stage2.masses[(w, u)] == stage1.masses[w]


def test_distribution_validation():
    algebra = FiniteBooleanAlgebra.from_names("a,c")
    with pytest.raises(ValueError):
        base_distribution(algebra, ["1/2", "1/3"])
    with pytest.raises(ValueError):
        base_distribution(algebra, ["3/2", "-1/2"])
    with pytest.raises(ValueError):
        Distribution(algebra, {"a": Fraction(1)})
    assert uniform_distribution(algebra).masses["a"] == Fraction(1, 2)


def test_distribution_json_round_trip():
    tower, dist, x, y = worked_example(["1/2", "1/2", "0"])
    tower.extend(x)
    lifted = extend_distribution(tower, dist, positivity="uniform")
    data = distribution_to_json(lifted)
    assert data["stage"] == 1
    assert data["masses"]["(a,d)"] == "(3 - e)/6"
    again = distribution_from_json(tower, data)
    assert again.masses == lifted.masses
    assert parse_scalar(data["masses"]["(d,a)"]) == EPSILON / 6


@pytest.mark.parametrize("stage", [-1, 3, "1"], ids=["negative", "above-top", "text"])
def test_distribution_from_json_rejects_stages_outside_the_tower(stage):
    tower, dist, x, y = worked_example(["1/4", "1/4", "1/2"])
    tower.extend(x)
    tower.extend(tower.push(y, 0, 1))
    data = distribution_to_json(extend_distribution(tower, dist, 1))
    data["stage"] = stage
    with pytest.raises(ValueError, match=r"is not a stage of the tower \(0\.\.2\)"):
        distribution_from_json(tower, data)
