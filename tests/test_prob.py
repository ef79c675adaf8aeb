"""Probability extension: frozen worked examples, null handling, the search."""

from fractions import Fraction

import pytest

from bayesalg import prob
from bayesalg.bayes import Tower
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element
from bayesalg.field import EPSILON, parse_scalar, valuation
from bayesalg.prob import (
    Distribution,
    NullEventError,
    base_distribution,
    check_conditional_laws,
    distribution_from_json,
    distribution_to_json,
    extend_distribution,
    lewis_candidates,
    make_tangible,
    prob_of,
    standard_project,
    verify_conditional_law,
)


def mass_at(dist, label):
    """The mass of the atom with this label."""
    return dist.masses[dist.algebra.atoms.index(label)]


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
    assert [str(m) for m in lifted.masses] == [
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
    assert str(mass_at(lifted, "(a,d)")) == "(3 - e)/6"
    assert str(mass_at(lifted, "(d,a)")) == "e/6"


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
    assert mass_at(classical, "(a,d)") == Fraction(1, 2)
    assert mass_at(classical, "(d,a)") == 0


def test_hahn_witness_separates_null_atoms():
    algebra = FiniteBooleanAlgebra.from_names("a,c,d")
    dist = base_distribution(algebra, ["1", "0", "0"])
    witnessed = make_tangible(dist, "hahn_witness")
    assert witnessed.is_strictly_positive()
    vals = [valuation(m) for m in witnessed.masses]
    assert vals == [0, 2, 3]
    # witness mass of the i-th atom (i = 1..3) is e^i / (e + e^2 + e^3)
    e = EPSILON
    denom = e + e * e + e * e * e
    powers = [e, e * e, e * e * e]
    for witness, mass, power in zip(witnessed.masses, dist.masses, powers):
        assert witness == (1 - e) * mass + e * (power / denom)
    with pytest.raises(ValueError):
        make_tangible(witnessed)


def test_reconditioning_keeps_the_distribution():
    tower, dist, x, y = worked_example(["1/4", "1/4", "1/2"])
    tower.extend(x)
    tower.extend(tower.push(x, 0, 1))
    stage1 = extend_distribution(tower, dist, 1)
    stage2 = extend_distribution(tower, stage1, 2)
    for mass, (w, u) in zip(stage2.masses, tower.step(2).pairs):
        assert mass == stage1.masses[w]


def test_distribution_validation():
    algebra = FiniteBooleanAlgebra.from_names("a,c")
    with pytest.raises(ValueError):
        base_distribution(algebra, ["1/2", "1/3"])
    with pytest.raises(ValueError):
        base_distribution(algebra, ["3/2", "-1/2"])
    with pytest.raises(ValueError):
        Distribution(algebra, (Fraction(1),))


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


def test_label_masses_land_on_their_atoms_in_any_order():
    algebra = FiniteBooleanAlgebra.from_names("a,c,d")
    shuffled = {"d": "1/2", "a": "1/8", "c": "3/8"}
    dist = base_distribution(algebra, shuffled)
    assert dist.masses == (Fraction(1, 8), Fraction(3, 8), Fraction(1, 2))
    data = distribution_to_json(dist)
    assert list(data["masses"]) == ["a", "c", "d"]
    assert data["masses"] == shuffled
    again = distribution_from_json(Tower(algebra), {"stage": 0, "masses": shuffled})
    assert again.masses == dist.masses
    for masses in ({"a": "1/2", "c": "1/2"}, dict(shuffled, f="0")):
        with pytest.raises(ValueError, match="masses must cover exactly the algebra's atoms"):
            base_distribution(algebra, masses)


@pytest.mark.parametrize("stage", [-1, 3, "1"], ids=["negative", "above-top", "text"])
def test_distribution_from_json_rejects_stages_outside_the_tower(stage):
    tower, dist, x, y = worked_example(["1/4", "1/4", "1/2"])
    tower.extend(x)
    tower.extend(tower.push(y, 0, 1))
    data = distribution_to_json(extend_distribution(tower, dist, 1))
    data["stage"] = stage
    with pytest.raises(ValueError, match=r"is not a stage of the tower \(0\.\.2\)"):
        distribution_from_json(tower, data)


def _per_pair_laws(tower, dist, xs, positivity):
    """The counts of check_conditional_laws, one pair at a time, and the
    (x, y, stage, P([x]y)) of every pair not skipped.

    Under a positivity mode a distribution with a null atom is perturbed
    at its own stage, before the block rule extends it."""
    counts = dict.fromkeys(["pairs", "product_failures", "marginal_failures",
                            "independence_failures", "skipped_null"], 0)
    answers = []
    if positivity != "error" and not dist.is_strictly_positive():
        dist = make_tangible(dist, positivity)
    for x in xs:
        for y in tower.top.elements():
            counts["pairs"] += 1
            fork = tower.fork()
            try:
                at_top = extend_distribution(fork, dist, fork.top_index, positivity)
                value, stage = fork.conditional(x, y)
                at_value = extend_distribution(fork, at_top, stage, positivity)
            except NullEventError:
                counts["skipped_null"] += 1
                continue
            p_value = prob_of(at_value, value)
            answers.append((x, y, stage, p_value))
            if p_value * prob_of(at_top, x) != prob_of(at_top, x & y):
                counts["product_failures"] += 1
            if any(prob_of(at_value, fork.push(at_top.algebra.atom_element(a),
                                               at_top.stage, stage))
                   != mass for a, mass in zip(at_top.algebra.atoms, at_top.masses)):
                counts["marginal_failures"] += 1
            not_x = fork.push(~x, at_top.stage, stage)
            if p_value * prob_of(at_top, ~x) != prob_of(at_value, not_x & value):
                counts["independence_failures"] += 1
    return counts, answers


def _towers():
    """(tower, xs): stage 0, stage 1, and a stage 2 where xs repeat steps."""
    base = FiniteBooleanAlgebra.from_names("a,c,d")
    stage0 = Tower(base)
    stage1 = Tower(base)
    stage1.extend(parse_element(base, "{c}"))
    stage2 = stage1.fork()
    stage2.extend(stage2.push(parse_element(base, "{a}"), 0, 1))
    c, a = (stage2.push(parse_element(base, text), 0, 2) for text in ("{c}", "{a}"))
    # c and ~c repeat stage 1, which answers some ys and not others; a
    # repeats stage 2, which answers every y
    repeats = [c, ~c, a, stage2.top.bottom, stage2.top.element_at(5)]
    assert [stage2.latest_matching_step(x) for x in repeats[:3]] == [
        (1, False), (1, True), (2, False)]
    return {"stage0": (stage0, list(stage0.top.elements())),
            "stage1": (stage1, list(stage1.top.elements())),
            "repeat": (stage2, repeats)}


@pytest.mark.parametrize("shape", ["stage0", "stage1", "repeat"])
@pytest.mark.parametrize("masses, positivity", [
    (["1/6", "1/3", "1/2"], "error"),
    (["1/2", "1/2", "0"], "error"),
    (["1/6", "1/3", "1/2"], "uniform"),
    (["1/2", "1/2", "0"], "uniform"),
    (["(1 - e)/2", "(1 - e)/2", "e"], "uniform"),
], ids=["q", "q-null", "eps", "eps-null", "eps-masses"])
def test_batched_law_checker_matches_per_pair_loop(shape, masses, positivity):
    tower, xs = _towers()[shape]
    dist = base_distribution(tower.algebra(0), masses)
    report = check_conditional_laws(tower, dist, xs, positivity)
    expected, answers = _per_pair_laws(tower, dist, xs, positivity)
    assert {key: report[key] for key in expected} == expected
    assert report["pairs"] == len(xs) * tower.top.size()
    failures = sum(report[key] for key in (
        "product_failures", "marginal_failures", "independence_failures"))
    assert failures == 0 and report["witnesses"] == []
    if shape != "repeat":
        # the null atom stops the rational block rule for some x
        assert (report["skipped_null"] > 0) == (positivity == "error" and "0" in masses)
    else:
        # a pair the shortcut answers stays at the top stage, where the
        # extension would have grown a new one
        for x, y, stage, p_value in answers:
            law = verify_conditional_law(tower, dist, x, y, positivity)
            assert (law["stage"], law["p_conditional"]) == (stage, p_value)


def test_batched_law_checker_reports_a_wrong_atom_image(monkeypatch):
    tower, dist, x, y = worked_example(["1/6", "1/3", "1/2"])
    images_of = prob._conditional_atom_images

    def wrong_image_of_a(tower, event):
        fork, new, images = images_of(tower, event)
        if event == x:
            index = tower.top.atoms.index
            images[index("a")] = images[index("c")]
        return fork, new, images

    monkeypatch.setattr(prob, "_conditional_atom_images", wrong_image_of_a)
    report = check_conditional_laws(tower, dist, [x], axiom_xs=[x])
    # the structural laws read the same atom images, so they fail too
    assert report["axiom_failures"][0] == (
        "atom images of [{a,c}]- do not partition the extension")
    assert report["product_failures"] > 0
    law, at_x, at_y = report["witnesses"][0]
    assert (law, at_x) == ("product", x)
    assert "a" in at_y.atoms and "c" not in at_y.atoms
    assert not verify_conditional_law(tower, dist, x, y)["product_matches"]


def test_eps_law_check_passes_on_towers_with_a_null_atom():
    # perturbing the base before extending keeps the top stage a block-rule
    # extension, so no law fails wherever the null atom sits
    base = FiniteBooleanAlgebra.from_names("w0,w1,w2")
    for k in range(1, base.size() - 1):
        tower = Tower(base)
        tower.extend(base.element_at(k))
        xs = list(tower.top.elements())
        for null in range(3):
            masses = ["7/10", "3/10"]
            masses.insert(null, "0")
            report = check_conditional_laws(
                tower, base_distribution(base, masses), xs, "uniform")
            assert report["witnesses"] == [], (k, null)
            assert report["skipped_null"] == 0


def test_null_atom_in_eps_masses_is_a_null_event():
    tower, dist, x, y = worked_example(["0", "1 - e", "e"])
    tower.extend(parse_element(tower.top, "{a}"))  # c's block {a} is null
    for extend in (lambda: extend_distribution(tower, dist, positivity="uniform"),
                   lambda: check_conditional_laws(tower, dist, [x], "uniform"),
                   lambda: verify_conditional_law(tower, dist, x, y, "uniform")):
        with pytest.raises(NullEventError):
            extend()
