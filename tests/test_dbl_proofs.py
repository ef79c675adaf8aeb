"""Derivation checking: the bundled corpus and targeted failure diagnoses."""

import itertools
import json
import random

import pytest

from bayesalg.dbl.corpus import build_corpus
from bayesalg.dbl.proofs import (
    Derivation,
    ProofStep,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    is_tautology,
    opaque_letters,
)
from bayesalg.dbl.syntax import (
    BOT,
    Cond,
    Impl,
    Var,
    format_sequent,
    parse_formula,
    parse_sequent,
)


CORPUS = build_corpus()


def _failures(derivation):
    return [r for r in check_derivation(derivation) if not r.ok]


def test_corpus_is_nontrivial():
    assert len(CORPUS) == 23
    assert sum(len(d.steps) for d in CORPUS.values()) > 2000


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_derivation_checks(name):
    assert _failures(CORPUS[name]) == []


def test_corpus_conclusions_frozen():
    got = {name: format_sequent(d.conclusion) for name, d in CORPUS.items()}
    assert got["axiom-distribution"] == "[x](y -> z) -> [x]y -> [x]z"
    assert got["axiom-detachment"] == "[x]y -> x -> y"
    assert got["axiom-negation-swap"] == "[x]~y <-> ~[x]y"
    assert got["conditioning-under-truth"] == "g || [x | ~x]y <-> y"
    assert got["conditioning-under-falsity"] == "g || [x & ~x]y <-> y"
    assert got["top-conditioning-is-identity"] == "[T]y <-> y"
    assert got["bottom-conditioning-is-identity"] == "[F]y <-> y"
    assert got["conditional-of-truth"] == "[x]T"
    assert got["no-conditional-of-falsity"] == "~[x]F"
    assert got["implication-distribution"] == "[x](y -> z) <-> [x]y -> [x]z"
    assert got["conjunction-distribution"] == "[x](y & z) <-> [x]y & [x]z"
    assert got["disjunction-distribution"] == "[x](y | z) <-> [x]y | [x]z"
    assert got["equivalence-distribution"] == (
        "[x](y <-> z) <-> ([x]y <-> [x]z)")
    assert got["body-replacement"] == "[x]y <-> [x]~~y"
    assert got["conditioning-restricts"] == "x & [x]y <-> x & y"
    assert got["self-support"] == "~x || [x]x"
    assert got["conditioning-idempotent"] == "[x][x]y <-> [x]y"
    assert got["congruence"] == "g || [w & w]y <-> [w]~~y"
    assert got["decided-event-conditioning"] == "g || [x | ~x]y <-> y"


def test_json_roundtrip_preserves_checking():
    d = CORPUS["conditioning-idempotent"]
    blob = json.dumps(derivation_to_json(d))
    data = json.loads(blob)
    assert isinstance(data, list)
    assert set(data[0]) >= {"conclusion", "rule", "premises"}
    back = derivation_from_json(data, name=d.name)
    assert back.name == d.name
    assert [s.conclusion for s in back.steps] == [
        s.conclusion for s in d.steps]
    assert _failures(back) == []


def _step(text, rule, premises=()):
    return ProofStep(conclusion=parse_sequent(text), rule=rule,
                     premises=premises)


def test_taut_rejects_excluded_middle_split():
    d = Derivation("bad", (_step("x || ~x", "TAUT"),))
    (report,) = check_derivation(d)
    assert not report.ok
    assert report.message == (
        "no member is a propositional tautology over its opaque letters")


def test_taut_treats_conditionals_as_opaque():
    good = Derivation("good", (_step("[x]y -> [x]y", "TAUT"),))
    assert _failures(good) == []
    bad = Derivation("bad", (_step("[x](y -> y)", "TAUT"),))
    assert not check_derivation(bad)[0].ok


def test_mp_requires_matching_antecedent():
    d = Derivation("bad", (
        _step("z -> z", "TAUT"),
        _step("x -> x", "TAUT"),
        _step("x", "MP", (0, 1)),
    ))
    report = check_derivation(d)[2]
    assert not report.ok
    assert "antecedent" in report.message


def test_mp_accepts_either_premise_order():
    steps = (
        _step("x -> x", "TAUT"),
        _step("(x -> x) -> (y -> (x -> x))", "TAUT"),
    )
    for order in ((0, 1), (1, 0)):
        d = Derivation("mp", steps + (
            _step("y -> (x -> x)", "MP", order),))
        assert _failures(d) == []


def test_ax_k_wrong_instance():
    d = Derivation("bad", (_step("[x](y -> z) -> ([x]z -> [x]y)", "AxK"),))
    assert check_derivation(d)[0].message == (
        "not an instance of [X](Y -> Z) -> ([X]Y -> [X]Z)")


def test_axiom_must_be_single_member():
    d = Derivation("bad", (_step("[x]y -> (x -> y) || T", "AxCondInf"),))
    assert check_derivation(d)[0].message == (
        "an axiom instance must be the single member [X]Y -> (X -> Y)")


def test_ax_neg_shape():
    good = Derivation("good", (_step("[x]~y <-> ~[x]y", "AxNeg"),))
    assert _failures(good) == []
    bad = Derivation("bad", (_step("~[x]y <-> [x]~y", "AxNeg"),))
    assert check_derivation(bad)[0].message == (
        "not an instance of [X]~Y <-> ~[X]Y")


def test_ax_ind_context_must_match():
    d = Derivation("bad", (
        _step("g || y <-> ~x", "TAUT"),
        _step("h || [x]z <-> z", "TAUT"),
        _step("g || [y]z <-> z", "AxInd", (0, 1)),
    ))
    assert check_derivation(d)[2].message == (
        "premises and conclusion must share the context verbatim")


def test_ax_ind_checks_conditioned_event():
    d = Derivation("bad", (
        _step("y <-> ~x", "TAUT"),
        _step("[w]z <-> z", "TAUT"),
        _step("[y]z <-> z", "AxInd", (0, 1)),
    ))
    assert check_derivation(d)[2].message == (
        "second premise must condition on the X negated in the first premise")


def test_forward_premise_reference():
    d = Derivation("bad", (
        _step("y", "MP", (1, 2)),
        _step("x", "TAUT"),
    ))
    assert check_derivation(d)[0].message == "premise 1 is not an earlier step"


def test_arity_mismatch():
    d = Derivation("bad", (
        _step("x -> x", "TAUT"),
        _step("x -> x", "MP", (0,)),
    ))
    assert check_derivation(d)[1].message == "MP takes 2 premise(s), 1 given"


def test_unknown_rule():
    d = Derivation("bad", (_step("x -> x", "CUT"),))
    assert check_derivation(d)[0].message == "unknown rule 'CUT'"


def test_contraction_cannot_drop_members():
    d = Derivation("bad", (
        _step("x || y || x", "TAUT", ()),
        _step("x", "mC", (0,)),
    ))
    assert check_derivation(d)[1].message == (
        "conclusion does not contract the premise")
    good = Derivation("good", (
        _step("(x -> x) || y || (x -> x)", "TAUT"),
        _step("(x -> x) || y", "mC", (0,)),
    ))
    assert _failures(good) == []


def test_weakening_only_adds():
    d = Derivation("bad", (
        _step("x -> x", "TAUT"),
        _step("y -> y", "mW", (0,)),
    ))
    assert check_derivation(d)[1].message == (
        "conclusion drops a member of the premise")


def test_permutation_is_exact_multiset():
    d = Derivation("bad", (
        _step("x || y", "TAUT"),
        _step("y || x || x", "mP", (0,)),
    ))
    assert check_derivation(d)[1].message == (
        "conclusion is not a permutation of the premise")


def test_inf_cond_rewrites_an_implication():
    d = Derivation("good", (
        _step("g || x -> x", "TAUT"),
        _step("g || ~x || [x]x", "AxInfCond", (0,)),
    ))
    assert _failures(d) == []
    bad = Derivation("bad", (
        _step("g || x -> x", "TAUT"),
        _step("g || ~x || [x]g", "AxInfCond", (0,)),
    ))
    report = check_derivation(bad)[1]
    assert not report.ok
    assert report.message == (
        "conclusion does not replace an implication X -> Y of the"
        " premise by ~X and [X]Y")


def test_is_tautology_letter_limit():
    f = parse_formula(" & ".join(f"v{i}" for i in range(17)))
    with pytest.raises(ValueError):
        is_tautology(f)


def _row_truth(f, row):
    if f == BOT:
        return False
    if isinstance(f, Impl):
        return not _row_truth(f.left, row) or _row_truth(f.right, row)
    return row[f]


def _tautology_by_rows(f):
    """One row of the truth table at a time over the opaque letters."""
    letters = opaque_letters(f)
    # name each letter by its position, so a row lookup hashes one short Var
    rename = {g: Var(str(i)) for i, g in enumerate(letters)}

    def skeleton(g):
        if isinstance(g, Impl):
            return Impl(skeleton(g.left), skeleton(g.right))
        return rename.get(g, g)

    f = skeleton(f)
    letters = list(rename.values())
    return all(_row_truth(f, dict(zip(letters, bits)))
               for bits in itertools.product((False, True),
                                             repeat=len(letters)))


def _random_formula(rng, letters, depth):
    if depth == 0 or rng.random() < 0.2:
        return BOT if rng.random() < 0.1 else rng.choice(letters)
    return Impl(_random_formula(rng, letters, depth - 1),
                _random_formula(rng, letters, depth - 1))


def test_is_tautology_matches_the_row_by_row_table():
    rng = random.Random(15)
    names = [Var(n) for n in "uvwxyz"]
    pool = names + [Cond(names[0], names[1]), Cond(Impl(names[2], BOT), names[3])]
    verdicts = set()
    for _ in range(600):
        letters = rng.sample(pool, rng.randint(1, 6))
        f = _random_formula(rng, letters, rng.randint(1, 6))
        # p -> p makes a share of the draws tautologies
        if rng.random() < 0.3:
            g = _random_formula(rng, letters, 2)
            f = Impl(Impl(g, f), Impl(g, f)) if rng.random() < 0.5 else Impl(f, f)
        assert len(opaque_letters(f)) <= 6
        expected = _tautology_by_rows(f)
        assert is_tautology(f) is expected, f
        verdicts.add(expected)
    assert verdicts == {False, True}


def test_is_tautology_matches_the_row_by_row_table_on_the_corpus():
    members = {f for d in CORPUS.values() for step in d.steps
               for f in step.conclusion}
    verdicts = set()
    for f in members:
        expected = _tautology_by_rows(f)
        assert is_tautology(f) is expected, f
        verdicts.add(expected)
    assert verdicts == {False, True}


def test_is_tautology_at_the_letter_limit():
    letters = [Var(f"v{i}") for i in range(16)]
    chain = letters[-1]
    for v in reversed(letters[:-1]):
        chain = Impl(v, chain)
    # v0 -> ... -> v15 fails only where v0..v14 hold and v15 does not
    assert not is_tautology(chain)
    assert is_tautology(Impl(letters[-1], chain))
    assert len(opaque_letters(chain)) == 16


def test_reports_cover_every_step():
    d = CORPUS["self-support"]
    reports = check_derivation(d)
    assert len(reports) == len(d.steps)
    assert all(r.ok and r.message == "ok" for r in reports)
    assert [r.index for r in reports] == list(range(len(d.steps)))
