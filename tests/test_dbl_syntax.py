"""Formula grammar: parsing, printing, derived forms, interned nodes."""

import copy
import gc
import json
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from bayesalg.dbl import (
    build_corpus, derivation_from_json, derivation_to_json, syntax)
from bayesalg.dbl.proofs import AXIOMS
from bayesalg.dbl.syntax import (
    BOT,
    Cond,
    FormulaParseError,
    Impl,
    TOP,
    Var,
    as_iff,
    conj,
    disj,
    format_formula,
    format_sequent,
    iff,
    neg,
    parse_formula,
    parse_sequent,
)

x, y, z = Var("x"), Var("y"), Var("z")


def test_core_connectives():
    assert parse_formula("F") == BOT
    assert parse_formula("T") == neg(BOT)
    assert parse_formula("x -> y") == Impl(x, y)
    assert parse_formula("[b]b") == Cond(Var("b"), Var("b"))


def test_sugar_is_definitional():
    # ~X is X -> F, so the two spellings parse to the same term
    assert parse_formula("~x") == Impl(x, BOT)
    assert parse_formula("x | y") == parse_formula("~x -> y")
    assert parse_formula("x & y") == neg(disj(neg(x), neg(y)))
    assert parse_formula("x <-> y") == conj(Impl(x, y), Impl(y, x))


def test_precedence():
    assert parse_formula("x -> y -> z") == Impl(x, Impl(y, z))
    assert parse_formula("~x | y & z") == disj(neg(x), conj(y, z))
    assert parse_formula("[x]y -> z") == Impl(Cond(x, y), z)
    assert parse_formula("[x]y & z") == conj(Cond(x, y), z)
    assert parse_formula("[x]~y") == Cond(x, neg(y))
    assert parse_formula("[x][y]z") == Cond(x, Cond(y, z))
    assert parse_formula("[x -> y]z") == Cond(Impl(x, y), z)
    assert parse_formula("x <-> y <-> z") == iff(iff(x, y), z)
    assert parse_formula("x & (y | z)") == conj(x, disj(y, z))


def test_distribution_shape():
    f = parse_formula("[x](y -> z) -> ([x]y -> [x]z)")
    assert f == Impl(Cond(x, Impl(y, z)), Impl(Cond(x, y), Cond(x, z)))


def test_printing_examples():
    assert format_formula(iff(Cond(x, neg(y)), neg(Cond(x, y)))) \
        == "[x]~y <-> ~[x]y"
    assert format_formula(Impl(x, Impl(y, z))) == "x -> y -> z"
    assert format_formula(Impl(Impl(x, y), z)) == "(x -> y) -> z"
    assert format_formula(conj(x, disj(y, z))) == "x & (y | z)"
    assert format_formula(neg(neg(x))) == "~~x"
    assert format_formula(TOP) == "T"
    assert format_formula(Cond(disj(x, y), z)) == "[x | y]z"


def test_sequent_roundtrip_and_meta_bar():
    s = parse_sequent("~x || [x]x")
    assert s == (neg(x), Cond(x, x))
    assert format_sequent(s) == "~x || [x]x"
    # a bare disjunction member is parenthesized next to the meta-bar
    s2 = (neg(x), disj(x, neg(x)))
    assert format_sequent(s2) == "~x || (x | ~x)"
    assert parse_sequent(format_sequent(s2)) == s2
    # but not when it is the whole sequent
    assert format_sequent((disj(x, y),)) == "x | y"


def test_reserved_and_names():
    assert parse_formula("Tx") == Var("Tx")
    assert parse_formula("_a1") == Var("_a1")


# Malformed text, with the message and position each one gets.
_MALFORMED = [
    (parse_formula, "x $ y", "unexpected character '$'", 2),
    (parse_formula, "  @", "unexpected character '@'", 2),
    (parse_formula, "x - > y", "unexpected character '-'", 2),
    (parse_formula, "x <- y", "unexpected character '<'", 2),
    (parse_sequent, "x || $", "unexpected character '$'", 5),
    (parse_formula, "(x -> y", "expected ')'", 7),
    (parse_formula, "[x y", "expected ']'", 3),
    (parse_formula, "[x", "expected ']'", 2),
    (parse_sequent, "(x || y)", "expected ')'", 3),
    (parse_sequent, "[x || y]z", "expected ']'", 3),
    (parse_formula, "x -> ", "expected a formula", 5),
    (parse_formula, "x &", "expected a formula", 3),
    (parse_formula, "~", "expected a formula", 1),
    (parse_formula, "[x]", "expected a formula", 3),
    (parse_sequent, "x ||", "expected a formula", 4),
    (parse_formula, "x -> -> y", "expected a formula", 5),
    (parse_formula, "()", "expected a formula", 1),
    (parse_sequent, "x | | y", "expected a formula", 4),
    (parse_sequent, "x |||| y", "expected a formula", 4),
    (parse_formula, "x || y", "unexpected '||'", 2),
    (parse_formula, "x )", "unexpected ')'", 2),
    (parse_formula, "x y", "unexpected 'y'", 2),
    (parse_sequent, "x || y )", "unexpected ')'", 7),
    (parse_formula, "", "expected a formula", 0),
    (parse_formula, "   ", "expected a formula", 3),
    (parse_sequent, "", "expected a formula", 0),
    (parse_sequent, " \t ", "expected a formula", 3),
    # nesting past 200 levels, and trees deeper than 200 nodes
    (parse_formula, "~" * 201 + "x", "formula nested too deeply", 201),
    (parse_formula, "~" * 5000 + "x", "formula nested too deeply", 201),
    (parse_formula, "(" * 201 + "x" + ")" * 201, "formula nested too deeply", 201),
    (parse_sequent, "x || " + "[x]" * 201 + "x", "formula nested too deeply", 606),
    (parse_formula, " -> ".join(["x"] * 202), "formula nested too deeply", 1005),
    (parse_formula, " & ".join(["x"] * 52), "formula nested too deeply", 205),
    (parse_sequent, "(" + " <-> ".join(["x"] * 42) + ") || x",
     "formula nested too deeply", 248),
]


def test_parse_errors_carry_positions():
    for parse, text, message, position in _MALFORMED:
        with pytest.raises(FormulaParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position


_TOKENS = ["x", "y", "T", "F", "(", ")", "[", "]", "~", "&", "|", "||",
           "->", "<->", " "]


@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join))
def test_token_soup_parses_or_fails_inside_the_text(text):
    try:
        s = parse_sequent(text)
    except FormulaParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert parse_sequent(format_sequent(s)) == s


_formulas = st.recursive(
    st.sampled_from([x, y, z, BOT]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: Impl(*p)),
        st.tuples(sub, sub).map(lambda p: Cond(*p)),
        sub.map(neg),
        st.tuples(sub, sub).map(lambda p: disj(*p)),
        st.tuples(sub, sub).map(lambda p: conj(*p)),
        st.tuples(sub, sub).map(lambda p: iff(*p)),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_print_parse_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


@given(st.lists(_formulas, min_size=1, max_size=4))
def test_sequent_print_parse_roundtrip(members):
    s = tuple(members)
    assert parse_sequent(format_sequent(s)) == s


@given(_formulas, _formulas)
def test_iff_detector_matches_constructor(a, b):
    assert as_iff(iff(a, b)) == (a, b)


def test_formulas_at_the_depth_bound_parse():
    assert parse_formula("~" * 200 + "x").depth == 200
    assert parse_formula("(" * 200 + "x" + ")" * 200) == x
    assert parse_formula(" & ".join(["x"] * 51)).depth == 200
    assert parse_formula(" -> ".join(["x"] * 201)).depth == 200


def test_equal_structures_are_one_node():
    f = Impl(Cond(x, Impl(y, z)), Impl(Cond(x, y), Cond(x, z)))
    built = [
        Impl(Cond(Var("x"), Impl(Var("y"), Var("z"))),
             Impl(Cond(Var("x"), Var("y")), Cond(Var("x"), Var("z")))),
        parse_formula("[x](y -> z) -> ([x]y -> [x]z)"),
        AXIOMS["AxK"].instance(x, y, z),
        copy.copy(f),
        copy.deepcopy(f),
        pickle.loads(pickle.dumps(f)),
    ]
    assert all(g is f for g in built)
    assert parse_formula("~x") is neg(x) is Impl(x, BOT)
    assert parse_formula("x & y") is conj(x, y)
    assert parse_formula("x <-> y") is iff(x, y)
    assert parse_formula("T") is TOP is neg(syntax.Bot())
    assert copy.deepcopy((f, [f]))[1][0] is f
    assert hash(f) == object.__hash__(f)


def test_nodes_are_immutable():
    f = Impl(x, y)
    for node, field in ((f, "left"), (x, "name"), (Cond(x, y), "body"),
                        (BOT, "depth")):
        with pytest.raises(AttributeError):
            setattr(node, field, y)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert f.left is x and f.right is y


def test_the_node_table_shrinks_back_after_a_corpus_is_dropped():
    # fresh variable names, so no node of a corpus built elsewhere is reused
    def renamed(text):
        return re.sub(r"[A-Za-z_]\w*",
                      lambda m: m[0] if m[0] in ("T", "F") else m[0] + "_dropped",
                      text)

    files = []
    for _, derivation in sorted(build_corpus().items()):
        steps = derivation_to_json(derivation)
        for step in steps:
            step["conclusion"] = renamed(step["conclusion"])
        files.append(json.dumps(steps))
    gc.collect()
    before = len(syntax._INTERNED)
    derivations = [derivation_from_json(json.loads(text)) for text in files]
    assert len(derivations) == 23
    assert len(syntax._INTERNED) > before + 1000
    del derivations
    gc.collect()
    assert len(syntax._INTERNED) == before
