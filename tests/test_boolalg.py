"""Boolean algebra core: exhaustive axioms on small algebras, laws on larger."""

import pytest
from hypothesis import given, strategies as st

from bayesalg.boolalg import (
    ElementParseError,
    FiniteBooleanAlgebra,
    format_element,
    parse_atom_label,
    parse_element,
)


def test_exhaustive_boolean_axioms_up_to_four_atoms():
    for n in range(1, 5):
        alg = FiniteBooleanAlgebra(f"a{i}" for i in range(n))
        elems = list(alg.elements())
        assert len(elems) == 2 ** n
        top, bot = alg.top, alg.bottom
        for x in elems:
            assert x & top == x and x | bot == x
            assert x & ~x == bot and x | ~x == top
            assert ~~x == x
            for y in elems:
                assert x & y == y & x and x | y == y | x
                assert ~(x & y) == ~x | ~y
                assert (x <= y) == (x & y == x)
                for z in elems:
                    assert x & (y | z) == (x & y) | (x & z)


def test_enumeration_is_bitmask_ordered():
    alg = FiniteBooleanAlgebra.from_names("a,c,d")
    assert alg.element_at(0) == alg.bottom
    assert alg.element_at(1) == alg.atom_element("a")
    assert alg.element_at(5) == alg.element(["a", "d"])
    assert alg.element_at(alg.size() - 1) == alg.top
    for k in range(alg.size()):
        assert alg.element_at(k).mask == k


def test_pair_atoms_round_trip():
    assert parse_atom_label("((a,c),(d,a))") == "((a,c),(d,a))"
    assert parse_atom_label(" ( (a, c) ,(d,a) ) ") == "((a,c),(d,a))"
    alg = FiniteBooleanAlgebra(["(a,c)", "(a,d)", "(c,a)"])
    x = parse_element(alg, "{(a,c),(c,a)}")
    assert format_element(x) == "{(a,c),(c,a)}"


def test_element_text_forms():
    alg = FiniteBooleanAlgebra.from_names("a,c,d")
    assert parse_element(alg, "{}") == alg.bottom
    assert parse_element(alg, "{ a , d }") == alg.element(["a", "d"])
    assert format_element(alg.bottom) == "{}"
    assert format_element(alg.top) == "{a,c,d}"
    with pytest.raises(ElementParseError):
        parse_element(alg, "{a,b}")
    with pytest.raises(ElementParseError):
        parse_element(alg, "a,c")


def test_algebra_mixing_is_rejected():
    left = FiniteBooleanAlgebra.from_names("a,c")
    right = FiniteBooleanAlgebra.from_names("a,d")
    with pytest.raises(ValueError):
        left.top & right.top


def test_json_round_trip():
    alg = FiniteBooleanAlgebra(["(a,c)", "d"])
    assert FiniteBooleanAlgebra.from_json(alg.to_json()) == alg


@st.composite
def algebra_and_masks(draw, max_atoms=9, count=3):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    alg = FiniteBooleanAlgebra(f"a{i}" for i in range(n))
    masks = [draw(st.integers(min_value=0, max_value=alg.size() - 1))
             for _ in range(count)]
    return (alg, *masks)


@given(algebra_and_masks())
def test_algebra_laws_on_larger_algebras(data):
    alg, *masks = data
    x, y, z = (alg.element_at(k) for k in masks)
    assert x | (y & z) == (x | y) & (x | z)
    assert ~(x | y) == ~x & ~y
    assert x - y == x & ~y
    assert (x <= y) == (~y <= ~x)
    assert x & (x | y) == x and x | (x & y) == x

    # an independent model: Python sets of labels, the k-th label on bit k
    names = [f"a{i}" for i in range(len(alg.atoms))]
    universe = set(names)

    def labels(k):
        return {name for i, name in enumerate(names) if k >> i & 1}

    def agrees(element, expected):
        ordered = [name for name in names if name in expected]
        assert list(element) == ordered
        assert str(element) == "{" + ",".join(ordered) + "}"
        assert len(element) == len(expected)
        assert bool(element) == bool(expected)
        assert all((name in element) == (name in expected) for name in names)
        assert "b0" not in element
        assert element == alg.element(expected)
        assert hash(element) == hash(alg.element(expected))

    other = FiniteBooleanAlgebra(f"b{i}" for i in range(len(names)))
    for j, (u, a) in enumerate(zip((x, y, z), masks)):
        p = labels(a)
        agrees(u, p)
        agrees(~u, universe - p)
        assert u != other.element_at(a)
        for v, b in zip((x, y, z)[j:], masks[j:]):
            q = labels(b)
            agrees(u & v, p & q)
            agrees(u | v, p | q)
            agrees(u - v, p - q)
            agrees(v - u, q - p)
            assert (u <= v, u < v, u >= v, u > v) == (p <= q, p < q, p >= q, p > q)
            assert (v <= u, v < u, v >= u, v > u) == (q <= p, q < p, q >= p, q > p)
            assert (u == v) == (p == q) and (u != v) == (p != q)
        with pytest.raises(ValueError, match="unknown atom"):
            alg.element([*p, "b0"])


@pytest.mark.parametrize("atoms", [
    [("a", "c")], ["a", ("a", "c")], [""], ["a,b"], ["a b"], ["a", "a"], [],
], ids=["tuple", "tuple-among-names", "empty", "comma", "space", "duplicate",
        "no-atoms"])
def test_constructor_rejects_bad_atoms(atoms):
    with pytest.raises(ValueError):
        FiniteBooleanAlgebra(atoms)


@pytest.mark.parametrize("label", ["(a", "(a,b,c)", "(a,)", "a)", "(a,b)c"])
def test_malformed_pair_labels_are_rejected_where_text_enters(label):
    with pytest.raises(ValueError):
        FiniteBooleanAlgebra.from_names(f"{label},d")
    with pytest.raises(ValueError):
        FiniteBooleanAlgebra.from_json({"atoms": [label, "d"]})
