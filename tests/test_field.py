"""Scalar field layer: frozen arithmetic facts plus algebraic laws."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bayesalg.field import (
    EPSILON,
    InfinitesimalScalar,
    ScalarDomainError,
    ScalarParseError,
    format_scalar,
    parse_scalar,
    standard_part,
    valuation,
)

e = EPSILON
one = InfinitesimalScalar.from_rational(1)


# --- frozen values ------------------------------------------------------


def test_rational_addition():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert InfinitesimalScalar.from_rational(Fraction(1, 3)) + Fraction(1, 6) == Fraction(1, 2)


def test_difference_of_squares():
    assert (one - e) * (one + e) == one - e * e


def test_inverse_multiplies_back():
    inv = one / (one + e)
    assert inv * (one + e) == one
    assert not inv.is_rational()


def test_epsilon_is_positive_but_below_every_positive_rational():
    assert (e > Fraction(0)) - (e < Fraction(0)) == 1
    assert (e > Fraction(1, 1000000)) - (e < Fraction(1, 1000000)) == -1


def test_standard_parts():
    assert standard_part((one - e) / 2) == Fraction(1, 2)
    assert standard_part(e / (one + e)) == 0
    with pytest.raises(ScalarDomainError):
        standard_part(one / e)


def test_valuations():
    assert valuation((3 * e * e) / (2 * e)) == 1
    assert valuation(Fraction(5)) == 0
    assert valuation(one / e) == -1
    with pytest.raises(ScalarDomainError):
        valuation(Fraction(0))
    with pytest.raises(ScalarDomainError):
        valuation(e - e)


def test_canonical_form_cancels_common_factors():
    x = (3 * e * e) / (2 * e)
    assert x == e * Fraction(3, 2)
    assert (x.num, x.den) == ((0, 3), (2,))


def test_constructor_takes_coefficient_lists():
    x = InfinitesimalScalar([0, Fraction(3, 2), 0], [1, 0])
    assert (x.num, x.den) == ((0, 3), (2,))
    assert InfinitesimalScalar((2, 2), [0, 1, 1]) == 2 / e
    with pytest.raises(ZeroDivisionError):
        InfinitesimalScalar([1], [0, 0])


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        one / (e - e)
    with pytest.raises(ZeroDivisionError):
        one / Fraction(0)


# --- text form ----------------------------------------------------------


def test_parse_plain_rationals():
    assert parse_scalar("5") == Fraction(5)
    assert parse_scalar("-1/3") == Fraction(-1, 3)
    assert isinstance(parse_scalar("1/4"), Fraction)


def test_parse_epsilon_expressions():
    assert parse_scalar("(1 - e)/2") == (one - e) / 2
    assert parse_scalar("e^2/(1 + e)") == e * e / (one + e)
    assert parse_scalar("3/(2*e)") == 3 / (2 * e)
    assert parse_scalar("1 - 1/2*e") == one - e / 2


def test_parse_demotes_rational_values():
    assert parse_scalar("e/e") == Fraction(1)
    assert isinstance(parse_scalar("e/e"), Fraction)
    assert isinstance(parse_scalar("e + 1 - e"), Fraction)


def test_format_examples():
    assert format_scalar((one - e) / 2) == "(1 - e)/2"
    assert format_scalar(e) == "e"
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(3 / (2 * e)) == "3/(2*e)"
    assert format_scalar(e * e / (one + e)) == "e^2/(1 + e)"
    assert format_scalar(e - e) == "0"
    assert format_scalar((3 * e) / 2) == "(3*e)/2"


def test_parse_errors_carry_positions():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("1 + ")
    assert err.value.position == 4
    with pytest.raises(ScalarParseError):
        parse_scalar("2x")
    with pytest.raises(ScalarParseError):
        parse_scalar("(1 + e")
    with pytest.raises(ScalarParseError):
        parse_scalar("1/(e - e)")


# --- laws ---------------------------------------------------------------

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def polynomials(max_degree: int):
    return st.lists(small_fractions, min_size=0, max_size=max_degree + 1)


@st.composite
def scalars(draw):
    num = draw(polynomials(3))
    den = draw(polynomials(2).filter(any))
    return InfinitesimalScalar(num, den)


@given(scalars(), scalars(), scalars())
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == InfinitesimalScalar.from_rational(0)
    if a:
        assert a / a == one


@given(scalars(), scalars(), scalars())
def test_order_is_total_and_compatible(a, b, c):
    assert (a > b) - (a < b) == -((b > a) - (b < a))
    if a < b:
        assert a + c < b + c
    if a > 0 and b > 0:
        assert a * b > 0


@given(scalars(), scalars())
def test_standard_part_is_a_homomorphism_on_finite_elements(a, b):
    if a and a.valuation() < 0:
        return
    if b and b.valuation() < 0:
        return
    assert standard_part(a + b) == standard_part(a) + standard_part(b)
    assert standard_part(a * b) == standard_part(a) * standard_part(b)


@given(scalars())
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@given(small_fractions)
def test_rational_valued_scalars_match_fractions(q):
    lifted = InfinitesimalScalar.from_rational(q)
    assert lifted == q
    assert hash(lifted) == hash(q)
    assert (e * q) / e == q


# --- differential check against sympy -------------------------------------
#
# The oracle is sympy's field of rational functions over Q. It keeps each
# element cancelled, as sympy.cancel leaves it, but not sign-normalised, so
# values are compared by cross-multiplying. Operands are built from the
# same random coefficients on both sides.


def _random_poly(rng, ring, max_degree, nonzero=False):
    """Random small-Fraction coefficients, as a list and in sympy."""
    while True:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rng.randint(1, max_degree + 1))]
        if not nonzero or any(coeffs):
            return coeffs, _ring_poly(ring, coeffs)


def _ring_poly(ring, coeffs):
    convert = ring.domain.convert
    return ring.from_dict({(k,): convert(c) for k, c in enumerate(coeffs) if c})


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _draw_operands(rng, k_field):
    """Two scalars and their sympy values, often sharing a factor.

    Mode "den" puts a random factor f in both denominators, so a sum
    cancels through a nontrivial gcd; mode "cross" puts f in one
    numerator and the other denominator, so a product cancels across.
    Either way the constructor meets uncancelled input too.
    """
    mode = rng.choice(("plain", "den", "cross"))
    ring = k_field.ring
    f, f_k = _random_poly(rng, ring, 2, nonzero=True)
    out = []
    for k in range(2):
        num, num_k = _random_poly(rng, ring, 3)
        den, den_k = _random_poly(rng, ring, 2, nonzero=True)
        if mode == "den" or (mode == "cross" and k == 1):
            den, den_k = _poly_mul(den, f), den_k * f_k
        if mode == "cross" and k == 0:
            num, num_k = _poly_mul(num, f), num_k * f_k
        out.append((InfinitesimalScalar(num, den), k_field(num_k) / k_field(den_k)))
    return out


def _check_against(x, expected):
    """x has sympy's value, and its integer tuples are the canonical form."""
    ring = expected.field.ring
    num, den = _ring_poly(ring, x.num), _ring_poly(ring, x.den)
    assert num * expected.denom == den * expected.numer
    assert all(type(c) is int for c in x.num + x.den)
    assert x.den[-1] != 0 and (not x.num or x.num[-1] != 0)
    if not x.num:
        assert x.den == (1,)
        return
    assert num.gcd(den).degree() == 0
    assert math.gcd(*x.num, *x.den) == 1
    assert next(c for c in x.den if c) > 0


def _low_degree(poly) -> int:
    return min(m[0] for m in poly.monoms())


def _sympy_sign(value) -> int:
    """Sign as e -> 0+, read at a point below every positive root.

    Once p and q are scaled to integer coefficients of size at most M,
    every root other than 0 has modulus above 1/(1 + M).
    """
    if not value:
        return 0
    p, q = value.numer, value.denom
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in p.coeffs() + q.coeffs()]
    scale = math.lcm(*(c.denominator for c in coeffs))
    t = Fraction(1, 2 + max(abs(c * scale) for c in coeffs))
    return 1 if p(t) * q(t) > 0 else -1


def test_arithmetic_order_and_text_match_sympy():
    sym = pytest.importorskip("sympy")
    k_field, _ = sym.field("e", sym.QQ)
    rng = random.Random(20111109)
    for _ in range(400):
        (a, a_k), (b, b_k) = _draw_operands(rng, k_field)
        _check_against(a, a_k)
        _check_against(a + b, a_k + b_k)
        _check_against(a - b, a_k - b_k)
        _check_against(a * b, a_k * b_k)
        if b:
            _check_against(a / b, a_k / b_k)
        assert a.sign() == _sympy_sign(a_k)
        assert (a > b) - (a < b) == _sympy_sign(a_k - b_k)
        if a:
            assert valuation(a) == _low_degree(a_k.numer) - _low_degree(a_k.denom)
        if a_k.denom(0) == 0:
            with pytest.raises(ScalarDomainError):
                standard_part(a)
        else:
            value = a_k.numer(0) / a_k.denom(0)
            assert standard_part(a) == Fraction(int(value.numerator), int(value.denominator))
        text = format_scalar(a)
        assert parse_scalar(text) == a
        read_back = sym.sympify(text.replace("^", "**"), locals={"e": sym.Symbol("e")})
        _check_against(a, k_field.from_expr(read_back))
