"""Exact scalars: rationals and rational functions of one infinitesimal.

Probabilities in this package live in an ordered field. Two fields are
supported: plain rationals (fractions.Fraction) and the field of rational
functions in a single infinitesimal ``e``, ordered by valuation: a nonzero
element is positive exactly when the lowest-degree coefficient of its
numerator is positive, which makes ``e`` a positive element smaller than
every positive rational. The standard part maps a finite element to the
coefficient of ``e^0`` of its series expansion.

An element of Q(e) is stored fraction-free, as a numerator and a
denominator of integer coefficients that are coprime over Q[e], share no
integer content, and have a positive lowest denominator coefficient. That
form is unique, so equality is a tuple compare. Sums and products follow
Henrici (Knuth, TAOCP vol. 2, 4.5.1): they cancel only the factors that
the operands can share, so the common case needs a gcd of small
polynomials or none at all. Gcds use the primitive polynomial remainder
sequence over the integers (Brown 1971). Order is the sign of the lowest
coefficient of the cross-multiplied difference; no difference is reduced.

All arithmetic is exact. Division by zero raises ZeroDivisionError; the
standard part of an unbounded element (negative valuation) and the
valuation of zero raise ScalarDomainError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence, Union

__all__ = [
    "InfinitesimalScalar",
    "Scalar",
    "EPSILON",
    "ScalarDomainError",
    "ScalarParseError",
    "standard_part",
    "valuation",
    "as_scalar",
    "parse_scalar",
    "format_scalar",
]


class ScalarDomainError(ValueError):
    """Raised for operations outside their domain (e.g. valuation of 0)."""


class ScalarParseError(ValueError):
    """Raised on malformed scalar text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- integer polynomial kernel ------------------------------------------
#
# A polynomial is a tuple of ints, lowest degree first, with no trailing
# zeros; () is zero. Every function takes and returns such tuples.

_ZERO = ()
_ONE = (1,)


def _low(p) -> int:
    """Exponent of the lowest nonzero term of a nonzero polynomial."""
    k = 0
    while not p[k]:
        k += 1
    return k


def _trim(coeffs: list):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _mul(a, b):
    if not a or not b:
        return _ZERO
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else tuple(c * x for x in b)
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _exquo(a, d):
    """a / d for a primitive d that divides a over Q.

    By Gauss's lemma the quotient then has integer coefficients, so the
    long division runs on ints and every step divides exactly.
    """
    if len(d) == 1:
        return a if d[0] == 1 else tuple(-x for x in a)
    rem = list(a)
    top = len(d) - 1
    lead = d[-1]
    quo = [0] * (len(a) - top)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + top]
        if c:
            q = c // lead
            quo[i] = q
            for k, x in enumerate(d):
                rem[i + k] -= q * x
    return tuple(quo)


def _primitive(p):
    """p over its content, with a positive leading coefficient."""
    c = math.gcd(*p)
    if p[-1] < 0:
        c = -c
    return p if c == 1 else tuple(x // c for x in p)


def _gcd(a, b):
    """Primitive gcd of two nonzero polynomials, by the primitive PRS.

    Common powers of e are split off first. The rest is Euclid on
    primitive parts, where each remainder is a pseudo-remainder: the
    dividend is scaled by the divisor's leading coefficient instead of
    dividing by it, so every step stays in the integers (Brown 1971).
    """
    la, lb = _low(a), _low(b)
    shift = min(la, lb)
    a, b = a[la:], b[lb:]
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        a, b = _primitive(a), _primitive(b)
        while True:
            r = list(a)
            top, lead = len(b) - 1, b[-1]
            while len(r) > top:
                g = math.gcd(r[-1], lead)
                s, t = lead // g, r[-1] // g
                base = len(r) - 1 - top
                if s != 1:
                    r = [s * x for x in r]
                for k, x in enumerate(b):
                    r[base + k] -= t * x
                while r and not r[-1]:
                    r.pop()
            if not r:
                break
            if len(r) == 1:
                b = _ONE
                break
            a, b = b, _primitive(r)
    else:
        b = _ONE
    return (0,) * shift + b if shift else b


def _canonical(num, den):
    """Scale a coprime pair to joint content 1 and a positive lowest den coefficient."""
    if not num:
        return _ZERO, _ONE
    c = math.gcd(*num, *den)
    if den[_low(den)] < 0:
        c = -c
    if c == 1:
        return num, den
    return tuple(x // c for x in num), tuple(x // c for x in den)


def _reduce(num, den):
    """Canonical pair of num/den for any pair with den nonzero."""
    if num:
        g = _gcd(num, den)
        if g != _ONE:
            num, den = _exquo(num, g), _exquo(den, g)
    return _canonical(num, den)


def _sum(an, ad, bn, bd):
    """an/ad + bn/bd for nonzero canonical operands, by Henrici's method.

    Only the denominators' gcd d1 can be shared with the new numerator t,
    so the final cancellation is gcd(t, d1), never gcd(t, ad*bd); when
    d1 is 1 no cancellation is needed at all.
    """
    if ad == bd:
        t = _add(an, bn)
        if not t or len(ad) == 1:
            return t, ad
        g = _gcd(t, ad)
        return (t, ad) if g == _ONE else (_exquo(t, g), _exquo(ad, g))
    if len(ad) == 1 and len(bd) == 1:
        p, q = ad[0], bd[0]
        return _add(_mul(an, bd), _mul(bn, ad)), (p * q,)
    d1 = _gcd(ad, bd)
    if d1 == _ONE:
        return _add(_mul(an, bd), _mul(bn, ad)), _mul(ad, bd)
    ad1, bd1 = _exquo(ad, d1), _exquo(bd, d1)
    t = _add(_mul(an, bd1), _mul(bn, ad1))
    if not t:
        return t, _ONE
    d2 = _gcd(t, d1)
    if d2 == _ONE:
        return t, _mul(ad1, bd)
    return _exquo(t, d2), _mul(ad1, _exquo(bd, d2))


def _product(an, ad, bn, bd):
    """(an/ad) * (bn/bd) for coprime pairs, by Henrici's method: cancel
    only across the operands, an against bd and bn against ad."""
    if not an or not bn:
        return _ZERO, _ONE
    if len(bd) > 1 and len(an) > 1:
        g = _gcd(an, bd)
        if g != _ONE:
            an, bd = _exquo(an, g), _exquo(bd, g)
    if len(ad) > 1 and len(bn) > 1:
        g = _gcd(bn, ad)
        if g != _ONE:
            bn, ad = _exquo(bn, g), _exquo(ad, g)
    return _mul(an, bn), _mul(ad, bd)


def _compare(an, ad, bn, bd) -> int:
    """Sign of an/ad - bn/bd for denominators with positive lowest terms.

    That is the sign of the lowest nonzero coefficient of an*bd - bn*ad,
    found coefficient by coefficient from e^0 up, so the difference is
    never built, let alone reduced.
    """
    if ad == bd:
        for x, y in zip_longest(an, bn, fillvalue=0):
            if x != y:
                return 1 if x > y else -1
        return 0
    for k in range(max(len(an) + len(bd), len(bn) + len(ad)) - 1):
        c = 0
        for i in range(max(0, k - len(bd) + 1), min(k + 1, len(an))):
            c += an[i] * bd[k - i]
        for i in range(max(0, k - len(ad) + 1), min(k + 1, len(bn))):
            c -= bn[i] * ad[k - i]
        if c:
            return 1 if c > 0 else -1
    return 0


class InfinitesimalScalar:
    """Element of the ordered field of rational functions in ``e``.

    ``num`` and ``den`` are integer coefficient tuples, lowest degree
    first. Canonical form: they are coprime over Q[e], the joint content
    of their coefficients is 1, and the lowest nonzero coefficient of
    ``den`` is positive; zero is ``((), (1,))``. Equal elements therefore
    have equal tuples, and the sign of an element is the sign of the
    lowest nonzero numerator coefficient, which orders ``e`` strictly
    between 0 and every positive rational.

    The constructor takes coefficient sequences of ints or Fractions,
    lowest degree first, clears their denominators and reduces fully.
    Operators build their results directly in canonical form: Henrici's
    add and multiply cancel only across the operands, with primitive-PRS
    gcds on integer polynomials, and order is the sign of a
    cross-multiplied difference.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Union[int, Fraction]],
                 den: Sequence[Union[int, Fraction]] = _ONE):
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = math.lcm(*(c.denominator for c in num + den))
        num = _trim([c.numerator * (scale // c.denominator) for c in num])
        den = _trim([c.numerator * (scale // c.denominator) for c in den])
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("InfinitesimalScalar is immutable")

    @classmethod
    def from_rational(cls, q: Union[int, Fraction]) -> "InfinitesimalScalar":
        n = q.numerator
        return _new((n,), (q.denominator,)) if n else _ZERO_SCALAR

    # --- structure ---------------------------------------------------

    def is_rational(self) -> bool:
        return len(self.den) == 1 and len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ScalarDomainError(f"{self} is not rational")
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[0], self.den[0])

    def sign(self) -> int:
        if not self.num:
            return 0
        return 1 if self.num[_low(self.num)] > 0 else -1

    def valuation(self) -> int:
        """Lowest power of ``e`` in the series expansion; error on zero."""
        if not self.num:
            raise ScalarDomainError("valuation of zero is undefined")
        return _low(self.num) - _low(self.den)

    def standard_part(self) -> Fraction:
        """Coefficient of e^0; error when the element is unbounded."""
        if not self.num:
            return Fraction(0)
        v = self.valuation()
        if v < 0:
            raise ScalarDomainError(
                f"standard part undefined: valuation {v} < 0"
            )
        if v > 0:
            return Fraction(0)
        # coprime parts cannot both vanish at e = 0, so both low degrees are 0
        return Fraction(self.num[0], self.den[0])

    # --- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "InfinitesimalScalar":
        if isinstance(other, InfinitesimalScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return InfinitesimalScalar.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        return _new(*_canonical(*_sum(self.num, self.den, o.num, o.den)))

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return InfinitesimalScalar.__add__(self, -o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return InfinitesimalScalar.__sub__(o, self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _new(*_canonical(*_product(self.num, self.den, o.num, o.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("scalar division by zero")
        return _new(*_canonical(*_product(self.num, self.den, o.den, o.num)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return InfinitesimalScalar.__truediv__(o, self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        num, den = self.num, self.den
        if k < 0:
            if not num:
                raise ZeroDivisionError("zero has no negative powers")
            num, den, k = den, num, -k
        out_num = out_den = _ONE
        for _ in range(k):
            out_num, out_den = _mul(out_num, num), _mul(out_den, den)
        # powers of a coprime pair stay coprime, with joint content 1
        return _new(*_canonical(out_num, out_den))

    # --- order --------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_rational())
        return hash(("InfinitesimalScalar", self.num, self.den))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _compare(self.num, self.den, o.num, o.den)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return format_scalar(self)


_set_num = InfinitesimalScalar.num.__set__
_set_den = InfinitesimalScalar.den.__set__


def _new(num, den) -> InfinitesimalScalar:
    """A scalar from a canonical pair, without re-reducing it in __init__."""
    x = object.__new__(InfinitesimalScalar)
    _set_num(x, num)
    _set_den(x, den)
    return x


_ZERO_SCALAR = _new(_ZERO, _ONE)
EPSILON = _new((0, 1), _ONE)

Scalar = Union[Fraction, InfinitesimalScalar]


def as_scalar(x: Union[int, Fraction, InfinitesimalScalar]) -> Scalar:
    if isinstance(x, InfinitesimalScalar):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not a scalar: {x!r}")
    return Fraction(x)


def standard_part(x: Scalar) -> Fraction:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return x
    return x.standard_part()


def valuation(x: Scalar) -> int:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        if x == 0:
            raise ScalarDomainError("valuation of zero is undefined")
        return 0
    return x.valuation()


# --- text form ---------------------------------------------------------
#
# scalar := sum
# sum    := term (("+" | "-") term)*
# term   := factor (("*" | "/") factor)*
# factor := "-" factor | power
# power  := atom ("^" INT)?
# atom   := INT | "e" | "(" sum ")"

_TOKEN = re.compile(r"\s*(?:(\d+)|([e])|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ScalarParseError(f"unexpected character {rest[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("e", "e", m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ScalarParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def sum(self) -> InfinitesimalScalar:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> InfinitesimalScalar:
        out = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                if not rhs:
                    raise ScalarParseError("division by zero", pos)
                out = out / rhs
        return out

    def factor(self) -> InfinitesimalScalar:
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self) -> InfinitesimalScalar:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            return base ** int(tok[1])
        return base

    def atom(self) -> InfinitesimalScalar:
        kind, text, pos = self.peek()
        if kind == "int":
            self.take()
            return InfinitesimalScalar.from_rational(int(text))
        if kind == "e":
            self.take()
            return EPSILON
        if kind == "(":
            self.take()
            inner = self.sum()
            self.take(")")
            return inner
        raise ScalarParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def parse_scalar(text: str) -> Scalar:
    """Parse scalar text like ``5``, ``-1/3``, ``(1 - e)/2`` or ``e^2/(1+e)``.

    Returns a Fraction when the value is rational and an
    InfinitesimalScalar otherwise.
    """
    parser = _Parser(_tokenize(text))
    value = parser.sum()
    end = parser.peek()
    if end[0] != "end":
        raise ScalarParseError(f"unexpected trailing {end[1]!r}", end[2])
    if value.is_rational():
        return value.as_rational()
    return value


def _poly_text(coeffs) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            e = "e" if k == 1 else f"e^{k}"
            body = e if mag == 1 else f"{mag}*{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _is_bare(coeffs) -> bool:
    nonzero = [k for k, c in enumerate(coeffs) if c != 0]
    if len(nonzero) != 1:
        return False
    k = nonzero[0]
    c = coeffs[k]
    return c > 0 and (k == 0 or c == 1)


def format_scalar(x: Scalar) -> str:
    x = as_scalar(x)
    if isinstance(x, InfinitesimalScalar) and x.is_rational():
        x = x.as_rational()
    if isinstance(x, Fraction):
        return str(x)
    num_text = _poly_text(x.num)
    if x.den == _ONE:
        return num_text
    den_text = _poly_text(x.den)
    if not _is_bare(x.num):
        num_text = f"({num_text})"
    if not _is_bare(x.den):
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"
