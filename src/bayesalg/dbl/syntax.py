"""Formula and sequent syntax for the conditional logic.

Core connectives are falsum, implication, and the conditional prefix
``[X]Y``.  Negation, disjunction, conjunction, truth, and equivalence
are derived forms:

    ~X      = X -> F
    X | Y   = ~X -> Y
    X & Y   = ~(~X | ~Y)
    T       = ~F
    X <-> Y = (X -> Y) & (Y -> X)

A sequent ``X1 || X2 || ... || Xn`` is a tuple of formulas read as a
meta-level disjunction of claims: it holds under a valuation when at
least one member evaluates to the top element.

Concrete grammar, loosest to tightest binding:

    sequent : formula ("||" formula)*
    formula : iff
    iff     : impl ("<->" impl)*          left associative
    impl    : or ("->" impl)?             right associative
    or      : and ("|" and)*              left associative
    and     : unary ("&" unary)*          left associative
    unary   : "~" unary | "[" formula "]" unary | primary
    primary : "T" | "F" | name | "(" formula ")"

Names are identifiers; ``T`` and ``F`` are reserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

__all__ = [
    "BOT",
    "Bot",
    "Cond",
    "Formula",
    "FormulaParseError",
    "Impl",
    "Sequent",
    "TOP",
    "Var",
    "as_conj",
    "as_disj",
    "as_iff",
    "as_neg",
    "atom_names",
    "conj",
    "disj",
    "format_formula",
    "format_sequent",
    "iff",
    "is_top",
    "neg",
    "parse_formula",
    "parse_sequent",
    "subformulas",
]


@dataclass(frozen=True)
class Bot:
    """Falsum."""

    def __repr__(self) -> str:
        return "F"


@dataclass(frozen=True)
class Var:
    """Propositional variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Impl:
    """Material implication."""

    left: "Formula"
    right: "Formula"

    def __repr__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Cond:
    """Conditional prefix: ``Cond(x, y)`` is ``[x]y``."""

    base: "Formula"
    body: "Formula"

    def __repr__(self) -> str:
        return format_formula(self)


Formula = Union[Bot, Var, Impl, Cond]
Sequent = Tuple[Formula, ...]

BOT = Bot()


def neg(x: Formula) -> Formula:
    return Impl(x, BOT)


TOP = neg(BOT)


def disj(a: Formula, b: Formula) -> Formula:
    return Impl(neg(a), b)


def conj(a: Formula, b: Formula) -> Formula:
    return neg(disj(neg(a), neg(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Impl(a, b), Impl(b, a))


def as_neg(f: Formula) -> Optional[Formula]:
    """Return x when f is literally ~x, else None."""
    if isinstance(f, Impl) and f.right == BOT:
        return f.left
    return None


def is_top(f: Formula) -> bool:
    return f == TOP


def as_disj(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    """Return (a, b) when f is literally a | b, else None."""
    if isinstance(f, Impl):
        a = as_neg(f.left)
        if a is not None:
            return (a, f.right)
    return None


def as_conj(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    """Return (a, b) when f is literally a & b, else None."""
    inner = as_neg(f)
    if inner is None:
        return None
    parts = as_disj(inner)
    if parts is None:
        return None
    a = as_neg(parts[0])
    b = as_neg(parts[1])
    if a is None or b is None:
        return None
    return (a, b)


def as_iff(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    """Return (a, b) when f is literally a <-> b, else None."""
    parts = as_conj(f)
    if parts is None:
        return None
    fwd, bwd = parts
    if not (isinstance(fwd, Impl) and isinstance(bwd, Impl)):
        return None
    if fwd.left == bwd.right and fwd.right == bwd.left:
        return (fwd.left, fwd.right)
    return None


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield f and every subformula, parents before children."""
    yield f
    if isinstance(f, Impl):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Cond):
        yield from subformulas(f.base)
        yield from subformulas(f.body)


def atom_names(f: Formula) -> "set[str]":
    return {g.name for g in subformulas(f) if isinstance(g, Var)}


# Precedence levels, loosest to tightest.
_IFF, _IMPL, _OR, _AND, _UNARY, _PRIMARY = 1, 2, 3, 4, 5, 6


def _render(f: Formula, context: int) -> str:
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Cond):
        return "[" + _render(f.base, _IFF) + "]" + _render(f.body, _UNARY)
    if is_top(f):
        return "T"
    pair = as_iff(f)
    if pair is not None:
        text = _render(pair[0], _IFF + 1) + " <-> " + _render(pair[1], _IFF + 1)
        return "(" + text + ")" if context > _IFF else text
    pair = as_conj(f)
    if pair is not None:
        text = _render(pair[0], _AND) + " & " + _render(pair[1], _AND + 1)
        return "(" + text + ")" if context > _AND else text
    sub = as_neg(f)
    if sub is not None:
        return "~" + _render(sub, _UNARY)
    pair = as_disj(f)
    if pair is not None:
        text = _render(pair[0], _OR) + " | " + _render(pair[1], _OR + 1)
        return "(" + text + ")" if context > _OR else text
    text = _render(f.left, _IMPL + 1) + " -> " + _render(f.right, _IMPL)
    return "(" + text + ")" if context > _IMPL else text


def format_formula(f: Formula) -> str:
    """Render with derived forms folded back in and minimal parentheses."""
    return _render(f, _IFF)


def _is_bare_disjunction(f: Formula) -> bool:
    return (not is_top(f) and as_iff(f) is None and as_conj(f) is None
            and as_neg(f) is None and as_disj(f) is not None)


def format_sequent(s: Sequent) -> str:
    """Members joined by ``||``; a member that would render as a bare
    disjunction is parenthesized so ``|`` and ``||`` stay visually apart."""
    if len(s) == 1:
        return format_formula(s[0])
    return " || ".join(
        "(" + format_formula(f) + ")" if _is_bare_disjunction(f)
        else format_formula(f)
        for f in s)


class FormulaParseError(ValueError):
    """Raised on malformed formula or sequent text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\|\||<->|->|[|&~\[\]()]))"
)

_RESERVED = {"T", "F"}


def _tokenize(text: str) -> "list[tuple[str, str, int]]":
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise FormulaParseError(f"unexpected character {rest[0]!r}", at)
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> "tuple[str, str, int]":
        return self.tokens[self.index]

    def take(self) -> "tuple[str, str, int]":
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise FormulaParseError(f"expected {op!r}", pos)
        self.take()

    def at_op(self, op: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value == op

    def formula(self) -> Formula:
        result = self.impl()
        while self.at_op("<->"):
            self.take()
            result = iff(result, self.impl())
        return result

    def impl(self) -> Formula:
        left = self.disjunction()
        if self.at_op("->"):
            self.take()
            return Impl(left, self.impl())
        return left

    def disjunction(self) -> Formula:
        result = self.conjunction()
        while self.at_op("|"):
            self.take()
            result = disj(result, self.conjunction())
        return result

    def conjunction(self) -> Formula:
        result = self.unary()
        while self.at_op("&"):
            self.take()
            result = conj(result, self.unary())
        return result

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "op" and value == "~":
            self.take()
            return neg(self.unary())
        if kind == "op" and value == "[":
            self.take()
            base = self.formula()
            self.expect("]")
            return Cond(base, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "name":
            if value == "T":
                return TOP
            if value == "F":
                return BOT
            return Var(value)
        if kind == "op" and value == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        raise FormulaParseError("expected a formula", pos)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    result = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise FormulaParseError(f"unexpected {value!r}", pos)
    return result


def parse_sequent(text: str) -> Sequent:
    parser = _Parser(text)
    parts = [parser.formula()]
    while parser.at_op("||"):
        parser.take()
        parts.append(parser.formula())
    kind, value, pos = parser.peek()
    if kind != "end":
        raise FormulaParseError(f"unexpected {value!r}", pos)
    return tuple(parts)
