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
_IFF, _IMPL, _OR, _AND, _UNARY = 1, 2, 3, 4, 5


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


# One scan; the catch-all \S group is a character no token starts with.
_TOKEN = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\|\||<->|->|[|&~\[\]()])"
    r"|(?P<bad>\S)"
)

_CONSTANTS = {"T": TOP, "F": BOT}

# binary connective -> (binding level, level of its right operand, builder)
_BINARY = {
    "<->": (_IFF, _IFF + 1, iff),
    "->": (_IMPL, _IMPL, Impl),
    "|": (_OR, _OR + 1, disj),
    "&": (_AND, _AND + 1, conj),
}


def _tokenize(text: str) -> "list[tuple[str, str, int]]":
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise FormulaParseError(f"unexpected character {m.group()!r}",
                                    m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Precedence climbing over the token list; names and the end token
    never spell an operator, so operators are matched by text alone."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def accept(self, op: str) -> bool:
        if self.tokens[self.index][1] == op:
            self.index += 1
            return True
        return False

    def expect(self, op: str) -> None:
        if not self.accept(op):
            raise FormulaParseError(f"expected {op!r}", self.tokens[self.index][2])

    def formula(self, level: int = _IFF) -> Formula:
        """The longest formula whose binary connectives bind at ``level``
        or tighter."""
        result = self.unary()
        while True:
            binary = _BINARY.get(self.tokens[self.index][1])
            if binary is None or binary[0] < level:
                return result
            self.index += 1
            result = binary[2](result, self.formula(binary[1]))

    def unary(self) -> Formula:
        kind, value, pos = self.tokens[self.index]
        self.index += 1
        if kind == "name":
            return _CONSTANTS[value] if value in _CONSTANTS else Var(value)
        if value == "~":
            return neg(self.unary())
        if value == "[":
            base = self.formula()
            self.expect("]")
            return Cond(base, self.unary())
        if value == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        raise FormulaParseError("expected a formula", pos)

    def end(self, result):
        """Return result when every token is used, else raise at the first
        one left over."""
        kind, value, pos = self.tokens[self.index]
        if kind != "end":
            raise FormulaParseError(f"unexpected {value!r}", pos)
        return result


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    return parser.end(parser.formula())


def parse_sequent(text: str) -> Sequent:
    parser = _Parser(text)
    parts = [parser.formula()]
    while parser.accept("||"):
        parts.append(parser.formula())
    return parser.end(tuple(parts))
