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
import weakref
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


# (class, *fields) -> the one live node with them
_INTERNED: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def _intern(cls, *fields) -> "_Node":
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "depth", max(
        (f.depth + 1 for f in fields if isinstance(f, _Node)), default=0))
    _INTERNED[(cls, *fields)] = node
    return node


class _Node:
    """An immutable formula node, interned: a constructor returns the one
    live node with its class and fields, so ``==`` is identity and
    ``hash`` is the object's own. ``depth`` is the height of the tree."""

    __slots__ = ("depth", "__weakref__")

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # so copy and pickle give the interned node back
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return format_formula(self)


class Bot(_Node):
    """Falsum."""

    __slots__ = ()

    def __new__(cls):
        return _INTERNED.get((cls,)) or _intern(cls)


class Var(_Node):
    """Propositional variable."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _INTERNED.get((cls, name)) or _intern(cls, name)


class Impl(_Node):
    """Material implication."""

    __slots__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        return _INTERNED.get((cls, left, right)) or _intern(cls, left, right)


class Cond(_Node):
    """Conditional prefix: ``Cond(x, y)`` is ``[x]y``."""

    __slots__ = ("base", "body")

    def __new__(cls, base: "Formula", body: "Formula"):
        return _INTERNED.get((cls, base, body)) or _intern(cls, base, body)


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


# One scan: a name, an operator, a character no token starts with (\S) or
# the empty end token (\Z); _SYMBOLS holds every token text but a name.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\|\||<->|->|[|&~\[\]()]|\S|\Z")
_SYMBOLS = frozenset(["||", "<->", "->", "|", "&", "~", "[", "]", "(", ")", ""])

_CONSTANTS = {"T": TOP, "F": BOT}

# binary connective -> (binding level, level of its right operand, builder)
_BINARY = {
    "<->": (_IFF, _IFF + 1, iff),
    "->": (_IMPL, _IMPL, Impl),
    "|": (_OR, _OR + 1, disj),
    "&": (_AND, _AND + 1, conj),
}

# Bounds parser nesting and tree depth, so that every recursive walker over
# a parsed formula stays far inside Python's recursion limit.
_MAX_DEPTH = 200


class _Parser:
    """Precedence climbing over the token texts. Positions are found
    again only for an error message."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.index = 0
        # a catch-all token is one character that starts no name
        bad = [t for t in set(self.tokens) - _SYMBOLS
               if not (t.isascii() and t.isidentifier())]
        if bad:
            self.index = min(map(self.tokens.index, bad))
            self.fail(f"unexpected character {self.tokens[self.index]!r}")

    def fail(self, message: str):
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        raise FormulaParseError(message, starts[self.index])

    def accept(self, op: str) -> bool:
        if self.tokens[self.index] == op:
            self.index += 1
            return True
        return False

    def expect(self, op: str) -> None:
        if not self.accept(op):
            self.fail(f"expected {op!r}")

    def formula(self, level: int = _IFF, nesting: int = 0) -> Formula:
        """The longest formula whose binary connectives bind at ``level``
        or tighter."""
        result = self.unary(nesting)
        while True:
            binary = _BINARY.get(self.tokens[self.index])
            if binary is None or binary[0] < level:
                if result.depth > _MAX_DEPTH:
                    self.fail("formula nested too deeply")
                return result
            self.index += 1
            result = binary[2](result, self.formula(binary[1], nesting + 1))

    def unary(self, nesting: int) -> Formula:
        value = self.tokens[self.index]
        if value in _SYMBOLS and value not in ("~", "[", "("):
            self.fail("expected a formula")
        if nesting > _MAX_DEPTH:
            self.fail("formula nested too deeply")
        self.index += 1
        if value == "~":
            return neg(self.unary(nesting + 1))
        if value == "[":
            base = self.formula(nesting=nesting + 1)
            self.expect("]")
            return Cond(base, self.unary(nesting + 1))
        if value == "(":
            inner = self.formula(nesting=nesting + 1)
            self.expect(")")
            return inner
        return _CONSTANTS[value] if value in _CONSTANTS else Var(value)

    def end(self, result):
        """Return result when every token is used, else raise at the first
        one left over."""
        if self.tokens[self.index]:
            self.fail(f"unexpected {self.tokens[self.index]!r}")
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
