"""Finite Boolean algebras presented by their atoms.

A finite Boolean algebra is determined by a finite ordered set of atoms;
every element is a join of atoms and is represented here as a frozenset of
them. An atom is its label string: a plain name, or, for algebras produced
by the conditional-extension construction, the text ``(w,u)`` of an ordered
pair of atoms of the stage below. The atom order fixes a bitmask
enumeration of elements (index 0 is bottom, all-ones is top).

The constructor checks names and trusts pair labels, which the tower builds
from checked atoms. Pair-label grammar is checked once, where text enters:
``from_names`` and ``from_json`` (algebra files, tower dumps) parse every
label with ``parse_atom_label``; element text, step bases and distribution
files must then match an algebra's atoms exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Atom = str

_NAME_FORBIDDEN = set("(){}, \t\n")

__all__ = [
    "Atom",
    "Element",
    "FiniteBooleanAlgebra",
    "parse_atom_label",
    "parse_element",
    "format_element",
    "ElementParseError",
]


class ElementParseError(ValueError):
    pass


def _check_atom(atom: Atom) -> Atom:
    """A name, or a pair label (one that starts with ``(``), unparsed."""
    if not isinstance(atom, str):
        raise ValueError(f"atoms must be label strings, got {atom!r}")
    if not atom or (atom[0] != "(" and any(c in _NAME_FORBIDDEN for c in atom)):
        raise ValueError(f"bad atom name {atom!r}")
    return atom


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ElementParseError(f"unbalanced ')' in {text!r}")
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ElementParseError(f"unbalanced '(' in {text!r}")
    parts.append(text[start:])
    return parts


def parse_atom_label(text: str) -> Atom:
    """The atom that label text names, in canonical form (no spaces)."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ElementParseError(f"unbalanced pair label {text!r}")
        halves = _split_top_level(text[1:-1])
        if len(halves) != 2:
            raise ElementParseError(f"pair label needs two components: {text!r}")
        return f"({parse_atom_label(halves[0])},{parse_atom_label(halves[1])})"
    if not text or any(c in _NAME_FORBIDDEN for c in text):
        raise ElementParseError(f"bad atom name {text!r}")
    return text


class FiniteBooleanAlgebra:
    """Ordered atom set plus element constructors and enumeration."""

    __slots__ = ("atoms", "_atom_index")

    def __init__(self, atoms: Iterable[Atom]):
        atoms = tuple(_check_atom(a) for a in atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError("duplicate atoms")
        if not atoms:
            raise ValueError("an algebra needs at least one atom")
        self.atoms = atoms
        self._atom_index = {a: i for i, a in enumerate(atoms)}

    @classmethod
    def from_names(cls, names: str) -> "FiniteBooleanAlgebra":
        """Build from comma-separated atom names, e.g. ``"a,c,d"``."""
        return cls(parse_atom_label(part) for part in _split_top_level(names))

    def element(self, atoms: Iterable[Atom] = ()) -> "Element":
        atom_set = frozenset(atoms)
        for a in atom_set:
            if a not in self._atom_index:
                raise ValueError(f"atom {a!r} is not in this algebra")
        return Element(self, atom_set)

    @property
    def bottom(self) -> "Element":
        return Element(self, frozenset())

    @property
    def top(self) -> "Element":
        return Element(self, frozenset(self.atoms))

    def atom_element(self, atom: Atom) -> "Element":
        return self.element((atom,))

    def size(self) -> int:
        """Number of elements, 2 ** len(atoms)."""
        return 1 << len(self.atoms)

    def element_at(self, index: int) -> "Element":
        """Element whose atom set is the bitmask ``index`` over the atom order."""
        if not 0 <= index < self.size():
            raise ValueError(f"element index {index} out of range")
        return Element(
            self,
            frozenset(a for i, a in enumerate(self.atoms) if index >> i & 1),
        )

    def index_of(self, x: "Element") -> int:
        self._require_own(x)
        return sum(1 << self._atom_index[a] for a in x.atoms)

    def elements(self) -> Iterator["Element"]:
        for k in range(self.size()):
            yield self.element_at(k)

    def _require_own(self, x: "Element"):
        if x.algebra is not self and x.algebra.atoms != self.atoms:
            raise ValueError("element belongs to a different algebra")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteBooleanAlgebra) and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"FiniteBooleanAlgebra({len(self.atoms)} atoms)"

    def to_json(self) -> dict:
        return {"atoms": list(self.atoms)}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteBooleanAlgebra":
        labels = data["atoms"]
        if not (isinstance(labels, list)
                and all(isinstance(label, str) for label in labels)):
            raise ValueError(f"\"atoms\" must be a list of atom labels, got {labels!r}")
        return cls(parse_atom_label(label) for label in labels)


class Element:
    """An element of a fixed finite Boolean algebra, as a set of atoms.

    Supports & | ~ for meet, join and complement, - for relative
    complement, and <= for the lattice order.
    """

    __slots__ = ("algebra", "atoms")

    def __init__(self, algebra: FiniteBooleanAlgebra, atoms: frozenset):
        self.algebra = algebra
        self.atoms = atoms

    def _check(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {other!r}")
        if other.algebra is not self.algebra and other.algebra.atoms != self.algebra.atoms:
            raise ValueError("elements of different algebras")
        return other

    def __and__(self, other: "Element") -> "Element":
        return Element(self.algebra, self.atoms & self._check(other).atoms)

    def __or__(self, other: "Element") -> "Element":
        return Element(self.algebra, self.atoms | self._check(other).atoms)

    def __sub__(self, other: "Element") -> "Element":
        return Element(self.algebra, self.atoms - self._check(other).atoms)

    def __invert__(self) -> "Element":
        return Element(self.algebra, frozenset(self.algebra.atoms) - self.atoms)

    def __le__(self, other: "Element") -> bool:
        return self.atoms <= self._check(other).atoms

    def __lt__(self, other: "Element") -> bool:
        return self.atoms < self._check(other).atoms

    def __ge__(self, other: "Element") -> bool:
        return self.atoms >= self._check(other).atoms

    def __gt__(self, other: "Element") -> bool:
        return self.atoms > self._check(other).atoms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra.atoms == other.algebra.atoms
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __bool__(self) -> bool:
        return bool(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        order = self.algebra._atom_index
        return iter(sorted(self.atoms, key=order.__getitem__))

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return format_element(self)


def format_element(x: Element) -> str:
    return "{" + ",".join(x) + "}"


def parse_element(algebra: FiniteBooleanAlgebra, text: str) -> Element:
    """Parse ``{a,c}`` style element text against an algebra's atoms."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ElementParseError(f"element text must be brace-delimited: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return algebra.bottom
    atoms = [part.strip() for part in _split_top_level(inner)]
    for atom in atoms:
        if atom not in algebra._atom_index:
            raise ElementParseError(
                f"unknown atom {atom!r}; algebra has " + ", ".join(algebra.atoms)
            )
    return algebra.element(atoms)
