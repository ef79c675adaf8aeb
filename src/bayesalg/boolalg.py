"""Finite Boolean algebras presented by their atoms.

A finite Boolean algebra is determined by a finite ordered set of atoms;
every element is a join of atoms and is represented here by one int, its
mask over the atom order (bit i set when the i-th atom is below it; 0 is
bottom, all ones is top). An atom's label is a plain name, or, for algebras
produced by the conditional-extension construction, the text ``(w,u)`` of
an ordered pair of atoms of the stage below. Labels appear only where text
enters (``element``, ``parse_element``) or leaves (iteration, ``str``).

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
    "bits",
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


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        """The join of the atoms with these labels."""
        mask = 0
        for a in atoms:
            index = self._atom_index.get(a)
            if index is None:
                raise ElementParseError(
                    f"unknown atom {a!r}; algebra has " + ", ".join(self.atoms))
            mask |= 1 << index
        return Element(self, mask)

    @property
    def bottom(self) -> "Element":
        return Element(self, 0)

    @property
    def top(self) -> "Element":
        return Element(self, self.size() - 1)

    def atom_element(self, atom: Atom) -> "Element":
        return self.element((atom,))

    def size(self) -> int:
        """Number of elements, 2 ** len(atoms)."""
        return 1 << len(self.atoms)

    def element_at(self, index: int) -> "Element":
        """The element whose mask is ``index``."""
        if not 0 <= index < self.size():
            raise ValueError(f"element index {index} out of range")
        return Element(self, index)

    def elements(self) -> Iterator["Element"]:
        for k in range(self.size()):
            yield Element(self, k)

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
    """An element of a fixed finite Boolean algebra, as a mask over its atoms.

    Supports & | ~ for meet, join and complement, - for relative
    complement, and <= for the lattice order.
    """

    __slots__ = ("algebra", "mask")

    def __init__(self, algebra: FiniteBooleanAlgebra, mask: int):
        self.algebra = algebra
        self.mask = mask

    @property
    def atoms(self) -> frozenset:
        """The labels of the atoms below this element."""
        return frozenset(self)

    def _check(self, other: "Element") -> int:
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {other!r}")
        if other.algebra is not self.algebra:
            self.algebra._require_own(other)
        return other.mask

    def __and__(self, other: "Element") -> "Element":
        return Element(self.algebra, self.mask & self._check(other))

    def __or__(self, other: "Element") -> "Element":
        return Element(self.algebra, self.mask | self._check(other))

    def __sub__(self, other: "Element") -> "Element":
        return Element(self.algebra, self.mask & ~self._check(other))

    def __invert__(self) -> "Element":
        return Element(self.algebra, (self.algebra.size() - 1) ^ self.mask)

    # >= and > are these two with the operands swapped
    def __le__(self, other: "Element") -> bool:
        return self.mask & ~self._check(other) == 0

    def __lt__(self, other: "Element") -> bool:
        return self <= other and self.mask != other.mask

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.mask == other.mask
                and (self.algebra is other.algebra or self.algebra == other.algebra))

    def __hash__(self) -> int:
        return hash(self.mask)

    # truth and membership fall back to these two
    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[Atom]:
        return map(self.algebra.atoms.__getitem__, bits(self.mask))

    def __str__(self) -> str:
        return format_element(self)

    __repr__ = __str__


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
    return algebra.element(part.strip() for part in _split_top_level(inner))
