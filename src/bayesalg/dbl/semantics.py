"""Evaluation of formulas and sequents over conditioning towers.

A valuation assigns an element of a tower's current top algebra to each
propositional variable.  Implication is evaluated pointwise; the
conditional prefix ``[x]y`` extends the tower, so evaluation threads a
stage number alongside each intermediate value and lifts older values
forward through the stage embeddings as the tower grows.

A sequent holds under a valuation when at least one of its members
evaluates to the top element.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple

from ..bayes import Tower
from ..boolalg import Element, FiniteBooleanAlgebra
from .syntax import (
    Bot,
    Cond,
    Formula,
    Impl,
    Sequent,
    Var,
    atom_names,
    format_formula,
)

__all__ = [
    "Valuation",
    "evaluate",
    "holds",
    "random_valuation",
]


class Valuation:
    """Variable assignment over a tower, evaluated lazily.

    The assignment maps variable names to elements of the algebra at
    ``tower.top_index`` as of construction time.  Evaluation may extend
    the tower; values are lifted to the newest stage on demand.
    """

    def __init__(self, tower: Tower, assignment: Dict[str, Element],
                 mode: str = "auto"):
        top = tower.algebra(tower.top_index)
        for name, value in assignment.items():
            if value.algebra != top:
                raise ValueError(
                    f"assignment for {name!r} is not an element of the"
                    " tower's top algebra")
        self.tower = tower
        self.mode = mode
        self._base_stage = tower.top_index
        self.assignment = dict(assignment)

    def _eval(self, f: Formula) -> Tuple[Element, int]:
        tower = self.tower
        if isinstance(f, Bot):
            stage = tower.top_index
            return tower.algebra(stage).bottom, stage
        if isinstance(f, Var):
            try:
                value = self.assignment[f.name]
            except KeyError:
                raise KeyError(f"no assignment for variable {f.name!r}")
            return tower.push(value, self._base_stage, tower.top_index), \
                tower.top_index
        if isinstance(f, Impl):
            left, left_stage = self._eval(f.left)
            right, stage = self._eval(f.right)
            left = tower.push(left, left_stage, stage)
            return ~left | right, stage
        base, base_stage = self._eval(f.base)
        body, stage = self._eval(f.body)
        base = tower.push(base, base_stage, stage)
        return tower.conditional(base, body, mode=self.mode)

    def value(self, f: Formula) -> Element:
        """Evaluate f, returning an element of the (possibly new) top."""
        result, stage = self._eval(f)
        return self.tower.push(result, stage, self.tower.top_index)

    def satisfies(self, s: Sequent) -> bool:
        """True when some member of s evaluates to top."""
        for f in s:
            value, stage = self._eval(f)
            if value == self.tower.algebra(stage).top:
                return True
        return False


def evaluate(tower: Tower, assignment: Dict[str, Element], f: Formula,
             mode: str = "auto") -> Element:
    """Evaluate one formula; the tower may grow as a side effect."""
    return Valuation(tower, assignment, mode=mode).value(f)


def holds(tower: Tower, assignment: Dict[str, Element], s: Sequent,
          mode: str = "auto") -> bool:
    """True when some member of s evaluates to top.

    Evaluation runs on a fork, so the given tower is not modified.
    """
    fork = tower.fork()
    return Valuation(fork, assignment, mode=mode).satisfies(s)


def random_valuation(algebra: FiniteBooleanAlgebra, names: Iterable[str],
                     rng: random.Random) -> Dict[str, Element]:
    """Assign an independently uniform element to each name."""
    size = algebra.size()
    return {name: algebra.element_at(rng.randrange(size))
            for name in sorted(names)}
