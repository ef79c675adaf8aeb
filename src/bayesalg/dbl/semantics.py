"""Evaluation of formulas and sequents over conditioning towers.

A valuation assigns an element of a tower's current top algebra to each
propositional variable.  Implication is evaluated pointwise; the
conditional prefix ``[x]y`` extends the tower, so each operand is lifted
through the stage embeddings from the top it was computed at to the top
its partner left.

A sequent holds under a valuation when at least one of its members
evaluates to the top element.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable

from ..bayes import Tower
from ..boolalg import Element, FiniteBooleanAlgebra
from .syntax import Bot, Formula, Impl, Sequent, Var

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
    the tower; each node's value is kept and lifted to the newest stage.
    """

    def __init__(self, tower: Tower, assignment: Dict[str, Element],
                 mode: str = "auto"):
        for name, value in assignment.items():
            if value.algebra != tower.top:
                raise ValueError(
                    f"assignment for {name!r} is not an element of the"
                    " tower's top algebra")
        self.tower = tower
        self.mode = mode
        self._base_stage = tower.top_index
        self.assignment = dict(assignment)
        # node -> (value, the top it was computed at); "fresh" builds anew
        self._memo = None if mode == "fresh" else {}

    def value(self, f: Formula) -> Element:
        """Evaluate f, returning an element of the (possibly new) top."""
        if self._memo is None:
            return self._evaluate(f)
        hit = self._memo.get(f)
        if hit is None:
            hit = self._memo[f] = (self._evaluate(f), self.tower.top_index)
        return self._lift(*hit)

    def _evaluate(self, f: Formula) -> Element:
        tower = self.tower
        if isinstance(f, Bot):
            return tower.algebra(tower.top_index).bottom
        if isinstance(f, Var):
            try:
                value = self.assignment[f.name]
            except KeyError:
                raise KeyError(f"no assignment for variable {f.name!r}")
            return self._lift(value, self._base_stage)
        # the left operand is pushed up past the stages the right one built
        if isinstance(f, Impl):
            left = self.value(f.left)
            stage = tower.top_index
            right = self.value(f.right)
            return ~self._lift(left, stage) | right
        base = self.value(f.base)
        stage = tower.top_index
        body = self.value(f.body)
        return tower.conditional(self._lift(base, stage), body, mode=self.mode)[0]

    def _lift(self, x: Element, stage: int) -> Element:
        """x, computed when ``stage`` was the top, at the current top; no
        push while the tower has not grown since."""
        top = self.tower.top_index
        return x if stage == top else self.tower.push(x, stage, top)

    def satisfies(self, s: Sequent) -> bool:
        """True when some member of s evaluates to top."""
        for f in s:
            value = self.value(f)
            if value == value.algebra.top:
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
