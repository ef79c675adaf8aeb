"""Randomized counterexample search for sequents.

A sequent is checked against sampled valuations over towers built from
small base algebras.  Finding an assignment under which no member
evaluates to top refutes validity; exhausting the samples is evidence
(not proof) that the sequent is valid.  The searcher never claims
validity positively.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional

from ..bayes import Tower
from ..boolalg import FiniteBooleanAlgebra
from .semantics import Valuation, holds, random_valuation
from .syntax import Sequent, atom_names

__all__ = ["Counterexample", "default_bases", "search_counterexample"]


def default_bases() -> List[FiniteBooleanAlgebra]:
    """Base algebras enumerated by the search: 2 and 3 atoms."""
    return [
        FiniteBooleanAlgebra.from_names("a,b"),
        FiniteBooleanAlgebra.from_names("a,b,c"),
        FiniteBooleanAlgebra.from_names("a,c,d"),
    ]


class Counterexample(NamedTuple):
    tower: Tower
    valuation: Valuation

    def describe(self) -> Dict[str, object]:
        return {
            "atoms": [str(a) for a in self.tower.base.atoms],
            "assignment": {
                name: str(value)
                for name, value in sorted(self.valuation.assignment.items())
            },
        }


def search_counterexample(sequent: Sequent,
                          algebras: Optional[List[FiniteBooleanAlgebra]] = None,
                          samples: int = 40,
                          seed: int = 0,
                          max_atoms: int = 4096,
                          mode: str = "auto") -> Optional[Counterexample]:
    """Refuting valuation for the sequent, or None if none is found.

    ``samples`` counts valuations per base algebra.  A valuation drawn
    again after it held is not evaluated again; the draws, and so the
    result, are the same as if it were.  A returned counterexample is
    certified: holds() is false for its assignment on a pristine copy
    of its tower.
    """
    if algebras is None:
        algebras = default_bases()
    names: set = set()
    for f in sequent:
        names |= atom_names(f)
    rng = random.Random(seed)
    for algebra in algebras:
        passed: set = set()
        for _ in range(samples):
            assignment = random_valuation(algebra, names, rng)
            key = frozenset(assignment.items())
            if key in passed:
                continue
            tower = Tower(algebra, max_atoms=max_atoms)
            if holds(tower, assignment, sequent, mode=mode):
                passed.add(key)
                continue
            # certify on an untouched twin before reporting
            twin = Tower(algebra, max_atoms=max_atoms)
            if not holds(twin, assignment, sequent, mode=mode):
                return Counterexample(twin, Valuation(twin, assignment,
                                                      mode=mode))
    return None
