"""Towers of Boolean algebras with conditionals as first-class elements.

Starting from a finite base algebra, each extension step adjoins the
conditionals [b]y for one conditioning event b. The extended algebra's
atoms are ordered pairs (w, u) of lower atoms lying on opposite sides of
b, each named by its label ``(w,u)`` (``Step.pairs`` keeps the components);
the lower algebra embeds by sending an atom to the set of pairs whose first
component it is, and swapping pair components is an automorphism t that
exchanges the embedded copies of b and its complement. The conditional is
then

    [b]y  =  z | t(z)   where  z = psi(y) & psi(b),

an element strictly outside the embedded copy of the lower algebra
whenever b is nontrivial.

When b (up to embedding) or its complement has been conditioned on
before, not every pair is kept: writing beta(a) for the atom of the
earlier conditioning stage whose embedded image contains a, the pair
(w, u) survives exactly when beta(u) is the t-partner of beta(w). This
keeps repeated conditioning consistent; in particular conditioning twice
in a row on the same event adds no new atoms at all (the step is an atom
bijection). A first conditioning keeps every pair, so the step grows the
atom count to 2*m*m' where m and m' count the atoms inside and outside b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .boolalg import Element, FiniteBooleanAlgebra

__all__ = [
    "Tower",
    "Step",
    "TowerGrowthError",
    "TrivialEventError",
    "cantor_pair",
    "cantor_unpair",
    "check_bayes_axioms",
]


class TowerGrowthError(RuntimeError):
    """Raised when an extension would exceed the configured atom budget."""


class TrivialEventError(ValueError):
    """Raised when asked to extend by bottom or top, which adjoins nothing."""


def cantor_pair(i: int, j: int) -> int:
    """Bijection N x N -> N: (i + j)(i + j + 1)/2 + i."""
    if i < 0 or j < 0:
        raise ValueError("pairing is defined on nonnegative integers")
    s = i + j
    return s * (s + 1) // 2 + i


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("pairing is defined on nonnegative integers")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    i = n - w * (w + 1) // 2
    return i, w - i


@dataclass
class Step:
    """How stage ``index`` arises from stage ``index - 1``."""

    index: int
    base: Element  # element of the lower stage that was conditioned on
    algebra: FiniteBooleanAlgebra
    pairs: tuple  # the lower atoms (w, u) of each upper atom, in atom order
    psi: dict  # lower atom -> frozenset of upper atoms (its embedded image)
    t: dict  # pair-swap permutation on upper atoms
    prior_step: Optional[int] = None  # step whose conditioning this repeats
    prior_negated: bool = False


class Tower:
    """A base algebra plus a sequence of conditional extension steps.

    Stages are numbered from 0 (the base). ``fork()`` gives an independent
    tower sharing the already-built stages, so speculative extensions do
    not pile up on the original.
    """

    def __init__(self, base: FiniteBooleanAlgebra, max_atoms: int = 4096):
        self.base = base
        self.max_atoms = max_atoms
        self.steps: list[Step] = []
        self._fibers: dict = {}  # (i, j) -> {atom_i: frozenset of atoms_j}

    # --- shape ----------------------------------------------------------

    @property
    def top_index(self) -> int:
        return len(self.steps)

    def algebra(self, stage: int) -> FiniteBooleanAlgebra:
        if stage == 0:
            return self.base
        return self.steps[stage - 1].algebra

    @property
    def top(self) -> FiniteBooleanAlgebra:
        return self.algebra(self.top_index)

    def step(self, stage: int) -> Step:
        """The step that created ``stage`` (stage >= 1)."""
        return self.steps[stage - 1]

    def fork(self) -> "Tower":
        twin = Tower(self.base, self.max_atoms)
        twin.steps = list(self.steps)
        twin._fibers = dict(self._fibers)
        return twin

    # --- embeddings -------------------------------------------------------

    def fiber_map(self, low: int, high: int) -> dict:
        """Atom of stage ``low`` -> frozenset of stage ``high`` atoms above it."""
        if not 0 <= low <= high <= self.top_index:
            raise ValueError(f"bad stage span {low}..{high}")
        if low == high:
            return {a: frozenset((a,)) for a in self.algebra(low).atoms}
        key = (low, high)
        cached = self._fibers.get(key)
        if cached is not None:
            return cached
        below = self.fiber_map(low, high - 1)
        lift = self.steps[high - 1].psi
        out = {
            a: frozenset(top for mid in mids for top in lift[mid])
            for a, mids in below.items()
        }
        self._fibers[key] = out
        return out

    def push(self, x: Element, low: int, high: int) -> Element:
        """Embed an element of stage ``low`` into stage ``high``."""
        if low == high:
            if not 0 <= low <= self.top_index:
                raise ValueError(f"bad stage span {low}..{high}")
            self.algebra(low)._require_own(x)
            return x
        fibers = self.fiber_map(low, high)
        return self.algebra(high).element(
            a for atom in x.atoms for a in fibers[atom]
        )

    def pull(self, x: Element, high: int, low: int) -> Optional[Element]:
        """Preimage under the embedding, or None if x is not in its range."""
        fibers = self.fiber_map(low, high)
        kept = [a for a, fib in fibers.items() if fib <= x.atoms]
        if sum(len(fibers[a]) for a in kept) != len(x.atoms):
            return None
        return self.algebra(low).element(kept)

    def transpose(self, stage: int, x: Element) -> Element:
        t = self.steps[stage - 1].t
        return self.algebra(stage).element(t[a] for a in x.atoms)

    def mirror_closure(self, stage: int, x: Element) -> Element:
        """x | t(x) at the given stage."""
        return x | self.transpose(stage, x)

    # --- extension --------------------------------------------------------

    def latest_matching_step(self, b: Element) -> Optional[tuple[int, bool]]:
        """Most recent step whose base embeds to b or its complement.

        Returns (stage index, negated flag) or None. b must be an element
        of the current top algebra.
        """
        top = self.top_index
        comp = ~b
        for idx in range(top, 0, -1):
            image = self.push(self.steps[idx - 1].base, idx - 1, top)
            if image == b:
                return idx, False
            if image == comp:
                return idx, True
        return None

    def _partner_blocks(self, b: Element, prior: Optional[tuple[int, bool]]) -> dict:
        """For each top atom, the set of allowed second components.

        ``prior`` is ``latest_matching_step(b)``.
        """
        top = self.top_index
        algebra = self.top
        inside = b.atoms
        outside = frozenset(algebra.atoms) - inside
        if prior is None:
            return {a: (outside if a in inside else inside) for a in algebra.atoms}
        k, _ = prior
        fibers = self.fiber_map(k, top)
        beta = {a: low for low, fib in fibers.items() for a in fib}
        t_k = self.steps[k - 1].t
        blocks = {}
        for a in algebra.atoms:
            partner = fibers[t_k[beta[a]]]
            # the swap moves across the conditioning event, so partner
            # fibers sit on the other side of b automatically
            assert partner <= (outside if a in inside else inside)
            blocks[a] = partner
        return blocks

    def extend(self, b: Element) -> int:
        """Adjoin the conditionals for event b; returns the new stage index.

        b must be an element of the top algebra, strictly between bottom
        and top.
        """
        algebra = self.top
        algebra._require_own(b)
        if not b.atoms or b.atoms == frozenset(algebra.atoms):
            raise TrivialEventError("conditioning event must be nontrivial")
        prior = self.latest_matching_step(b)
        blocks = self._partner_blocks(b, prior)
        count = sum(len(v) for v in blocks.values())
        if count > self.max_atoms:
            raise TowerGrowthError(
                f"extension needs {count} atoms, budget is {self.max_atoms}"
            )
        order = algebra._atom_index
        pairs = tuple((w, u) for w in algebra.atoms
                      for u in sorted(blocks[w], key=order.__getitem__))
        labels = [f"({w},{u})" for w, u in pairs]
        upper = FiniteBooleanAlgebra(labels)
        psi = {w: frozenset(f"({w},{u})" for u in blocks[w]) for w in algebra.atoms}
        t = {label: f"({u},{w})" for label, (w, u) in zip(labels, pairs)}
        assert all(v in upper._atom_index for v in t.values())
        step = Step(
            index=self.top_index + 1,
            base=b,
            algebra=upper,
            pairs=pairs,
            psi=psi,
            t=t,
            prior_step=prior[0] if prior else None,
            prior_negated=prior[1] if prior else False,
        )
        self.steps.append(step)
        # the swap exchanges the embedded event and its complement
        image = self.push(b, step.index - 1, step.index)
        assert self.transpose(step.index, image) == ~image
        return step.index

    # --- conditionals -------------------------------------------------------

    def conditional(self, x: Element, y: Element, mode: str = "auto") -> tuple[Element, int]:
        """The element [x]y, together with the stage it lives in.

        x and y are elements of the top algebra. Conditioning on bottom or
        top returns y unchanged. Otherwise, if x repeats an earlier
        conditioning and y comes from that earlier stage, the answer
        already exists below and is read off without growing the tower
        (mode "auto" or "shortcut"); in the remaining cases the tower is
        extended by x first (mode "auto" or "fresh").
        """
        algebra = self.top
        algebra._require_own(x)
        algebra._require_own(y)
        if mode not in ("auto", "fresh", "shortcut"):
            raise ValueError(f"unknown mode {mode!r}")
        if not x.atoms or x.atoms == frozenset(algebra.atoms):
            return y, self.top_index
        if mode != "fresh":
            found = self._shortcut(self.latest_matching_step(x), y)
            if found is not None:
                return found, self.top_index
            if mode == "shortcut":
                raise ValueError("no earlier stage answers this conditional")
        new = self.extend(x)
        lifted = self.push(y, new - 1, new) & self.push(x, new - 1, new)
        return self.mirror_closure(new, lifted), new

    def _shortcut(
        self, prior: Optional[tuple[int, bool]], y: Element
    ) -> Optional[Element]:
        """[x]y read off the earlier stage, or None when no stage answers it.

        ``prior`` is ``latest_matching_step(x)``.
        """
        if prior is None:
            return None
        k, negated = prior
        y_low = self.pull(y, self.top_index, k)
        if y_low is None:
            return None
        step = self.steps[k - 1]
        x_low = self.push(step.base, k - 1, k)
        if negated:
            x_low = ~x_low
        z = y_low & x_low
        return self.push(self.mirror_closure(k, z), k, self.top_index)

    # --- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        steps = [
            {
                "kind": "extend",
                "atom_count": len(step.algebra.atoms),
                "base": list(step.base),
            }
            for step in self.steps
        ]
        return {
            "atoms": list(self.base.atoms),
            "max_atoms": self.max_atoms,
            "steps": steps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tower":
        algebra = FiniteBooleanAlgebra.from_json(data)
        max_atoms = data.get("max_atoms", 4096)
        if type(max_atoms) is not int or max_atoms < 1:
            raise ValueError(
                f"\"max_atoms\" must be a positive integer, got {max_atoms!r}")
        steps = data.get("steps", [])
        if not isinstance(steps, list):
            raise ValueError(f"\"steps\" must be a list, got {steps!r}")
        tower = cls(algebra, max_atoms=max_atoms)
        for entry in steps:
            if entry["kind"] != "extend":
                raise ValueError(f"unknown step kind {entry['kind']!r}")
            tower.extend(_labelled_element(tower.top, entry["base"]))
            recorded = entry.get("atom_count")
            actual = len(tower.top.atoms)
            if recorded is not None and recorded != actual:
                raise ValueError(
                    f"stage {tower.top_index} rebuilt with {actual} atoms, "
                    f"file says {recorded}"
                )
        return tower

    def describe(self) -> str:
        lines = [f"stage 0: {len(self.base.atoms)} atoms"]
        for step in self.steps:
            tag = ""
            if step.prior_step is not None:
                side = "complement of " if step.prior_negated else ""
                tag = f" (repeats {side}stage {step.prior_step})"
            lines.append(
                f"stage {step.index}: conditioned on {step.base}, "
                f"{len(step.algebra.atoms)} atoms{tag}"
            )
        return "\n".join(lines)


def _labelled_element(algebra: FiniteBooleanAlgebra, labels) -> Element:
    """The element whose atoms carry these labels, each matched on its own."""
    if not (isinstance(labels, list)
            and all(isinstance(label, str) for label in labels)):
        raise ValueError(f"a step base must be a list of atom labels, got {labels!r}")
    for label in labels:
        if label not in algebra._atom_index:
            raise ValueError(f"unknown atom {label!r} in a step base")
    return algebra.element(labels)


# --- law checking ----------------------------------------------------------


def _conditional_atom_images(tower: Tower, x: Element) -> tuple["Tower", int, dict]:
    """Fork, extend by x, and map each atom a to [x]{a} in the new stage."""
    fork = tower.fork()
    new = fork.extend(x)
    algebra = tower.top
    lift_x = fork.push(x, new - 1, new)
    images = {}
    for a in algebra.atoms:
        lifted = fork.push(algebra.atom_element(a), new - 1, new)
        images[a] = fork.mirror_closure(new, lifted & lift_x)
    return fork, new, images


_EXHAUSTIVE_ATOM_LIMIT = 8  # atoms up to which check_bayes_axioms tries every x


def check_bayes_axioms(
    tower: Tower,
    xs: Optional[list[Element]] = None,
    sample_elements: int = 32,
    seed: int = 0,
) -> list[str]:
    """Verify the conditional-extension laws over a tower's top algebra.

    For every nontrivial event x (or the given xs) the conditional map
    f(y) = [x]y into the x-extension is checked to be

      * a Boolean homomorphism that embeds the interval below x
        isomorphically (checked structurally: the atom images partition
        the new top and no atom below x collapses),
      * the identity on x in the sense x & [x]y == x & y,
      * degenerate above x: x <= y implies [x]y == top,
      * introspective: conditioning the result on x again, or on the
        complement of x, changes nothing.

    f(y) is the union of the images of y's atoms, and the embeddings, the
    meet with a fixed element and the swap closure that build either side
    of the last two laws all preserve joins and bottom; so two sides that
    agree on every atom agree on every y, and those laws are checked per
    atom, which settles every y exactly. Degeneracy follows from [x]x ==
    top, since f is monotone.

    Algebras of at most eight atoms are checked for every x; larger ones
    for ``sample_elements`` xs drawn with ``seed``, the same sample in
    every process. Returns a list of human-readable violations, empty when
    every law holds.
    """
    import random

    algebra = tower.top
    if xs is None:
        if len(algebra.atoms) <= _EXHAUSTIVE_ATOM_LIMIT:
            xs = [algebra.element_at(k) for k in range(1, algebra.size() - 1)]
        else:
            rng = random.Random(seed)
            xs = [algebra.element_at(rng.randrange(1, algebra.size() - 1))
                  for _ in range(sample_elements)]

    violations = []
    for x in xs:
        if not x.atoms or x.atoms == frozenset(algebra.atoms):
            continue
        fork, new, images = _conditional_atom_images(tower, x)
        upper = fork.algebra(new)

        # homomorphism: atom images tile the extension...
        tiles = [images[a] for a in algebra.atoms if images[a]]
        union = frozenset().union(*(im.atoms for im in tiles)) if tiles else frozenset()
        overlap = sum(len(im.atoms) for im in tiles) != len(union)
        if overlap or union != frozenset(upper.atoms):
            violations.append(f"atom images of [{x}]- do not partition the extension")
        # ...and nothing below x collapses
        for a in x.atoms:
            if not images[a]:
                violations.append(f"[{x}]- collapses atom {a}")
        # degenerate above x: [x]x is top
        if frozenset().union(*(images[a].atoms for a in x.atoms)) != upper.top.atoms:
            violations.append(f"[x]y != top although x <= y, x={x}, y={x}")
        lift_x = fork.push(x, new - 1, new)
        for a in algebra.atoms:
            y = algebra.atom_element(a)
            if lift_x & images[a] != lift_x & fork.push(y, new - 1, new):
                violations.append(f"x & [x]y != x & y for x={x}, y={y}")
        # conditioning the conditional on x (or on ~x) is idempotent
        for again, label in ((lift_x, "x"), (~lift_x, "~x")):
            refork = fork.fork()
            deeper = refork.extend(again)
            lift_again = refork.push(again, new, deeper)
            for a in algebra.atoms:
                value = refork.push(images[a], new, deeper)
                if refork.mirror_closure(deeper, value & lift_again) != value:
                    violations.append(
                        f"[{label}][x]y != [x]y for x={x},"
                        f" y={algebra.atom_element(a)}"
                    )
                    break
    return violations
