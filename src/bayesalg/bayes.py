"""Towers of Boolean algebras with conditionals as first-class elements.

Starting from a finite base algebra, each extension step adjoins the
conditionals [b]y for one conditioning event b. The extended algebra's
atoms are ordered pairs (w, u) of lower atoms lying on opposite sides of
b, each named by its label ``(w,u)`` (``Step.pairs`` keeps their indices);
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
from itertools import accumulate
from typing import Optional

from .boolalg import Element, FiniteBooleanAlgebra, bits

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


def _join(lifts: tuple, mask: int) -> int:
    """The OR of lifts[i] over the set bits i of mask."""
    out = 0
    for i in bits(mask):
        out |= lifts[i]
    return out


@dataclass
class Step:
    """How stage ``index`` arises from stage ``index - 1``."""

    index: int
    base: Element  # element of the lower stage that was conditioned on
    algebra: FiniteBooleanAlgebra
    pairs: tuple  # the lower atom indices (w, u) of each upper atom, in atom order
    psi: tuple  # per lower atom index, the mask of its embedded image
    t: tuple  # the pair swap: upper atom index -> index of its swapped pair
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
        self._fibers: dict = {}  # (i, j) -> per stage-i atom, the stage-j mask above it

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

    def _lifts(self, low: int, high: int) -> tuple:
        """Per stage ``low`` atom, the mask of the stage ``high`` atoms above it."""
        if not 0 <= low <= high <= self.top_index:
            raise ValueError(f"bad stage span {low}..{high}")
        cached = self._fibers.get((low, high))
        if cached is not None:
            return cached
        if low == high:
            out = tuple(1 << i for i in range(len(self.algebra(low).atoms)))
        else:
            psi = self.steps[high - 1].psi
            out = tuple(_join(psi, mask) for mask in self._lifts(low, high - 1))
        self._fibers[low, high] = out
        return out

    def fiber_map(self, low: int, high: int) -> dict:
        """Atom label of stage ``low`` -> the stage ``high`` element above it."""
        lifts, upper = self._lifts(low, high), self.algebra(high)
        return {a: Element(upper, mask) for a, mask in zip(self.algebra(low).atoms, lifts)}

    def push(self, x: Element, low: int, high: int) -> Element:
        """Embed an element of stage ``low`` into stage ``high``."""
        lifts = self._lifts(low, high)
        self.algebra(low)._require_own(x)
        return x if low == high else Element(self.algebra(high), _join(lifts, x.mask))

    def pull(self, x: Element, high: int, low: int) -> Optional[Element]:
        """Preimage under the embedding, or None if x is not in its range."""
        lifts = self._lifts(low, high)
        self.algebra(high)._require_own(x)
        kept = sum(1 << i for i, lift in enumerate(lifts) if lift & ~x.mask == 0)
        if _join(lifts, kept) != x.mask:
            return None
        return Element(self.algebra(low), kept)

    def transpose(self, stage: int, x: Element) -> Element:
        algebra, swap = self.algebra(stage), self.steps[stage - 1].t
        algebra._require_own(x)
        # the swap is a permutation, so the sum of distinct bits is their join
        return Element(algebra, sum(1 << swap[i] for i in bits(x.mask)))

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

    def _partner_blocks(self, b: Element, prior: Optional[tuple[int, bool]]) -> list:
        """Per top atom index, the mask of its allowed second components.

        ``prior`` is ``latest_matching_step(b)``.
        """
        inside, outside = b.mask, (~b).mask
        if prior is None:
            return [outside if inside >> a & 1 else inside
                    for a in range(len(self.top.atoms))]
        k, _ = prior
        lifts = self._lifts(k, self.top_index)
        t_k = self.steps[k - 1].t
        blocks = [0] * len(self.top.atoms)
        for c, lift in enumerate(lifts):
            partner = lifts[t_k[c]]
            for a in bits(lift):
                # the swap moves across the conditioning event, so partner
                # fibers sit on the other side of b automatically
                assert not partner & (inside if inside >> a & 1 else outside)
                blocks[a] = partner
        return blocks

    def extend(self, b: Element) -> int:
        """Adjoin the conditionals for event b; returns the new stage index.

        b must be an element of the top algebra, strictly between bottom
        and top.
        """
        algebra = self.top
        algebra._require_own(b)
        if not b or b == algebra.top:
            raise TrivialEventError("conditioning event must be nontrivial")
        prior = self.latest_matching_step(b)
        blocks = self._partner_blocks(b, prior)
        sizes = [block.bit_count() for block in blocks]
        count = sum(sizes)
        if count > self.max_atoms:
            raise TowerGrowthError(
                f"extension needs {count} atoms, budget is {self.max_atoms}"
            )
        # the pairs (w, u) run in atom order of w, then of u, so the image
        # of w is the run of sizes[w] pairs from starts[w]
        starts = list(accumulate(sizes, initial=0))
        pairs, t = [], []
        for w, block in enumerate(blocks):
            for u in bits(block):
                assert blocks[u] >> w & 1, "partner blocks are not symmetric"
                pairs.append((w, u))
                # (u, w) follows the partners of u below w in the run of u
                t.append(starts[u] + (blocks[u] & ((1 << w) - 1)).bit_count())
        step = Step(
            index=self.top_index + 1,
            base=b,
            algebra=FiniteBooleanAlgebra(
                f"({algebra.atoms[w]},{algebra.atoms[u]})" for w, u in pairs),
            pairs=tuple(pairs),
            psi=tuple(((1 << n) - 1) << start for n, start in zip(sizes, starts)),
            t=tuple(t),
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
        if not x or x == algebra.top:
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


def _conditional_atom_images(tower: Tower, x: Element) -> tuple["Tower", int, list]:
    """Fork, extend by x, and list [x]{a} in the new stage per atom a."""
    fork = tower.fork()
    new = fork.extend(x)
    lift_x = fork.push(x, new - 1, new).mask
    images = [fork.mirror_closure(new, Element(fork.top, lift & lift_x))
              for lift in fork.step(new).psi]
    return fork, new, images


_EXHAUSTIVE_ATOM_LIMIT = 8  # atoms up to which check_bayes_axioms tries every x


def _axiom_events(
    algebra: FiniteBooleanAlgebra, sample_elements: int = 32, seed: int = 0
) -> list[Element]:
    """The xs check_bayes_axioms tries when none are given."""
    import random

    events = range(1, algebra.size() - 1)
    if len(algebra.atoms) <= _EXHAUSTIVE_ATOM_LIMIT:
        return [Element(algebra, k) for k in events]
    drawn = random.Random(seed).sample(events, min(sample_elements, len(events)))
    return [Element(algebra, k) for k in drawn]


def _axiom_violations(x: Element, extension: tuple) -> list[str]:
    """The laws of check_bayes_axioms for one nontrivial x, read from its
    ``_conditional_atom_images`` result.

    Conditioning the x-extension on its copy x' of x, or on ~x', repeats
    the step that built it, so it would keep one pair (c, p(c)) per atom c,
    p being the partner its blocks give. Through the bijection c -> (c,
    p(c)) the swap of that stage is p, and the conditional of v is
    (v & x') | p(v & x'); so introspection is read off the blocks.
    """
    fork, new, images = extension
    algebra, upper = fork.algebra(new - 1), fork.algebra(new)
    violations = []

    masks = [image.mask for image in images]
    # homomorphism: atom images tile the extension...
    if (_join(masks, algebra.top.mask) != upper.top.mask
            or sum(mask.bit_count() for mask in masks) != len(upper.atoms)):
        violations.append(f"atom images of [{x}]- do not partition the extension")
    # ...and nothing below x collapses
    for i in bits(x.mask):
        if not masks[i]:
            violations.append(f"[{x}]- collapses atom {algebra.atoms[i]}")
    # degenerate above x: [x]x is top
    if _join(masks, x.mask) != upper.top.mask:
        violations.append(f"[x]y != top although x <= y, x={x}, y={x}")
    lift_x = fork.push(x, new - 1, new)
    for i, lift in enumerate(fork.step(new).psi):
        if lift_x.mask & masks[i] != lift_x.mask & lift:
            violations.append(
                f"x & [x]y != x & y for x={x}, y={Element(algebra, 1 << i)}")
    # conditioning the conditional on x (or on ~x) is idempotent
    for again, label in ((lift_x, "x"), (~lift_x, "~x")):
        blocks = fork._partner_blocks(again, fork.latest_matching_step(again))
        if (any(block.bit_count() != 1 for block in blocks)
                or any(blocks[block.bit_length() - 1] != 1 << c
                       for c, block in enumerate(blocks))):
            violations.append(
                f"re-conditioning on {label} is not an atom bijection, x={x}")
            continue
        for i, image in enumerate(masks):
            inside = image & again.mask
            if inside | _join(blocks, inside) != image:
                violations.append(
                    f"[{label}][x]y != [x]y for x={x},"
                    f" y={Element(algebra, 1 << i)}"
                )
                break
    return violations


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
    top, since f is monotone. Each x costs one extension of a fork.

    Algebras of at most eight atoms are checked for every x; larger ones
    for ``sample_elements`` distinct xs drawn with ``seed``, the same
    sample in every process. Returns a list of human-readable violations,
    empty when every law holds.
    """
    algebra = tower.top
    if xs is None:
        xs = _axiom_events(algebra, sample_elements, seed)
    return [line for x in xs if 0 < len(x) < len(algebra.atoms)
            for line in _axiom_violations(x, _conditional_atom_images(tower, x))]
