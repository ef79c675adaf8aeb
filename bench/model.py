"""Independent arithmetic for the benchmark's oracles.

Nothing here imports the package under test. Towers are re-derived from
the construction the README states: conditioning stage k on an event b
adjoins one atom (w, u) for every ordered pair of stage-k atoms on
opposite sides of b, in atom order, and the pair (w, u) sits above w.
The generator only builds towers whose steps are first conditionings,
so that construction is the whole rule; a repeated event is used only as
the last step of a request, where `repeat_count` gives its size.
"""

from __future__ import annotations

from collections import Counter


def pair(w: str, u: str) -> str:
    return f"({w},{u})"


def split_top(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_set(text: str) -> frozenset:
    """'{a,(a,b)}' -> frozenset of labels."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not an element: {text[:60]!r}")
    inner = text[1:-1]
    return frozenset(split_top(inner)) if inner else frozenset()


class TowerModel:
    """Atom lists of a tower built by first conditionings."""

    def __init__(self, base: list[str]):
        self.stages = [list(base)]
        self.events: list[frozenset] = []  # events[k] lives at stage k
        self.first: list[dict] = [{}]  # stage k atom -> its stage k-1 atom

    @property
    def top(self) -> list[str]:
        return self.stages[-1]

    def fresh_stage(self, event: frozenset) -> tuple[list[str], dict]:
        atoms = self.top
        out, first = [], {}
        for w in atoms:
            for u in atoms:
                if (w in event) != (u in event):
                    label = pair(w, u)
                    out.append(label)
                    first[label] = w
        return out, first

    def extend(self, event: frozenset) -> None:
        if not self.is_first(event):
            raise ValueError("generator asked for a repeated conditioning")
        atoms, first = self.fresh_stage(event)
        self.events.append(frozenset(event))
        self.stages.append(atoms)
        self.first.append(first)

    def ancestor(self, atom: str, high: int, low: int) -> str:
        for k in range(high, low, -1):
            atom = self.first[k][atom]
        return atom

    def push(self, element, low: int, high: int | None = None) -> frozenset:
        high = len(self.stages) - 1 if high is None else high
        element = frozenset(element)
        return frozenset(
            a for a in self.stages[high] if self.ancestor(a, high, low) in element
        )

    def complement(self, element, stage: int | None = None) -> frozenset:
        stage = len(self.stages) - 1 if stage is None else stage
        return frozenset(self.stages[stage]) - frozenset(element)

    def matching_step(self, event) -> tuple[int, bool] | None:
        """(stage created by the step, negated) of the latest step whose
        event, pushed to the top, equals event or its complement."""
        event = frozenset(event)
        comp = self.complement(event)
        for k in range(len(self.events) - 1, -1, -1):
            image = self.push(self.events[k], k)
            if image == event:
                return k + 1, False
            if image == comp:
                return k + 1, True
        return None

    def is_first(self, event) -> bool:
        event = frozenset(event)
        return bool(event) and event != frozenset(self.top) and \
            self.matching_step(event) is None

    def ordered(self, element, stage: int | None = None) -> str:
        stage = len(self.stages) - 1 if stage is None else stage
        element = frozenset(element)
        return "{" + ",".join(a for a in self.stages[stage] if a in element) + "}"

    def describe(self) -> list[str]:
        lines = [f"stage 0: {len(self.stages[0])} atoms"]
        for k, event in enumerate(self.events):
            lines.append(f"stage {k + 1}: conditioned on {self.ordered(event, k)},"
                         f" {len(self.stages[k + 1])} atoms")
        return lines

    # --- answers --------------------------------------------------------

    def fresh_conditional(self, x, y) -> frozenset:
        """[x]y at the stage a first conditioning on x adjoins:
        {(w, u) : w in x & y or u in x & y}."""
        xy = frozenset(x) & frozenset(y)
        atoms, first = self.fresh_stage(frozenset(x))
        out = set()
        for label in atoms:
            w, u = split_top(label[1:-1])
            if w in xy or u in xy:
                out.add(label)
        return frozenset(out)

    def repeat_conditional(self, stage: int, negated: bool, y_low) -> frozenset:
        """[x]y when x repeats the step that made `stage` and y comes from
        that stage: swap-close y & x there, then push to the top."""
        x_low = self.push(self.events[stage - 1], stage - 1, stage)
        if negated:
            x_low = self.complement(x_low, stage)
        z = frozenset(y_low) & x_low
        closed = set(z)
        for label in z:
            w, u = split_top(label[1:-1])
            closed.add(pair(u, w))
        return self.push(closed, stage)

    def repeat_count(self, stage: int) -> int:
        """Atom count of a step that repeats the step that made `stage`:
        each top atom pairs with the fiber over the swap of its ancestor."""
        top = len(self.stages) - 1
        fiber = Counter(self.ancestor(a, top, stage) for a in self.top)
        total = 0
        for a in self.top:
            w, u = split_top(self.ancestor(a, top, stage)[1:-1])
            total += fiber[pair(u, w)]
        return total


def mass(masses: dict, element):
    """Sum of atom masses; the masses may be Fractions or Q(e) values."""
    return sum(masses[a] for a in element)
