"""Derivation checking for the conditional sequent calculus.

A derivation is a list of steps.  Each step states a sequent and names
the rule that justifies it, with premise references given as 0-based
indices of earlier steps.  The rules:

    TAUT        no premises; some member of the sequent is a
                propositional tautology when its maximal conditional and
                variable subformulas are read as opaque letters
    MP          from |- G || X  and  |- D || X -> Y  infer |- G || D || Y
    mP          from a permutation of the sequent
    mC          drop duplicate members
    mW          insert extra members
    AxInfCond   from |- G || X -> Y  infer |- G || ~X || [X]Y
    AxK         |- [X](Y -> Z) -> ([X]Y -> [X]Z)
    AxCondInf   |- [X]Y -> (X -> Y)
    AxNeg       |- [X]~Y <-> ~[X]Y
    AxInd       from |- G || Y <-> ~X  and  |- G || [X]Z <-> Z
                infer |- G || [Y]Z <-> Z

MP and AxInfCond locate the active formula at any position; the listed
shapes are recovered by permutation.  AxInd requires the two premises
and the conclusion to share the context G verbatim, with the pattern
formula in last position.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .syntax import (
    Bot,
    Cond,
    Formula,
    Impl,
    Sequent,
    Var,
    as_iff,
    as_neg,
    format_sequent,
    iff,
    neg,
    parse_sequent,
)

__all__ = [
    "Derivation",
    "ProofStep",
    "RULES",
    "StepReport",
    "check_derivation",
    "derivation_from_json",
    "derivation_to_json",
    "is_tautology",
    "opaque_letters",
]

RULES = (
    "TAUT", "MP", "mP", "mC", "mW",
    "AxInfCond", "AxK", "AxCondInf", "AxNeg", "AxInd",
)

_RULE_ARITY = {
    "TAUT": 0, "MP": 2, "mP": 1, "mC": 1, "mW": 1,
    "AxInfCond": 1, "AxK": 0, "AxCondInf": 0, "AxNeg": 0, "AxInd": 2,
}

_LETTER_LIMIT = 16


@dataclass(frozen=True)
class ProofStep:
    """One derivation line.

    ``witness`` optionally records the substitution behind a schema
    step as (metavariable, formula text) pairs; the checker validates
    the conclusion structurally either way.
    """

    conclusion: Sequent
    rule: str
    premises: Tuple[int, ...] = ()
    witness: Tuple[Tuple[str, str], ...] = ()
    note: str = ""


@dataclass
class Derivation:
    name: str
    steps: List[ProofStep] = field(default_factory=list)
    comment: str = ""

    @property
    def conclusion(self) -> Sequent:
        return self.steps[-1].conclusion


@dataclass
class StepReport:
    index: int
    rule: str
    ok: bool
    message: str
    sequent: Sequent


def opaque_letters(f: Formula) -> List[Formula]:
    """Maximal conditional and variable subformulas, first-seen order."""
    seen: Dict[Formula, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, (Var, Cond)):
            seen.setdefault(g, None)
        elif isinstance(g, Impl):
            walk(g.left)
            walk(g.right)

    walk(f)
    return list(seen)


def is_tautology(f: Formula) -> bool:
    """Propositional tautology over the opaque letters of f.

    All 2**k rows are evaluated at once: bit r of an int is row r, and
    letter i is true in the rows whose bit i is set.
    """
    letters = opaque_letters(f)
    if len(letters) > _LETTER_LIMIT:
        raise ValueError(
            f"tautology check over {len(letters)} letters exceeds the"
            f" limit of {_LETTER_LIMIT}")
    full = (1 << (1 << len(letters))) - 1
    # blocks of 2**i false rows then 2**i true rows, repeated
    columns = {letter: full // ((1 << (1 << i)) + 1) << (1 << i)
               for i, letter in enumerate(letters)}

    def column(g: Formula) -> int:
        if isinstance(g, Bot):
            return 0
        if isinstance(g, Impl):
            return (full & ~column(g.left)) | column(g.right)
        return columns[g]

    return column(f) == full


def _without(s: Sequent, at: int) -> Tuple[Formula, ...]:
    return s[:at] + s[at + 1:]


def _check_taut(step: ProofStep, premises: Sequence[Sequent]) -> Optional[str]:
    for f in step.conclusion:
        if is_tautology(f):
            return None
    return "no member is a propositional tautology over its opaque letters"


def _match_mp(conclusion: Sequent, s1: Sequent, s2: Sequent) -> bool:
    for p, x in enumerate(s1):
        rest1 = _without(s1, p)
        for q, f in enumerate(s2):
            if isinstance(f, Impl) and f.left == x:
                if conclusion == rest1 + _without(s2, q) + (f.right,):
                    return True
    return False


def _check_mp(step: ProofStep, premises: Sequence[Sequent]) -> Optional[str]:
    s1, s2 = premises
    if _match_mp(step.conclusion, s1, s2) or _match_mp(step.conclusion, s2, s1):
        return None
    return ("conclusion is not context1 + context2 + consequent for any"
            " implication in one premise whose antecedent is a member of"
            " the other")


def _check_perm(step: ProofStep, premises: Sequence[Sequent]) -> Optional[str]:
    if Counter(step.conclusion) == Counter(premises[0]):
        return None
    return "conclusion is not a permutation of the premise"


def _check_contract(step: ProofStep,
                    premises: Sequence[Sequent]) -> Optional[str]:
    if set(step.conclusion) == set(premises[0]) and \
            len(step.conclusion) <= len(premises[0]):
        return None
    return "conclusion does not contract the premise"


def _check_weaken(step: ProofStep,
                  premises: Sequence[Sequent]) -> Optional[str]:
    if set(step.conclusion) >= set(premises[0]):
        return None
    return "conclusion drops a member of the premise"


def _check_inf_cond(step: ProofStep,
                    premises: Sequence[Sequent]) -> Optional[str]:
    s = premises[0]
    for p, f in enumerate(s):
        if isinstance(f, Impl):
            expected = _without(s, p) + (neg(f.left), Cond(f.left, f.right))
            if step.conclusion == expected:
                return None
    return ("conclusion does not replace an implication X -> Y of the"
            " premise by ~X and [X]Y")


def _single(step: ProofStep) -> Optional[Formula]:
    if len(step.conclusion) == 1:
        return step.conclusion[0]
    return None


def _check_ax_k(step: ProofStep, premises: Sequence[Sequent]) -> Optional[str]:
    f = _single(step)
    shape = "[X](Y -> Z) -> ([X]Y -> [X]Z)"
    if f is None:
        return f"an axiom instance must be the single member {shape}"
    if isinstance(f, Impl) and isinstance(f.left, Cond) \
            and isinstance(f.left.body, Impl):
        x = f.left.base
        y = f.left.body.left
        z = f.left.body.right
        if f.right == Impl(Cond(x, y), Cond(x, z)):
            return None
    return f"not an instance of {shape}"


def _check_ax_cond_inf(step: ProofStep,
                       premises: Sequence[Sequent]) -> Optional[str]:
    f = _single(step)
    shape = "[X]Y -> (X -> Y)"
    if f is None:
        return f"an axiom instance must be the single member {shape}"
    if isinstance(f, Impl) and isinstance(f.left, Cond):
        if f.right == Impl(f.left.base, f.left.body):
            return None
    return f"not an instance of {shape}"


def _check_ax_neg(step: ProofStep,
                  premises: Sequence[Sequent]) -> Optional[str]:
    f = _single(step)
    shape = "[X]~Y <-> ~[X]Y"
    if f is None:
        return f"an axiom instance must be the single member {shape}"
    pair = as_iff(f)
    if pair is not None:
        lhs, rhs = pair
        if isinstance(lhs, Cond):
            y = as_neg(lhs.body)
            if y is not None and rhs == neg(Cond(lhs.base, y)):
                return None
    return f"not an instance of {shape}"


def _check_ax_ind(step: ProofStep,
                  premises: Sequence[Sequent]) -> Optional[str]:
    s1, s2 = premises
    c = step.conclusion
    if not (s1 and s2 and c):
        return "premises and conclusion must be nonempty"
    if not (s1[:-1] == s2[:-1] == c[:-1]):
        return "premises and conclusion must share the context verbatim"
    pair1 = as_iff(s1[-1])
    if pair1 is None:
        return "first premise must end with Y <-> ~X"
    y, rhs = pair1
    x = as_neg(rhs)
    if x is None:
        return "first premise must end with Y <-> ~X"
    pair2 = as_iff(s2[-1])
    if pair2 is None or not isinstance(pair2[0], Cond):
        return "second premise must end with [X]Z <-> Z"
    z = pair2[1]
    if pair2[0] != Cond(x, z):
        return ("second premise must condition on the X negated in the"
                " first premise")
    if c[-1] == iff(Cond(y, z), z):
        return None
    return "conclusion must end with [Y]Z <-> Z"


_CHECKERS = {
    "TAUT": _check_taut,
    "MP": _check_mp,
    "mP": _check_perm,
    "mC": _check_contract,
    "mW": _check_weaken,
    "AxInfCond": _check_inf_cond,
    "AxK": _check_ax_k,
    "AxCondInf": _check_ax_cond_inf,
    "AxNeg": _check_ax_neg,
    "AxInd": _check_ax_ind,
}


def check_derivation(derivation: Derivation) -> List[StepReport]:
    """Validate every step; reports carry a message for each failure."""
    reports: List[StepReport] = []
    for index, step in enumerate(derivation.steps):
        message = _check_step(index, step, derivation.steps)
        reports.append(StepReport(
            index=index,
            rule=step.rule,
            ok=message is None,
            message=message or "ok",
            sequent=step.conclusion,
        ))
    return reports


def _check_step(index: int, step: ProofStep,
                steps: Sequence[ProofStep]) -> Optional[str]:
    if step.rule not in _CHECKERS:
        return f"unknown rule {step.rule!r}"
    arity = _RULE_ARITY[step.rule]
    if len(step.premises) != arity:
        return (f"{step.rule} takes {arity} premise(s),"
                f" {len(step.premises)} given")
    resolved = []
    for ref in step.premises:
        if not 0 <= ref < index:
            return f"premise {ref} is not an earlier step"
        resolved.append(steps[ref].conclusion)
    return _CHECKERS[step.rule](step, resolved)


def derivation_to_json(derivation: Derivation) -> list:
    """Interchange form: an array of steps keyed by conclusion text."""
    return [
        {
            "conclusion": format_sequent(step.conclusion),
            "rule": step.rule,
            "premises": list(step.premises),
            **({"witness": dict(step.witness)} if step.witness else {}),
            **({"note": step.note} if step.note else {}),
        }
        for step in derivation.steps
    ]


def derivation_from_json(data, name: str = "derivation",
                         comment: str = "") -> Derivation:
    """Load a step array; a {"steps": [...]} wrapper is also accepted.

    Each step must be an object whose ``conclusion`` and ``rule`` are
    strings, ``witness`` (if given) an object, and ``premises`` a list of
    step indices (ints, not bools); anything else raises TypeError.
    """
    if isinstance(data, dict):
        name = data.get("name", name)
        comment = data.get("comment", comment)
        data = data["steps"]
    if not isinstance(data, list):
        raise TypeError(f"expected a list of steps, got {data!r}")
    steps = []
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise TypeError(f"step {index}: expected an object, got {item!r}")
        for key in ("conclusion", "rule"):
            if not isinstance(item[key], str):
                raise TypeError(f"step {index}: \"{key}\" must be a string,"
                                f" got {item[key]!r}")
        premises = item.get("premises", [])
        if not (isinstance(premises, list)
                and all(type(ref) is int for ref in premises)):
            raise TypeError(f"step {index}: \"premises\" must be a list of"
                            f" step indices, got {premises!r}")
        witness = item.get("witness", {})
        if not isinstance(witness, dict):
            raise TypeError(f"step {index}: \"witness\" must be an object,"
                            f" got {witness!r}")
        steps.append(ProofStep(
            conclusion=parse_sequent(item["conclusion"]),
            rule=item["rule"],
            premises=tuple(premises),
            witness=tuple(sorted(witness.items())),
            note=item.get("note", ""),
        ))
    return Derivation(name=name, steps=steps, comment=comment)
