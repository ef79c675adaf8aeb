"""Reusable proof construction and a corpus of checked derivations.

ProofBuilder appends steps to a derivation and returns their indices;
construction-time assertions catch malformed applications early, and
the checker in :mod:`.proofs` independently validates the result.

The emit_* functions script the standard consequences of the axioms:
conditioning under a settled event is the identity, conditionals
distribute over the connectives, repeated conditioning collapses, and
conditioning respects logical equivalence on both sides.  Each one
takes the builder plus premise line indices and returns the index of
its concluding line, so they compose the way the arguments themselves
do.

``build_corpus`` instantiates all of them with concrete formulas whose
premises are provable outright, yielding a library of fully checked
scripts that exercises every rule of the calculus.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .proofs import AXIOMS, Derivation, ProofStep, is_tautology
from .syntax import (
    BOT,
    Cond,
    Formula,
    Impl,
    Sequent,
    TOP,
    Var,
    as_conj,
    as_disj,
    as_iff,
    as_neg,
    conj,
    disj,
    format_formula,
    iff,
    neg,
)

__all__ = [
    "ProofBuilder",
    "build_corpus",
    "emit_and_distribution",
    "emit_cond_inf",
    "emit_cont_taut_neg",
    "emit_cont_taut_pos",
    "emit_decided_event",
    "emit_disjunction_split",
    "emit_empty_univ",
    "emit_equivalence",
    "emit_fixpoint_split",
    "emit_full_univ",
    "emit_guarded_detachment",
    "emit_iff_distribution",
    "emit_impl_distribution",
    "emit_introspection",
    "emit_left_equiv",
    "emit_or_distribution",
    "emit_relative_monotonicity",
    "emit_repeat_conditioning",
    "emit_right_equiv",
]


def _witness(**parts: Formula) -> Tuple[Tuple[str, str], ...]:
    return tuple((name, format_formula(f)) for name, f in sorted(parts.items()))


class ProofBuilder:
    """Accumulates proof steps; every method returns the new line index."""

    def __init__(self) -> None:
        self.steps: List[ProofStep] = []

    def add(self, sequent: Sequence[Formula], rule: str,
            premises: Tuple[int, ...] = (), note: str = "",
            witness: Tuple[Tuple[str, str], ...] = ()) -> int:
        self.steps.append(
            ProofStep(tuple(sequent), rule, premises, witness, note))
        return len(self.steps) - 1

    def derivation(self, name: str, comment: str = "") -> Derivation:
        return Derivation(name=name, steps=list(self.steps), comment=comment)

    def sequent(self, i: int) -> Sequent:
        return self.steps[i].conclusion

    def _last(self, i: int) -> Formula:
        return self.steps[i].conclusion[-1]

    def _context(self, i: int) -> Sequent:
        return self.steps[i].conclusion[:-1]

    # --- single rules -----------------------------------------------------

    def taut(self, *members: Formula, note: str = "") -> int:
        assert any(is_tautology(f) for f in members), members
        return self.add(members, "TAUT", (), note)

    def mp(self, i: int, j: int, note: str = "") -> int:
        """Detach: line i ends with X, line j ends with X -> Y."""
        x = self._last(i)
        f = self._last(j)
        assert isinstance(f, Impl) and f.left == x, (x, f)
        sequent = self._context(i) + self._context(j) + (f.right,)
        return self.add(sequent, "MP", (i, j), note)

    def permute(self, i: int, target: Sequence[Formula],
                note: str = "") -> int:
        target = tuple(target)
        assert Counter(target) == Counter(self.sequent(i)), (
            self.sequent(i), target)
        return self.add(target, "mP", (i,), note)

    def contract(self, i: int, target: Optional[Sequence[Formula]] = None,
                 note: str = "") -> int:
        if target is None:
            target = tuple(dict.fromkeys(self.sequent(i)))
        target = tuple(target)
        assert set(target) == set(self.sequent(i))
        assert len(target) <= len(self.sequent(i))
        return self.add(target, "mC", (i,), note)

    def weaken(self, i: int, target: Sequence[Formula],
               note: str = "") -> int:
        target = tuple(target)
        assert set(target) >= set(self.sequent(i))
        return self.add(target, "mW", (i,), note)

    def ax_inf_cond(self, i: int, note: str = "") -> int:
        """Split the implication ending line i into ~X and [X]Y."""
        f = self._last(i)
        assert isinstance(f, Impl), f
        sequent = self._context(i) + (neg(f.left), Cond(f.left, f.right))
        return self.add(sequent, "AxInfCond", (i,), note)

    def ax_k(self, x: Formula, y: Formula, z: Formula,
             note: str = "") -> int:
        return self._axiom("AxK", note, x, y, z)

    def ax_cond_inf(self, x: Formula, y: Formula, note: str = "") -> int:
        return self._axiom("AxCondInf", note, x, y)

    def ax_neg(self, x: Formula, y: Formula, note: str = "") -> int:
        return self._axiom("AxNeg", note, x, y)

    def _axiom(self, rule: str, note: str, *formulas: Formula) -> int:
        schema = AXIOMS[rule]
        witness = tuple((name.lower(), format_formula(f))
                        for name, f in zip(schema.metavariables, formulas))
        return self.add((schema.instance(*formulas),), rule, (), note, witness)

    def ax_ind(self, i: int, j: int, note: str = "") -> int:
        """Line i ends with Y <-> ~X, line j with [X]Z <-> Z."""
        pair1 = as_iff(self._last(i))
        assert pair1 is not None, self._last(i)
        y, rhs = pair1
        x = as_neg(rhs)
        assert x is not None, rhs
        pair2 = as_iff(self._last(j))
        assert pair2 is not None and pair2[0] == Cond(x, pair2[1]), (
            self._last(j), x)
        z = pair2[1]
        assert self._context(i) == self._context(j)
        sequent = self._context(i) + (iff(Cond(y, z), z),)
        return self.add(sequent, "AxInd", (i, j), note,
                        witness=_witness(x=x, y=y, z=z))

    # --- composition ------------------------------------------------------

    def tidy(self, i: int, target: Sequence[Formula]) -> int:
        """Contract and permute line i into the exact target sequent."""
        target = tuple(target)
        cur = self.sequent(i)
        if cur == target:
            return i
        if Counter(cur) == Counter(target):
            return self.permute(i, target)
        deduped = tuple(dict.fromkeys(cur))
        j = self.contract(i, deduped) if deduped != cur else i
        if deduped == target:
            return j
        assert Counter(deduped) == Counter(target), (deduped, target)
        return self.permute(j, target)

    def combine(self, premises: Sequence[int], conclusion: Formula,
                target_context: Optional[Sequence[Formula]] = None,
                note: str = "") -> int:
        """Classical consequence of the premises' final members.

        Chains one tautologous implication through detachments against
        each premise in turn, then contracts the accumulated contexts.
        The conclusion line is target_context + (conclusion,) when a
        context is given, the deduplicated accumulation otherwise.
        """
        chain: Formula = conclusion
        for idx in reversed(premises):
            chain = Impl(self._last(idx), chain)
        r = self.taut(chain, note=note)
        for idx in premises:
            r = self.mp(idx, r)
        if target_context is None:
            target = tuple(dict.fromkeys(self.sequent(r)))
        else:
            target = tuple(dict.fromkeys(tuple(target_context) + (conclusion,)))
        return self.tidy(r, target)


# --- scripted consequences --------------------------------------------------


def emit_full_univ(b: ProofBuilder, premise: int, x: Formula,
                   y: Formula) -> int:
    """From G || X conclude G || [X]Y <-> Y: a settled-true event
    conditions trivially."""
    assert b._last(premise) == x
    a1 = b.ax_cond_inf(x, y)
    a2 = b.ax_cond_inf(x, neg(y))
    a3 = b.ax_neg(x, y)
    core = b.combine([a1, a2, a3], Impl(x, iff(Cond(x, y), y)),
                     note="conditioning under the event is the identity")
    return b.mp(premise, core)


def emit_empty_univ(b: ProofBuilder, premise: int, x: Formula,
                    y: Formula) -> int:
    """From G || ~X conclude G || [X]Y <-> Y: a settled-false event
    conditions trivially."""
    assert b._last(premise) == neg(x)
    gamma = b._context(premise)
    d5 = emit_full_univ(b, premise, neg(x), y)
    recoil = iff(x, neg(neg(x)))
    t = b.taut(recoil)
    w = b.weaken(t, gamma + (recoil,)) if gamma else t
    return b.ax_ind(w, d5)


def emit_cont_taut_pos(b: ProofBuilder, premise: int, x: Formula) -> int:
    """From G || Y conclude G || [X]Y."""
    y = b._last(premise)
    gamma = b._context(premise)
    s1 = b.combine([premise], Impl(x, y), target_context=gamma)
    s2 = b.ax_inf_cond(s1)
    s3 = b.permute(s2, gamma + (Cond(x, y), neg(x)))
    d6 = emit_empty_univ(b, s3, x, y)
    return b.combine([premise, d6], Cond(x, y), target_context=gamma)


def emit_cont_taut_neg(b: ProofBuilder, premise: int, x: Formula) -> int:
    """From G || ~Y conclude G || ~[X]Y."""
    ny = b._last(premise)
    y = as_neg(ny)
    assert y is not None, ny
    gamma = b._context(premise)
    pos = emit_cont_taut_pos(b, premise, x)
    n = b.ax_neg(x, y)
    return b.combine([pos, n], neg(Cond(x, y)), target_context=gamma)


def emit_impl_distribution(b: ProofBuilder, x: Formula, y: Formula,
                           z: Formula) -> int:
    """[X](Y -> Z) <-> ([X]Y -> [X]Z)."""
    t1 = b.taut(Impl(neg(y), Impl(y, z)))
    t2 = b.taut(Impl(z, Impl(y, z)))
    c1 = emit_cont_taut_pos(b, t1, x)
    c2 = emit_cont_taut_pos(b, t2, x)
    k1 = b.ax_k(x, neg(y), Impl(y, z))
    m1 = b.mp(c1, k1)
    k2 = b.ax_k(x, z, Impl(y, z))
    m2 = b.mp(c2, k2)
    n = b.ax_neg(x, y)
    w = Cond(x, Impl(y, z))
    m3 = b.combine([m1, n], Impl(neg(Cond(x, y)), w))
    m4 = b.combine([m3, m2], Impl(Impl(Cond(x, y), Cond(x, z)), w))
    k3 = b.ax_k(x, y, z)
    return b.combine([k3, m4], iff(w, Impl(Cond(x, y), Cond(x, z))))


def emit_or_distribution(b: ProofBuilder, x: Formula, y: Formula,
                         z: Formula) -> int:
    """[X](Y | Z) <-> ([X]Y | [X]Z)."""
    d8 = emit_impl_distribution(b, x, neg(y), z)
    n = b.ax_neg(x, y)
    goal = iff(Cond(x, disj(y, z)), disj(Cond(x, y), Cond(x, z)))
    return b.combine([d8, n], goal)


def emit_and_distribution(b: ProofBuilder, x: Formula, y: Formula,
                          z: Formula) -> int:
    """[X](Y & Z) <-> ([X]Y & [X]Z)."""
    q = disj(neg(y), neg(z))
    n1 = b.ax_neg(x, q)
    d8 = emit_impl_distribution(b, x, neg(neg(y)), neg(z))
    n2 = b.ax_neg(x, neg(y))
    n3 = b.ax_neg(x, y)
    n4 = b.ax_neg(x, z)
    goal = iff(Cond(x, conj(y, z)), conj(Cond(x, y), Cond(x, z)))
    return b.combine([n1, d8, n2, n3, n4], goal)


def emit_iff_distribution(b: ProofBuilder, x: Formula, y: Formula,
                          z: Formula) -> int:
    """[X](Y <-> Z) <-> ([X]Y <-> [X]Z)."""
    a = emit_and_distribution(b, x, Impl(y, z), Impl(z, y))
    d1 = emit_impl_distribution(b, x, y, z)
    d2 = emit_impl_distribution(b, x, z, y)
    goal = iff(Cond(x, iff(y, z)), iff(Cond(x, y), Cond(x, z)))
    return b.combine([a, d1, d2], goal)


def emit_right_equiv(b: ProofBuilder, premise: int, x: Formula) -> int:
    """From G || Y <-> Z conclude G || [X]Y <-> [X]Z."""
    pair = as_iff(b._last(premise))
    assert pair is not None, b._last(premise)
    y, z = pair
    gamma = b._context(premise)
    c = emit_cont_taut_pos(b, premise, x)
    d9 = emit_iff_distribution(b, x, y, z)
    return b.combine([c, d9], iff(Cond(x, y), Cond(x, z)),
                     target_context=gamma)


def emit_cond_inf(b: ProofBuilder, x: Formula, y: Formula) -> int:
    """(X & [X]Y) <-> (X & Y): inside the event, the conditional is
    the plain formula."""
    a1 = b.ax_cond_inf(x, neg(y))
    n = b.ax_neg(x, y)
    a2 = b.ax_cond_inf(x, y)
    goal = iff(conj(x, Cond(x, y)), conj(x, y))
    return b.combine([a1, n, a2], goal)


def emit_introspection(b: ProofBuilder, x: Formula) -> int:
    """~X || [X]X."""
    t = b.taut(Impl(x, x))
    return b.ax_inf_cond(t)


def emit_repeat_conditioning(b: ProofBuilder, x: Formula,
                             y: Formula) -> int:
    """[X][X]Y <-> [X]Y: conditioning twice on the same event adds
    nothing."""
    d = Cond(x, Cond(x, y))
    a = Cond(x, y)
    g = Cond(x, x)
    d11 = emit_cond_inf(b, x, y)
    d10 = emit_right_equiv(b, d11, x)
    d9a = emit_and_distribution(b, x, x, a)
    d9b = emit_and_distribution(b, x, x, y)
    step = b.combine([d10, d9a, d9b], Impl(g, iff(d, a)))
    d12 = emit_introspection(b, x)
    m = b.mp(d12, step)
    pm = b.permute(m, (iff(d, a), neg(x)))
    d6 = emit_empty_univ(b, pm, x, a)
    return b.contract(d6)


def emit_left_equiv(b: ProofBuilder, premise: int, y: Formula) -> int:
    """From G || W <-> X conclude G || [W]Y <-> [X]Y."""
    pair = as_iff(b._last(premise))
    assert pair is not None, b._last(premise)
    w, x = pair
    gamma = b._context(premise)
    a_f = Cond(x, y)
    k_f = Cond(w, y)
    g_f = Cond(w, w)
    h_f = Cond(w, a_f)

    negs = b.combine([premise], iff(neg(w), neg(x)), target_context=gamma)
    d13 = emit_repeat_conditioning(b, x, y)
    rep = iff(Cond(x, a_f), a_f)
    lifted = b.weaken(d13, gamma + (rep,)) if gamma else d13
    swapped = b.ax_ind(negs, lifted)
    recoil = iff(w, neg(neg(w)))
    t = b.taut(recoil)
    tw = b.weaken(t, gamma + (recoil,)) if gamma else t
    fixed = b.ax_ind(tw, swapped)

    d12w = emit_introspection(b, w)
    folded = b.combine([d12w, fixed], iff(conj(g_f, h_f), a_f),
                       target_context=gamma + (neg(w),))

    d11x = emit_cond_inf(b, x, y)
    inner = b.combine([premise, d11x], iff(conj(w, a_f), conj(w, y)),
                      target_context=gamma)
    pushed = emit_right_equiv(b, inner, w)
    d9a = emit_and_distribution(b, w, w, a_f)
    d9b = emit_and_distribution(b, w, w, y)
    bridged = b.combine([folded, d9a, pushed, d9b, d12w], iff(k_f, a_f),
                        target_context=gamma + (neg(w),))

    s = b.permute(bridged, gamma + (iff(k_f, a_f), neg(w)))
    d6w = emit_empty_univ(b, s, w, y)
    nx = b.combine([premise, s], neg(x),
                   target_context=gamma + (iff(k_f, a_f),))
    d6x = emit_empty_univ(b, nx, x, y)
    return b.combine([d6w, d6x], iff(k_f, a_f), target_context=gamma)


def emit_equivalence(b: ProofBuilder, premise1: int, premise2: int) -> int:
    """From G || W <-> X and G || Y <-> Z conclude G || [W]Y <-> [X]Z."""
    pair1 = as_iff(b._last(premise1))
    pair2 = as_iff(b._last(premise2))
    assert pair1 is not None and pair2 is not None
    w, x = pair1
    y, z = pair2
    gamma = b._context(premise1)
    assert gamma == b._context(premise2)
    left = emit_left_equiv(b, premise1, y)
    right = emit_right_equiv(b, premise2, x)
    return b.combine([left, right], iff(Cond(w, y), Cond(x, z)),
                     target_context=gamma)


def emit_decided_event(b: ProofBuilder, premise: int, x: Formula,
                       y: Formula) -> int:
    """From G || X || ~X conclude G || [X]Y <-> Y."""
    assert b.sequent(premise)[-2:] == (x, neg(x))
    gamma = b.sequent(premise)[:-2]
    p1 = b.permute(premise, gamma + (neg(x), x))
    d5 = emit_full_univ(b, p1, x, y)
    target = iff(Cond(x, y), y)
    p2 = b.permute(d5, gamma + (target, neg(x)))
    d6 = emit_empty_univ(b, p2, x, y)
    return b.contract(d6)


def emit_fixpoint_split(b: ProofBuilder, premise: int) -> int:
    """From G || [X]X <-> X conclude G || ~X || X."""
    pair = as_iff(b._last(premise))
    assert pair is not None and isinstance(pair[0], Cond)
    x = pair[1]
    assert pair[0] == Cond(x, x)
    gamma = b._context(premise)
    d12 = emit_introspection(b, x)
    return b.combine([d12, premise], x, target_context=gamma + (neg(x),))


def emit_guarded_detachment(b: ProofBuilder, p_iff: int,
                            p_impl: int) -> int:
    """From G || [X]Y <-> Y and G || X -> Y conclude G || ~X || Y."""
    f = b._last(p_impl)
    assert isinstance(f, Impl), f
    x, y = f.left, f.right
    assert b._last(p_iff) == iff(Cond(x, y), y)
    gamma = b._context(p_impl)
    s1 = b.ax_inf_cond(p_impl)
    return b.combine([s1, p_iff], y, target_context=gamma + (neg(x),))


def emit_disjunction_split(b: ProofBuilder, p_iff: int, p_or: int) -> int:
    """From G || [X]Y <-> Y and G || X | Y conclude G || X || Y."""
    pair = as_disj(b._last(p_or))
    assert pair is not None, b._last(p_or)
    x, y = pair
    assert b._last(p_iff) == iff(Cond(x, y), y)
    gamma = b._context(p_or)
    s1 = b.ax_inf_cond(p_or)
    recoil = iff(neg(x), neg(x))
    t = b.taut(recoil)
    tw = b.weaken(t, gamma + (recoil,)) if gamma else t
    ind = b.ax_ind(tw, p_iff)
    r = b.combine([s1, ind], y, target_context=gamma + (neg(neg(x)),))
    pr = b.permute(r, gamma + (y, neg(neg(x))))
    t3 = b.taut(Impl(neg(neg(x)), x))
    m = b.mp(pr, t3)
    return b.permute(m, gamma + (x, y))


def emit_relative_monotonicity(b: ProofBuilder, p_mono: int, p_y: int,
                               p_z: int) -> int:
    """From G || (X & Y) -> (X & Z), G || [X]Y <-> Y, G || [X]Z <-> Z
    conclude G || ~X || Y -> Z."""
    f = b._last(p_mono)
    assert isinstance(f, Impl), f
    lhs = as_conj(f.left)
    rhs = as_conj(f.right)
    assert lhs is not None and rhs is not None and lhs[0] == rhs[0]
    x, y = lhs
    z = rhs[1]
    assert b._last(p_y) == iff(Cond(x, y), y)
    assert b._last(p_z) == iff(Cond(x, z), z)
    gamma = b._context(p_mono)
    c = emit_cont_taut_pos(b, p_mono, x)
    d8 = emit_impl_distribution(b, x, conj(x, y), conj(x, z))
    d9a = emit_and_distribution(b, x, x, y)
    d9b = emit_and_distribution(b, x, x, z)
    d12 = emit_introspection(b, x)
    return b.combine([c, d8, d9a, d9b, p_y, p_z, d12], Impl(y, z),
                     target_context=gamma + (neg(x),))


# --- the corpus ---------------------------------------------------------------


def _corpus_entries():
    x, y, z, w, g = Var("x"), Var("y"), Var("z"), Var("w"), Var("g")

    def axiom_distribution(b: ProofBuilder) -> None:
        b.ax_k(x, y, z)

    def axiom_detachment(b: ProofBuilder) -> None:
        b.ax_cond_inf(x, y)

    def axiom_negation_swap(b: ProofBuilder) -> None:
        b.ax_neg(x, y)

    def conditioning_under_truth(b: ProofBuilder) -> None:
        premise = b.taut(g, disj(x, neg(x)))
        emit_full_univ(b, premise, disj(x, neg(x)), y)

    def conditioning_under_falsity(b: ProofBuilder) -> None:
        premise = b.taut(g, neg(conj(x, neg(x))))
        emit_empty_univ(b, premise, conj(x, neg(x)), y)

    def top_conditioning_is_identity(b: ProofBuilder) -> None:
        premise = b.taut(TOP)
        emit_full_univ(b, premise, TOP, y)

    def bottom_conditioning_is_identity(b: ProofBuilder) -> None:
        premise = b.taut(neg(BOT))
        emit_empty_univ(b, premise, BOT, y)

    def conditional_of_truth(b: ProofBuilder) -> None:
        premise = b.taut(TOP)
        emit_cont_taut_pos(b, premise, x)

    def no_conditional_of_falsity(b: ProofBuilder) -> None:
        premise = b.taut(neg(BOT))
        emit_cont_taut_neg(b, premise, x)

    def implication_distribution(b: ProofBuilder) -> None:
        emit_impl_distribution(b, x, y, z)

    def conjunction_distribution(b: ProofBuilder) -> None:
        emit_and_distribution(b, x, y, z)

    def disjunction_distribution(b: ProofBuilder) -> None:
        emit_or_distribution(b, x, y, z)

    def equivalence_distribution(b: ProofBuilder) -> None:
        emit_iff_distribution(b, x, y, z)

    def body_replacement(b: ProofBuilder) -> None:
        premise = b.taut(iff(y, neg(neg(y))))
        emit_right_equiv(b, premise, x)

    def conditioning_restricts(b: ProofBuilder) -> None:
        emit_cond_inf(b, x, y)

    def self_support(b: ProofBuilder) -> None:
        emit_introspection(b, x)

    def conditioning_idempotent(b: ProofBuilder) -> None:
        emit_repeat_conditioning(b, x, y)

    def congruence(b: ProofBuilder) -> None:
        p1 = b.taut(g, iff(conj(w, w), w))
        p2 = b.taut(g, iff(y, neg(neg(y))))
        emit_equivalence(b, p1, p2)

    def decided_event_conditioning(b: ProofBuilder) -> None:
        event = disj(x, neg(x))
        premise = b.taut(g, event, neg(event))
        emit_decided_event(b, premise, event, y)

    def fixed_point_excluded_middle(b: ProofBuilder) -> None:
        settled = b.taut(TOP)
        p = emit_full_univ(b, settled, TOP, TOP)
        emit_fixpoint_split(b, p)

    def guarded_detachment(b: ProofBuilder) -> None:
        event = disj(x, neg(x))
        c = emit_cont_taut_pos(b, b.taut(event), x)
        p_iff = b.combine([c], iff(Cond(x, event), event))
        p_impl = b.taut(Impl(x, event))
        emit_guarded_detachment(b, p_iff, p_impl)

    def disjunction_split(b: ProofBuilder) -> None:
        c = emit_cont_taut_pos(b, b.taut(TOP), x)
        p_iff = b.combine([c], iff(Cond(x, TOP), TOP))
        p_or = b.taut(disj(x, TOP))
        emit_disjunction_split(b, p_iff, p_or)

    def relative_monotonicity(b: ProofBuilder) -> None:
        c = emit_cont_taut_pos(b, b.taut(TOP), x)
        p_iff = b.combine([c], iff(Cond(x, TOP), TOP))
        p_mono = b.taut(Impl(conj(x, TOP), conj(x, TOP)))
        emit_relative_monotonicity(b, p_mono, p_iff, p_iff)

    return [
        ("axiom-distribution",
         "conditionals distribute over implication, one direction",
         axiom_distribution),
        ("axiom-detachment",
         "a conditional entails the plain implication",
         axiom_detachment),
        ("axiom-negation-swap",
         "negation moves through the conditional prefix",
         axiom_negation_swap),
        ("conditioning-under-truth",
         "an event established in context conditions trivially",
         conditioning_under_truth),
        ("conditioning-under-falsity",
         "an event refuted in context conditions trivially",
         conditioning_under_falsity),
        ("top-conditioning-is-identity",
         "conditioning on T changes nothing",
         top_conditioning_is_identity),
        ("bottom-conditioning-is-identity",
         "conditioning on F changes nothing",
         bottom_conditioning_is_identity),
        ("conditional-of-truth",
         "[x]T holds outright",
         conditional_of_truth),
        ("no-conditional-of-falsity",
         "[x]F is refutable outright",
         no_conditional_of_falsity),
        ("implication-distribution",
         "conditionals distribute over implication, both directions",
         implication_distribution),
        ("conjunction-distribution",
         "conditionals distribute over conjunction",
         conjunction_distribution),
        ("disjunction-distribution",
         "conditionals distribute over disjunction",
         disjunction_distribution),
        ("equivalence-distribution",
         "conditionals distribute over equivalence",
         equivalence_distribution),
        ("body-replacement",
         "equivalent bodies give equivalent conditionals",
         body_replacement),
        ("conditioning-restricts",
         "inside the event, the conditional reduces to the formula",
         conditioning_restricts),
        ("self-support",
         "an event conditions itself unless it fails",
         self_support),
        ("conditioning-idempotent",
         "repeating the same conditioning collapses",
         conditioning_idempotent),
        ("congruence",
         "conditioning respects equivalence on both sides",
         congruence),
        ("decided-event-conditioning",
         "a decided event conditions trivially",
         decided_event_conditioning),
        ("fixed-point-excluded-middle",
         "a self-conditioning fixed point decides its event",
         fixed_point_excluded_middle),
        ("guarded-detachment",
         "detach an implication under a conditioning guard",
         guarded_detachment),
        ("disjunction-split",
         "split a disjunction whose branch conditions trivially",
         disjunction_split),
        ("relative-monotonicity",
         "monotone consequence inside the conditioning event",
         relative_monotonicity),
    ]


def build_corpus() -> Dict[str, Derivation]:
    """All scripted derivations, keyed by name."""
    corpus: Dict[str, Derivation] = {}
    for name, comment, build in _corpus_entries():
        b = ProofBuilder()
        build(b)
        corpus[name] = b.derivation(name, comment)
    return corpus
