"""Exact conditioning on evidence of probability zero.

With ordinary rationals, conditioning on a null event is a division by
zero. This script takes a distribution concentrated on one atom, lets
the block rule fail, then moves the masses into the ordered field of
rationals extended by a positive infinitesimal e. There every event has
nonzero mass, conditioning is total, and answers about ordinary events
come back as exact rationals once the infinitesimal part is dropped.
"""

from bayesalg.bayes import Tower
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element
from bayesalg.field import format_scalar, standard_part
from bayesalg.prob import (
    NullEventError,
    base_distribution,
    extend_distribution,
    make_tangible,
    prob_of,
    standard_project,
)

algebra = FiniteBooleanAlgebra(("a", "c", "d"))
tower = Tower(algebra)
x = parse_element(algebra, "{a,c}")
dist = base_distribution(algebra, {"a": "0", "c": "0", "d": "1"})
print("distribution: P(a) = 0, P(c) = 0, P(d) = 1")
print(f"conditioning event x = {x} has P(x) = {prob_of(dist, x)}")

stage = tower.extend(x)
print(f"\nstage {stage} adjoins the pair atoms:",
      ", ".join(tower.top.atoms))
try:
    extend_distribution(tower, dist, stage)
except NullEventError as exc:
    print(f"rational block rule fails: {exc}")

tangible = make_tangible(dist)
print("\nperturbed to (1 - e) P + e U with U uniform:")
for atom, mass in zip(algebra.atoms, tangible.masses):
    print(f"  P({atom}) = {format_scalar(mass)}")
assert tangible.is_strictly_positive()

lifted = extend_distribution(tower, tangible, stage)
print(f"\nblock rule at stage {stage}:")
for atom, mass in zip(tower.top.atoms, lifted.masses):
    print(f"  P({tower.top.atom_element(atom)}) = {format_scalar(mass)}"
          f"   (standard part {standard_part(mass)})")

y = parse_element(algebra, "{a}")
cond, at = tower.conditional(tower.push(x, 0, stage), tower.push(y, 0, stage))
p_cond = prob_of(extend_distribution(tower, lifted, at), cond)
print(f"\n[x]{y} = {cond} at stage {at}")
print(f"P([x]{y}) = {format_scalar(p_cond)}: the infinitesimals cancel,")
print("so conditioning on the null event still has an exact answer.")

projected = standard_project(lifted)
print("\nits standard projection concentrates all mass over d, matching"
      " the original distribution:")
print("  " + ", ".join(
    f"P({tower.top.atom_element(a)}) = {m}"
    for a, m in zip(tower.top.atoms, projected.masses) if m))
