"""Why no element of the base algebra can be the conditional.

A conditional event for "y given x" inside the base algebra would be a
single element whose probability equals P(x & y) / P(x) no matter which
distribution is in force. This script enumerates every element of a
three-atom algebra under two distributions, watches the candidate set
shrink to nothing, and then builds the tower extension where the
conditional does exist and satisfies the product law.
"""

from bayesalg.bayes import Tower
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element
from bayesalg.prob import (
    base_distribution,
    extend_distribution,
    lewis_candidates,
    prob_of,
    verify_conditional_law,
)

algebra = FiniteBooleanAlgebra(("a", "c", "d"))
x = parse_element(algebra, "{a,c}")
y = parse_element(algebra, "{a,d}")
dists = [
    base_distribution(algebra, {"a": "1/4", "c": "1/4", "d": "1/2"}),
    base_distribution(algebra, {"a": "1/6", "c": "1/3", "d": "1/2"}),
]

print(f"base algebra: atoms a, c, d; x = {x}, y = {y}")
for k, dist in enumerate(dists, start=1):
    target = prob_of(dist, x & y) / prob_of(dist, x)
    print(f"\ndistribution {k}: "
          + ", ".join(f"P({a}) = {m}" for a, m in zip(algebra.atoms, dist.masses)))
    print(f"  P(y | x) = {target}")
    for i in range(algebra.size()):
        candidate = algebra.element_at(i)
        mark = "  <- candidate" if prob_of(dist, candidate) == target else ""
        print(f"  P({candidate}) = {prob_of(dist, candidate)}{mark}")

per_dist = [lewis_candidates(algebra, x, y, [d]) for d in dists]
both = lewis_candidates(algebra, x, y, dists)
print("\ncandidates under distribution 1:",
      ", ".join(map(str, per_dist[0])) or "none")
print("candidates under distribution 2:",
      ", ".join(map(str, per_dist[1])) or "none")
print("candidates under both:          ", ", ".join(map(str, both)) or "none")
assert both == []
print("so no element of the 8-element base algebra works for both.")

print("\nExtending the algebra instead:")
tower = Tower(algebra)
cond, stage = tower.conditional(x, y)
print(f"  [x]y = {cond} at stage {stage}"
      f" ({len(tower.algebra(stage).atoms)} atoms)")
for k, dist in enumerate(dists, start=1):
    lifted = extend_distribution(tower, dist, stage)
    x_up = tower.push(x, 0, stage)
    y_up = tower.push(y, 0, stage)
    p_cond = prob_of(lifted, cond)
    print(f"  distribution {k}: P([x]y) = {p_cond}, "
          f"P([x]y) * P(x) = {p_cond * prob_of(dist, x)} "
          f"= P(x & y) = {prob_of(lifted, x_up & y_up)}")
    report = verify_conditional_law(Tower(algebra), dist, x, y)
    assert report["product_matches"] and report["marginals_preserved"]
print("one fresh element carries the conditional for every distribution.")
