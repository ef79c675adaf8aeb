"""Exact probability on extension towers.

A distribution assigns each atom of one tower stage a nonnegative scalar
mass summing to one; masses are plain rationals or, when null events have
to be smoothed away, rational functions of the infinitesimal ``e``. The
masses run in the algebra's atom order, so P(x) sums them over the set
bits of x's mask; atom labels appear only where masses enter or leave as
text. A distribution on a stage extends to the next extension stage by
the block rule: the pair atom (w, u) gets mass P(w) * P(u) / P(block(w)),
where block(w) is the set of permitted second components for w. The embedded
copy of the lower stage keeps its probabilities exactly, and the total
mass stays one, so conditional events acquire probabilities consistent
with every stage below.

Consistency with the stages below fixes only the total mass of each
block, not its interior split. The block rule is our completion of that
underdetermined induction: it spreads every block in product form, the
one choice that makes the second coordinate an independent re-run of
the first, and check_conditional_laws plus the acceptance tests pin its
consequences (product law, marginal preservation, independence from the
complement) across whole tower families.

The block rule divides by block masses, so it needs them nonzero. A base
distribution with null atoms is first mixed with an infinitesimal portion
of a strictly positive one: Q = (1 - e) P + e R. Taking standard parts of
the extended masses afterwards recovers ordinary rational probabilities.

The search helper at the bottom shows why the conditional must live in an
extension: already on a three-atom algebra no single element has, across
two given distributions at once, the probability that conditionals are
required to have.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .bayes import Tower, _axiom_events, _axiom_violations, _conditional_atom_images
from .boolalg import Element, FiniteBooleanAlgebra, bits
from .field import (
    EPSILON,
    InfinitesimalScalar,
    Scalar,
    as_scalar,
    format_scalar,
    parse_scalar,
    standard_part,
)

__all__ = [
    "Distribution",
    "NullEventError",
    "base_distribution",
    "prob_of",
    "make_tangible",
    "standard_project",
    "extend_distribution",
    "verify_conditional_law",
    "check_conditional_laws",
    "verify_events",
    "lewis_candidates",
    "distribution_to_json",
    "distribution_from_json",
]


class NullEventError(ValueError):
    """An event with probability zero was needed as a divisor."""


@dataclass
class Distribution:
    """Atom masses for one stage of a tower, as a tuple in the algebra's
    atom order: ``masses[i]`` is the mass of the atom at bit i of every
    element's mask."""

    algebra: FiniteBooleanAlgebra
    masses: tuple
    stage: int = 0

    def __post_init__(self):
        if len(self.masses) != len(self.algebra.atoms):
            raise ValueError("need one mass per atom")
        self.masses = tuple(map(as_scalar, self.masses))
        total = None
        for atom, mass in zip(self.algebra.atoms, self.masses):
            if mass < 0:
                raise ValueError(f"negative mass at {atom}")
            total = mass if total is None else total + mass
        if total != 1:
            raise ValueError(f"masses sum to {format_scalar(total)}, not 1")

    def is_strictly_positive(self) -> bool:
        return all(m > 0 for m in self.masses)

    def is_rational(self) -> bool:
        return all(isinstance(m, Fraction) for m in self.masses)


def base_distribution(
    algebra: FiniteBooleanAlgebra,
    masses: Union[dict, Iterable[Union[Scalar, int, str]]],
    stage: int = 0,
) -> Distribution:
    """Build a distribution from a mapping or an atom-ordered sequence.

    Keys are atoms (their labels), in any order; values may be scalars or
    scalar text like ``"1/4"`` or ``"(1 - e)/2"``.
    """
    if isinstance(masses, dict):
        if set(masses) != set(algebra.atoms):
            raise ValueError("masses must cover exactly the algebra's atoms")
        masses = [masses[atom] for atom in algebra.atoms]
    return Distribution(
        algebra,
        [parse_scalar(m) if isinstance(m, str) else m for m in masses],
        stage,
    )


def prob_of(dist: Distribution, x: Element) -> Scalar:
    dist.algebra._require_own(x)
    return _total(dist.masses, x.mask)


def _total(masses: Sequence, mask: int) -> Scalar:
    """The sum of masses[i] over the set bits i of mask, lowest first."""
    return sum(map(masses.__getitem__, bits(mask)), Fraction(0))


def make_tangible(dist: Distribution, mode: str = "uniform") -> Distribution:
    """Mix in an infinitesimal strictly positive part: Q = (1 - e)P + eR.

    mode "uniform" spreads the witness R evenly; mode "hahn_witness"
    gives the i-th atom (i = 1..n) the mass e^i / (e + ... + e^n), so
    distinct null atoms end up at distinct infinitesimal orders.
    """
    if not dist.is_rational():
        raise ValueError("distribution is already infinitesimal-valued")
    n = len(dist.masses)
    if mode == "uniform":
        ref = [InfinitesimalScalar.from_rational(Fraction(1, n))] * n
    elif mode == "hahn_witness":
        ref = [InfinitesimalScalar([0] * i + [1], [1] * n) for i in range(n)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    one = InfinitesimalScalar.from_rational(1)
    keep = one - EPSILON
    masses = [keep * m + EPSILON * r for m, r in zip(dist.masses, ref)]
    return Distribution(dist.algebra, masses, dist.stage)


def standard_project(dist: Distribution) -> Distribution:
    """Forget the infinitesimal part of every mass."""
    return Distribution(
        dist.algebra, [standard_part(m) for m in dist.masses], dist.stage)


def _extend_once(tower: Tower, dist: Distribution) -> Distribution:
    step, lower = tower.step(dist.stage + 1), dist.masses
    masses = []
    # the image of w is its run of pairs (w, u); their u make up w's block
    for w, run in enumerate(step.psi):
        seconds = [step.pairs[p][1] for p in bits(run)]
        block = sum(map(lower.__getitem__, seconds), Fraction(0))
        if block == 0:
            if lower[w] != 0:
                raise NullEventError(
                    f"block of {dist.algebra.atoms[w]} has probability 0; "
                    "make the base distribution strictly positive first"
                )
            carried = [Fraction(0)] * len(seconds)
        else:
            carried = [lower[w] * lower[u] / block for u in seconds]
        # the embedded copy of the lower stage keeps its probabilities
        total = sum(carried, Fraction(0))
        if total != lower[w]:
            raise RuntimeError(
                f"block rule broke the embedding at {dist.algebra.atoms[w]}: its"
                f" pairs carry {format_scalar(total)}, not"
                f" {format_scalar(lower[w])}"
            )
        masses += carried
    return Distribution(step.algebra, masses, dist.stage + 1)


def extend_distribution(
    tower: Tower,
    dist: Distribution,
    to_stage: Optional[int] = None,
    positivity: str = "error",
) -> Distribution:
    """Extend a distribution up the tower via the block rule.

    positivity says what to do when a zero-mass block is hit: "error"
    raises NullEventError; "uniform" or "hahn_witness" restart from the
    original distribution perturbed at its own stage (see _tangible).
    """
    if to_stage is None:
        to_stage = tower.top_index
    if not dist.stage <= to_stage <= tower.top_index:
        raise ValueError(f"cannot extend from stage {dist.stage} to {to_stage}")
    current = dist
    try:
        while current.stage < to_stage:
            current = _extend_once(tower, current)
    except NullEventError:
        if positivity == "error":
            raise
        current = _tangible(dist, positivity)
        while current.stage < to_stage:
            current = _extend_once(tower, current)
    return current


def _tangible(dist: Distribution, positivity: str) -> Distribution:
    """The one perturbation rule: unless positivity is "error", a dist with
    a null atom becomes make_tangible(dist, positivity) at its own stage,
    before the block rule extends it. Masses already in Q(e) are not
    perturbed again; a null atom among them raises NullEventError.
    """
    if positivity == "error" or dist.is_strictly_positive():
        return dist
    if not dist.is_rational():
        null = next(a for a, m in zip(dist.algebra.atoms, dist.masses) if m == 0)
        raise NullEventError(
            f"{null} has probability 0 and the masses are already in Q(e);"
            " give every atom a nonzero mass"
        )
    return make_tangible(dist, mode=positivity)


def _conditional_law(
    tower: Tower,
    at_top: Distribution,
    x: Element,
    ys: list[Element],
    positivity: str,
    extension: Optional[tuple] = None,
) -> list:
    """Check the conditional law of [x]y for each y in ys, extending by x once.

    at_top is the distribution at the tower's top stage. [x]y is read off
    as ``Tower.conditional`` in mode "auto" finds it: y itself for x bottom
    or top, the value at the top when x repeats an earlier step and that
    step answers y, and otherwise the element of the extension by x. That
    extension and its distribution are built once, only if some y needs
    them; ``extension`` is that of ``_conditional_atom_images`` when the
    caller already built it. There [x]- is a Boolean homomorphism whose atom
    images are pairwise disjoint (check_bayes_axioms checks that they
    partition the extension), so P([x]y) and P([x]y & ~x) are sums over y's
    atoms of per-atom masses, and marginal preservation depends on x alone;
    it holds by construction (see below), so every report says it holds.

    Returns one report per y, with the keys of verify_conditional_law but
    ``p_conditional_std``; where [x]y needs the extension and its block
    rule meets a null block, the NullEventError takes the report's place.
    The tower is not changed.
    """
    top = tower.top
    p_x = prob_of(at_top, x)
    p_not_x = prob_of(at_top, ~x)
    if not x or x == top.top:
        values = list(ys)
    else:
        prior = tower.latest_matching_step(x)
        values = [tower._shortcut(prior, y) for y in ys]

    fresh = null = None
    if any(value is None for value in values):
        fork, new, images = extension or _conditional_atom_images(tower, x)
        # marginals hold by construction: _extend_once checks that each atom
        # of the top keeps its mass in at_new, and the null restart, which
        # would extend a perturbed at_top instead, cannot fire, because both
        # callers pass a distribution that _tangible has already made positive
        try:
            at_new = extend_distribution(fork, at_top, new, positivity)
        except NullEventError as exc:
            null = exc
        else:
            # corollary: the conditional is independent of the complement of x
            not_x = fork.push(~x, new - 1, new).mask
            value_mass = [_total(at_new.masses, image.mask) for image in images]
            not_x_mass = [_total(at_new.masses, image.mask & not_x) for image in images]
            fresh = new, value_mass, not_x_mass

    reports = []
    for y, value in zip(ys, values):
        if value is not None:
            stage = tower.top_index
            p_value = prob_of(at_top, value)
            p_value_not_x = prob_of(at_top, ~x & value)
        elif fresh is None:
            reports.append(null)
            continue
        else:
            stage, value_mass, not_x_mass = fresh
            p_value = _total(value_mass, y.mask)
            p_value_not_x = _total(not_x_mass, y.mask)
        p_xy = _total(at_top.masses, x.mask & y.mask)
        reports.append({
            "stage": stage,
            "p_x": p_x,
            "p_x_and_y": p_xy,
            "p_conditional": p_value,
            "product_matches": p_value * p_x == p_xy,
            "marginals_preserved": True,
            "independent_of_complement": p_value * p_not_x == p_value_not_x,
        })
    return reports


def verify_conditional_law(
    tower: Tower,
    dist: Distribution,
    x: Element,
    y: Element,
    positivity: str = "error",
) -> dict:
    """Check P([x]y) * P(x) == P(x & y) and marginal preservation, exactly.

    x and y are elements of the tower's top algebra; dist may sit at any
    stage at or below the top. Works on a fork, so the tower is unchanged.
    Returns a report with the probabilities involved and three booleans.
    """
    fork = tower.fork()
    at_top = extend_distribution(
        fork, _tangible(dist, positivity), fork.top_index, positivity)
    [report] = _conditional_law(fork, at_top, x, [y], positivity)
    if isinstance(report, NullEventError):
        raise report
    report["p_conditional_std"] = standard_part(report["p_conditional"])
    return report


_LAWS = (
    ("product", "product_matches", "product_failures"),
    ("marginal", "marginals_preserved", "marginal_failures"),
    ("independence", "independent_of_complement", "independence_failures"),
)
_WITNESS_LIMIT = 5  # failing (law, x, y) triples kept by check_conditional_laws


def check_conditional_laws(
    tower: Tower,
    dist: Distribution,
    xs: list[Element],
    positivity: str = "error",
    axiom_xs: Sequence[Element] = (),
) -> dict:
    """The checks of verify_conditional_law for every x in xs and every y,
    and those of check_bayes_axioms for every x in axiom_xs.

    y runs over the whole top algebra, and each distinct x of either list
    costs at most one extension of the tower, read by both checks, and one
    of the distribution. A pair whose extension meets a
    null block is counted as skipped; unless positivity is "error", dist
    is first made strictly positive (see _tangible), so only "error"
    skips pairs. Returns the counts ``pairs``,
    ``product_failures``, ``marginal_failures``, ``independence_failures``
    and ``skipped_null``; ``witnesses``: the first few failing
    (law, x, y) triples, in the order of xs and then of the top's
    elements; and ``axiom_failures``: check_bayes_axioms(tower, axiom_xs).
    Works on a fork, so the tower is unchanged.
    """
    fork = tower.fork()
    ys = list(fork.top.elements())
    out = dict.fromkeys(["pairs", "skipped_null"] + [key for _, _, key in _LAWS], 0)
    witnesses = out["witnesses"] = []
    # the extensions of xs in both lists wait here for the law pass
    law_xs, axioms, kept = set(xs), {}, {}
    for x in axiom_xs:
        if x not in axioms and 0 < len(x) < len(fork.top.atoms):
            extension = _conditional_atom_images(fork, x)
            axioms[x] = _axiom_violations(x, extension)
            if x in law_xs:
                kept[x] = extension
    out["axiom_failures"] = [line for x in axiom_xs for line in axioms.get(x, ())]
    dist = _tangible(dist, positivity)
    try:
        at_top = extend_distribution(fork, dist, fork.top_index, positivity)
    except NullEventError:
        out["pairs"] = out["skipped_null"] = len(xs) * len(ys)
        return out
    for x in xs:
        reports = _conditional_law(fork, at_top, x, ys, positivity, kept.pop(x, None))
        for y, report in zip(ys, reports):
            out["pairs"] += 1
            if isinstance(report, NullEventError):
                out["skipped_null"] += 1
                continue
            for law, holds, failures in _LAWS:
                if not report[holds]:
                    out[failures] += 1
                    if len(witnesses) < _WITNESS_LIMIT:
                        witnesses.append((law, x, y))
    return out


def verify_events(algebra: FiniteBooleanAlgebra) -> tuple[list, list]:
    """The (xs, axiom_xs) ``verify`` checks: every element of an algebra of
    at most 16 elements, else eight distinct events strictly between bottom
    and top spread over the index range; and check_bayes_axioms' own xs."""
    size = algebra.size()
    if size <= 16:
        xs = list(algebra.elements())
    else:
        xs = [algebra.element_at(1 + k * 97 % (size - 2)) for k in range(8)]
    return xs, _axiom_events(algebra)


def lewis_candidates(
    algebra: FiniteBooleanAlgebra,
    x: Element,
    y: Element,
    dists: list[Distribution],
) -> list[Element]:
    """Elements whose probability equals P(x & y) / P(x) under every dist.

    A conditional event inside the base algebra would have to be one of
    these simultaneously for all distributions; an empty result shows no
    element of the algebra can play that role.
    """
    out = []
    for k in range(algebra.size()):
        candidate = algebra.element_at(k)
        if all(
            prob_of(d, candidate) * prob_of(d, x) == prob_of(d, x & y)
            for d in dists
        ):
            out.append(candidate)
    return out


def distribution_to_json(dist: Distribution) -> dict:
    return {
        "stage": dist.stage,
        "masses": {
            a: format_scalar(m) for a, m in zip(dist.algebra.atoms, dist.masses)
        },
    }


def distribution_from_json(tower: Tower, data: dict) -> Distribution:
    stage = data.get("stage", 0)
    if type(stage) is not int or not 0 <= stage <= tower.top_index:
        raise ValueError(f"stage {stage!r} is not a stage of the tower"
                         f" (0..{tower.top_index})")
    return base_distribution(tower.algebra(stage), dict(data["masses"]), stage)
