"""Acceptance gate: one test per stated criterion, one printed verdict each.

Every test computes its verdict first, prints a single line

    criterion N: PASS|FAIL - detail

through capsys.disabled() so the line appears even when the assertion
that follows fails, and only then asserts.

The conditioning-law checks lean on one structural fact: the map
y -> [x]y is a union of per-atom images, so both sides of every law
compared here are additive over unions of atoms.  Checking the atom
generators therefore settles all 2^n events y at once, which keeps the
all-pairs claims exact at linear cost per conditioning event x; the
events x themselves are enumerated literally.
"""

import random
from fractions import Fraction
from functools import cache

from bayesalg.bayes import Tower, cantor_pair, cantor_unpair, check_bayes_axioms
from bayesalg.boolalg import FiniteBooleanAlgebra, parse_element
from bayesalg.field import EPSILON, standard_part
from bayesalg.prob import (
    base_distribution,
    extend_distribution,
    lewis_candidates,
    make_tangible,
    prob_of,
    verify_conditional_law,
)
from bayesalg.dbl import (
    build_corpus,
    check_derivation,
    default_bases,
    holds,
    parse_sequent,
    random_valuation,
    search_counterexample,
)
from bayesalg.dbl.syntax import atom_names


def _emit(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- the tower family shared by criteria 1, 2 and 9 ---------------------

@cache
def _family() -> tuple:
    """Every conditioning sequence from 2- and 3-atom bases while all
    stages stay at <= 8 atoms (depth <= 4 and <= 2 respectively), plus
    the depth-3/4 chains that re-condition one event repeatedly."""
    towers = []
    for names, max_depth in (("a,b", 4), ("a,b,c", 2)):
        base = FiniteBooleanAlgebra.from_names(names)
        frontier = [Tower(base)]
        towers.append(frontier[0])
        for _ in range(max_depth):
            grown = []
            for tower in frontier:
                top = tower.top
                for k in range(1, top.size() - 1):
                    fork = tower.fork()
                    fork.extend(top.element_at(k))
                    grown.append(fork)
            towers.extend(grown)
            frontier = grown
    for names in ("a,b", "a,b,c"):
        base = FiniteBooleanAlgebra.from_names(names)
        for k in range(1, base.size() - 1):
            for depth in (3, 4):
                tower = Tower(base)
                b = base.element_at(k)
                tower.extend(b)
                for _ in range(depth - 1):
                    tower.extend(tower.push(b, 0, tower.top_index))
                towers.append(tower)
    return tuple(towers)


@cache
def _spot_towers() -> tuple:
    """Two deeper towers with larger stages, still inside 64 atoms."""
    def fresh_element(tower, size):
        for element in tower.top.elements():
            if len(element.atoms) != size:
                continue
            if tower.latest_matching_step(element) is None:
                return element
        raise AssertionError("no fresh element of the requested size")

    first = Tower(FiniteBooleanAlgebra.from_names("a,b,c"))
    first.extend(parse_element(first.top, "{a}"))
    first.extend(fresh_element(first, 2))
    first.extend(fresh_element(first, 4))          # 2*4*4 = 32 atoms

    second = Tower(FiniteBooleanAlgebra.from_names("a,b,c"))
    second.extend(parse_element(second.top, "{a,b}"))
    second.extend(fresh_element(second, 2))
    second.extend(fresh_element(second, 3))        # 2*3*5 = 30 atoms
    return first, second


def _positive_masses(algebra, rng, zero_at=None):
    weights = [rng.randint(1, 9) for _ in algebra.atoms]
    if zero_at is not None:
        weights[zero_at] = 0
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


# --- criterion 1: the conditioning laws, exhaustively --------------------

def _law_violations(tower) -> list:
    """Laws B, D, I, Ind over every element pair of the top algebra."""
    problems = []
    algebra = tower.top
    atoms = algebra.atoms
    for k in range(1, algebra.size() - 1):
        x = algebra.element_at(k)
        fork = tower.fork()
        stage = fork.extend(x)
        upper = fork.algebra(stage)
        lift_x = fork.push(x, stage - 1, stage)
        img = {}
        for a in atoms:
            cut = fork.push(algebra.atom_element(a), stage - 1, stage) & lift_x
            img[a] = fork.mirror_closure(stage, cut)
        # B: the images of the atoms below x tile the extension with no
        # overlap and no collapse, so y -> [x]y embeds [bottom, x]
        # isomorphically
        tiles = [img[a] for a in x.atoms]
        if any(not tile.atoms for tile in tiles):
            problems.append(f"law B: [{x}] collapses an atom below x")
            continue
        union = frozenset().union(*(tile.atoms for tile in tiles))
        if sum(len(tile.atoms) for tile in tiles) != len(union):
            problems.append(f"law B: [{x}] atom images overlap")
        if union != frozenset(upper.atoms):
            problems.append(f"law B: [{x}] atom images do not cover the extension")
        # D: x <= y forces [x]y = top; by monotonicity of unions the
        # single check on y = x settles every larger y
        if upper.element(union) != upper.top:
            problems.append(f"law D: [{x}]{x} is not the top of the extension")
        # I: x & [x]y == x & y on each atom generator
        for a in atoms:
            lifted = fork.push(algebra.atom_element(a), stage - 1, stage)
            if lift_x & img[a] != lift_x & lifted:
                problems.append(f"law I: x & [x]y != x & y at x={x}")
                break
        # Ind: conditioning the result on x, or on its complement,
        # changes nothing; again per atom generator
        for again in (lift_x, ~lift_x):
            refork = fork.fork()
            deeper = refork.extend(again)
            lift_again = refork.push(again, stage, deeper)
            for a in atoms:
                z = refork.push(img[a], stage, deeper)
                if refork.mirror_closure(deeper, z & lift_again) != z:
                    problems.append(f"law Ind: re-conditioning moves [{x}]y")
                    break
    return problems


def test_criterion_1_conditioning_laws(capsys):
    towers = _family()
    events = 0
    problems = []
    for tower in towers:
        problems.extend(_law_violations(tower))
        events += tower.top.size() - 2
    # literal per-pair cross-check with the library checker where cheap
    for tower in towers:
        if len(tower.top.atoms) <= 4:
            problems.extend(check_bayes_axioms(tower))
    # sampled spot checks on the larger towers
    spots = _spot_towers()
    for tower in spots:
        assert len(tower.top.atoms) <= 64
        problems.extend(check_bayes_axioms(tower, sample_elements=12, seed=5))
    ok = not problems
    detail = (
        f"laws exact (B partition, D decidedness, I import, Ind idempotence)"
        f" on {len(towers)} towers ({events} conditioning events),"
        f" {len(spots)} sampled spot towers"
        if ok
        else f"{len(problems)} violations, first: {problems[0]}"
    )
    _emit(capsys, 1, ok, detail)
    assert ok, problems[:5]


# --- criterion 2: the product law for extended probabilities -------------

def _product_law_problems(tower, dist, exhaustive, rng, counted,
                          sample_size=8, marginals="all"):
    """P([x]y) * P(x) == P(x & y) for every event pair at the top.

    For a first conditioning by x the per-atom images are pairwise
    disjoint (their two halves sit on opposite sides of x), so
    y -> P([x]y) is additive over disjoint unions of atoms, as are
    y -> P(x & y) and multiplication by the constant P(x): the per-atom
    checks settle every y exactly.  When x repeats an earlier
    conditioning the images may overlap and additivity fails, so those
    x sweep every y literally over the unioned cover.

    exhaustive picks every nontrivial x, else a seeded sample.
    counted accumulates [conditioning events, literal pairs].
    marginals limits the transport re-check to the first event when the
    scalar arithmetic is expensive; the product checks always run.
    """
    problems = []
    top = tower.top
    at_top = extend_distribution(tower, dist, tower.top_index)
    if exhaustive:
        x_indices = range(1, top.size() - 1)
    else:
        x_indices = sorted(rng.sample(range(1, top.size() - 1),
                                      min(sample_size, top.size() - 2)))
    for position, k in enumerate(x_indices):
        x = top.element_at(k)
        fork = tower.fork()
        stage = fork.extend(x)
        up = extend_distribution(fork, at_top, stage)
        if marginals == "all" or position == 0:
            for a, mass in zip(top.atoms, at_top.masses):
                lifted = fork.push(top.atom_element(a), stage - 1, stage)
                if prob_of(up, lifted) != mass:
                    problems.append(f"marginal not preserved under [{x}]")
                    break
        lift_x = fork.push(x, stage - 1, stage)
        img = {}
        for a in top.atoms:
            cut = fork.push(top.atom_element(a), stage - 1, stage) & lift_x
            img[a] = fork.mirror_closure(stage, cut)
        p_x = prob_of(at_top, x)
        counted[0] += 1
        if tower.latest_matching_step(x) is None:
            for a in top.atoms:
                wanted = prob_of(at_top, x & top.atom_element(a))
                if prob_of(up, img[a]) * p_x != wanted:
                    problems.append(f"product law fails under [{x}]")
                    break
        else:
            zero = p_x * 0
            up_mass = dict(zip(up.algebra.atoms, up.masses))
            for j in range(top.size()):
                y = top.element_at(j)
                cover = frozenset()
                for a in (x & y).atoms:
                    cover |= img[a].atoms
                p_value = zero
                for a in cover:
                    p_value = p_value + up_mass[a]
                counted[1] += 1
                if p_value * p_x != prob_of(at_top, x & y):
                    problems.append(f"product law fails at x={x}, y={y}")
    return problems


def test_criterion_2_probability_extension(capsys):
    towers = _family()
    rng = random.Random(2)
    problems = []
    rational_counts = [0, 0]
    eps_counts = [0, 0]
    for index, tower in enumerate(towers):
        base = tower.algebra(0)
        dist = base_distribution(base, _positive_masses(base, rng))
        assert dist.is_strictly_positive()
        problems.extend(
            _product_law_problems(tower, dist, True, rng, rational_counts))
        # a few pairs through the reference checker as a tie-in
        top = tower.top
        for _ in range(2):
            x = top.element_at(rng.randrange(1, top.size() - 1))
            y = top.element_at(rng.randrange(top.size()))
            report = verify_conditional_law(tower, dist, x, y)
            if not (report["product_matches"] and report["marginals_preserved"]
                    and report["independent_of_complement"]):
                problems.append(f"reference checker disagrees at x={x}, y={y}")
        # a zero-mass atom forces the infinitesimal field
        zero_at = rng.randrange(len(base.atoms))
        veiled = base_distribution(
            base, _positive_masses(base, rng, zero_at=zero_at))
        mode = "hahn_witness" if index % 7 == 0 else "uniform"
        tangible = make_tangible(veiled, mode=mode)
        if not tangible.is_strictly_positive():
            problems.append("make_tangible left a null atom")
        problems.extend(
            _product_law_problems(
                tower, tangible, top.size() <= 16, rng, eps_counts,
                sample_size=5, marginals="first"))
        # the standard projection recovers the base masses exactly
        at_top = extend_distribution(tower, tangible, tower.top_index)
        for i, a in enumerate(base.atoms):
            lifted = tower.push(base.atom_element(a), 0, tower.top_index)
            if standard_part(prob_of(at_top, lifted)) != veiled.masses[i]:
                problems.append(f"standard projection moved the mass of atom {i}")
    ok = not problems
    detail = (
        "product law exact for all pairs via atom generators on"
        f" {rational_counts[0]} rational and {eps_counts[0]} eps-field"
        f" conditioning events ({rational_counts[1]} + {eps_counts[1]}"
        f" literal re-conditioning pairs) across {len(towers)} towers;"
        " standard projection preserves every base mass"
        if ok
        else f"{len(problems)} failures, first: {problems[0]}"
    )
    _emit(capsys, 2, ok, detail)
    assert ok, problems[:5]


# --- criterion 3: no internal conditional, external one works ------------

def test_criterion_3_no_internal_conditional(capsys):
    algebra = FiniteBooleanAlgebra.from_names("a,c,d")
    x = parse_element(algebra, "{a,c}")
    y = parse_element(algebra, "{a,d}")
    dists = [
        base_distribution(algebra, ["1/4", "1/4", "1/2"]),
        base_distribution(algebra, ["1/6", "1/3", "1/2"]),
    ]
    candidates = lewis_candidates(algebra, x, y, dists)
    external_ok = True
    for dist in dists:
        tower = Tower(algebra)
        value, stage = tower.conditional(x, y)
        if stage != 1 or not value.atoms:
            external_ok = False
        report = verify_conditional_law(Tower(algebra), dist, x, y)
        if not (report["product_matches"] and report["marginals_preserved"]
                and report["independent_of_complement"]):
            external_ok = False
    ok = candidates == [] and external_ok
    detail = (
        "lewis_candidates finds no element of the 8-element algebra carrying"
        " the conditional for both distributions; [x]y in the extension"
        " satisfies the product law for each"
        if ok
        else f"candidates={candidates}, external_ok={external_ok}"
    )
    _emit(capsys, 3, ok, detail)
    assert ok


# --- criterion 4: re-conditioning is an exact bijection ------------------

def test_criterion_4_idempotent_reconditioning(capsys):
    rng = random.Random(4)
    problems = []
    cases = 0
    for names in ("a,b", "a,b,c"):
        base = FiniteBooleanAlgebra.from_names(names)
        for k in range(1, base.size() - 1):
            cases += 1
            tower = Tower(base)
            b = base.element_at(k)
            first = tower.extend(b)
            second = tower.extend(tower.push(b, 0, first))
            lower = tower.algebra(first)
            upper = tower.algebra(second)
            if len(lower.atoms) != len(upper.atoms):
                problems.append(f"{names} [{b}]: atom counts differ")
                continue
            fibers = tower.fiber_map(first, second)
            if any(len(f) != 1 for f in fibers.values()):
                problems.append(f"{names} [{b}]: a fiber is not a singleton")
            covered = frozenset().union(*fibers.values())
            if covered != frozenset(upper.atoms):
                problems.append(f"{names} [{b}]: fibers miss an atom")
            dist = base_distribution(base, _positive_masses(base, rng))
            at_first = extend_distribution(tower, dist, first)
            at_second = extend_distribution(tower, at_first, second)
            for a, mass in zip(lower.atoms, at_first.masses):
                lifted = tower.push(lower.atom_element(a), first, second)
                if prob_of(at_second, lifted) != mass:
                    problems.append(f"{names} [{b}]: mass not transported")
                    break
    ok = not problems
    detail = (
        f"{cases} double conditionings are atom-bijective and transport"
        " every mass exactly"
        if ok else f"{len(problems)} failures, first: {problems[0]}"
    )
    _emit(capsys, 4, ok, detail)
    assert ok, problems


# --- criterion 5: growth count of a first conditioning -------------------

def test_criterion_5_growth_count(capsys):
    letters = "a,b,c,d,e"
    problems = []
    cases = 0
    for m in range(1, 5):
        for m_prime in range(1, 5):
            if m + m_prime > 5:
                continue
            cases += 1
            names = ",".join(letters.split(",")[: m + m_prime])
            base = FiniteBooleanAlgebra.from_names(names)
            x = base.element(frozenset(base.atoms[:m]))
            tower = Tower(base)
            stage = tower.extend(x)
            got = len(tower.algebra(stage).atoms)
            if got != 2 * m * m_prime:
                problems.append(f"(m={m}, m'={m_prime}): {got} atoms")
    ok = not problems
    detail = (
        f"first conditioning yields exactly 2*m*m' atoms in all {cases}"
        " cases with m + m' <= 5"
        if ok else f"{len(problems)} failures: {problems}"
    )
    _emit(capsys, 5, ok, detail)
    assert ok, problems


# --- criterion 6: the pairing function ------------------------------------

def test_criterion_6_pairing_roundtrip(capsys):
    bound = 10 ** 5
    bad = None
    for n in range(bound):
        i, j = cantor_unpair(n)
        if cantor_pair(i, j) != n or i > n or j > n:
            bad = (n, i, j)
            break
    ok = bad is None
    detail = (
        f"unpair/pair roundtrip exact for all n < {bound}, both"
        " coordinates always <= n"
        if ok else f"roundtrip breaks at {bad}"
    )
    _emit(capsys, 6, ok, detail)
    assert ok, bad


# --- criterion 7: ordered-field laws in both fields ----------------------

def _field_law_problems(draw, iterations, rng) -> list:
    problems = []
    zero = draw(rng) * 0
    one = zero + 1
    for _ in range(iterations):
        a, b, c = draw(rng), draw(rng), draw(rng)
        if a + b != b + a or (a + b) + c != a + (b + c):
            problems.append("addition laws fail")
        if a * b != b * a or (a * b) * c != a * (b * c):
            problems.append("multiplication laws fail")
        if a * (b + c) != a * b + a * c:
            problems.append("distributivity fails")
        if a + (-a) != zero or a + zero != a or a * one != a:
            problems.append("identity or inverse fails")
        if a != zero and a * (one / a) != one:
            problems.append("reciprocal fails")
        if sum((a < b, a == b, b < a)) != 1:
            problems.append("trichotomy fails")
        if a < b and not a + c < b + c:
            problems.append("order is not translation invariant")
        if zero < a and zero < b and not zero < a * b:
            problems.append("positives do not multiply to a positive")
        sa, sb = standard_part(a), standard_part(b)
        if standard_part(a + b) != sa + sb or standard_part(a * b) != sa * sb:
            problems.append("standard part is not a ring morphism")
        if problems:
            break
    return problems


def _draw_rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _draw_eps(rng):
    num = (Fraction(rng.randint(-9, 9))
           + Fraction(rng.randint(-9, 9)) * EPSILON
           + Fraction(rng.randint(-9, 9)) * EPSILON * EPSILON)
    den = Fraction(rng.randint(1, 9)) + Fraction(rng.randint(-9, 9)) * EPSILON
    return num / den


def test_criterion_7_field_laws(capsys):
    per_field = 5000
    rng = random.Random(7)
    problems = _field_law_problems(_draw_rational, per_field, rng)
    problems += _field_law_problems(_draw_eps, per_field, rng)
    positives = 0
    for _ in range(200):
        r = Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
        positives += 1
        if not (0 * EPSILON < EPSILON < r):
            problems.append(f"epsilon is not strictly between 0 and {r}")
            break
    ok = not problems
    detail = (
        f"{per_field} ordered-field law draws per field pass exactly;"
        " standard part is a ring morphism; 0 < e < every sampled"
        f" positive rational ({positives} of them)"
        if ok else problems[0]
    )
    _emit(capsys, 7, ok, detail)
    assert ok, problems


# --- criterion 8: the derivation corpus and the soundness harness --------

def test_criterion_8_corpus_and_soundness(capsys):
    corpus = build_corpus()
    problems = []
    for name, derivation in sorted(corpus.items()):
        reports = check_derivation(derivation)
        bad = [r for r in reports if not r.ok]
        if bad:
            problems.append(f"{name}: step {bad[0].index} {bad[0].message}")
    axioms = [
        parse_sequent("[x](y -> z) -> ([x]y -> [x]z)"),
        parse_sequent("[x]y -> (x -> y)"),
        parse_sequent("[x]~y <-> ~[x]y"),
    ]
    sequents = axioms + [d.conclusion for _, d in sorted(corpus.items())]
    algebras = default_bases()
    valuations_each = 0
    rng = random.Random(8)
    for sequent in sequents:
        names = set()
        for member in sequent:
            names |= atom_names(member)
        count = 0
        for algebra in algebras:
            tower = Tower(algebra)
            for _ in range(167):
                assignment = random_valuation(algebra, names, rng)
                count += 1
                if not holds(tower, assignment, sequent):
                    problems.append(f"counterexample to {sequent}")
                    break
        valuations_each = count
    non_theorem = parse_sequent("[x]y <-> y")
    found = search_counterexample(non_theorem)
    if found is None:
        problems.append("the non-theorem was not falsified")
    else:
        replay = Tower(found.tower.algebra(0))
        if holds(replay, found.valuation.assignment, non_theorem):
            problems.append("the returned counterexample does not refute")
        if "atoms" not in found.describe() or "assignment" not in found.describe():
            problems.append("counterexample report is incomplete")
    ok = not problems
    detail = (
        f"all {len(corpus)} derivations validate; no counterexample to"
        f" {len(sequents)} sequents over {valuations_each} valuations each;"
        " [x]y <-> y is falsified with a certified witness"
        if ok else f"{len(problems)} failures, first: {problems[0]}"
    )
    _emit(capsys, 8, ok, detail)
    assert ok, problems[:5]


# --- criterion 9: shortcut and fresh paths agree --------------------------

def test_criterion_9_shortcut_agreement(capsys):
    problems = []
    cases = 0
    api_ties = 0
    for tower in _family():
        if tower.top_index == 0:
            continue
        top_stage = tower.top_index
        top = tower.top
        seen = set()
        for step_index in range(1, top_stage + 1):
            step = tower.step(step_index)
            image = tower.push(step.base, step_index - 1, top_stage)
            for x in (image, ~image):
                if not x.atoms or x.atoms == frozenset(top.atoms):
                    continue
                if x.atoms in seen:
                    continue
                seen.add(x.atoms)
                matched = tower.latest_matching_step(x)
                assert matched is not None
                low = matched[0]
                fork = tower.fork()
                shortcuts = []
                for e in fork.algebra(low).elements():
                    y = fork.push(e, low, top_stage)
                    value, at = fork.conditional(x, y, mode="shortcut")
                    shortcuts.append((y, value, at))
                stage = fork.extend(x)
                lift_x = fork.push(x, stage - 1, stage)
                for y, value, at in shortcuts:
                    cases += 1
                    lifted_y = fork.push(y, stage - 1, stage)
                    fresh = fork.mirror_closure(stage, lifted_y & lift_x)
                    if fork.push(value, at, stage) != fresh:
                        problems.append(f"paths disagree at x={x}, y={y}")
                # tie the inlined fresh value to the public entry point once
                y, value, at = shortcuts[-1]
                other = tower.fork()
                via_api, api_stage = other.conditional(x, y, mode="fresh")
                lifted_y = fork.push(y, stage - 1, stage)
                if via_api != fork.mirror_closure(stage, lifted_y & lift_x):
                    problems.append(f"fresh path differs from the API at x={x}")
                else:
                    api_ties += 1
    ok = not problems and cases > 0
    detail = (
        f"shortcut and fresh paths agree through the stage embedding in"
        f" {cases} applicable cases ({api_ties} re-validated via the"
        " public conditional)"
        if ok else f"{len(problems)} disagreements, first: {problems[0]}"
    )
    _emit(capsys, 9, ok, detail)
    assert ok, problems[:5]
