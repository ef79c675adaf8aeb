"""Seeded request generators and output oracles for the three workloads.

A generator writes tower dumps through the package's own CLI (`build`,
`extend`), derivations as `dbl corpus` prints them, and the other inputs as
plain JSON or text, and returns one round of request templates. Templates name base atoms `w<i>` and formula variables with
single letters; `instantiate` gives every request its own copy of its
files under a fresh tag, so no request reads content that an earlier
request already read. Oracles never call the package: they use the tower
model in `model.py`, `fractions`, and sympy for Q(e) values.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from model import TowerModel, mass, parse_set

class Mismatch(Exception):
    """The program's answer disagrees with the oracle."""


@dataclass
class Request:
    kind: str  # the CLI command, as the per-layer metrics name it
    group: str  # shape of the request, for the report
    argv: list  # template argv; "@name" stands for request file `name`
    files: dict  # name -> (template text, relabel mode)
    check: Callable  # check(rc, out, err) raises Mismatch
    weight: float  # rough cost in ms, used only to interleave the round
    symbolic: bool = False  # the oracle needs sympy; checked after the loop


# --- relabelling --------------------------------------------------------------

_ATOM = re.compile(r"(?<![A-Za-z0-9_])w(\d+)(?![A-Za-z0-9_])")
_VAR = re.compile(r"(?<![A-Za-z0-9_])([a-z])(?![A-Za-z0-9_])")
_ATOM_TAGGED = re.compile(r"w\d{5}_(\d+)")
_VAR_TAGGED = re.compile(r"(?<![A-Za-z0-9_])([a-z])_\d{5}")


def _relabel_formula(text: str, tag: str) -> str:
    return _VAR.sub(lambda m: f"{m.group(1)}_{tag}", text)


def relabel(text: str, mode: str, tag: str) -> str:
    if mode == "atoms":
        return _ATOM.sub(lambda m: f"w{tag}_{m.group(1)}", text)
    if mode == "sequents":
        return "\n".join(
            line if line.startswith("#") else _relabel_formula(line, tag)
            for line in text.split("\n"))
    if mode == "derivation":
        steps = json.loads(text)
        for step in steps:
            step["conclusion"] = _relabel_formula(step["conclusion"], tag)
            if "witness" in step:
                step["witness"] = {k: _relabel_formula(v, tag)
                                   for k, v in step["witness"].items()}
        return json.dumps(steps, indent=2)
    raise ValueError(mode)


def relabel_arg(arg: str, tag: str) -> str:
    arg = relabel(arg, "atoms", tag)
    if re.match(r"^[a-z]=", arg):  # a --let binding
        arg = f"{arg[0]}_{tag}{arg[1:]}"
    return arg


def strip_tags(text: str) -> str:
    return _VAR_TAGGED.sub(r"\1", _ATOM_TAGGED.sub(r"w\1", text))


def instantiate(req: Request, tag: str, directory: Path) -> list:
    for name, (text, mode) in req.files.items():
        (directory / name).write_text(relabel(text, mode, tag))
    return [str(directory / a[1:]) if a.startswith("@") else relabel_arg(a, tag)
            for a in req.argv]


def interleave(requests: list, rng: random.Random) -> list:
    """Order a round so that every prefix holds each kind in proportion to
    its share of the round's estimated cost."""
    by_kind: dict = {}
    for r in requests:
        by_kind.setdefault(r.kind, []).append(r)
    placed = []
    for reqs in by_kind.values():
        rng.shuffle(reqs)
        total = sum(r.weight for r in reqs)
        done = 0.0
        for r in reqs:
            placed.append(((done + r.weight / 2) / total, len(placed), r))
            done += r.weight
    return [r for _, _, r in sorted(placed, key=lambda p: p[:2])]


# --- shared generation helpers -----------------------------------------------


class Generator:
    """Writes input files through the CLI into `directory`."""

    def __init__(self, rng: random.Random, cli: Callable, directory: Path):
        self.rng = rng
        self.cli = cli
        self.dir = directory

    def run(self, argv: list) -> str:
        rc, out, err = self.cli(argv)
        if rc != 0:
            raise RuntimeError(f"input generation failed: {argv[:3]}: {err.strip()}")
        return out

    def tower(self, base_size: int, sizes: list) -> tuple[TowerModel, str]:
        """Build a dump with `build` and `extend`; sizes[k] is how many
        stage-k atoms the k-th event holds."""
        base = [f"w{i}" for i in range(base_size)]
        model = TowerModel(base)
        algebra = self.dir / "algebra.json"
        dump = self.dir / "tower.json"
        algebra.write_text(json.dumps({"atoms": base}))
        out = self.run(["build", str(algebra), "-o", str(dump)])
        for m in sizes:
            event = self.event(model, m)
            text = model.ordered(event)
            model.extend(event)
            out = self.run(["extend", str(dump), text])
        if out.splitlines() != model.describe():
            raise RuntimeError("tower dump disagrees with the model:\n" + out)
        return model, dump.read_text()

    def event(self, model: TowerModel, m: int) -> frozenset:
        while True:
            event = frozenset(self.rng.sample(model.top, m))
            if model.is_first(event):
                return event

    def subset(self, atoms: list, k: int) -> frozenset:
        return frozenset(self.rng.sample(atoms, k))

    def weights(self, n: int, low: int, total: int) -> list:
        """n integers of at least `low` summing to `total`. The multiset is
        fixed by (n, low, total) and the seed only shuffles it, so exact
        arithmetic on the masses costs the same from seed to seed."""
        fixed = random.Random(f"{n}:{low}:{total}")
        out = [low] * n
        for _ in range(total - low * n):
            out[fixed.randrange(n)] += 1
        self.rng.shuffle(out)
        return out

    def masses(self, base: list) -> dict:
        total = 6 * len(base)
        return {a: Fraction(w, total)
                for a, w in zip(base, self.weights(len(base), 2, total))}


def _dist_text(masses: dict) -> str:
    return json.dumps({"stage": 0, "masses": {a: str(m) for a, m in masses.items()}})


def _expect(rc_out_err, rc: int):
    got, out, err = rc_out_err
    if got != rc:
        raise Mismatch(f"exit {got}, expected {rc}: {err.strip()[:200]}")
    if err:
        raise Mismatch(f"unexpected stderr: {err.strip()[:200]}")


# --- logic ---------------------------------------------------------------------

_NON_THEOREMS = (
    "[x]y <-> y",
    "x -> [x]y",
    "[x]y <-> [y]x",
    "~[x]y",
    "[x]y | [x]~y -> x",
    "[x]y <-> x & y",
)  # each refuted by a quarter or more of the valuations on every search base

_AXIOMS = (
    "[x](y -> z) -> [x]y -> [x]z",
    "[x]y -> x -> y",
    "[x]~y <-> ~[x]y",
)

_PROPOSITIONAL = {
    "x -> y": lambda v, top: v["x"] <= v["y"],
    "x | y": lambda v, top: v["x"] | v["y"] == top,
    "x & z": lambda v, top: v["x"] & v["z"] == top,
    "~x || y": lambda v, top: not v["x"] or v["y"] == top,
    "x <-> w": lambda v, top: v["x"] == v["w"],
    "g || z": lambda v, top: v["g"] == top or v["z"] == top,
}

_BROKEN = ("conditioning-under-truth", "conditioning-under-falsity",
           "top-conditioning-is-identity", "conditional-of-truth",
           "no-conditional-of-falsity", "conditioning-restricts",
           "decided-event-conditioning", "guarded-detachment",
           "disjunction-split")  # small derivations, so broken copies stay cheap


def _describe_check(expected: list):
    def check(rc, out, err):
        _expect((rc, out, err), 0)
        if strip_tags(out).splitlines() != expected:
            raise Mismatch(f"extend printed {out[-200:]!r}")
    return check


def _cond_check(stage: int, expected: frozenset):
    def check(rc, out, err):
        _expect((rc, out, err), 0)
        head, _, body = strip_tags(out).strip().partition(": ")
        if head != f"stage {stage}" or parse_set(body) != expected:
            raise Mismatch(f"cond printed {out[:120]!r}..., expected stage {stage}")
    return check


def _lines_check(expected: dict, rc: int):
    """expected: line number -> required prefix after 'line N: '."""
    def check(got, out, err):
        _expect((got, out, err), rc)
        seen = {}
        for line in strip_tags(out).splitlines():
            number, _, rest = line.partition(": ")
            seen[int(number.split()[1])] = rest
        for number, prefix in expected.items():
            if not seen.get(number, "").startswith(prefix):
                raise Mismatch(f"line {number}: {seen.get(number)!r}, expected {prefix!r}")
        if set(seen) != set(expected):
            raise Mismatch(f"reported lines {sorted(seen)}, expected {sorted(expected)}")
    return check


def _check_check(name: str, steps: int, broken_at: Optional[int]):
    def check(rc, out, err):
        lines = strip_tags(out).splitlines()
        if broken_at is None:
            _expect((rc, out, err), 0)
            if lines != [f"{name}: ok ({steps} steps)"]:
                raise Mismatch(f"check printed {out[:200]!r}")
        else:
            _expect((rc, out, err), 1)
            if not lines or not lines[0].startswith(f"{name}: step {broken_at} "):
                raise Mismatch(f"broken copy of {name} at step {broken_at}:"
                               f" {out[:200]!r}")
    return check


def gen_logic(g: Generator) -> list:
    from bayesalg.dbl import build_corpus, derivation_to_json  # what `dbl corpus` prints
    rng = g.rng
    reqs = []
    derivations = {name: json.dumps(derivation_to_json(d), indent=2)
                   for name, d in build_corpus().items()}
    conclusions = [json.loads(text)[-1]["conclusion"] for text in derivations.values()]

    # (base atoms, event sizes per stage, fresh event size, fresh and repeat
    # requests per tower); two towers per shape
    shapes = [(12, [6], 12, 10, 3), (4, [2, 4, 8], 2, 2, 2)]
    for base_size, sizes, m, fresh, repeats in shapes:
        for _ in range(2):
            model, dump = g.tower(base_size, sizes)
            files = {"tower.json": (dump, "atoms")}
            top = len(model.stages) - 1
            new_size = 2 * m * (len(model.top) - m)
            for _ in range(fresh):
                event = g.event(model, m)
                reqs.append(Request(
                    "extend", f"extend-fresh-{base_size}",
                    ["extend", "@tower.json", model.ordered(event), "-o", "@out.json"],
                    files, _describe_check(model.describe() + [
                        f"stage {top + 1}: conditioned on {model.ordered(event)},"
                        f" {new_size} atoms"]),
                    weight=3 + new_size / 15))
                x = g.event(model, m)
                y = g.subset(model.top, len(model.top) // 2)
                reqs.append(Request(
                    "cond", f"cond-fresh-{base_size}",
                    ["cond", "@tower.json", model.ordered(x), model.ordered(y)],
                    files, _cond_check(top + 1, model.fresh_conditional(x, y)),
                    weight=3 + new_size / 15))
            # repeats of steps whose repetition stays within 2048 atoms
            stages = [k for k in range(1, top + 1) if model.repeat_count(k) <= 2048]
            for n in range(repeats):
                stage = stages[n % len(stages)]
                negated = rng.random() < 0.5
                event = model.push(model.events[stage - 1], stage - 1)
                if negated:
                    event = model.complement(event)
                count = model.repeat_count(stage)
                side = "complement of " if negated else ""
                reqs.append(Request(
                    "extend", f"extend-repeat-{base_size}",
                    ["extend", "@tower.json", model.ordered(event), "-o", "@out.json"],
                    files, _describe_check(model.describe() + [
                        f"stage {top + 1}: conditioned on {model.ordered(event)},"
                        f" {count} atoms (repeats {side}stage {stage})"]),
                    weight=3 + count / 15))
                y_low = g.subset(model.stages[stage], len(model.stages[stage]) // 2)
                reqs.append(Request(
                    "cond", f"cond-repeat-{base_size}",
                    ["cond", "@tower.json", model.ordered(event),
                     model.ordered(model.push(y_low, stage))],
                    files, _cond_check(top, model.repeat_conditional(stage, negated, y_low)),
                    weight=3 + len(model.top) / 15))

    for n in range(12):
        base = [f"w{i}" for i in range(16)]
        top = frozenset(base)
        values = {v: g.subset(base, 8) for v in "gwxyz"}
        lines = ["# corpus conclusions hold; propositional lines as computed"]
        expected = {}
        for text in conclusions:
            lines.append(text)
            expected[len(lines)] = "holds"
        for text in rng.sample(sorted(_PROPOSITIONAL), 4):
            lines.append(text)
            expected[len(lines)] = "holds" if _PROPOSITIONAL[text](values, top) else "fails"
        lets = [f"{v}={'{' + ','.join(a for a in base if a in s) + '}'}"
                for v, s in values.items()]
        reqs.append(Request(
            "dbl_eval", f"eval-{len(base)}",
            ["dbl", "eval", "@seqs.txt", "--atoms", ",".join(base)]
            + [a for let in lets for a in ("--let", let)],
            {"seqs.txt": ("\n".join(lines) + "\n", "sequents")},
            _lines_check(expected, 1 if "fails" in expected.values() else 0),
            weight=15))

    # every axiom schema and corpus conclusion once per round, two per file;
    # pairing the shortest with the longest keeps the files' costs even
    theorems = sorted(list(_AXIOMS) + conclusions, key=len)
    pairs = [(theorems[n], theorems[-1 - n]) for n in range(len(theorems) // 2)]
    for pair in pairs:
        lines = ["# theorems first, then one known non-theorem"]
        expected = {}
        for text in pair:
            lines.append(text)
            expected[len(lines)] = "no counterexample"
        lines.append(rng.choice(_NON_THEOREMS))
        expected[len(lines)] = "counterexample"
        reqs.append(Request(
            "dbl_search", "search",
            ["dbl", "search", "@seqs.txt", "--budget", "60",
             "--seed", str(rng.randrange(10 ** 6))],
            {"seqs.txt": ("\n".join(lines) + "\n", "sequents")},
            _lines_check(expected, 1), weight=60))

    for name, text in derivations.items():
        steps = json.loads(text)
        reqs.append(Request(
            "dbl_check", "check-corpus", ["dbl", "check", f"@{name}.json"],
            {f"{name}.json": (text, "derivation")},
            _check_check(name, len(steps), None), weight=3 + 0.6 * len(steps)))
    for name in _BROKEN:
        steps = json.loads(derivations[name])
        at = rng.randrange(len(steps))
        steps[at]["conclusion"] = "F"  # no sound step concludes falsum alone
        reqs.append(Request(
            "dbl_check", "check-broken", ["dbl", "check", f"@{name}-broken.json"],
            {f"{name}-broken.json": (json.dumps(steps, indent=2), "derivation")},
            _check_check(f"{name}-broken", len(steps), at),
            weight=3 + 0.6 * len(steps)))
    return reqs


# --- probability workloads ------------------------------------------------------


class _Field:
    """Q(e) for the oracles: sympy's rational function field, imported on
    first use so that its memory is not part of the measured peak."""

    _k = None

    @classmethod
    def value(cls, text: str):
        import sympy
        if cls._k is None:
            cls._e = sympy.Symbol("e")
            cls._k = sympy.QQ.frac_field(cls._e)
        return cls._k.from_sympy(
            sympy.sympify(text.replace("^", "**"), locals={"e": cls._e}))


def _scalar(text: str, symbolic: bool):
    return _Field.value(text) if symbolic else Fraction(text)


def _read_masses(texts: dict, symbolic: bool) -> dict:
    return {a: _scalar(t, symbolic) for a, t in texts.items()}


def _perturbed(masses: dict) -> dict:
    """(1 - e) P + e U, the restart the README documents for --field eps."""
    n = len(masses)
    return {a: _Field.value(f"(1 - e)*({m}) + e/{n}") for a, m in masses.items()}


def _prob_check(mass_texts: dict, x0, y0, symbolic: bool, perturb: bool,
                conditional: bool):
    """answer * P(x) == P(x & y) for a conditional, answer == P(y) for a
    plain lifted event; both sides from the base masses."""
    def check(rc, out, err):
        _expect((rc, out, err), 0)
        masses = _read_masses(mass_texts, symbolic)
        if perturb:
            masses = _perturbed(masses)
        answer = _scalar(out.strip(), symbolic)
        if conditional:
            ok = answer * mass(masses, x0) == mass(masses, x0 & y0)
        else:
            ok = answer == mass(masses, y0)
        if not ok:
            raise Mismatch(f"prob printed {out.strip()!r}")
    return check


def _verify_check(atoms: int):
    size = 1 << atoms
    pairs = size * size if size <= 16 else 8 * size
    expected = ["axioms: ok",
                f"conditional law: {pairs} pairs, 0 product failures,"
                " 0 marginal failures, 0 independence failures,"
                " 0 skipped (null event)"]

    def check(rc, out, err):
        _expect((rc, out, err), 0)
        if out.splitlines() != expected:
            raise Mismatch(f"verify printed {out!r}")
    return check


_RATIO = re.compile(r"^P\((\{.*\}) \| (\{.*\})\) under distribution (\d+): (.+)$")


def _lewis_check(dists: list, x0, y0, symbolic: bool):
    def check(rc, out, err):
        _expect((rc, out, err), 0)
        lines = strip_tags(out).splitlines()
        all_masses = [_read_masses(d, symbolic) for d in dists]
        for k, masses in enumerate(all_masses):
            m = _RATIO.match(lines[k]) if k < len(lines) else None
            if m is None or parse_set(m.group(1)) != y0 or parse_set(m.group(2)) != x0:
                raise Mismatch(f"lewis ratio line {k + 1}: {lines[k:k + 1]}")
            if _scalar(m.group(4), symbolic) * mass(masses, x0) != mass(masses, x0 & y0):
                raise Mismatch(f"lewis ratio {m.group(4)} under distribution {k + 1}")
        prefix = "elements with that probability in every distribution: "
        last = lines[len(dists)] if len(lines) == len(dists) + 1 else ""
        if not last.startswith(prefix):
            raise Mismatch(f"lewis printed {out[-200:]!r}")
        listed = last[len(prefix):]
        for c in ([] if listed == "none" else re.findall(r"\{[^}]*\}", listed)):
            c = parse_set(c)
            for masses in all_masses:
                if mass(masses, c) * mass(masses, x0) != mass(masses, x0 & y0):
                    raise Mismatch(f"lewis candidate {c} fails the equality")
    return check


def _eps_masses(g: Generator, base: list) -> dict:
    """Masses (1 - e)*w/s + e*r/(s + 1). Since w < s, w/s is never r/(s + 1),
    so no mass is rational: a rational mass would mix Fraction and Q(e)
    terms in sums whose order follows set iteration, and the counts of Q(e)
    operations would stop being exact."""
    s = 6 * len(base)
    k = s + 1
    weights, spread = g.weights(len(base), 2, s), g.weights(len(base), 1, k)
    return {a: f"(1 - e)*{w}/{s} + e*{r}/{k}" for a, w, r in zip(base, weights, spread)}


def _prob_requests(g: Generator, model: TowerModel, dump: str, mass_texts: dict,
                   x_size: int, count: int, plain: int, group: str,
                   symbolic: bool, flags: list, perturb_on=None) -> list:
    base = model.stages[0]
    reqs = []
    files = {"tower.json": (dump, "atoms"), "dist.json": (
        json.dumps({"stage": 0, "masses": mass_texts}), "atoms")}
    for n in range(count + plain):
        y0 = g.subset(base, len(base) // 2)
        conditional = n < count
        if conditional:
            while True:
                x0 = perturb_on if perturb_on is not None else g.subset(base, x_size)
                x = model.push(x0, 0)
                if model.is_first(x):
                    break
            query = f"[{model.ordered(x)}]{model.ordered(model.push(y0, 0))}"
            adjoined = 2 * len(x) * (len(model.top) - len(x))
        else:
            x0 = frozenset()
            query = model.ordered(model.push(y0, 0))
            adjoined = 0
        reqs.append(Request(
            "prob", f"{group}-{'cond' if conditional else 'plain'}",
            ["prob", "@tower.json", "@dist.json", query] + flags, files,
            _prob_check(mass_texts, x0, y0, symbolic, perturb_on is not None,
                        conditional),
            weight=(4 + adjoined / 25 + len(model.top) / 10) * (6 if symbolic else 1),
            symbolic=symbolic))
    return reqs


def gen_prob_q(g: Generator) -> list:
    reqs = []
    # (base atoms, event sizes, |x| lifted from the base, conditional, plain)
    for base_size, sizes, x_size, count, plain in (
            (8, [], 4, 3, 2), (8, [4], 4, 6, 2), (12, [6], 5, 4, 2), (4, [2, 4], 2, 10, 2)):
        for _ in range(2):
            model, dump = g.tower(base_size, sizes)
            masses = {a: str(m) for a, m in g.masses(model.stages[0]).items()}
            reqs += _prob_requests(g, model, dump, masses, x_size, count, plain,
                                   f"prob-{base_size}x{len(sizes)}", False, [])
    for base_size, sizes, count in ((4, [], 3), (3, [1], 3), (5, [], 6)):
        model, dump = g.tower(base_size, sizes)
        for _ in range(count):
            masses = _dist_text(g.masses(model.stages[0]))
            reqs.append(Request(
                "verify", f"verify-{base_size}x{len(sizes)}",
                ["verify", "@tower.json", "@dist.json"],
                {"tower.json": (dump, "atoms"), "dist.json": (masses, "atoms")},
                _verify_check(len(model.top)), weight=25 * len(model.top)))
    for n, count, ndists in ((10, 4, 1), (10, 4, 2), (12, 2, 1), (12, 2, 2), (14, 1, 2)):
        for _ in range(count):
            base = [f"w{i}" for i in range(n)]
            dists = [{a: str(m) for a, m in g.masses(base).items()}
                     for _ in range(ndists)]
            x0, y0 = g.subset(base, n // 2), g.subset(base, n // 2)
            reqs.append(_lewis_request(base, dists, x0, y0, False,
                                       weight=0.04 * 2 ** n * (1 + ndists) / 2))
    return reqs


def _lewis_request(base: list, dists: list, x0, y0, symbolic: bool, weight: float):
    model = TowerModel(base)
    files = {"algebra.json": (json.dumps({"atoms": base}), "atoms")}
    for k, d in enumerate(dists):
        files[f"dist{k}.json"] = (json.dumps({"stage": 0, "masses": d}), "atoms")
    return Request(
        "lewis", f"lewis-{len(base)}x{len(dists)}",
        ["lewis", "@algebra.json"] + [f"@dist{k}.json" for k in range(len(dists))]
        + [model.ordered(x0), model.ordered(y0)],
        files, _lewis_check(dists, x0, y0, symbolic), weight=weight,
        symbolic=symbolic)


def gen_prob_eps(g: Generator) -> list:
    reqs = []
    eps = ["--field", "eps"]
    for base_size, sizes, x_size, count, plain in ((4, [], 2, 5, 1), (4, [2], 2, 3, 1)):
        for _ in range(2):
            model, dump = g.tower(base_size, sizes)
            masses = _eps_masses(g, model.stages[0])
            reqs += _prob_requests(g, model, dump, masses, x_size, count, plain,
                                   f"prob-eps-{base_size}x{len(sizes)}", True, eps)
    # rational masses with null atoms: conditioning on them forces the restart
    for base_size, sizes in ((4, []), (4, [2])):
        model, dump = g.tower(base_size, sizes)
        base = model.stages[0]
        nulls = g.subset(base, 2)
        while not model.is_first(model.push(nulls, 0)):
            nulls = g.subset(base, 2)
        masses = g.masses(sorted(frozenset(base) - nulls, key=base.index))
        texts = {a: str(masses.get(a, 0)) for a in base}
        reqs += _prob_requests(g, model, dump, texts, 2, 2, 0,
                               f"prob-null-{base_size}x{len(sizes)}", True, eps,
                               perturb_on=nulls)
    for base_size, sizes, count in ((3, [], 7), (2, [1], 16)):
        model, dump = g.tower(base_size, sizes)
        for _ in range(count):
            masses = json.dumps({"stage": 0, "masses": _eps_masses(g, model.stages[0])})
            reqs.append(Request(
                "verify", f"verify-eps-{base_size}x{len(sizes)}",
                ["verify", "@tower.json", "@dist.json"] + eps,
                {"tower.json": (dump, "atoms"), "dist.json": (masses, "atoms")},
                _verify_check(len(model.top)), weight=300 if base_size == 3 else 40))
    for n, count in ((6, 6), (8, 3)):
        for _ in range(count):
            base = [f"w{i}" for i in range(n)]
            dists = [_eps_masses(g, base) for _ in range(2)]
            x0, y0 = g.subset(base, n // 2), g.subset(base, n // 2)
            reqs.append(_lewis_request(base, dists, x0, y0, True,
                                       weight=0.8 * 2 ** n))
    return reqs


GENERATORS = {"logic": gen_logic, "prob-q": gen_prob_q, "prob-eps": gen_prob_eps}
